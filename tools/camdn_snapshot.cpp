// camdn_snapshot — save/load/inspect scheduler snapshots as files.
//
// Snapshots were in-memory byte buffers until this tool: writing the
// versioned encode() format to disk enables cross-process long-horizon
// runs (pause a serving simulation in one process, resume it in another)
// and crash recovery (periodically save, re-load after a crash). The file
// *is* the encoded snapshot — same magic, version and fingerprints, so
// decode rejects truncation, corruption and legacy versions exactly as
// in-process restore does.
//
//   camdn_snapshot save <file> [--kind K] [--boundary CYCLES] [--seed N]
//       runs the built-in demo scenario of K until the first pause point
//       at/after the boundary (mid-layer: transfers may be in flight) and
//       writes the snapshot to <file>;
//   camdn_snapshot load <file> [--kind K] [--seed N]
//       reconstructs the identical scenario, exact-resumes from the file
//       and runs to completion (fingerprints must match the flags);
//   camdn_snapshot inspect <file> [--json]
//       prints the header, in-flight state and section sizes without
//       simulating anything; --json emits one machine-readable JSON
//       object instead (numeric leaves flatten into camdn_report
//       metrics, so snapshots diff like any other run dump).
//
// Scenario kinds: closed, poisson, mmpp, churn, hybrid (closed-loop +
// churn). The scenario is a pure function of the flags, so a file saved by
// one process resumes bit-identically in another.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "model/model_zoo.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "sim/experiment.h"

namespace {

using camdn::cycle_t;
using camdn::event_channel;
using camdn::runtime::sched_event;
using camdn::runtime::scheduler_snapshot;

struct options {
    std::string command;
    std::string file;
    std::string kind = "poisson";
    cycle_t boundary = camdn::ms_to_cycles(2.0);
    std::uint64_t seed = 17;
    std::uint32_t arrivals = 12;
    std::uint32_t slots = 2;
    bool json = false;  ///< inspect: machine-readable output
};

void usage() {
    std::cerr
        << "usage: camdn_snapshot <save|load|inspect> <file>\n"
           "         [--kind closed|poisson|mmpp|churn|hybrid]\n"
           "         [--boundary CYCLES] [--seed N] [--arrivals N] "
           "[--slots N] [--json]\n"
           "save: run the demo scenario to the boundary, snapshot to file\n"
           "load: exact-resume the scenario from file, run to completion\n"
           "inspect: print header, in-flight state and section sizes\n"
           "         (--json: one JSON object for camdn_report)\n";
}

bool parse(int argc, char** argv, options& opt) {
    if (argc < 3) return false;
    opt.command = argv[1];
    opt.file = argv[2];
    for (int i = 3; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--json") {  // valueless
            opt.json = true;
            i -= 1;
            continue;
        }
        if (i + 1 >= argc) return false;  // flag missing its value
        const std::string val = argv[i + 1];
        if (flag == "--kind")
            opt.kind = val;
        else if (flag == "--boundary")
            opt.boundary = std::stoull(val);
        else if (flag == "--seed")
            opt.seed = std::stoull(val);
        else if (flag == "--arrivals")
            opt.arrivals = static_cast<std::uint32_t>(std::stoul(val));
        else if (flag == "--slots")
            opt.slots = static_cast<std::uint32_t>(std::stoul(val));
        else
            return false;
    }
    return opt.command == "save" || opt.command == "load" ||
           opt.command == "inspect";
}

/// The built-in demo scenario: a pure function of the flags, so save and
/// load construct fingerprint-identical configurations across processes.
camdn::sim::experiment_config demo_config(const options& opt) {
    using camdn::runtime::workload_kind;
    using camdn::sim::policy;
    camdn::sim::experiment_config cfg;
    cfg.workload = {&camdn::model::model_by_abbr("MB."),
                    &camdn::model::model_by_abbr("EF.")};
    cfg.co_located = opt.slots;
    cfg.telemetry = true;
    cfg.seed = opt.seed;
    if (opt.kind == "closed") {
        cfg.kind = workload_kind::closed_loop;
        cfg.pol = policy::moca;
        cfg.inferences_per_slot = opt.arrivals;
        cfg.think_time_ms = 1.0;
    } else if (opt.kind == "poisson") {
        cfg.kind = workload_kind::open_loop_poisson;
        cfg.pol = policy::camdn_full;
        cfg.arrival_rate_per_ms = 1.0;
        cfg.total_arrivals = opt.arrivals;
        cfg.admission_queue_limit = 8;
    } else if (opt.kind == "mmpp") {
        cfg.kind = workload_kind::open_loop_mmpp;
        cfg.pol = policy::camdn_adaptive;
        cfg.arrival_rate_per_ms = 1.0;
        cfg.mmpp_rate_scale = {0.25, 3.0};
        cfg.mmpp_sojourn_ms = 3.0;
        cfg.total_arrivals = opt.arrivals;
        cfg.admission_queue_limit = camdn::runtime::unbounded_queue;
    } else if (opt.kind == "churn") {
        cfg.kind = workload_kind::tenant_churn;
        cfg.pol = policy::camdn_full;
        cfg.workload.push_back(&camdn::model::model_by_abbr("RS."));
        cfg.workload.push_back(&camdn::model::model_by_abbr("VT."));
        cfg.arrival_rate_per_ms = 0.6;
        cfg.churn_interval_ms = 4.0;
        cfg.churn_active_models = 2;
        cfg.total_arrivals = opt.arrivals;
        cfg.admission_queue_limit = 8;
    } else if (opt.kind == "hybrid") {
        cfg.kind = workload_kind::closed_loop_churn;
        cfg.pol = policy::camdn_full;
        cfg.workload.push_back(&camdn::model::model_by_abbr("RS."));
        cfg.inferences_per_slot = opt.arrivals;
        cfg.think_time_ms = 1.0;
        cfg.churn_interval_ms = 4.0;
        cfg.churn_active_models = 2;
    } else {
        throw std::invalid_argument("unknown scenario kind: " + opt.kind);
    }
    return cfg;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("short write to " + path);
}

int cmd_save(const options& opt) {
    const auto cfg = demo_config(opt);
    auto gen = camdn::runtime::make_workload_generator(cfg);
    camdn::runtime::scheduler sched(cfg, *gen);
    const bool paused = sched.run_segment(opt.boundary);
    const scheduler_snapshot snap = sched.save();
    const auto bytes = snap.encode();
    write_file(opt.file, bytes);
    std::cout << "saved " << bytes.size() << " bytes to " << opt.file
              << (paused ? " (paused" : " (completed")
              << " at cycle " << snap.now << ", " << snap.running.size()
              << " inference(s) in flight, " << snap.admission_queue.size()
              << " queued)\n";
    return 0;
}

int cmd_load(const options& opt) {
    const auto cfg = demo_config(opt);
    const auto snap = scheduler_snapshot::decode(read_file(opt.file));
    auto gen = camdn::runtime::make_workload_generator(cfg);
    camdn::runtime::scheduler sched(cfg, *gen, snap,
                                    camdn::runtime::resume_mode::exact);
    const auto res = sched.run();
    std::cout << "resumed from cycle " << snap.now << " and ran to cycle "
              << res.makespan << ": " << res.completions.size()
              << " completions, "
              << res.dram_total_bytes / (1024.0 * 1024.0) << " MiB DRAM\n";
    return 0;
}

/// Pending events of the typed-event section by channel and scheduler
/// kind, parsed from the event_queue::save_typed layout. The
/// bandwidth-epoch timer is armed when a bw_epoch event is pending.
struct pending_events {
    bool parsed = false;
    std::uint64_t total = 0;
    std::uint64_t dma = 0, layer = 0, page_retry = 0, workload = 0;
    std::uint64_t bw_epoch = 0;
    cycle_t bw_when = 0;
};

pending_events count_pending(const scheduler_snapshot& snap) {
    pending_events p;
    try {
        camdn::snapshot_reader r(snap.typed_events);
        p.total = snap.typed_events.empty() ? 0 : r.u64();
        for (std::uint64_t i = 0; i < p.total; ++i) {
            const cycle_t when = r.u64();
            r.u64();  // seq
            const auto channel = static_cast<event_channel>(r.u8());
            const auto kind = static_cast<sched_event>(r.u8());
            r.u64();  // payload a
            r.u64();  // payload b
            if (channel == event_channel::dma) {
                ++p.dma;
            } else if (channel == event_channel::layer) {
                ++p.layer;
            } else if (kind == sched_event::page_retry) {
                ++p.page_retry;
            } else if (kind == sched_event::workload) {
                ++p.workload;
            } else if (kind == sched_event::bw_epoch) {
                ++p.bw_epoch;
                p.bw_when = when;
            }
        }
        p.parsed = true;
    } catch (const camdn::snapshot_error&) {
    }
    return p;
}

/// Machine-readable inspect: one JSON object whose numeric leaves flatten
/// into camdn_report metrics (so two snapshots diff like two run dumps).
/// Mirrors the text report's fields; section parse failures degrade to
/// omitting that group rather than failing the inspect.
int cmd_inspect_json(const std::vector<std::uint8_t>& bytes,
                     const scheduler_snapshot& snap) {
    std::ostream& o = std::cout;
    const pending_events pend = count_pending(snap);
    o << "{\"snapshot\":{"
      << "\"bytes\":" << bytes.size()
      << ",\"version\":" << scheduler_snapshot::version
      << ",\"machine_fingerprint\":\"0x" << std::hex
      << snap.machine_fingerprint << "\""
      << ",\"run_fingerprint\":\"0x" << snap.run_fingerprint << "\""
      << std::dec
      << ",\"clock\":" << snap.now
      << ",\"event_seq\":" << snap.event_seq
      << ",\"slots\":" << snap.slots
      << ",\"bw_timer_armed\":" << (pend.bw_epoch > 0 ? 1 : 0)
      << ",\"admission_queue\":" << snap.admission_queue.size()
      << ",\"in_flight\":" << snap.running.size() << "}";

    o << ",\"running\":[";
    for (std::size_t i = 0; i < snap.running.size(); ++i) {
        const auto& rs = snap.running[i];
        o << (i ? "," : "") << "{\"slot\":" << rs.slot << ",\"model\":\""
          << rs.model << "\",\"layer\":" << rs.current_layer
          << ",\"cores\":" << rs.cores.size()
          << ",\"negotiating\":" << (rs.neg_armed ? 1 : 0) << "}";
    }
    o << "]";

    if (pend.parsed)
        o << ",\"pending_events\":{\"dma\":" << pend.dma
          << ",\"layer\":" << pend.layer
          << ",\"page_retry\":" << pend.page_retry
          << ",\"workload\":" << pend.workload
          << ",\"bw_epoch\":" << pend.bw_epoch << "}";

    try {
        std::uint64_t runs = 0, flights = 0;
        if (!snap.engine.empty()) {
            camdn::snapshot_reader r(snap.engine);
            runs = r.u64();
            for (std::uint64_t i = 0; i < runs; ++i) {
                r.i32();
                r.i32();
                r.u64();
                r.u64();
                r.u32();
                r.u64();
                r.u64();
                r.u8();
                for (int f = 0; f < 4; ++f) r.u64();
            }
            r.u64();  // next flight id
            flights = r.u64();
        }
        o << ",\"engine\":{\"layer_runs\":" << runs
          << ",\"dma_flights\":" << flights
          << ",\"pending_typed_events\":" << pend.total << "}";
    } catch (const camdn::snapshot_error&) {
    }

    try {
        if (!snap.telemetry.empty()) {
            camdn::snapshot_reader r(snap.telemetry);
            const std::uint64_t epoch_start = r.u64();
            const std::uint64_t slots = r.u64();
            std::uint64_t open_layers = 0, open_completions = 0;
            for (std::uint64_t s = 0; s < slots; ++s) {
                std::uint64_t c[15];
                for (auto& v : c) v = r.u64();
                r.i64();
                open_layers += c[5];
                open_completions += c[12];
            }
            const std::uint64_t epochs = r.u64();
            std::uint64_t layers = 0, completions = 0, dma_bytes = 0;
            std::uint64_t hits = 0, misses = 0, waits = 0, timeouts = 0;
            std::uint64_t dram_bytes = 0;
            for (std::uint64_t e = 0; e < epochs; ++e) {
                r.u64();
                r.u64();
                r.u64();
                const std::uint64_t n = r.u64();
                for (std::uint64_t s = 0; s < n; ++s) {
                    std::uint64_t c[15];
                    for (auto& v : c) v = r.u64();
                    r.i64();
                    hits += c[0];
                    misses += c[1];
                    dma_bytes += c[4];
                    layers += c[5];
                    waits += c[9];
                    timeouts += c[10];
                    completions += c[12];
                }
                dram_bytes += r.u64();
                r.u64();
                r.d();
                r.u32();
                r.u32();
            }
            o << ",\"telemetry\":{\"epochs\":" << epochs
              << ",\"open_epoch_start\":" << epoch_start
              << ",\"open_layers\":" << open_layers
              << ",\"open_completions\":" << open_completions
              << ",\"layers\":" << layers
              << ",\"completions\":" << completions
              << ",\"dma_bytes\":" << dma_bytes
              << ",\"dram_bytes\":" << dram_bytes
              << ",\"cache_hits\":" << hits
              << ",\"cache_misses\":" << misses
              << ",\"page_wait_cycles\":" << waits
              << ",\"page_timeouts\":" << timeouts << "}";
        }
    } catch (const camdn::snapshot_error&) {
    }

    o << ",\"sections\":{"
      << "\"machine\":" << snap.machine.size()
      << ",\"engine\":" << snap.engine.size()
      << ",\"typed_events\":" << snap.typed_events.size()
      << ",\"telemetry\":" << snap.telemetry.size()
      << ",\"controller\":" << snap.controller.size()
      << ",\"workload\":" << snap.workload.size()
      << ",\"results\":" << snap.results.size() << "}}\n";
    return 0;
}

int cmd_inspect(const options& opt) {
    const auto bytes = read_file(opt.file);
    const auto snap = scheduler_snapshot::decode(bytes);
    if (opt.json) return cmd_inspect_json(bytes, snap);
    const pending_events pend = count_pending(snap);

    std::cout << "camdn scheduler snapshot (" << bytes.size() << " bytes)\n"
              << "  version:              " << scheduler_snapshot::version
              << "\n"
              << "  machine fingerprint:  0x" << std::hex
              << snap.machine_fingerprint << "\n"
              << "  run fingerprint:      0x" << snap.run_fingerprint
              << std::dec << "\n"
              << "  clock:                " << snap.now << " cycles\n"
              << "  event seq:            " << snap.event_seq << "\n"
              << "  slots:                " << snap.slots << "\n"
              << "  bw timer:             "
              << (pend.bw_epoch > 0
                      ? "armed at " + std::to_string(pend.bw_when)
                      : std::string("idle"))
              << "\n"
              << "  admission queue:      " << snap.admission_queue.size()
              << " request(s)\n"
              << "  in-flight inferences: " << snap.running.size() << "\n";
    for (const auto& rs : snap.running) {
        std::cout << "    slot " << rs.slot << ": " << rs.model << " layer "
                  << rs.current_layer << ", " << rs.cores.size()
                  << " core(s)"
                  << (rs.neg_armed ? ", page negotiation pending" : "")
                  << "\n";
    }

    // The engine section: layer-run cursors, then DMA flights. This
    // mirrors the save_state layouts of sim::layer_engine and
    // npu::dma_engine for the current snapshot version (decode above
    // already rejected any other version); a parse failure here is
    // reported without failing the inspect.
    try {
        if (!snap.engine.empty()) {
            camdn::snapshot_reader r(snap.engine);
            const std::uint64_t runs = r.u64();
            for (std::uint64_t i = 0; i < runs; ++i) {
                const std::int32_t slot = r.i32();
                r.i32();  // candidate index
                const std::uint64_t idx = r.u64();
                r.u64();  // load_tile
                const std::uint32_t loads = r.u32();
                r.u64();  // load_latest
                const std::uint64_t stores = r.u64();
                r.u8();   // all_issued
                for (int f = 0; f < 4; ++f) r.u64();  // horizons
                std::cout << "  layer run (slot " << slot
                          << "): tile cursor " << idx << ", " << loads
                          << " load(s) and " << stores
                          << " store(s) outstanding\n";
            }
            r.u64();  // next flight id
            const std::uint64_t flights = r.u64();
            std::cout << "  dma flights:          " << flights << "\n";
        }
    } catch (const camdn::snapshot_error& e) {
        std::cout << "  (engine section did not parse: " << e.what() << ")\n";
    }

    if (pend.parsed)
        std::cout << "  pending typed events: " << pend.total << " (dma "
                  << pend.dma << ", layer " << pend.layer << ", page_retry "
                  << pend.page_retry << ", workload " << pend.workload
                  << ", bw_epoch " << pend.bw_epoch << ")\n";
    else
        std::cout << "  (typed-event section did not parse)\n";

    // Telemetry summary: epoch count, open-epoch state and the counter
    // totals across the recorded history (mirrors adapt::telemetry_bus::
    // save_state for the current snapshot version).
    try {
        if (!snap.telemetry.empty()) {
            camdn::snapshot_reader r(snap.telemetry);
            const std::uint64_t epoch_start = r.u64();
            const std::uint64_t slots = r.u64();
            // Open-epoch counters: layers retired / completions accumulated
            // since the last cut tell whether the epoch has content.
            std::uint64_t open_layers = 0, open_completions = 0;
            for (std::uint64_t s = 0; s < slots; ++s) {
                std::uint64_t c[15];
                for (auto& v : c) v = r.u64();
                r.i64();  // slack_cycles
                open_layers += c[5];
                open_completions += c[12];
            }
            const std::uint64_t epochs = r.u64();
            std::uint64_t layers = 0, completions = 0, dma_bytes = 0;
            std::uint64_t hits = 0, misses = 0, waits = 0, timeouts = 0;
            std::uint64_t dram_bytes = 0;
            for (std::uint64_t e = 0; e < epochs; ++e) {
                r.u64();  // index
                r.u64();  // start
                r.u64();  // end
                const std::uint64_t n = r.u64();
                for (std::uint64_t s = 0; s < n; ++s) {
                    std::uint64_t c[15];
                    for (auto& v : c) v = r.u64();
                    r.i64();  // slack_cycles
                    hits += c[0];
                    misses += c[1];
                    dma_bytes += c[4];
                    layers += c[5];
                    waits += c[9];
                    timeouts += c[10];
                    completions += c[12];
                }
                dram_bytes += r.u64();
                r.u64();  // dram_throttled
                r.d();    // bw_utilization
                r.u32();  // idle_pages
                r.u32();  // active_slots
            }
            std::cout << "  telemetry epochs:     " << epochs
                      << " (open epoch since cycle " << epoch_start << ": "
                      << open_layers << " layer(s), " << open_completions
                      << " completion(s))\n"
                      << "  telemetry totals:     " << layers << " layers, "
                      << completions << " completions, "
                      << dma_bytes / (1024.0 * 1024.0) << " MiB DMA, "
                      << dram_bytes / (1024.0 * 1024.0) << " MiB DRAM\n"
                      << "                        cache " << hits << " hit(s) / "
                      << misses << " miss(es), page-wait " << waits
                      << " cycle(s), " << timeouts << " timeout(s)\n";
        }
    } catch (const camdn::snapshot_error& e) {
        std::cout << "  (telemetry section did not parse: " << e.what()
                  << ")\n";
    }

    auto section = [](const char* name, const std::vector<std::uint8_t>& b) {
        std::cout << "  section " << name << ": " << b.size() << " bytes\n";
    };
    section("machine     ", snap.machine);
    section("engine      ", snap.engine);
    section("typed_events", snap.typed_events);
    section("telemetry   ", snap.telemetry);
    section("controller  ", snap.controller);
    section("workload    ", snap.workload);
    section("results     ", snap.results);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 2;
    }
    try {
        if (opt.command == "save") return cmd_save(opt);
        if (opt.command == "load") return cmd_load(opt);
        return cmd_inspect(opt);
    } catch (const std::exception& e) {
        std::cerr << "camdn_snapshot: " << e.what() << "\n";
        return 1;
    }
}
