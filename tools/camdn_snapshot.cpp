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
//       metrics, so snapshots diff like any other run dump). The
//       sections are decoded by the components that write them, so the
//       tool knows no section's byte layout.
//
// Scenario kinds: closed, poisson, mmpp, churn, hybrid (closed-loop +
// churn). The scenario is a pure function of the flags, so a file saved by
// one process resumes bit-identically in another.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adapt/telemetry.h"
#include "common/event_queue.h"
#include "model/model_zoo.h"
#include "npu/dma_engine.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "sim/experiment.h"
#include "sim/layer_engine.h"

namespace {

using camdn::cycle_t;
using camdn::event_channel;
using camdn::never;
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

/// Everything inspect reports past the header, decoded in one pass by the
/// code that owns each section's layout: the typed events by
/// event_queue::restore_typed, the engine section by the layer and DMA
/// engines' record readers, the telemetry by telemetry_bus::read_state.
/// A section that does not decode keeps the reason instead of its facts.
struct inspection {
    camdn::event_queue events;
    std::string events_error;
    std::vector<camdn::sim::layer_engine::run_record> runs;
    camdn::npu::dma_engine::flight_table flights;
    std::string engine_error;
    camdn::adapt::telemetry_bus telemetry;
    std::string telemetry_error;

    /// Typed events pending on the scheduler channel of `kind`.
    std::size_t sched(sched_event kind) const {
        return events.pending(event_channel::sched,
                              static_cast<std::uint8_t>(kind));
    }
    /// The bandwidth-epoch timer is armed when its event is pending.
    cycle_t bw_due() const {
        const auto bw = static_cast<std::uint8_t>(sched_event::bw_epoch);
        return events.next_time(event_channel::sched, bw);
    }
};

/// Runs `decode` over a non-empty section, which must consume it to its
/// last byte; returns the error, or "" when the section decoded.
template <typename Decode>
std::string decode_section(const std::vector<std::uint8_t>& bytes,
                           Decode decode) {
    if (bytes.empty()) return "";
    try {
        camdn::snapshot_reader r(bytes);
        decode(r);
        if (!r.done()) return "trailing bytes";
    } catch (const camdn::snapshot_error& e) {
        return e.what();
    }
    return "";
}

void inspect_sections(const scheduler_snapshot& snap, inspection& in) {
    in.events.restore_now(snap.now);
    in.events_error =
        decode_section(snap.typed_events, [&](camdn::snapshot_reader& r) {
            in.events.restore_typed(r);
            in.events.restore_next_seq(snap.event_seq);
        });
    in.engine_error =
        decode_section(snap.engine, [&](camdn::snapshot_reader& r) {
            in.runs = camdn::sim::layer_engine::read_runs(r);
            in.flights = camdn::npu::dma_engine::read_flights(r);
        });
    // Sized by the section's own slot count: the header's sizes nothing.
    in.telemetry_error =
        decode_section(snap.telemetry, [&](camdn::snapshot_reader& r) {
            in.telemetry = camdn::adapt::telemetry_bus::read_state(r);
        });
}

/// Telemetry rollup: the open epoch's layers and completions, and the
/// counter totals over the cut history.
struct telemetry_totals {
    std::uint64_t open_layers = 0, open_completions = 0;
    std::uint64_t layers = 0, completions = 0, dma_bytes = 0, dram_bytes = 0;
    std::uint64_t hits = 0, misses = 0, waits = 0, timeouts = 0;
};

telemetry_totals total_telemetry(const camdn::adapt::telemetry_bus& bus) {
    telemetry_totals t;
    for (const auto& c : bus.open_epoch()) {
        t.open_layers += c.layers_retired;
        t.open_completions += c.completions;
    }
    for (const auto& e : bus.history()) {
        for (const auto& c : e.tasks) {
            t.hits += c.cache_hits;
            t.misses += c.cache_misses;
            t.dma_bytes += c.dma_bytes;
            t.layers += c.layers_retired;
            t.waits += c.page_wait_cycles;
            t.timeouts += c.page_timeouts;
            t.completions += c.completions;
        }
        t.dram_bytes += e.dram_bytes;
    }
    return t;
}

/// Machine-readable inspect: one JSON object whose numeric leaves flatten
/// into camdn_report metrics (so two snapshots diff like two run dumps).
/// Carries the text report's facts; a section that does not decode leaves
/// its group out rather than failing the inspect.
void print_json(const std::vector<std::uint8_t>& bytes,
                const scheduler_snapshot& snap, const inspection& in) {
    std::ostream& o = std::cout;
    const bool events_ok = in.events_error.empty();
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
      << ",\"bw_timer_armed\":" << (events_ok && in.bw_due() != never ? 1 : 0)
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

    if (events_ok)
        o << ",\"pending_events\":{\"dma\":"
          << in.events.pending(event_channel::dma)
          << ",\"layer\":" << in.events.pending(event_channel::layer)
          << ",\"page_retry\":" << in.sched(sched_event::page_retry)
          << ",\"workload\":" << in.sched(sched_event::workload)
          << ",\"bw_epoch\":" << in.sched(sched_event::bw_epoch) << "}";

    if (in.engine_error.empty())
        o << ",\"engine\":{\"layer_runs\":" << in.runs.size()
          << ",\"dma_flights\":" << in.flights.flights.size()
          << ",\"pending_typed_events\":"
          << (events_ok ? in.events.pending() : 0) << "}";

    if (!snap.telemetry.empty() && in.telemetry_error.empty()) {
        const telemetry_totals t = total_telemetry(in.telemetry);
        o << ",\"telemetry\":{\"epochs\":" << in.telemetry.history().size()
          << ",\"open_epoch_start\":" << in.telemetry.epoch_start()
          << ",\"open_layers\":" << t.open_layers
          << ",\"open_completions\":" << t.open_completions
          << ",\"layers\":" << t.layers
          << ",\"completions\":" << t.completions
          << ",\"dma_bytes\":" << t.dma_bytes
          << ",\"dram_bytes\":" << t.dram_bytes
          << ",\"cache_hits\":" << t.hits
          << ",\"cache_misses\":" << t.misses
          << ",\"page_wait_cycles\":" << t.waits
          << ",\"page_timeouts\":" << t.timeouts << "}";
    }

    o << ",\"sections\":{"
      << "\"machine\":" << snap.machine.size()
      << ",\"engine\":" << snap.engine.size()
      << ",\"typed_events\":" << snap.typed_events.size()
      << ",\"telemetry\":" << snap.telemetry.size()
      << ",\"controller\":" << snap.controller.size()
      << ",\"workload\":" << snap.workload.size()
      << ",\"results\":" << snap.results.size() << "}}\n";
}

void print_text(const std::vector<std::uint8_t>& bytes,
                const scheduler_snapshot& snap, const inspection& in) {
    const bool events_ok = in.events_error.empty();
    const cycle_t bw_due = events_ok ? in.bw_due() : never;
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
              << (bw_due != never ? "armed at " + std::to_string(bw_due)
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

    if (!in.engine_error.empty()) {
        std::cout << "  (engine section did not parse: " << in.engine_error
                  << ")\n";
    } else if (!snap.engine.empty()) {
        for (const auto& run : in.runs)
            std::cout << "  layer run (slot " << run.slot << "): tile cursor "
                      << run.idx << ", " << run.load_remaining
                      << " load(s) and " << run.pending_stores
                      << " store(s) outstanding\n";
        std::cout << "  dma flights:          " << in.flights.flights.size()
                  << "\n";
    }

    if (events_ok)
        std::cout << "  pending typed events: " << in.events.pending()
                  << " (dma " << in.events.pending(event_channel::dma)
                  << ", layer " << in.events.pending(event_channel::layer)
                  << ", page_retry " << in.sched(sched_event::page_retry)
                  << ", workload " << in.sched(sched_event::workload)
                  << ", bw_epoch " << in.sched(sched_event::bw_epoch) << ")\n";
    else
        std::cout << "  (typed-event section did not parse: "
                  << in.events_error << ")\n";

    if (!in.telemetry_error.empty()) {
        std::cout << "  (telemetry section did not parse: "
                  << in.telemetry_error << ")\n";
    } else if (!snap.telemetry.empty()) {
        const telemetry_totals t = total_telemetry(in.telemetry);
        std::cout << "  telemetry epochs:     " << in.telemetry.history().size()
                  << " (open epoch since cycle " << in.telemetry.epoch_start()
                  << ": " << t.open_layers << " layer(s), "
                  << t.open_completions << " completion(s))\n"
                  << "  telemetry totals:     " << t.layers << " layers, "
                  << t.completions << " completions, "
                  << t.dma_bytes / (1024.0 * 1024.0) << " MiB DMA, "
                  << t.dram_bytes / (1024.0 * 1024.0) << " MiB DRAM\n"
                  << "                        cache " << t.hits
                  << " hit(s) / " << t.misses << " miss(es), page-wait "
                  << t.waits << " cycle(s), " << t.timeouts
                  << " timeout(s)\n";
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
}

int cmd_inspect(const options& opt) {
    const auto bytes = read_file(opt.file);
    const auto snap = scheduler_snapshot::decode(bytes);
    inspection in;
    inspect_sections(snap, in);
    if (opt.json)
        print_json(bytes, snap, in);
    else
        print_text(bytes, snap, in);
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
