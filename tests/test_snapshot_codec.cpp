// Snapshot codec suite.
//
//   * the writer/reader field and span operations against a per-byte
//     little-endian reference encoder kept here, with every strict prefix
//     of an encoding rejected;
//   * decoder rejection inside the machine section: a cut through the
//     transparent-line block, a valid transparent line stamped after the
//     LRU tick, corrupt CPT task ids (out of range, repeated, out of
//     order) and a CPT mapping a page its task does not hold;
//   * pinned sizes + FNV-1a hashes of two mid-flight snapshots (a
//     bypassing CaMDN run and an AuRORA run, whose transparent sets hold
//     lines), so any drift of the byte format fails;
//   * the components' section readers agreeing at pause points of an
//     adaptive MMPP run and a closed loop: each running slot has one
//     layer run or one armed negotiation, each armed negotiation one
//     pending retry, and each DMA flight one pending chunk event;
//   * a seeded mutation fuzz (bit flips, truncations, splices of two valid
//     snapshots) of the machine, engine, typed-event and telemetry
//     sections through warm resume: every input either throws
//     snapshot_error or constructs a scheduler. Under ASan/UBSan the
//     second outcome must also be clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "cache/cpt.h"
#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/snapshot_io.h"
#include "dram/dram_system.h"
#include "model/model_zoo.h"
#include "npu/dma_engine.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "sim/layer_engine.h"

namespace camdn {
namespace {

using runtime::resume_mode;
using runtime::scheduler_snapshot;
using sim::experiment_config;

// ---- field codec vs a per-byte reference --------------------------------

/// One encoded field of a random sequence. `records` holds span payloads
/// as (u64, i32, bool) triples flattened into u64s.
struct field {
    enum kind_t { u8, b, u32, i32, u64, i64, d, str, blob, span };
    kind_t kind = u8;
    std::uint64_t v = 0;
    std::string s;
    std::vector<std::uint64_t> records;
};

constexpr std::size_t span_record_bytes = 8 + 4 + 1;

void ref_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::vector<std::uint8_t> reference_encode(const std::vector<field>& fields) {
    std::vector<std::uint8_t> out;
    for (const auto& f : fields) {
        switch (f.kind) {
            case field::u8: ref_le(out, f.v, 1); break;
            case field::b: out.push_back((f.v & 1) ? 1 : 0); break;
            case field::u32:
            case field::i32: ref_le(out, f.v, 4); break;
            case field::u64:
            case field::i64:
            case field::d: ref_le(out, f.v, 8); break;
            case field::str:
            case field::blob:
                ref_le(out, f.s.size(), 8);
                out.insert(out.end(), f.s.begin(), f.s.end());
                break;
            case field::span:
                for (std::size_t i = 0; i < f.records.size(); i += 3) {
                    ref_le(out, f.records[i], 8);
                    ref_le(out, f.records[i + 1], 4);
                    out.push_back((f.records[i + 2] & 1) ? 1 : 0);
                }
                break;
        }
    }
    return out;
}

double as_double(std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::uint64_t bits_of(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

std::vector<std::uint8_t> codec_encode(const std::vector<field>& fields) {
    snapshot_writer w;
    for (const auto& f : fields) {
        switch (f.kind) {
            case field::u8: w.u8(static_cast<std::uint8_t>(f.v)); break;
            case field::b: w.b(f.v & 1); break;
            case field::u32: w.u32(static_cast<std::uint32_t>(f.v)); break;
            case field::i32: w.i32(static_cast<std::int32_t>(f.v)); break;
            case field::u64: w.u64(f.v); break;
            case field::i64: w.i64(static_cast<std::int64_t>(f.v)); break;
            case field::d: w.d(as_double(f.v)); break;
            case field::str: w.str(f.s); break;
            case field::blob:
                w.blob(std::vector<std::uint8_t>(f.s.begin(), f.s.end()));
                break;
            case field::span: {
                auto out = w.span(f.records.size() / 3 * span_record_bytes);
                for (std::size_t i = 0; i < f.records.size(); i += 3) {
                    out.u64(f.records[i]);
                    out.i32(static_cast<std::int32_t>(f.records[i + 1]));
                    out.b(f.records[i + 2] & 1);
                }
                break;
            }
        }
    }
    return w.take();
}

/// Decodes `fields` from `bytes`, checking every value; throws
/// snapshot_error when the bytes run out.
void codec_decode(const std::vector<field>& fields,
                  const std::uint8_t* data, std::size_t size) {
    snapshot_reader r(data, size);
    for (const auto& f : fields) {
        switch (f.kind) {
            case field::u8: EXPECT_EQ(r.u8(), f.v & 0xff); break;
            case field::b: EXPECT_EQ(r.b(), (f.v & 1) != 0); break;
            case field::u32:
                EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(f.v));
                break;
            case field::i32:
                EXPECT_EQ(r.i32(), static_cast<std::int32_t>(f.v));
                break;
            case field::u64: EXPECT_EQ(r.u64(), f.v); break;
            case field::i64:
                EXPECT_EQ(r.i64(), static_cast<std::int64_t>(f.v));
                break;
            case field::d: EXPECT_EQ(bits_of(r.d()), f.v); break;
            case field::str: EXPECT_EQ(r.str(), f.s); break;
            case field::blob:
                EXPECT_EQ(r.blob(),
                          std::vector<std::uint8_t>(f.s.begin(), f.s.end()));
                break;
            case field::span: {
                auto in = r.span(f.records.size() / 3 * span_record_bytes);
                for (std::size_t i = 0; i < f.records.size(); i += 3) {
                    EXPECT_EQ(in.u64(), f.records[i]);
                    EXPECT_EQ(in.i32(),
                              static_cast<std::int32_t>(f.records[i + 1]));
                    EXPECT_EQ(in.b(), (f.records[i + 2] & 1) != 0);
                }
                break;
            }
        }
    }
    EXPECT_TRUE(r.done());
}

std::vector<field> random_fields(rng& r) {
    std::vector<field> out(1 + r.next_below(24));
    for (auto& f : out) {
        f.kind = static_cast<field::kind_t>(r.next_below(10));
        // Mix small values, all-ones and full-width randoms so sign and
        // high-byte handling are exercised.
        switch (r.next_below(3)) {
            case 0: f.v = r.next_below(256); break;
            case 1: f.v = ~std::uint64_t{0}; break;
            default: f.v = r.next(); break;
        }
        if (f.kind == field::str || f.kind == field::blob)
            for (std::uint64_t i = r.next_below(12); i > 0; --i)
                f.s.push_back(static_cast<char>(r.next_below(256)));
        if (f.kind == field::span)
            for (std::uint64_t i = 3 * r.next_below(6); i > 0; --i)
                f.records.push_back(r.next());
    }
    return out;
}

TEST(snapshot_codec, random_fields_match_a_bytewise_reference) {
    rng r(4242);
    for (int seq = 0; seq < 200; ++seq) {
        const auto fields = random_fields(r);
        const auto bytes = codec_encode(fields);
        ASSERT_EQ(bytes, reference_encode(fields)) << "sequence " << seq;
        codec_decode(fields, bytes.data(), bytes.size());
        for (std::size_t len = 0; len < bytes.size(); ++len)
            EXPECT_THROW(codec_decode(fields, bytes.data(), len),
                         snapshot_error)
                << "sequence " << seq << " prefix " << len;
    }
}

// ---- mid-flight snapshots --------------------------------------------------

experiment_config codec_cfg() {
    experiment_config cfg;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
    cfg.co_located = 2;
    cfg.telemetry = true;
    cfg.seed = 17;
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_adaptive;
    cfg.arrival_rate_per_ms = 0.8;
    cfg.total_arrivals = 8;
    cfg.admission_queue_limit = 8;
    return cfg;
}

scheduler_snapshot paused_snapshot(const experiment_config& cfg,
                                   cycle_t boundary) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    EXPECT_TRUE(sched.run_segment(boundary));
    return sched.save();
}

void warm_resume(const experiment_config& cfg, const scheduler_snapshot& snap) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler resumed(cfg, *gen, snap, resume_mode::warm);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
    return h;
}

/// Where the transparent-line block sits in a machine section: after the
/// line count, the transparent-way count and the LRU tick.
constexpr std::size_t line_block_begin = 4 + 4 + 8;
constexpr std::size_t line_record_bytes = 8 + 8 + 4 + 1 + 1;

TEST(snapshot_codec, mid_flight_snapshot_bytes_are_pinned) {
    // Size and FNV-1a of this snapshot's encoding: any change to the byte
    // format must fail here.
    const auto snap = paused_snapshot(codec_cfg(), ms_to_cycles(2.0));
    ASSERT_FALSE(snap.running.empty()) << "the pinned snapshot is mid-flight";
    const auto bytes = snap.encode();
    EXPECT_EQ(bytes.size(), 5775571u);
    EXPECT_EQ(fnv1a(bytes), 0x1b06a5bfa24178a0ull);
}

TEST(snapshot_codec, mid_flight_aurora_snapshot_bytes_are_pinned) {
    // AuRORA runs its DMA through the transparent path, so, unlike the
    // bypassing CaMDN run above, this snapshot's transparent-line block
    // holds valid lines, and the pin covers their slice-major record order.
    auto cfg = codec_cfg();
    cfg.pol = sim::policy::aurora;
    const auto snap = paused_snapshot(cfg, ms_to_cycles(5.0));
    ASSERT_FALSE(snap.running.empty()) << "the pinned snapshot is mid-flight";
    std::size_t valid = 0;
    for (std::size_t i = 0; i < cfg.soc.cache.lines_total(); ++i)
        valid += snap.machine[line_block_begin + i * line_record_bytes + 20];
    ASSERT_GT(valid, 0u) << "no valid transparent line";
    const auto bytes = snap.encode();
    EXPECT_EQ(bytes.size(), 5773093u);
    EXPECT_EQ(fnv1a(bytes), 0x4736241485c649dfull);
}

TEST(snapshot_codec, cut_inside_the_transparent_line_block_is_rejected) {
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    const std::size_t block_end =
        line_block_begin + cfg.soc.cache.lines_total() * line_record_bytes;
    ASSERT_GT(snap.machine.size(), block_end);
    EXPECT_NO_THROW(warm_resume(cfg, snap));
    for (const std::size_t len :
         {line_block_begin, line_block_begin + 1,
          line_block_begin + 1000 * line_record_bytes + 7, block_end - 1}) {
        auto cut = snap;
        cut.machine.resize(len);
        EXPECT_THROW(warm_resume(cfg, cut), snapshot_error) << "cut at " << len;
    }
}

TEST(snapshot_codec, transparent_line_stamped_after_the_tick_is_rejected) {
    // MoCA runs its DMA through the transparent path, so a paused MoCA
    // snapshot carries valid lines. No run stamps a line after the LRU
    // tick; restore rejects a valid one that is, since the recency order
    // rebuilt from the stamps and the stamp minimum could then pick
    // different victims.
    auto cfg = codec_cfg();
    cfg.pol = sim::policy::moca;
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    EXPECT_NO_THROW(warm_resume(cfg, snap));

    const std::uint64_t tick =
        snapshot_reader(snap.machine.data() + line_block_begin - 8, 8).u64();
    const std::size_t lines = cfg.soc.cache.lines_total();
    // Each record: tag (8), lru (8), owner (4), valid (1), dirty (1).
    auto first_record = [&](bool valid) {
        for (std::size_t i = 0; i < lines; ++i) {
            const std::size_t at = line_block_begin + i * line_record_bytes;
            if ((snap.machine[at + 20] != 0) == valid) return at;
        }
        return std::size_t{0};
    };
    auto stamped = [&](std::size_t record, std::uint64_t lru) {
        scheduler_snapshot s = snap;
        for (int b = 0; b < 8; ++b)
            s.machine[record + 8 + b] =
                static_cast<std::uint8_t>(lru >> (8 * b));
        return s;
    };
    const std::size_t valid_line = first_record(true);
    const std::size_t invalid_line = first_record(false);
    ASSERT_NE(valid_line, 0u) << "no valid transparent line";
    ASSERT_NE(invalid_line, 0u) << "no invalid transparent line";
    EXPECT_THROW(warm_resume(cfg, stamped(valid_line, tick + 1)),
                 snapshot_error);
    EXPECT_THROW(warm_resume(cfg, stamped(valid_line, ~std::uint64_t{0})),
                 snapshot_error);
    // An invalid line's stamp never picks a victim.
    EXPECT_NO_THROW(warm_resume(cfg, stamped(invalid_line, tick + 1)));
}

/// camdn_hw_only keeps one CPT per running inference, mapping the pages
/// its task holds.
experiment_config hw_only_cfg() {
    experiment_config cfg;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
    cfg.co_located = 2;
    cfg.pol = sim::policy::camdn_hw_only;
    cfg.inferences_per_slot = 2;
    cfg.seed = 5;
    return cfg;
}

/// The first pause of `cfg` with both slots busy: its machine section
/// carries tables for tasks 0 and 1.
scheduler_snapshot both_slots_busy(const experiment_config& cfg) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    scheduler_snapshot snap;
    for (cycle_t at = ms_to_cycles(0.2); sched.run_segment(at);
         at += ms_to_cycles(0.2)) {
        snap = sched.save();
        if (snap.running.size() == 2) break;
    }
    return snap;
}

TEST(snapshot_codec, corrupt_cpt_task_ids_are_rejected) {
    const experiment_config cfg = hw_only_cfg();
    const scheduler_snapshot snap = both_slots_busy(cfg);
    ASSERT_EQ(snap.running.size(), 2u) << "no pause with both slots busy";

    // The cache part of the machine section ends where a standalone cache
    // stops reading; the two CPT records (i32 id + table) end there.
    dram::dram_system d{cfg.soc.dram};
    cache::shared_cache c{cfg.soc.cache, d};
    snapshot_reader whole(snap.machine);
    c.restore_state(whole, cfg.co_located);
    const std::size_t cache_end = snap.machine.size() - whole.remaining();
    snapshot_writer fresh_table;
    cache::cache_page_table(cfg.soc.cache).save_state(fresh_table);
    const std::size_t table_bytes = 4 + fresh_table.bytes().size();
    const std::size_t first_id = cache_end - 2 * table_bytes;
    const std::size_t second_id = cache_end - table_bytes;
    auto read_at = [&](std::size_t off, std::size_t n) {
        return snapshot_reader(snap.machine.data() + off, n);
    };
    ASSERT_EQ(read_at(first_id - 8, 8).u64(), 2u) << "live CPT count";
    ASSERT_EQ(read_at(first_id, 4).i32(), 0);
    ASSERT_EQ(read_at(second_id, 4).i32(), 1);
    EXPECT_NO_THROW(warm_resume(cfg, snap));

    auto patched = [&](std::size_t off, std::uint32_t id) {
        scheduler_snapshot s = snap;
        for (int b = 0; b < 4; ++b)
            s.machine[off + b] = static_cast<std::uint8_t>(id >> (8 * b));
        return s;
    };
    // Far out of range: must be rejected before it sizes the table vector
    // (2^31 entries).
    EXPECT_THROW(warm_resume(cfg, patched(second_id, 0x7fffffffu)),
                 snapshot_error);
    // One past the resuming scheduler's slot count.
    EXPECT_THROW(warm_resume(cfg, patched(second_id, 2)), snapshot_error);
    // Repeated id: would silently replace the first table.
    EXPECT_THROW(warm_resume(cfg, patched(second_id, 0)), snapshot_error);
    // Descending ids.
    EXPECT_THROW(warm_resume(cfg, patched(first_id, 1)), snapshot_error);
    // Negative id.
    EXPECT_THROW(warm_resume(cfg, patched(first_id, 0xffffffffu)),
                 snapshot_error);
}

TEST(snapshot_codec, cpt_mapping_a_page_its_task_does_not_hold_is_rejected) {
    // Regions are model-exclusive (paper §III-B): a task's CPT maps only
    // pages the pool gave that task.
    const experiment_config cfg = hw_only_cfg();
    const scheduler_snapshot snap = both_slots_busy(cfg);
    ASSERT_EQ(snap.running.size(), 2u) << "no pause with both slots busy";

    // The machine section decoded into a standalone cache, edited through
    // its own API and saved back in front of the DRAM part.
    using edit_fn = std::function<void(cache::shared_cache&)>;
    auto edited = [&](const edit_fn& edit) {
        dram::dram_system d{cfg.soc.dram};
        cache::shared_cache c{cfg.soc.cache, d};
        snapshot_reader r(snap.machine);
        c.restore_state(r, cfg.co_located);
        const std::size_t cache_end = snap.machine.size() - r.remaining();
        edit(c);
        snapshot_writer w;
        c.save_state(w);
        scheduler_snapshot s = snap;
        s.machine = w.take();
        s.machine.insert(s.machine.end(), snap.machine.begin() + cache_end,
                         snap.machine.end());
        return s;
    };
    auto first_mapped = [](cache::shared_cache& c, task_id t) {
        std::uint32_t v = 0;
        while (!c.cpt(t).is_mapped(v)) ++v;
        return v;
    };
    // Slot 1 hands its last page back to the pool, and its table drops it.
    auto free_a_page = [&](cache::shared_cache& c) {
        const std::uint32_t page = c.pages().release(1, 1).front();
        for (std::uint32_t v = 0; v < c.cpt(1).capacity(); ++v)
            if (c.cpt(1).lookup(v) == page) c.cpt(1).unmap(v);
        return page;
    };
    ASSERT_EQ(edited([](cache::shared_cache&) {}).machine, snap.machine)
        << "the edit round trip changes no byte";
    ASSERT_NO_THROW(warm_resume(cfg, edited([&](cache::shared_cache& c) {
        free_a_page(c);
    })));

    // Slot 0's first valid entry pointed at a page slot 1 holds.
    EXPECT_THROW(warm_resume(cfg, edited([&](cache::shared_cache& c) {
                     c.cpt(0).map(first_mapped(c, 0),
                                  c.pages().pages_of(1).front());
                 })),
                 snapshot_error);
    // Or at a free page.
    EXPECT_THROW(warm_resume(cfg, edited([&](cache::shared_cache& c) {
                     const std::uint32_t page = free_a_page(c);
                     c.cpt(0).map(first_mapped(c, 0), page);
                 })),
                 snapshot_error);
}

// ---- section readers agree --------------------------------------------------

/// What one snapshot's sections hold of the states the laws relate.
struct section_counts {
    std::size_t runs = 0, armed = 0, flights = 0;
};

/// Decodes `snap`'s typed-event and engine sections with the components'
/// own readers and checks the laws that tie them together.
section_counts expect_sections_agree(const scheduler_snapshot& snap,
                                     const std::string& where) {
    event_queue events;
    events.restore_now(snap.now);
    snapshot_reader typed(snap.typed_events);
    events.restore_typed(typed);
    EXPECT_TRUE(typed.done()) << where;
    snapshot_reader engine(snap.engine);
    const auto runs = sim::layer_engine::read_runs(engine);
    const auto flights = npu::dma_engine::read_flights(engine);
    EXPECT_TRUE(engine.done()) << where;

    std::size_t armed = 0;
    for (const auto& rs : snap.running) {
        const auto records = std::count_if(
            runs.begin(), runs.end(),
            [&](const sim::layer_engine::run_record& run) {
                return run.slot == rs.slot;
            });
        // A running slot is either running a layer or negotiating pages.
        EXPECT_EQ(records + (rs.neg_armed ? 1 : 0), 1)
            << where << ", slot " << rs.slot;
        armed += rs.neg_armed ? 1 : 0;
    }
    EXPECT_EQ(runs.size() + armed, snap.running.size())
        << where << ": a layer run on a slot that is not running";
    EXPECT_EQ(events.pending(event_channel::sched,
                             static_cast<std::uint8_t>(
                                 runtime::sched_event::page_retry)),
              armed)
        << where;
    EXPECT_EQ(events.pending(event_channel::dma), flights.flights.size())
        << where;
    return {runs.size(), armed, flights.flights.size()};
}

TEST(snapshot_decoders, sections_agree_at_pause_points) {
    // PointPillars and ViT beside ResNet and MobileNet contend for pages,
    // so some pauses land while a slot waits for its grant.
    const std::vector<const model::model*> mix = {
        &model::model_by_abbr("RS."), &model::model_by_abbr("PP."),
        &model::model_by_abbr("MB."), &model::model_by_abbr("VT.")};
    experiment_config mmpp;
    mmpp.workload = mix;
    mmpp.co_located = 6;
    mmpp.seed = 10;
    mmpp.kind = runtime::workload_kind::open_loop_mmpp;
    mmpp.pol = sim::policy::camdn_adaptive;
    mmpp.arrival_rate_per_ms = 1.0;
    mmpp.mmpp_rate_scale = {0.25, 3.0};
    mmpp.mmpp_sojourn_ms = 3.0;
    mmpp.total_arrivals = 16;
    mmpp.admission_queue_limit = runtime::unbounded_queue;

    experiment_config closed;
    closed.workload = mix;
    closed.co_located = 8;
    closed.seed = 10;
    closed.pol = sim::policy::camdn_full;
    closed.inferences_per_slot = 2;

    for (const auto* cfg : {&mmpp, &closed}) {
        const std::string name = sim::policy_name(cfg->pol);
        auto gen = runtime::make_workload_generator(*cfg);
        runtime::scheduler sched(*cfg, *gen);
        std::size_t pauses = 0;
        section_counts seen;
        for (cycle_t at = ms_to_cycles(0.25); sched.run_segment(at);
             at += ms_to_cycles(0.25)) {
            const section_counts n = expect_sections_agree(
                sched.save(), name + " at cycle " + std::to_string(at));
            seen.runs += n.runs;
            seen.armed += n.armed;
            seen.flights += n.flights;
            ++pauses;
        }
        // The pauses catch every state the laws relate.
        EXPECT_GT(pauses, 100u) << name;
        EXPECT_GT(seen.runs, 0u) << name;
        EXPECT_GT(seen.armed, 0u) << name;
        EXPECT_GT(seen.flights, 0u) << name;
    }
}

// ---- decoder fuzz -----------------------------------------------------------

std::vector<std::uint8_t>& section(scheduler_snapshot& s, int which) {
    switch (which) {
        case 0: return s.machine;
        case 1: return s.engine;
        case 2: return s.typed_events;
        default: return s.telemetry;
    }
}

TEST(snapshot_fuzz, mutated_sections_throw_or_resume_cleanly) {
    const auto cfg = codec_cfg();
    const auto a = paused_snapshot(cfg, ms_to_cycles(1.0));
    auto b = paused_snapshot(cfg, ms_to_cycles(1.5));
    ASSERT_FALSE(a.engine.empty());
    ASSERT_FALSE(a.typed_events.empty());
    ASSERT_FALSE(a.telemetry.empty()) << "the adaptive run saves telemetry";
    const std::size_t block_end =
        line_block_begin + cfg.soc.cache.lines_total() * line_record_bytes;

    rng r(20251016);
    std::size_t threw = 0, resumed = 0;
    for (int i = 0; i < 600; ++i) {
        scheduler_snapshot m = a;
        const int which = i % 4;
        auto& bytes = section(m, which);
        const int mutation = static_cast<int>(r.next_below(3));
        if (mutation == 0) {
            // Bit flips. Most machine bytes are transparent lines, which
            // restore accepts as any value; half the machine flips aim at
            // the structured fields around the line block instead.
            for (std::uint64_t n = 1 + r.next_below(4); n > 0; --n) {
                std::size_t at = r.next_below(bytes.size());
                if (which == 0 && (r.next() & 1)) {
                    const std::size_t structured =
                        line_block_begin + (bytes.size() - block_end);
                    at = r.next_below(structured);
                    if (at >= line_block_begin)
                        at += block_end - line_block_begin;
                }
                bytes[at] ^= static_cast<std::uint8_t>(1u << r.next_below(8));
            }
        } else if (mutation == 1) {
            bytes.resize(r.next_below(bytes.size()));
        } else {
            // Splice: a prefix of this snapshot's section joined to a
            // suffix of the other snapshot's, at independent cuts.
            const auto& other = section(b, which);
            const std::size_t keep = r.next_below(bytes.size() + 1);
            const std::size_t from = r.next_below(other.size() + 1);
            bytes.resize(keep);
            bytes.insert(bytes.end(), other.begin() + from, other.end());
        }

        try {
            warm_resume(cfg, m);
            ++resumed;
        } catch (const snapshot_error&) {
            ++threw;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "iteration " << i << " (section " << which
                          << ", mutation " << mutation
                          << ") threw a non-snapshot error: " << e.what();
        }
    }
    // The mutations reach both outcomes, or the loop tests nothing.
    EXPECT_GT(threw, 0u);
    EXPECT_GT(resumed, 0u);
}

}  // namespace
}  // namespace camdn
