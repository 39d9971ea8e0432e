// Checkpoint/restore suite (ctest label: checkpoint).
//
// Covers the resumable scheduler end to end:
//   * resume equivalence — splitting a run at randomized (seeded)
//     *non-quiescent* cycles (mid-layer: tiles, DMA chunks and page
//     negotiations in flight), serializing, and resuming in a fresh
//     scheduler is bit-identical to the unsplit run (makespan, every
//     completion record, cache/DRAM stats, queue delays, telemetry
//     counters) for closed_loop (with think time), open_loop_poisson,
//     open_loop_mmpp, tenant_churn and closed_loop_churn workloads;
//   * snapshot round-trip — encode -> decode -> re-encode is byte-equal
//     including the in-flight engine and typed-event sections, and
//     malformed input (truncation, bad magic, version skew — legacy v1
//     with an explicit message — trailing garbage, wrong configuration)
//     is rejected with snapshot_error;
//   * warm resume — a new trace segment on the warm machine keeps the
//     clock and cache warmth; time-sliced cluster rounds carry mid-layer
//     state deterministically across sweep-pool widths;
//   * live segments — a scheduler continued in place
//     (start_next_segment) matches the save + warm-resume carry round by
//     round, saved bytes included;
//   * the drained-run makespan fix — the cancellable bandwidth-epoch
//     timer stops the MoCA epoch chain once the run drains, so the
//     makespan is the last real event.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/cpt.h"
#include "cache/page_allocator.h"
#include "common/rng.h"
#include "model/model_zoo.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "serve/cluster.h"
#include "sim/experiment.h"

namespace camdn {
namespace {

using runtime::resume_mode;
using runtime::scheduler_snapshot;
using sim::experiment_config;
using sim::experiment_result;

// ---- result comparison ------------------------------------------------

void expect_identical(const experiment_result& a, const experiment_result& b) {
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_EQ(a.rejected_arrivals, b.rejected_arrivals);

    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        const auto& x = a.completions[i];
        const auto& y = b.completions[i];
        EXPECT_EQ(x.slot, y.slot) << "completion " << i;
        EXPECT_EQ(x.abbr, y.abbr) << "completion " << i;
        EXPECT_EQ(x.arrival, y.arrival) << "completion " << i;
        EXPECT_EQ(x.start, y.start) << "completion " << i;
        EXPECT_EQ(x.end, y.end) << "completion " << i;
        EXPECT_EQ(x.dram_bytes, y.dram_bytes) << "completion " << i;
        EXPECT_EQ(x.cores, y.cores) << "completion " << i;
    }

    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
    EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
    EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
    EXPECT_EQ(a.cache_stats.inter_task_evictions,
              b.cache_stats.inter_task_evictions);
    EXPECT_EQ(a.cache_stats.region_reads, b.cache_stats.region_reads);
    EXPECT_EQ(a.cache_stats.region_fills, b.cache_stats.region_fills);
    EXPECT_EQ(a.cache_stats.bypass_reads, b.cache_stats.bypass_reads);
    EXPECT_EQ(a.cache_stats.multicast_combined,
              b.cache_stats.multicast_combined);
    EXPECT_EQ(a.cache_stats.slice_busy_cycles,
              b.cache_stats.slice_busy_cycles);
    EXPECT_EQ(a.dram_stats.reads, b.dram_stats.reads);
    EXPECT_EQ(a.dram_stats.writes, b.dram_stats.writes);
    EXPECT_EQ(a.dram_stats.row_hits, b.dram_stats.row_hits);
    EXPECT_EQ(a.dram_stats.row_misses, b.dram_stats.row_misses);
    EXPECT_EQ(a.dram_stats.throttled, b.dram_stats.throttled);
    EXPECT_EQ(a.dram_stats.bus_busy_deci, b.dram_stats.bus_busy_deci);

    EXPECT_EQ(a.queue_delay_ms.count(), b.queue_delay_ms.count());
    EXPECT_DOUBLE_EQ(a.queue_delay_ms.p50(), b.queue_delay_ms.p50());
    EXPECT_DOUBLE_EQ(a.queue_delay_ms.p99(), b.queue_delay_ms.p99());

    ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
    for (std::size_t e = 0; e < a.telemetry.size(); ++e) {
        const auto& x = a.telemetry[e];
        const auto& y = b.telemetry[e];
        EXPECT_EQ(x.index, y.index) << "epoch " << e;
        EXPECT_EQ(x.start, y.start) << "epoch " << e;
        EXPECT_EQ(x.end, y.end) << "epoch " << e;
        EXPECT_EQ(x.dram_bytes, y.dram_bytes) << "epoch " << e;
        EXPECT_EQ(x.dram_throttled, y.dram_throttled) << "epoch " << e;
        EXPECT_EQ(x.idle_pages, y.idle_pages) << "epoch " << e;
        EXPECT_EQ(x.active_slots, y.active_slots) << "epoch " << e;
        ASSERT_EQ(x.tasks.size(), y.tasks.size());
        for (std::size_t s = 0; s < x.tasks.size(); ++s) {
            const auto& cx = x.tasks[s];
            const auto& cy = y.tasks[s];
            EXPECT_EQ(cx.cache_hits, cy.cache_hits) << e << "/" << s;
            EXPECT_EQ(cx.cache_misses, cy.cache_misses) << e << "/" << s;
            EXPECT_EQ(cx.region_lines, cy.region_lines) << e << "/" << s;
            EXPECT_EQ(cx.fill_lines, cy.fill_lines) << e << "/" << s;
            EXPECT_EQ(cx.dma_bytes, cy.dma_bytes) << e << "/" << s;
            EXPECT_EQ(cx.layers_retired, cy.layers_retired) << e << "/" << s;
            EXPECT_EQ(cx.compute_cycles, cy.compute_cycles) << e << "/" << s;
            EXPECT_EQ(cx.page_wait_cycles, cy.page_wait_cycles)
                << e << "/" << s;
            EXPECT_EQ(cx.page_timeouts, cy.page_timeouts) << e << "/" << s;
            EXPECT_EQ(cx.completions, cy.completions) << e << "/" << s;
            EXPECT_EQ(cx.slack_cycles, cy.slack_cycles) << e << "/" << s;
        }
    }
}

// ---- split-run driver -------------------------------------------------

/// Runs `cfg` in segments: at each boundary the run pauses (when a pause
/// point at/after it exists before completion), the state is serialized to
/// bytes, decoded, and resumed in a brand-new scheduler with a brand-new
/// generator. Returns the final result; counts actual pauses and — the
/// typed-event engine's whole point — the pauses taken mid-flight, with
/// inferences running and layers split mid-tile.
experiment_result run_split(const experiment_config& cfg,
                            const std::vector<cycle_t>& boundaries,
                            std::size_t* pauses = nullptr,
                            std::size_t* midflight = nullptr) {
    auto gen = runtime::make_workload_generator(cfg);
    auto sched = std::make_unique<runtime::scheduler>(cfg, *gen);
    for (const cycle_t b : boundaries) {
        if (!sched->run_segment(b)) break;  // workload completed first
        if (pauses) ++*pauses;
        const std::vector<std::uint8_t> bytes = sched->save().encode();
        const scheduler_snapshot snap = scheduler_snapshot::decode(bytes);
        if (midflight && !snap.running.empty()) ++*midflight;
        gen = runtime::make_workload_generator(cfg);
        sched = std::make_unique<runtime::scheduler>(cfg, *gen, snap,
                                                     resume_mode::exact);
    }
    return sched->run();
}

/// ~10 seeded boundaries spread over the continuous run's makespan.
std::vector<cycle_t> seeded_boundaries(cycle_t makespan, std::uint64_t seed,
                                       std::size_t count = 10) {
    rng r(seed);
    std::vector<cycle_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(1 + r.next_below(std::max<cycle_t>(makespan, 2) - 1));
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<const model::model*> small_catalog() {
    return {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
}

experiment_config base_cfg() {
    experiment_config cfg;
    cfg.workload = small_catalog();
    cfg.co_located = 2;
    cfg.telemetry = true;
    cfg.seed = 17;
    return cfg;
}

void check_resume_equivalence(const experiment_config& cfg,
                              std::uint64_t boundary_seed) {
    const experiment_result continuous = sim::run_experiment(cfg);
    const auto boundaries =
        seeded_boundaries(continuous.makespan, boundary_seed);
    std::size_t pauses = 0;
    std::size_t midflight = 0;
    const experiment_result split =
        run_split(cfg, boundaries, &pauses, &midflight);
    // A reasonable share of the boundaries must genuinely pause mid-run —
    // otherwise the property degenerates to comparing two continuous runs.
    EXPECT_GE(pauses, 3u) << "too few mid-run checkpoint boundaries";
    // And most of those must be *non-quiescent*: the seeded cycles land
    // inside layers, so the snapshots carry running inferences, layer-run
    // cursors and DMA flights — the mid-layer property under test.
    EXPECT_GE(midflight, 3u) << "too few mid-flight (non-quiescent) pauses";
    expect_identical(continuous, split);
}

// ---- resume equivalence per workload generator ------------------------

TEST(checkpoint, resume_equivalence_closed_loop_with_think_time) {
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::closed_loop;
    cfg.pol = sim::policy::moca;  // exercises the bw-epoch timer re-arm
    cfg.inferences_per_slot = 4;
    cfg.think_time_ms = 1.0;
    check_resume_equivalence(cfg, 101);
}

TEST(checkpoint, resume_equivalence_open_loop_poisson) {
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_full;
    cfg.arrival_rate_per_ms = 1.0;
    cfg.total_arrivals = 12;
    cfg.admission_queue_limit = 4;
    check_resume_equivalence(cfg, 202);
}

TEST(checkpoint, resume_equivalence_open_loop_mmpp) {
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::open_loop_mmpp;
    cfg.pol = sim::policy::camdn_adaptive;  // controller state must carry
    cfg.arrival_rate_per_ms = 1.0;
    cfg.mmpp_rate_scale = {0.25, 3.0};
    cfg.mmpp_sojourn_ms = 3.0;
    cfg.total_arrivals = 12;
    cfg.admission_queue_limit = runtime::unbounded_queue;
    check_resume_equivalence(cfg, 303);
}

TEST(checkpoint, resume_equivalence_tenant_churn) {
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::tenant_churn;
    cfg.pol = sim::policy::camdn_full;
    cfg.qos_mode = true;  // deadline bookkeeping must carry too
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF."),
                    &model::model_by_abbr("RS."),
                    &model::model_by_abbr("VT.")};
    cfg.arrival_rate_per_ms = 0.6;
    cfg.churn_interval_ms = 4.0;
    cfg.churn_active_models = 2;
    cfg.total_arrivals = 12;
    cfg.admission_queue_limit = 8;
    check_resume_equivalence(cfg, 404);
}

TEST(checkpoint, resume_equivalence_three_slots_mid_layer) {
    // Three concurrent slots put three layer runs in one snapshot at once
    // (regression: the engine-section record stride must match exactly, or
    // multi-slot snapshots with little DMA state are rejected as
    // truncated).
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_full;
    cfg.co_located = 3;
    cfg.arrival_rate_per_ms = 2.0;  // saturating: all slots stay busy
    cfg.total_arrivals = 15;
    cfg.admission_queue_limit = runtime::unbounded_queue;
    check_resume_equivalence(cfg, 606);
}

TEST(checkpoint, resume_equivalence_closed_loop_churn_hybrid) {
    // The hybrid generator swaps a slot's model mid-run (CPT teardown
    // under adaptation) while re-dispatching closed-loop with think time;
    // mid-layer splits must still be bit-identical.
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::closed_loop_churn;
    cfg.pol = sim::policy::camdn_adaptive;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF."),
                    &model::model_by_abbr("RS."),
                    &model::model_by_abbr("VT.")};
    cfg.inferences_per_slot = 4;
    cfg.think_time_ms = 1.0;
    cfg.churn_interval_ms = 4.0;
    cfg.churn_active_models = 2;
    check_resume_equivalence(cfg, 505);
}

TEST(checkpoint, repeated_boundaries_round_trip_without_progress) {
    // Boundaries that all land before the first quiescent instant after
    // the first one collapse onto the same checkpoint: every extra
    // boundary exercises a save/encode/decode/resume cycle with no
    // simulation progress in between, and the result must still match.
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_full;
    cfg.arrival_rate_per_ms = 0.5;
    cfg.total_arrivals = 6;
    cfg.admission_queue_limit = runtime::unbounded_queue;
    const experiment_result continuous = sim::run_experiment(cfg);
    const cycle_t mid = continuous.makespan / 2;
    const experiment_result split =
        run_split(cfg, {mid, mid, mid, mid + 1, mid + 2});
    expect_identical(continuous, split);
}

// ---- snapshot round-trip and rejection --------------------------------

scheduler_snapshot mid_run_snapshot(const experiment_config& cfg,
                                    cycle_t boundary) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    EXPECT_TRUE(sched.run_segment(boundary));
    return sched.save();
}

experiment_config roundtrip_cfg() {
    auto cfg = base_cfg();
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_adaptive;
    cfg.arrival_rate_per_ms = 0.8;
    cfg.total_arrivals = 8;
    cfg.admission_queue_limit = 8;
    return cfg;
}

TEST(checkpoint, snapshot_reencode_is_byte_identical) {
    const auto cfg = roundtrip_cfg();
    const auto snap = mid_run_snapshot(cfg, ms_to_cycles(2.0));
    const auto bytes = snap.encode();
    const auto decoded = scheduler_snapshot::decode(bytes);
    const auto bytes2 = decoded.encode();
    ASSERT_EQ(bytes.size(), bytes2.size());
    EXPECT_EQ(bytes, bytes2);
    // The mid-run snapshot is non-trivial: warm machine state is present.
    EXPECT_FALSE(decoded.machine.empty());
    EXPECT_FALSE(decoded.telemetry.empty());
    EXPECT_FALSE(decoded.controller.empty());
    EXPECT_FALSE(decoded.workload.empty());
    EXPECT_GT(decoded.now, 0u);
}

TEST(checkpoint, mid_layer_snapshot_carries_in_flight_state) {
    // Walk pause points until one lands with an inference mid-layer; the
    // snapshot must then carry the running slot, a layer-run cursor or DMA
    // flight in the engine section, and pending typed events — and still
    // re-encode byte-identically.
    const auto cfg = roundtrip_cfg();
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    scheduler_snapshot snap;
    bool found = false;
    for (cycle_t b = ms_to_cycles(0.5); sched.run_segment(b);
         b += ms_to_cycles(0.25)) {
        snap = sched.save();
        if (!snap.running.empty()) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no pause point landed mid-inference";
    EXPECT_FALSE(snap.engine.empty());
    EXPECT_FALSE(snap.typed_events.empty());
    const auto bytes = snap.encode();
    EXPECT_EQ(bytes, scheduler_snapshot::decode(bytes).encode());

    // The in-flight slot's busy cores are accounted: cores split between
    // the free stack and the running records exactly.
    std::size_t assigned = 0;
    for (const auto& rs : snap.running) {
        EXPECT_FALSE(rs.model.empty());
        EXPECT_EQ(rs.cores.size(), rs.core_busy_since.size());
        assigned += rs.cores.size();
    }
    EXPECT_EQ(snap.free_cores.size() + assigned, cfg.soc.npu.cores);
}

TEST(checkpoint, legacy_version1_snapshots_are_rejected_with_clear_error) {
    const auto cfg = roundtrip_cfg();
    auto bytes = mid_run_snapshot(cfg, ms_to_cycles(2.0)).encode();
    // Rewrite the version field (little-endian u32 at offset 4) to 1.
    bytes[4] = 1;
    bytes[5] = bytes[6] = bytes[7] = 0;
    try {
        scheduler_snapshot::decode(bytes);
        FAIL() << "legacy v1 snapshot accepted";
    } catch (const snapshot_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version 1"), std::string::npos) << what;
        EXPECT_NE(what.find("legacy"), std::string::npos) << what;
    }
}

TEST(checkpoint, truncated_snapshots_are_rejected) {
    const auto cfg = roundtrip_cfg();
    const auto bytes = mid_run_snapshot(cfg, ms_to_cycles(2.0)).encode();
    ASSERT_GT(bytes.size(), 64u);
    // Any strict prefix must throw, never crash or mis-parse. The header
    // is covered exhaustively; the (large) body by seeded sampling — the
    // full sweep would be quadratic in the snapshot size.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len < 64; ++len) lengths.push_back(len);
    rng r(7);
    for (int i = 0; i < 64; ++i)
        lengths.push_back(static_cast<std::size_t>(
            r.next_below(bytes.size() - 1)));
    lengths.push_back(bytes.size() - 1);
    for (const std::size_t len : lengths) {
        std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
        EXPECT_THROW(scheduler_snapshot::decode(cut), snapshot_error)
            << "prefix length " << len;
    }
}

TEST(checkpoint, bad_magic_version_and_trailing_bytes_are_rejected) {
    const auto cfg = roundtrip_cfg();
    const auto bytes = mid_run_snapshot(cfg, ms_to_cycles(2.0)).encode();

    auto corrupt = bytes;
    corrupt[0] ^= 0xff;  // magic
    try {
        scheduler_snapshot::decode(corrupt);
        FAIL() << "bad magic accepted";
    } catch (const snapshot_error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }

    corrupt = bytes;
    corrupt[4] += 1;  // version
    try {
        scheduler_snapshot::decode(corrupt);
        FAIL() << "version skew accepted";
    } catch (const snapshot_error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }

    corrupt = bytes;
    corrupt.push_back(0);  // trailing garbage
    EXPECT_THROW(scheduler_snapshot::decode(corrupt), snapshot_error);
}

TEST(checkpoint, header_slot_count_must_match_the_per_slot_counters) {
    // Readers size per-slot state (the telemetry bus) from the header's
    // slot count, so decode holds it to the counters the snapshot carries.
    auto snap = mid_run_snapshot(roundtrip_cfg(), ms_to_cycles(2.0));
    EXPECT_NO_THROW(scheduler_snapshot::decode(snap.encode()));
    snap.slots = 0xffffffffu;
    EXPECT_THROW(scheduler_snapshot::decode(snap.encode()), snapshot_error);
}

TEST(checkpoint, resume_rejects_mismatched_configurations) {
    const auto cfg = roundtrip_cfg();
    const auto snap = mid_run_snapshot(cfg, ms_to_cycles(2.0));

    // Different machine (slot count): both resume modes refuse.
    auto other = cfg;
    other.co_located = 4;
    auto gen = runtime::make_workload_generator(other);
    EXPECT_THROW(runtime::scheduler(other, *gen, snap, resume_mode::exact),
                 snapshot_error);
    EXPECT_THROW(runtime::scheduler(other, *gen, snap, resume_mode::warm),
                 snapshot_error);

    // Different arrival side (seed): exact refuses, warm accepts.
    auto reseeded = cfg;
    reseeded.seed = cfg.seed + 1;
    auto gen2 = runtime::make_workload_generator(reseeded);
    EXPECT_THROW(runtime::scheduler(reseeded, *gen2, snap, resume_mode::exact),
                 snapshot_error);
    EXPECT_NO_THROW(
        runtime::scheduler(reseeded, *gen2, snap, resume_mode::warm));
}

TEST(checkpoint, corrupt_but_well_formed_state_is_rejected) {
    const auto cfg = roundtrip_cfg();
    const auto snap = mid_run_snapshot(cfg, ms_to_cycles(2.0));

    // Duplicated free-core stack entry (one core dispatched twice).
    auto dup = snap;
    ASSERT_GE(dup.free_cores.size(), 2u);
    dup.free_cores[0] = dup.free_cores[1];
    auto gen = runtime::make_workload_generator(cfg);
    EXPECT_THROW(runtime::scheduler(cfg, *gen, dup, resume_mode::exact),
                 snapshot_error);

    // Page pool whose contents are not a permutation of the real pages:
    // byte-surgery on a serialized pool (u32 total, u64 count, then the
    // free list) duplicating the first free pcpn into the second slot.
    cache::cache_config cc;
    cache::page_allocator pool(cc);
    snapshot_writer w;
    pool.save_state(w);
    auto bytes = w.take();
    ASSERT_GT(bytes.size(), 20u);
    for (int b = 0; b < 4; ++b) bytes[16 + b] = bytes[12 + b];
    snapshot_reader r(bytes);
    cache::page_allocator fresh(cc);
    EXPECT_THROW(fresh.restore_state(r), snapshot_error);

    // CPT entry mapping a physical page beyond the cache.
    cache::cache_page_table cpt(cc);
    snapshot_writer cw;
    cpt.save_state(cw);
    auto cbytes = cw.take();
    ASSERT_GT(cbytes.size(), 13u);
    for (int b = 0; b < 4; ++b) cbytes[8 + b] = 0xff;  // entry 0 pcpn
    cbytes[12] = 1;                                    // entry 0 valid
    snapshot_reader cr(cbytes);
    cache::cache_page_table fresh_cpt(cc);
    EXPECT_THROW(fresh_cpt.restore_state(cr), snapshot_error);
}

TEST(checkpoint, continuing_past_a_held_pause_lifts_the_hold) {
    // After a hold-dispatch pause, run() on the same scheduler must lift
    // the hold and dispatch the carried backlog — not finalize with the
    // queue still frozen.
    const auto* mb = &model::model_by_abbr("MB.");
    experiment_config seg;
    seg.workload = {mb};
    seg.co_located = 1;
    seg.pol = sim::policy::camdn_full;
    seg.kind = runtime::workload_kind::trace_replay;
    for (cycle_t i = 0; i < 4; ++i) seg.trace.push_back({1000 + i, mb});
    seg.admission_queue_limit = 8;

    auto gen = runtime::make_workload_generator(seg);
    runtime::scheduler sched(seg, *gen);
    ASSERT_TRUE(sched.run_segment_hold_dispatch(/*hold_after=*/1001));
    const auto res = sched.run();
    EXPECT_EQ(res.completions.size(), 4u);
}

TEST(checkpoint, exact_resume_of_a_held_snapshot_rearms_the_bw_chain) {
    // Hold-dispatch cancels the MoCA bandwidth-epoch chain before the
    // save; an exact resume must re-arm it (like a warm resume does), not
    // run the rest of the workload with bandwidth regulation dead.
    const auto* mb = &model::model_by_abbr("MB.");
    experiment_config seg;
    seg.workload = {mb};
    seg.co_located = 2;
    seg.pol = sim::policy::moca;
    seg.kind = runtime::workload_kind::trace_replay;
    for (cycle_t i = 0; i < 6; ++i) seg.trace.push_back({1000 + 10 * i, mb});
    seg.admission_queue_limit = 8;

    auto gen = runtime::make_workload_generator(seg);
    runtime::scheduler sched(seg, *gen);
    ASSERT_TRUE(sched.run_segment_hold_dispatch(/*hold_after=*/1005));
    const auto snap = sched.save();
    event_queue typed;
    snapshot_reader typed_reader(snap.typed_events);
    typed.restore_typed(typed_reader);
    EXPECT_EQ(typed.pending(event_channel::sched,
                            static_cast<std::uint8_t>(
                                runtime::sched_event::bw_epoch)),
              0u);
    ASSERT_FALSE(snap.admission_queue.empty());

    auto gen2 = runtime::make_workload_generator(seg);
    runtime::scheduler resumed(seg, *gen2, snap, resume_mode::exact);
    const auto res = resumed.run();
    EXPECT_EQ(res.completions.size(), 6u);
    // The chain ran after the resume: completions spaced more than one
    // bw epoch apart prove epochs kept firing without deadlocking, and
    // the run terminated (drain cancelled the re-armed chain again).
    EXPECT_GT(res.makespan, 1005u);
}

// ---- warm resume (new workload on the warm machine) -------------------

TEST(checkpoint, warm_resume_carries_clock_and_cache_warmth) {
    // Segment 1: a trace of MB. inferences on the transparent-path MoCA
    // policy populates the cache.
    const auto* mb = &model::model_by_abbr("MB.");
    experiment_config seg1;
    seg1.workload = {mb};
    seg1.co_located = 2;
    seg1.pol = sim::policy::moca;
    seg1.kind = runtime::workload_kind::trace_replay;
    for (int i = 0; i < 6; ++i)
        seg1.trace.push_back({ms_to_cycles(0.5) * (i + 1), mb});
    seg1.telemetry = true;

    runtime::scheduler_snapshot snap;
    const auto res1 =
        sim::run_experiment_segment(seg1, nullptr, &snap);
    ASSERT_EQ(res1.completions.size(), 6u);

    // Segment 2: the same trace shape, shifted past segment 1's end.
    experiment_config seg2 = seg1;
    seg2.trace.clear();
    for (int i = 0; i < 6; ++i)
        seg2.trace.push_back({snap.now + ms_to_cycles(0.5) * (i + 1), mb});

    const auto warm = sim::run_experiment_segment(seg2, &snap, nullptr);
    const auto cold = sim::run_experiment_segment(seg2, nullptr, nullptr);
    ASSERT_EQ(warm.completions.size(), 6u);
    ASSERT_EQ(cold.completions.size(), 6u);

    // The clock continued: segment 2 completions happen after segment 1.
    EXPECT_GT(warm.completions.front().start, res1.makespan);
    // Warmth: the resumed run's first-inference hit rate beats cold start.
    // (Cumulative stats carry, so compare the per-segment delta on warm.)
    const auto warm_delta_hits = warm.cache_stats.hits - res1.cache_stats.hits;
    const auto warm_delta_miss =
        warm.cache_stats.misses - res1.cache_stats.misses;
    const double warm_rate =
        static_cast<double>(warm_delta_hits) /
        static_cast<double>(warm_delta_hits + warm_delta_miss);
    const double cold_rate =
        static_cast<double>(cold.cache_stats.hits) /
        static_cast<double>(cold.cache_stats.hits + cold.cache_stats.misses);
    EXPECT_GT(warm_rate, cold_rate);
    // Warm resume starts a fresh result: only segment-2 completions and
    // telemetry epochs are reported.
    EXPECT_FALSE(warm.telemetry.empty());
    EXPECT_EQ(warm.telemetry.front().index, 0u);
}

TEST(checkpoint, in_place_carry_matches_a_separate_save) {
    // Fleet round barriers resume each SoC from its snapshot and save back
    // into the same object. That must give the same result and the same
    // bytes as saving into a separate snapshot.
    const auto cfg = roundtrip_cfg();
    scheduler_snapshot first;
    sim::run_experiment_segment(cfg, nullptr, &first, never, ms_to_cycles(1.0));
    ASSERT_FALSE(first.running.empty()) << "the carried state is mid-flight";

    scheduler_snapshot separate;
    const auto a = sim::run_experiment_segment(cfg, &first, &separate, never,
                                               ms_to_cycles(3.0));
    scheduler_snapshot carried = first;
    const auto b = sim::run_experiment_segment(cfg, &carried, &carried, never,
                                               ms_to_cycles(3.0));
    expect_identical(a, b);
    EXPECT_EQ(separate.encode(), carried.encode());
}

TEST(checkpoint, hold_dispatch_carries_the_admission_queue) {
    // Four back-to-back arrivals on one slot; dispatch is held just after
    // the first, so the remaining three pause in the admission queue and
    // ride the snapshot with their true arrival stamps.
    const auto* mb = &model::model_by_abbr("MB.");
    experiment_config seg;
    seg.workload = {mb};
    seg.co_located = 1;
    seg.pol = sim::policy::camdn_full;
    seg.kind = runtime::workload_kind::trace_replay;
    for (cycle_t i = 0; i < 4; ++i) seg.trace.push_back({1000 + i, mb});
    seg.admission_queue_limit = 8;

    auto gen = runtime::make_workload_generator(seg);
    runtime::scheduler sched(seg, *gen);
    ASSERT_TRUE(sched.run_segment_hold_dispatch(/*hold_after=*/1001));
    const auto res1 = sched.segment_result();
    const auto snap = sched.save();
    EXPECT_EQ(res1.completions.size(), 1u);  // dispatched before the hold
    ASSERT_EQ(snap.admission_queue.size(), 3u);
    EXPECT_EQ(snap.admission_queue.front().arrival, 1001u);
    EXPECT_EQ(snap.admission_queue.back().arrival, 1003u);

    // Snapshot round-trip keeps the queue; a warm resume with no further
    // arrivals drains exactly the carried backlog.
    const auto decoded = scheduler_snapshot::decode(snap.encode());
    experiment_config seg2 = seg;
    seg2.trace.clear();
    const auto res2 = sim::run_experiment_segment(seg2, &decoded, nullptr);
    ASSERT_EQ(res2.completions.size(), 3u);
    for (const auto& rec : res2.completions) {
        EXPECT_GE(rec.arrival, 1001u);  // true arrival stamps survived
        EXPECT_LE(rec.arrival, 1003u);
        EXPECT_GE(rec.start, snap.now);  // served at/after the resume
    }
}

// ---- live segments vs the snapshot carry ------------------------------

TEST(checkpoint, live_segments_match_snapshot_carry) {
    // Fleet rounds continue each SoC's scheduler in place
    // (start_next_segment). The snapshot carry it replaced — save, then a
    // warm resume in a fresh scheduler — stays the reference: after every
    // round the two must agree on the result and on the saved bytes.
    // Round 2 ends on a burst and lifts the queued part of it (a fleet
    // drain); round 3 brings no arrivals, so the SoC finishes before its
    // pause and the next round continues a finished machine. The last
    // round runs to drain.
    constexpr std::size_t rounds = 7, lift_round = 2, idle_round = 3;
    const auto catalog = small_catalog();
    std::vector<std::vector<runtime::trace_arrival>> slices(rounds);
    std::vector<cycle_t> pauses(rounds, never);
    rng r(23);
    cycle_t start = 0;
    for (std::size_t k = 0; k < rounds; ++k) {
        const cycle_t window = ms_to_cycles(k == idle_round ? 10.0 : 1.0);
        auto arrive = [&](cycle_t at) {
            slices[k].push_back({at, catalog[r.next_below(catalog.size())]});
        };
        if (k != idle_round)
            for (int i = 0; i < 2; ++i) arrive(start + r.next_below(window));
        if (k == lift_round)
            for (cycle_t i = 0; i < 3; ++i) arrive(start + window - 10 + i);
        start += window;
        if (k + 1 < rounds) pauses[k] = start;
    }

    for (const auto pol :
         {sim::policy::camdn_full, sim::policy::camdn_adaptive,
          sim::policy::aurora, sim::policy::moca, sim::policy::camdn_hw_only,
          sim::policy::shared_baseline}) {
        for (const bool qos : {false, true}) {
            SCOPED_TRACE(std::string(sim::policy_name(pol)) +
                         (qos ? " qos" : ""));
            experiment_config cfg;
            cfg.soc.cache.total_bytes = mib(4);  // small snapshots, fast test
            cfg.workload = catalog;
            cfg.pol = pol;
            cfg.co_located = 2;
            cfg.kind = runtime::workload_kind::trace_replay;
            cfg.admission_queue_limit = runtime::unbounded_queue;
            cfg.telemetry = true;
            cfg.qos_mode = qos;

            // The live side: one scheduler, its config updated in place.
            experiment_config live_cfg = cfg;
            std::unique_ptr<runtime::workload_generator> gen;
            std::unique_ptr<runtime::scheduler> live;
            scheduler_snapshot carried;  // the reference side
            bool finished_early = false;
            for (std::size_t k = 0; k < rounds; ++k) {
                live_cfg.trace = slices[k];
                auto next = runtime::make_workload_generator(live_cfg);
                if (live)
                    live->start_next_segment(*next);
                else
                    live = std::make_unique<runtime::scheduler>(live_cfg,
                                                                *next);
                gen = std::move(next);
                const bool paused = live->run_segment(pauses[k]);
                if (k + 1 < rounds && !paused) finished_early = true;
                const experiment_result a = live->segment_result();

                experiment_config seg = cfg;
                seg.trace = slices[k];
                const experiment_result b = sim::run_experiment_segment(
                    seg, k ? &carried : nullptr, &carried, never, pauses[k]);

                SCOPED_TRACE("round " + std::to_string(k));
                expect_identical(a, b);
                EXPECT_EQ(a.events_executed, b.events_executed);
                ASSERT_EQ(live->save().encode(), carried.encode());

                if (k == lift_round) {
                    const auto lifted = live->lift_admission_queue();
                    ASSERT_FALSE(lifted.empty());
                    ASSERT_EQ(lifted.size(), carried.admission_queue.size());
                    for (std::size_t i = 0; i < lifted.size(); ++i) {
                        EXPECT_EQ(lifted[i].mdl->name,
                                  carried.admission_queue[i].model);
                        EXPECT_EQ(lifted[i].at,
                                  carried.admission_queue[i].arrival);
                    }
                    carried.admission_queue.clear();
                    EXPECT_EQ(live->pending(), 0u);
                }
            }
            EXPECT_TRUE(finished_early);
            EXPECT_TRUE(live->finished());
        }
    }
}

// ---- time-sliced fleet rounds (serve::run_cluster) --------------------

serve::cluster_config time_sliced_cluster() {
    serve::soc_instance_config inst;
    inst.slots = 2;
    inst.admission_queue_limit = 32;
    auto cfg = serve::uniform_cluster(2, inst);
    cfg.models = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF."),
                  &model::model_by_abbr("RS.")};
    cfg.arrival_rate_per_ms = 2.0;
    cfg.total_arrivals = 48;
    cfg.seed = 11;
    cfg.feedback_rounds = 4;
    cfg.round_cycles = ms_to_cycles(6.0);
    cfg.threads = 1;
    return cfg;
}

TEST(checkpoint, time_sliced_rounds_are_deterministic_across_pool_widths) {
    auto cfg = time_sliced_cluster();
    const auto a = serve::run_cluster(cfg);
    cfg.threads = 4;
    const auto b = serve::run_cluster(cfg);

    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped_queue, b.dropped_queue);
    EXPECT_EQ(a.dropped_unroutable, b.dropped_unroutable);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.replacements, b.replacements);
    ASSERT_EQ(a.per_soc.size(), b.per_soc.size());
    for (std::size_t i = 0; i < a.per_soc.size(); ++i) {
        EXPECT_EQ(a.per_soc[i].makespan, b.per_soc[i].makespan) << i;
        EXPECT_EQ(a.per_soc[i].completions.size(),
                  b.per_soc[i].completions.size())
            << i;
    }
}

TEST(checkpoint, time_sliced_rounds_account_for_every_arrival) {
    // Rounds pause SoCs mid-layer, so intermediate per-SoC results hold
    // partial work — but across all rounds every routed arrival either
    // completes or is dropped at a full queue, exactly once.
    const auto cfg = time_sliced_cluster();
    const auto res = serve::run_cluster(cfg);
    EXPECT_EQ(res.arrivals, cfg.total_arrivals);
    EXPECT_EQ(res.completed + res.dropped_queue + res.dropped_unroutable,
              res.arrivals);
    // The slicing is real: rounds beyond the first exist and carry work.
    EXPECT_EQ(res.per_soc.size(), cfg.socs.size() * cfg.feedback_rounds);
    // Intermediate rounds paused at their windows: some round boundary
    // cut a SoC mid-run (its round makespan sits at the window edge while
    // later rounds continue past it).
    EXPECT_GT(res.makespan, cfg.round_cycles);
}

TEST(checkpoint, equal_count_and_fixed_windows_complete_the_same_stream) {
    auto fixed = time_sliced_cluster();
    auto counted = fixed;
    counted.round_cycles = 0;  // equal-count windows
    const auto a = serve::run_cluster(fixed);
    const auto b = serve::run_cluster(counted);
    // Same stream, same fleet: both serve every arrival (the windows
    // differ, so scheduling and latencies may — the invariant is
    // accounting), and both pause and carry at every window edge.
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed + a.dropped_queue + a.dropped_unroutable,
              a.arrivals);
    EXPECT_EQ(b.completed + b.dropped_queue + b.dropped_unroutable,
              b.arrivals);
    EXPECT_EQ(a.per_soc.size(), b.per_soc.size());
}

// ---- drained-run makespan (cancellable bw-epoch timer) ----------------

TEST(checkpoint, drained_open_loop_run_does_not_inflate_makespan) {
    // MoCA re-arms its bandwidth epoch every runtime::bw_epoch_cycles. Before
    // the cancellable timer, the pending epoch event dragged the clock past
    // the last completion on drained runs, inflating the makespan by up to
    // one epoch. The makespan must now be exactly the last completion.
    experiment_config cfg;
    cfg.workload = small_catalog();
    cfg.pol = sim::policy::moca;
    cfg.co_located = 2;
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.arrival_rate_per_ms = 2.0;
    cfg.total_arrivals = 6;
    cfg.admission_queue_limit = runtime::unbounded_queue;

    const auto res = sim::run_experiment(cfg);
    ASSERT_EQ(res.completions.size(), 6u);
    cycle_t last_end = 0;
    for (const auto& rec : res.completions)
        last_end = std::max(last_end, rec.end);
    EXPECT_EQ(res.makespan, last_end);
}

TEST(checkpoint, closed_loop_think_time_zero_matches_legacy_exactly) {
    experiment_config cfg;
    cfg.workload = small_catalog();
    cfg.pol = sim::policy::camdn_full;
    cfg.co_located = 2;
    cfg.inferences_per_slot = 2;
    cfg.seed = 9;

    auto with_field = cfg;
    with_field.think_time_ms = 0.0;
    expect_identical(sim::run_experiment(cfg), sim::run_experiment(with_field));

    // A positive think time stretches the run but serves the same plan.
    auto thinking = cfg;
    thinking.think_time_ms = 1.0;
    const auto slow = sim::run_experiment(thinking);
    EXPECT_EQ(slow.completions.size(), 4u);
    EXPECT_GT(slow.makespan, sim::run_experiment(cfg).makespan);
}

}  // namespace
}  // namespace camdn
