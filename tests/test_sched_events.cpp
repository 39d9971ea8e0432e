// The scheduler's typed-event channel through snapshots.
//
// Generator arrivals, think-time re-dispatches and the bandwidth-epoch
// timer are typed sched-channel events, so a snapshot's typed section holds
// the run's whole future:
//   * a crafted typed section — a page retry for a slot past the table, an
//     unknown sched kind, an arrival token past the arrival list, a
//     re-dispatch for a slot past the slot count — throws on exact resume
//     and run instead of indexing out of range;
//   * a crafted typed section whose events repeat a pending sequence
//     number, sit at or above the tie-break counter, or fall due before
//     the snapshot clock throws snapshot_error on exact resume instead of
//     running with an undefined pop order or a moved event;
//   * exact-resuming a mid-run snapshot and pausing again at the same
//     boundary, with no progress, re-encodes byte for byte (nothing is
//     re-armed under a new sequence number);
//   * a version-2 snapshot (pre typed-event-only engine) is rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/snapshot_io.h"
#include "model/model_zoo.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "sim/experiment.h"

namespace camdn {
namespace {

using runtime::resume_mode;
using runtime::sched_event;
using runtime::scheduler_snapshot;
using sim::experiment_config;

experiment_config demo_base() {
    experiment_config cfg;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
    cfg.co_located = 2;
    cfg.telemetry = true;
    cfg.seed = 17;
    return cfg;
}

/// camdn_snapshot's `--kind closed` demo: MoCA closed loop with think time.
experiment_config closed_demo() {
    auto cfg = demo_base();
    cfg.kind = runtime::workload_kind::closed_loop;
    cfg.pol = sim::policy::moca;
    cfg.inferences_per_slot = 12;
    cfg.think_time_ms = 1.0;
    return cfg;
}

/// camdn_snapshot's `--kind mmpp` demo: camdn_adaptive under MMPP arrivals.
experiment_config mmpp_demo() {
    auto cfg = demo_base();
    cfg.kind = runtime::workload_kind::open_loop_mmpp;
    cfg.pol = sim::policy::camdn_adaptive;
    cfg.arrival_rate_per_ms = 1.0;
    cfg.mmpp_rate_scale = {0.25, 3.0};
    cfg.mmpp_sojourn_ms = 3.0;
    cfg.total_arrivals = 12;
    cfg.admission_queue_limit = runtime::unbounded_queue;
    return cfg;
}

/// camdn_snapshot's `--kind poisson` demo: camdn_full open loop.
experiment_config poisson_demo() {
    auto cfg = demo_base();
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_full;
    cfg.arrival_rate_per_ms = 1.0;
    cfg.total_arrivals = 12;
    cfg.admission_queue_limit = 8;
    return cfg;
}

scheduler_snapshot paused_at(const experiment_config& cfg, cycle_t boundary) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    EXPECT_TRUE(sched.run_segment(boundary));
    return sched.save();
}

typed_event sched_ev(sched_event kind, std::uint64_t a) {
    return typed_event{static_cast<std::uint8_t>(event_channel::sched),
                       static_cast<std::uint8_t>(kind), a, 0};
}

/// `snap` with `ev` added to its typed section at (`when`, `seq`) as given:
/// the crafting queue's clock stays at 0, so nothing is clamped, and the
/// tie-break counter is left alone.
scheduler_snapshot with_typed_event(scheduler_snapshot snap, cycle_t when,
                                    std::uint64_t seq, const typed_event& ev) {
    event_queue q;
    snapshot_reader r(snap.typed_events);
    q.restore_typed(r);
    q.restore_event(when, seq, ev);
    snapshot_writer w;
    q.save_typed(w);
    snap.typed_events = w.take();
    return snap;
}

/// `snap` with one extra sched event due right after the pause, under the
/// next free sequence number.
scheduler_snapshot with_sched_event(scheduler_snapshot snap, sched_event kind,
                                    std::uint64_t a) {
    const cycle_t when = snap.now + 1;
    const std::uint64_t seq = snap.event_seq++;
    return with_typed_event(std::move(snap), when, seq, sched_ev(kind, a));
}

void resume_and_run(const experiment_config& cfg,
                    const scheduler_snapshot& snap) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen, snap, resume_mode::exact);
    sched.run();
}

TEST(sched_events, crafted_typed_sections_throw_instead_of_indexing_out) {
    struct crafted {
        const char* what;
        experiment_config cfg;
        sched_event kind;
        std::uint64_t a;
    };
    const crafted cases[] = {
        {"page retry for slot 99", poisson_demo(), sched_event::page_retry, 99},
        {"unknown sched kind", poisson_demo(), static_cast<sched_event>(200),
         0},
        {"arrival token past the list", poisson_demo(), sched_event::workload,
         12},
        {"re-dispatch for slot 99", closed_demo(), sched_event::workload, 99},
    };
    for (const auto& c : cases) {
        const auto snap = paused_at(c.cfg, 3'000'000);
        EXPECT_NO_THROW(resume_and_run(c.cfg, snap)) << c.what;
        EXPECT_THROW(resume_and_run(c.cfg, with_sched_event(snap, c.kind, c.a)),
                     std::exception)
            << c.what;
    }
}

TEST(sched_events, malformed_typed_sequences_and_times_throw) {
    const auto cfg = poisson_demo();
    const auto snap = paused_at(cfg, 3'000'000);
    // The first pending event's (when, seq): the typed section is sorted.
    snapshot_reader r(snap.typed_events);
    ASSERT_GT(r.u64(), 0u);
    const cycle_t first_when = r.u64();
    const std::uint64_t first_seq = r.u64();
    // A page retry for a slot with no armed negotiation does nothing when
    // it runs, so only the (when, seq) it is filed under can be at fault.
    for (const auto& rs : snap.running)
        ASSERT_FALSE(rs.slot == 0 && rs.neg_armed);
    const auto retry = sched_ev(sched_event::page_retry, 0);
    auto early = with_typed_event(snap, snap.now - 5, snap.event_seq, retry);
    early.event_seq += 1;
    const struct {
        const char* what;
        scheduler_snapshot snap;
    } cases[] = {
        {"repeats a pending sequence",
         with_typed_event(snap, first_when, first_seq, retry)},
        {"sequence at the tie-break counter",
         with_typed_event(snap, snap.now + 1, snap.event_seq, retry)},
        {"due before the snapshot clock", early},
    };
    for (const auto& c : cases)
        EXPECT_THROW(resume_and_run(cfg, c.snap), snapshot_error) << c.what;
}

TEST(sched_events, exact_resume_pauses_again_with_identical_bytes) {
    for (const auto& cfg : {closed_demo(), mmpp_demo()}) {
        const cycle_t boundary = 3'000'000;
        const auto bytes = paused_at(cfg, boundary).encode();
        auto gen = runtime::make_workload_generator(cfg);
        runtime::scheduler resumed(cfg, *gen, scheduler_snapshot::decode(bytes),
                                   resume_mode::exact);
        ASSERT_TRUE(resumed.run_segment(boundary));
        EXPECT_EQ(resumed.save().encode(), bytes)
            << "workload kind " << static_cast<int>(cfg.kind);
    }
}

TEST(sched_events, the_typed_section_carries_arrivals_and_the_epoch_timer) {
    auto pending = [](const scheduler_snapshot& snap, sched_event kind) {
        event_queue q;
        snapshot_reader r(snap.typed_events);
        q.restore_typed(r);
        return q.pending(event_channel::sched,
                         static_cast<std::uint8_t>(kind));
    };
    const auto closed = paused_at(closed_demo(), 3'000'000);
    EXPECT_EQ(pending(closed, sched_event::bw_epoch), 1u);
    const auto mmpp = paused_at(mmpp_demo(), 3'000'000);
    EXPECT_GT(pending(mmpp, sched_event::workload), 0u);
    EXPECT_EQ(pending(mmpp, sched_event::bw_epoch), 0u);
}

TEST(sched_events, version_2_snapshots_are_rejected) {
    auto bytes = paused_at(poisson_demo(), 3'000'000).encode();
    EXPECT_EQ(scheduler_snapshot::version, 5u);
    bytes[4] = 2;  // little-endian u32 version at offset 4
    EXPECT_THROW(scheduler_snapshot::decode(bytes), snapshot_error);
}

}  // namespace
}  // namespace camdn
