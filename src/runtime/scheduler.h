// The online multi-tenant scheduler, extracted from the experiment driver
// into a public runtime subsystem.
//
// Owns the simulated SoC and the per-slot task state. A workload_generator
// submits inferences (closed-loop slots, open-loop arrivals or a trace);
// the scheduler queues them for admission, assigns free task slots and NPU
// core groups, and runs each layer through the active policy's resource
// path: MoCA re-partitions bandwidth every epoch, AuRORA sizes core groups
// by deadline slack, the CaMDN variants manage the cache via static shares
// or the per-layer Algorithm-1 page negotiation with LBM.
//
// Runs are resumable at an *arbitrary* cycle: run_segment() pauses at the
// first inter-event instant at or after the requested boundary — mid-layer,
// with DMA chunks in flight and page negotiations pending — and save()
// serializes the full warm state as a scheduler_snapshot. Every pending
// event is a typed record — layer tile gates and stores, DMA chunk
// completions and, on the scheduler's own channel, page-negotiation
// retries, generator events (arrivals, think-time re-dispatches) and the
// bandwidth-epoch timer — so the snapshot's typed section holds the run's
// whole future. A scheduler constructed from the snapshot continues the run
// bit-identically (resume_mode::exact) or starts a new workload segment on
// the warm machine with the in-flight inferences carried across
// (resume_mode::warm). start_next_segment() starts that same warm segment
// on the live machine, with no snapshot: it is how the serve layer carries
// SoCs across fleet feedback rounds, and warm resume stays its reference.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "adapt/controller.h"
#include "adapt/telemetry.h"
#include "common/stats.h"
#include "runtime/bandwidth_allocator.h"
#include "runtime/cache_allocation.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/task.h"
#include "runtime/workload.h"
#include "sim/address_map.h"
#include "sim/experiment.h"
#include "sim/soc.h"

namespace camdn::runtime {

/// Kinds of the scheduler's typed events (event_channel::sched).
enum class sched_event : std::uint8_t {
    page_retry = 0,  ///< Algorithm-1 page-negotiation retry; a = slot
    workload = 1,    ///< generator event; a = the generator's token
    bw_epoch = 2,    ///< MoCA/AuRORA bandwidth re-partitioning epoch
};

/// How a scheduler constructed from a snapshot interprets it.
enum class resume_mode : std::uint8_t {
    /// Continue the same run bit-identically: the generator cursor, pending
    /// events, telemetry history and completions so far are restored, so
    /// the finished result matches an unsplit run exactly. Requires the
    /// identical experiment_config (validated by fingerprint) and a
    /// checkpointable generator.
    exact,
    /// Start a new workload on the warm machine: clock, cache contents,
    /// DRAM timing, controller state and per-slot counters carry over;
    /// results and telemetry history start empty. The SoC geometry, policy
    /// and slot count must match; the arrival side may differ (e.g. the
    /// next feedback round's trace slice).
    warm,
};

class scheduler final : public workload_control {
public:
    /// `cfg` must outlive the scheduler, and `gen` the scheduler or the
    /// start_next_segment() call that replaces it.
    scheduler(const sim::experiment_config& cfg, workload_generator& gen);

    /// Resumes from `snap` (see resume_mode). Throws snapshot_error when
    /// the snapshot does not fit `cfg`, or when an exact resume is
    /// requested without a restorable generator cursor.
    scheduler(const sim::experiment_config& cfg, workload_generator& gen,
              const scheduler_snapshot& snap, resume_mode mode);

    /// Runs the generator's workload to completion (deterministic under
    /// cfg.seed).
    sim::experiment_result run();

    /// Runs until the first pause point at or after `boundary`: any
    /// inter-event instant (the next live event strictly in the future),
    /// including mid-layer with transfers in flight — no quiescence wait.
    /// Returns true when paused (save() is now valid); false when the
    /// workload completed first (the result is finalized, as after run()).
    /// May be called repeatedly to advance through multiple boundaries.
    bool run_segment(cycle_t boundary);

    /// Segment-with-backlog variant for bounded workloads (with `never`,
    /// run_experiment's run to drain): once the clock passes `hold_after`,
    /// admission keeps accepting arrivals at their true times (dropping on
    /// a full queue, exactly as live) but no new inference dispatches;
    /// running work finishes and the scheduler pauses with the queued
    /// backlog intact.
    /// save() then carries the admission queue, and a warm resume
    /// dispatches it first — no thundering-herd clamp of late arrivals.
    /// Returns true when paused with held work, false when the workload
    /// drained completely first (finalized, as after run()).
    bool run_segment_hold_dispatch(cycle_t hold_after);

    /// Serializes the warm state, including any in-flight inferences.
    /// Valid while paused or after completion; throws std::logic_error
    /// otherwise.
    scheduler_snapshot save() const;

    /// Starts the next workload segment on this machine in place. Valid
    /// while paused or finished; the next run_segment() runs it. The
    /// segment starts from exactly the state that save() followed by a
    /// resume_mode::warm construction would give it. The clock, machine,
    /// in-flight inferences, admission queue, open telemetry epoch and
    /// controller state carry over. Results, events_executed and the
    /// telemetry history restart, so epoch indices count from 0 again. The
    /// observer in the config re-attaches as on a fresh machine, and the
    /// bandwidth-epoch timer re-arms at the segment start. `gen` replaces
    /// the generator. The previous generator must be exhausted, and may be
    /// destroyed once this returns. Between segments the caller may change
    /// the referenced config's trace and observer, but not its machine or
    /// telemetry setup. Throws std::logic_error when a precondition fails.
    void start_next_segment(workload_generator& gen);

    /// Inferences currently running (busy task slots).
    std::size_t running_count() const;
    /// Removes every admitted-but-undispatched request from the admission
    /// queue and returns them in queue order, each with its own arrival
    /// stamp (a pinned slot is not kept). Valid while paused or finished;
    /// a draining fleet SoC hands its backlog to the rest of the fleet
    /// this way. Throws std::logic_error otherwise.
    std::vector<trace_arrival> lift_admission_queue();

    /// The finalized result (valid once run()/run_segment() completed).
    const sim::experiment_result& result() const { return result_; }
    bool finished() const { return finalized_; }

    /// The segment's result so far — the same fields as a finalized
    /// result with makespan = the pause instant. Cuts the trailing open
    /// telemetry epoch, so call it before save() when both are wanted
    /// (the cut then carries into the snapshot and the next segment's
    /// epochs start at the boundary). Throws std::logic_error unless
    /// paused or finished.
    sim::experiment_result segment_result();

    // ---- workload_control ----
    cycle_t now() const override { return machine_.eq().now(); }
    void at(cycle_t when, std::uint64_t token) override;
    void submit(const model::model* mdl, cycle_t arrival,
                task_id slot = no_task) override;
    std::size_t pending() const override { return dispatch_queue_.size(); }

private:
    /// One admitted inference request. slot == no_task means "any free
    /// slot" (open-loop arrivals); closed-loop requests pin their slot.
    struct work_item {
        const model::model* mdl = nullptr;
        cycle_t arrival = 0;
        task_id slot = no_task;
    };

    bool use_bw_alloc() const {
        // camdn_adaptive regulates bandwidth through its feedback
        // controller, not the per-layer MoCA allocator.
        return cfg_.pol == sim::policy::moca ||
               cfg_.pol == sim::policy::aurora ||
               (cfg_.qos_mode && sim::is_camdn(cfg_.pol) &&
                cfg_.pol != sim::policy::camdn_adaptive);
    }
    bool use_npu_alloc() const {
        return cfg_.pol == sim::policy::aurora ||
               (cfg_.qos_mode && sim::is_camdn(cfg_.pol));
    }
    bool adaptive() const { return cfg_.pol == sim::policy::camdn_adaptive; }
    /// The bus and its epoch grid and DRAM marks ride snapshots when the
    /// run asks for telemetry or the controller reads it; a bus that only
    /// feeds observers is observation, saved as a bare run's.
    bool telemetry_saved() const { return cfg_.telemetry || adaptive(); }

    std::vector<const task*> running_tasks_const() const;
    std::vector<task*> running_tasks();
    std::uint64_t est_total_cycles(const task& t) const;

    task_id pick_free_slot() const;
    void try_dispatch();
    void begin_inference(task& t);
    void begin_layer(task& t);
    void negotiate_pages(task& t, allocation_decision d);
    void grant_and_run(task& t, const allocation_decision& d);
    void run_layer(task& t, const mapping::mapping_candidate& cand);
    /// Handler of the sched channel: dispatches on sched_event and throws
    /// std::logic_error on an unknown kind or a slot past the table.
    void on_sched_event(const typed_event& ev);
    /// page_retry: rebuilds the slot's armed allocation decision and
    /// re-enters negotiate_pages.
    void on_page_retry(task_id slot);
    void end_layer(task& t, cycle_t end);
    void end_inference(task& t, cycle_t end);
    void remap_cpt(task& t);
    std::uint32_t predict_next_pages(const task& t);
    void schedule_bw_epoch();
    /// Lazy epoch boundary: cuts a telemetry epoch once simulation time
    /// passes the next boundary. Called from layer activity rather than a
    /// scheduled event so telemetry never adds events to the queue (an
    /// observing run stays bit-identical to a bare one, makespan
    /// included).
    void maybe_cut_epoch();
    void cut_epoch();
    void apply_action(const adapt::control_action& a);
    void update_done();

    /// First-run / first-resume setup: starts the generator (unless
    /// resuming exactly, whose events are already queued) and arms the
    /// bandwidth-epoch timer.
    void start_if_needed();
    /// Fills result_ from the current simulation state (idempotent).
    void fill_result();
    /// Fills result_ and marks the run finished.
    void finalize();
    /// True at an instant eligible for save(): the next event is strictly
    /// in the future (work may be mid-flight — the typed-event engine
    /// serializes it).
    bool at_pause_point();
    void restore(const scheduler_snapshot& snap, resume_mode mode);
    std::uint64_t machine_fingerprint() const;
    std::uint64_t run_fingerprint() const;

    const sim::experiment_config& cfg_;
    workload_generator* gen_;  // swapped by start_next_segment
    sim::soc machine_;
    cache_allocation_algorithm alg_;
    bandwidth_allocator bw_;

    std::vector<task> tasks_;
    std::vector<sim::address_map> addrs_;
    std::vector<bool> slot_busy_;

    /// Armed Algorithm-1 page-negotiation retry per slot: the payload the
    /// queued sched-channel page_retry event needs to rebuild its
    /// allocation_decision.
    struct pending_negotiation {
        bool armed = false;
        std::int32_t cand = -2;  ///< candidate_index in the layer's MCT
        std::uint32_t pages = 0;
        cycle_t timeout = never;
    };
    std::vector<pending_negotiation> neg_;

    std::vector<npu_id> free_cores_;
    std::deque<work_item> dispatch_queue_;

    // ---- telemetry + adaptive control (src/adapt) ----
    bool telemetry_on_ = false;
    adapt::telemetry_bus bus_;
    std::unique_ptr<adapt::feedback_controller> ctl_;
    /// Controller-published per-slot page shares (camdn_adaptive); alg_
    /// reads them through set_fair_pages, so updates apply in place.
    std::vector<std::uint32_t> page_share_;
    std::uint64_t dram_bytes_mark_ = 0;
    std::uint64_t dram_throttled_mark_ = 0;
    cycle_t epoch_deadline_ = never;

    // ---- segmented execution / checkpointing ----
    bool started_ = false;
    bool paused_ = false;
    bool finalized_ = false;
    /// Dispatch hold (run_segment_hold_dispatch): from this cycle on,
    /// admitted requests stay queued instead of dispatching.
    cycle_t dispatch_hold_after_ = never;
    /// Set by an exact restore: start_if_needed must not start the
    /// generator, whose pending events came back with the typed section.
    bool resume_exact_ = false;

    sim::experiment_result result_;
    std::uint32_t in_flight_ = 0;
    bool done_ = false;
};

}  // namespace camdn::runtime
