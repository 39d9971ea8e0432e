// Pluggable workload generation for the multi-tenant runtime.
//
// The scheduler executes inferences; a workload_generator decides *what
// arrives when*. closed_loop reproduces the paper's methodology (§IV-A4:
// N task slots that re-dispatch on completion, bit-identical to the
// original driver under the same seed); open_loop_poisson models
// rate-driven serving with a bounded admission queue; trace_replay
// replays an explicit (time, model) arrival list.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/snapshot_io.h"
#include "common/stats.h"
#include "common/types.h"
#include "model/model.h"

namespace camdn::sim {
struct experiment_config;
}

namespace camdn::runtime {

/// Which generator run_experiment builds from an experiment_config.
enum class workload_kind : std::uint8_t {
    closed_loop,        ///< N slots x fixed inference count, re-dispatch on completion
    open_loop_poisson,  ///< rate-driven arrivals, bounded admission queue
    trace_replay,       ///< explicit (time, model) arrival list
    /// Markov-modulated Poisson arrivals: the rate jumps between the
    /// cfg.mmpp_rate_scale states (bursty / diurnal traffic).
    open_loop_mmpp,
    /// Poisson arrivals whose active tenant set rotates every
    /// cfg.churn_interval_ms (models joining and leaving the SoC).
    tenant_churn,
    /// Closed-loop + churn hybrid: N re-dispatching slots (with
    /// cfg.think_time_ms) whose model choice follows the rotating
    /// cfg.churn_active_models window at each dispatch instant — a slot's
    /// tenant swaps mid-run, exercising the CPT teardown path under
    /// adaptation.
    closed_loop_churn,
};

/// Admission-queue capacity meaning "never drop". A capacity of 0 is a
/// real zero-length queue: every arrival is refused at admission.
inline constexpr std::uint32_t unbounded_queue =
    std::numeric_limits<std::uint32_t>::max();

/// One arrival of a trace_replay workload.
struct trace_arrival {
    cycle_t at = 0;
    const model::model* mdl = nullptr;
};

/// Markov-modulated Poisson arrival clock: the rate walks the
/// `rate_scale` states in order (wrapping) with exponential sojourns of
/// mean `sojourn_ms`; within a state, gaps are exponential at
/// base_rate * state_scale. A gap that crosses the sojourn boundary
/// restarts its exponential clock in the next state (memorylessness makes
/// this exact, no thinning). All draws come from the caller's rng, so the
/// per-SoC mmpp generator and the fleet stream builder share one
/// implementation and stay deterministic under their seeds.
class mmpp_clock {
public:
    /// Draws the first sojourn from `r`; `r` must outlive the clock.
    mmpp_clock(double base_rate_per_ms, std::vector<double> rate_scale,
               double sojourn_ms, rng& r);

    /// Advances to the next arrival and returns its absolute time in
    /// exact (unrounded) ms.
    double next_arrival_ms();

private:
    std::vector<double> scale_;
    double base_;
    double sojourn_;
    rng& r_;
    std::size_t state_ = 0;
    double state_end_ms_;
    double t_ms_ = 0.0;
};

/// The scheduler surface a generator drives. Implemented by
/// runtime::scheduler; generators never touch the SoC directly.
class workload_control {
public:
    virtual ~workload_control() = default;

    /// Current simulation time.
    virtual cycle_t now() const = 0;

    /// Schedules the generator's on_event(ctl, token) at absolute simulation
    /// time `when` (past times clamp to now()). The token — an arrival
    /// index, a slot — is all the event carries: it is a typed scheduler
    /// event, so it serializes with the queue and a checkpoint holds every
    /// pending generator event.
    virtual void at(cycle_t when, std::uint64_t token) = 0;

    /// Submits one inference of `mdl` stamped with its own `arrival`
    /// (closed-loop generators pass now(); arrival lists pass their stamp,
    /// which predates now() when the arrival fires late on a resumed
    /// clock). The scheduler records min(arrival, now()). `slot` pins the
    /// request to one task slot (closed-loop semantics); no_task lets the
    /// dispatcher run it on any free slot.
    virtual void submit(const model::model* mdl, cycle_t arrival,
                        task_id slot = no_task) = 0;

    /// Admitted requests not yet dispatched to cores (admission queue).
    virtual std::size_t pending() const = 0;
};

/// What a generator learns about a finished inference.
struct completion_info {
    task_id slot = no_task;
    const model::model* mdl = nullptr;
    cycle_t arrival = 0;
    cycle_t start = 0;
    cycle_t end = 0;
};

/// Arrival-side behaviour of one experiment. Implementations must be
/// deterministic: the same construction parameters yield the same arrival
/// pattern regardless of how the simulation interleaves.
class workload_generator {
public:
    virtual ~workload_generator() = default;

    /// Called once at simulation start: submit initial work and schedule
    /// every future arrival through `ctl`.
    virtual void start(workload_control& ctl) = 0;

    /// Called when an event scheduled through workload_control::at() comes
    /// due, with the token it was scheduled under. Must throw on a token it
    /// never issued (a corrupt snapshot can carry one).
    virtual void on_event(workload_control& ctl, std::uint64_t token) = 0;

    /// Called after each inference completes (its cores are already back
    /// in the free pool, so a submission here can dispatch immediately).
    virtual void on_complete(workload_control& ctl,
                             const completion_info& c) = 0;

    /// True once no further arrivals will ever be submitted.
    virtual bool exhausted() const = 0;

    /// Arrivals refused at a full admission queue (open loop / trace).
    virtual std::uint64_t rejected() const { return 0; }

    /// Queue delays (start - arrival, ms) of completed inferences, for
    /// generators where queueing is meaningful (open loop / trace).
    /// nullptr when the generator does not track them (closed loop
    /// re-dispatches on completion and never queues).
    virtual const percentile_tracker* queue_delays_ms() const {
        return nullptr;
    }

    // ---- checkpoint support (scheduler::save / exact resume) ----
    //
    // save_state serializes the generator's cursor: everything a generator
    // freshly constructed from the same config needs, after restore_state,
    // to continue the saved one. Pending generator events are not part of
    // the cursor — they sit in the snapshot's typed-event section — so an
    // exact resume calls neither start() nor anything that re-arms them.

    virtual void save_state(snapshot_writer&) const {}
    virtual void restore_state(snapshot_reader&) {}

    /// True when this generator implements the checkpoint hooks. The
    /// scheduler refuses an exact resume of a generator that cannot restore
    /// its cursor (it would replay arrivals from scratch).
    virtual bool checkpointable() const { return false; }
};

/// Builds the generator selected by cfg.kind from an experiment config.
std::unique_ptr<workload_generator> make_workload_generator(
    const sim::experiment_config& cfg);

}  // namespace camdn::runtime
