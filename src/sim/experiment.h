// Multi-tenant experiment harness: the configuration/result types and the
// one-call driver around the runtime scheduler + workload generators.
//
// The default scenario is the paper's methodology (§IV-A4): N task slots
// each run a pre-generated random sequence of benchmark models; a slot
// re-dispatches to an NPU as soon as its previous inference finishes,
// keeping all cores busy (runtime::workload_kind::closed_loop). Open-loop
// Poisson traffic and explicit trace replay select alternative workload
// generators via `kind`. Policies plug in their resource allocators: MoCA
// re-partitions bandwidth every epoch, AuRORA sizes core groups by
// deadline slack, the CaMDN variants manage the cache via static shares or
// Algorithm 1. In QoS mode every inference carries a deadline of
// qos_scale * Table I target.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adapt/telemetry.h"
#include "cache/shared_cache.h"
#include "common/types.h"
#include "dram/dram_system.h"
#include "model/model.h"
#include "obs/observer.h"
#include "runtime/workload.h"
#include "sim/soc_config.h"

namespace camdn::runtime {
struct scheduler_snapshot;
}

namespace camdn::sim {

struct experiment_config {
    soc_config soc{};
    policy pol = policy::shared_baseline;
    camdn_features features{};

    /// Models sampled by the dispatcher (defaults to the whole zoo).
    std::vector<const model::model*> workload;

    std::uint32_t co_located = 8;          ///< concurrent task slots
    std::uint32_t inferences_per_slot = 1; ///< inferences per slot (closed loop)
    std::uint64_t seed = 42;

    /// Closed-loop think time: each slot waits this long after a completion
    /// before re-dispatching (interactive-user model). 0 re-dispatches
    /// immediately — bit-identical to the paper's methodology. Thinking
    /// slots are also what makes mid-run checkpoint boundaries reachable
    /// for closed-loop workloads (see runtime::scheduler::run_segment).
    double think_time_ms = 0.0;

    /// Arrival-side scenario (see runtime/workload.h).
    runtime::workload_kind kind = runtime::workload_kind::closed_loop;

    // ---- open_loop_poisson ----
    double arrival_rate_per_ms = 4.0;      ///< mean Poisson arrival rate
    std::uint32_t total_arrivals = 32;     ///< arrivals generated in total
    /// Admission-queue capacity for open_loop_poisson and trace_replay:
    /// arrivals beyond this many queued requests are dropped.
    /// runtime::unbounded_queue never drops; 0 drops every arrival.
    std::uint32_t admission_queue_limit = 64;

    // ---- trace_replay ----
    std::vector<runtime::trace_arrival> trace;

    // ---- open_loop_mmpp (bursty / diurnal traffic) ----
    /// Per-state multipliers on arrival_rate_per_ms of the Markov-modulated
    /// Poisson process; the chain walks the states in order (wrapping), so
    /// {0.25, 4.0} alternates a lull and a 16x burst.
    std::vector<double> mmpp_rate_scale{0.25, 4.0};
    /// Mean sojourn time per MMPP state (exponential), ms.
    double mmpp_sojourn_ms = 4.0;

    // ---- tenant_churn ----
    /// Every interval the active tenant set rotates to the next
    /// `churn_active_models` window of the workload catalog.
    double churn_interval_ms = 8.0;
    std::uint32_t churn_active_models = 2;

    // ---- telemetry (src/adapt) ----
    /// Record per-epoch telemetry snapshots (any policy), one every
    /// adapt::epoch_cycles. Implied by policy::camdn_adaptive, which needs
    /// them to steer.
    bool telemetry = false;

    bool qos_mode = false;
    double qos_scale = 1.0;  ///< QoS-H/M/L = 0.8 / 1.0 / 1.2

    /// Spread idle cores over tasks when slots < cores (multi-core
    /// execution with multicast weight reads). The motivation experiment
    /// (Fig 2) pins each task to one NPU, per the paper's methodology.
    bool spread_idle_cores = true;

    // ---- observability (src/obs) ----
    /// Nullable observer hooks (trace recorder, metrics registry, epoch
    /// JSONL sink, host profiler). Borrowed pointers — the caller owns them
    /// and outlives the run. Never fingerprinted: snapshots taken with and
    /// without observers are interchangeable, and a run with the default
    /// (all-null) observer is bit-identical to one without the obs layer.
    obs::run_observer obs{};
};

struct inference_record {
    task_id slot = no_task;
    std::string abbr;
    cycle_t arrival = 0;  ///< dispatch request (includes queueing)
    cycle_t start = 0;    ///< first layer issued
    cycle_t end = 0;
    std::uint64_t dram_bytes = 0;
    std::uint32_t cores = 1;

    cycle_t latency() const { return end - arrival; }
    /// Time spent waiting for admission + a free slot/core group.
    cycle_t queue_delay() const { return start - arrival; }
};

struct experiment_result {
    std::vector<inference_record> completions;
    cycle_t makespan = 0;
    double cache_hit_rate = 0.0;  ///< transparent path (baselines)
    std::uint64_t dram_total_bytes = 0;
    cache::cache_stats cache_stats{};
    dram::dram_stats dram_stats{};
    /// Arrivals refused at a full admission queue (open loop / trace).
    std::uint64_t rejected_arrivals = 0;
    /// Queue delays (ms) of completed inferences, tracked by the rate-driven
    /// generators (empty under closed loop, which never queues).
    percentile_tracker queue_delay_ms;
    /// Per-epoch telemetry snapshots (empty unless cfg.telemetry or the
    /// adaptive policy enabled the bus). Bit-identical across repeated runs
    /// and sweep-pool widths, like every other field.
    std::vector<adapt::epoch_snapshot> telemetry;
    /// Discrete events the run's event queue executed in this process
    /// (bench/sim_throughput's events/sec numerator). Deterministic for a
    /// fresh run; a resumed segment counts only its own events.
    std::uint64_t events_executed = 0;

    double avg_latency_ms() const;
    /// Mean latency of completions of one model ("" = all), ms.
    double mean_latency_ms(const std::string& abbr) const;
    /// Mean DRAM traffic per completed inference, MiB ("" = all models).
    double mem_mb_per_inference(const std::string& abbr = "") const;
    std::uint64_t completions_of(const std::string& abbr) const;
};

/// Runs one experiment to completion (deterministic under cfg.seed).
experiment_result run_experiment(const experiment_config& cfg);

/// Segment runner for checkpoint/resume flows (warm resume): builds the
/// workload from `cfg`, restores machine state from `resume_from` when
/// non-null (the clock, cache warmth, DRAM timing, controller state and
/// any in-flight inferences carry; results and telemetry history start
/// empty) and writes the end-of-segment snapshot to `*save_to` when
/// non-null. With `hold_dispatch_after` < `never`, dispatch stops once the
/// clock passes it: arrivals keep queueing (or dropping) at their true
/// times, running work finishes, and the queued backlog carries into the
/// snapshot (see runtime::scheduler::run_segment_hold_dispatch). With
/// `pause_at` < `never` the run instead pauses at the first inter-event
/// instant at or after it — mid-layer, transfers still in flight — which
/// is what fleet rounds use; `pause_at` takes precedence over the hold.
/// With both pointers null and neither bound this is run_experiment.
/// `resume_from` and `save_to` may point at the same snapshot: the segment
/// then resumes from it and saves over it. Fleet rounds continue live
/// schedulers in place instead (runtime::scheduler::start_next_segment);
/// this save + warm resume path is the reference that continuation is
/// tested against.
experiment_result run_experiment_segment(
    const experiment_config& cfg,
    const runtime::scheduler_snapshot* resume_from,
    runtime::scheduler_snapshot* save_to,
    cycle_t hold_dispatch_after = never, cycle_t pause_at = never);

/// Single-tenant latency of each model on one core under the shared
/// baseline (the normalized-progress reference for QoS metrics), keyed by
/// Table I abbreviation.
std::map<std::string, cycle_t> isolated_latencies(
    const soc_config& soc, const std::vector<const model::model*>& models);

}  // namespace camdn::sim
