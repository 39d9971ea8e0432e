// Multi-SoC serving cluster: a fleet of heterogeneous CaMDN SoCs serving
// one shared request stream.
//
// A cluster run has three deterministic phases:
//   1. placement — decide which models are resident (and replicated) on
//      which SoCs, constrained by each SoC's NPU cache subspace
//      (serve/placement.h);
//   2. routing — pull the global arrival stream lazily (serve/
//      stream_source.h generates it round by round in O(1) memory) and
//      assign every request to a hosting SoC under the selected policy
//      (serve/router.h), producing one admission trace per SoC;
//   3. simulation — feed each SoC's trace (trace_replay, bounded
//      admission queue) to its live runtime::scheduler, which every round
//      continues in place, on the sim/sweep thread pool, then aggregate
//      fleet metrics.
// Every phase is a pure function of cluster_config (per-SoC RNG streams
// are derived from the cluster seed), so results are bit-identical across
// repeated runs and across sweep-pool widths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "model/model.h"
#include "obs/attribution.h"
#include "sim/experiment.h"

namespace camdn::serve {

/// Shape of the fleet-wide arrival stream.
enum class arrival_process : std::uint8_t {
    poisson,  ///< constant-rate Poisson (legacy)
    /// Markov-modulated Poisson: the rate walks cluster_config's
    /// mmpp_rate_scale states with exponential sojourns — bursty/diurnal
    /// fleet traffic.
    mmpp,
};

/// How the router picks among the SoCs hosting a request's model.
enum class route_policy : std::uint8_t {
    round_robin,        ///< cycle through the replica set, load-blind
    least_outstanding,  ///< smallest estimated backlog
    /// Prefer SoCs where the model's shared-cache pages are already warm
    /// (tracked via the offline mapping's page demand and reuse analysis),
    /// falling back to least_outstanding when warm hosts are overloaded.
    cache_affinity,
};

const char* route_policy_name(route_policy p);

/// Elastic fleet autoscaling, decided between feedback rounds: add a SoC
/// when the observed queued backlog or the round's completion SLA
/// degrades, drain one when capacity sits idle. Draining migrates the
/// SoC's admitted-but-undispatched requests to the rest of the fleet
/// (lifted out of its live scheduler's admission queue, re-routed at their
/// original arrival stamps) and the SoC retires once its in-flight work
/// finishes. New SoCs clone the first configured instance and start cold.
/// When enabled, run_cluster throws std::invalid_argument unless
/// feedback_rounds > 1, min_socs <= max_socs, backlog_low <= backlog_high
/// and sla_low lies in [0, 1].
struct autoscale_config {
    bool enabled = false;
    std::uint32_t min_socs = 1;  ///< never drain below this many routable
    std::uint32_t max_socs = 8;  ///< never add beyond this many routable
    /// Scale up when the mean queued backlog per routable SoC
    /// (admission-queue depth at the round barrier) exceeds this…
    double backlog_high = 8.0;
    /// …or when the round's completion SLA (deadline-met over completions
    /// plus drops) falls below this.
    double sla_low = 0.85;
    /// Drain the least-backlogged SoC when the mean backlog falls below
    /// this and the SLA is healthy.
    double backlog_low = 0.5;
    /// Barriers to skip after a scale decision before the next one (lets
    /// the fleet settle; retirements are exempt).
    std::uint32_t cooldown_rounds = 1;
};

/// What happened at one autoscaling decision point.
enum class scale_event_kind : std::uint8_t {
    add,     ///< a cold SoC joined the routable fleet
    drain,   ///< a SoC stopped taking traffic; queued work migrated
    retire,  ///< a draining SoC finished its in-flight work and left
};

const char* scale_event_kind_name(scale_event_kind k);

struct scale_event {
    scale_event_kind kind = scale_event_kind::add;
    std::uint32_t round = 0;         ///< barrier after this round
    std::uint32_t soc_id = 0;        ///< stable fleet id (obs trace pid)
    std::uint32_t active_after = 0;  ///< routable SoCs after the event
    std::uint64_t migrated = 0;      ///< queued requests migrated (drain)
    double backlog = 0.0;  ///< mean queued backlog per routable SoC
    double sla = 0.0;      ///< round completion SLA at the decision
};

/// One SoC of the fleet. Fleets may be heterogeneous: every instance
/// carries its own SoC geometry, per-SoC policy and admission bound.
struct soc_instance_config {
    sim::soc_config soc{};
    sim::policy pol = sim::policy::camdn_full;
    std::uint32_t slots = 4;  ///< concurrent task slots on this SoC
    /// Per-SoC admission-queue capacity (open_loop bounded-queue
    /// semantics: runtime::unbounded_queue never drops, 0 drops all).
    std::uint32_t admission_queue_limit = 64;
};

struct cluster_config {
    std::vector<soc_instance_config> socs;

    /// Served model catalog (defaults to the whole Table I zoo).
    std::vector<const model::model*> models;
    /// Relative request mix per catalog entry; normalized internally, so
    /// {3, 1} means 75% / 25%. Models beyond the end of the list default
    /// to weight 1 (empty = uniform); negatives clamp to 0.
    std::vector<double> traffic_share;

    double arrival_rate_per_ms = 8.0;   ///< fleet-wide mean Poisson rate
    std::uint32_t total_arrivals = 256;
    std::uint64_t seed = 42;

    /// Arrival stream shape; mmpp modulates arrival_rate_per_ms by the
    /// mmpp_rate_scale states with mmpp_sojourn_ms mean dwell.
    arrival_process process = arrival_process::poisson;
    std::vector<double> mmpp_rate_scale{0.25, 4.0};
    double mmpp_sojourn_ms = 4.0;

    route_policy router = route_policy::cache_affinity;

    // ---- fleet feedback (src/adapt/fleet_feedback.h) ----
    /// 1 = single-shot run. R > 1 splits the stream into R rounds: after
    /// each round, per-SoC telemetry rollups update the router's load
    /// weights (traffic drains away from SoCs under page-wait pressure)
    /// and sustained SLA violation triggers re-placement against the
    /// observed traffic mix. Every round but the last pauses each SoC
    /// mid-flight at its window edge (DMA chunks and tiles still in the
    /// air) and the next round continues the same live scheduler in place
    /// (runtime::scheduler::start_next_segment) — cache warmth, DRAM
    /// timing, the clock, in-flight layers and the queue backlog all carry,
    /// exactly as a snapshot save plus warm resume would carry them. The
    /// final round runs to drain.
    std::uint32_t feedback_rounds = 1;
    /// Round windows. > 0: round r covers stream time
    /// [r*round_cycles, (r+1)*round_cycles). 0: equal-count windows —
    /// round r routes the next total_arrivals / feedback_rounds arrivals
    /// and ends at the stamp of the first arrival it left for round r+1.
    /// A value > 0 requires feedback_rounds > 1 (run_cluster throws
    /// std::invalid_argument otherwise).
    cycle_t round_cycles = 0;
    /// SLA definition for rollups and cluster_result::sla_rate: a
    /// completion meets SLA within qos_scale * its model's Table-I target.
    double qos_scale = 1.0;

    /// Sweep-pool width for the per-SoC simulations (0 = hardware
    /// concurrency, 1 = inline). Never changes results.
    unsigned threads = 0;

    // ---- long-horizon serving ----
    /// Elastic autoscaling between feedback rounds (off by default —
    /// fixed fleets stay bit-identical to historical runs).
    autoscale_config autoscale{};
    /// Bound per-SoC history: per-round simulation results fold into the
    /// fleet aggregates at each round barrier and are then released
    /// instead of accumulating in cluster_result::per_soc, so memory
    /// stays O(fleet) rather than O(total_arrivals) on million-request
    /// runs. Implies streaming_quantiles (the exact trackers would
    /// otherwise retain every sample). cluster_result::round_summaries
    /// keeps one compact rollup per (round, SoC) and recent_completions
    /// keeps the last history_records completion records.
    bool bounded_history = false;
    /// With bounded_history: completion records retained in the
    /// recent_completions ring (0 keeps none). A value > 0 without
    /// bounded_history makes run_cluster throw std::invalid_argument.
    std::uint32_t history_records = 0;

    // ---- observability (src/obs) ----
    /// Streaming P² backend for the fleet/per-tenant latency percentiles
    /// (O(1) memory instead of every sample). Default exact, so historical
    /// results and goldens are bit-identical; bench/fleet_scaling reports
    /// both to quantify the estimator error.
    bool streaming_quantiles = false;
    /// Chrome trace-event JSON output path ("" = off), at DMA-flight
    /// granularity (no per-chunk events). Per-SoC recorders
    /// are folded deterministically at each round barrier and the file is
    /// written once at the end of the run (valid JSON needs the closing
    /// bracket). Load in Perfetto / chrome://tracing.
    std::string trace_path;
    /// Telemetry JSONL output path ("" = off). Every per-epoch row
    /// (buffered per SoC, merged round-major at each barrier) and one
    /// fleet_round row per round stream to the file *during* the run; a
    /// final "metrics" row dumps the fleet metrics registry.
    std::string metrics_jsonl_path;
    /// Record every Nth DMA-flight completion event (0 behaves as 1) —
    /// the highest-volume lane of a fleet trace. Count-based on the flight
    /// retire order, so sampled traces stay byte-identical across runs
    /// and sweep-pool widths.
    std::uint32_t trace_flight_sample_every = 1;
    /// Event cap of the folded master trace (0 behaves as 1). Bounds both
    /// memory and the end-of-run export/file cost — events beyond the cap
    /// are counted (trace_recorder::dropped), never silently lost. The
    /// default matches trace_recorder's.
    std::size_t trace_max_events = std::size_t{1} << 20;
    /// Per-request latency attribution and the cross-tenant interference
    /// matrix (obs/attribution.h): each SoC keeps one attributor for its
    /// lifetime and folds the round's completions into a fleet master at
    /// each barrier, so inferences that straddle a barrier are attributed
    /// too. Fills tenant_metrics::attribution and
    /// cluster_result::interference. Implied by trace_path or
    /// metrics_jsonl_path (both exporters consume it). Observation only —
    /// results are bit-identical either way.
    bool attribution = false;
};

/// Convenience: a homogeneous fleet of `n` identical instances.
cluster_config uniform_cluster(std::uint32_t n,
                               const soc_instance_config& inst = {});

/// Per-catalog-model traffic weight under cfg.traffic_share's defaulting
/// rules — the one normalization both the placement planner and the
/// stream generator use. Throws std::invalid_argument when every weight
/// is zero.
std::vector<double> traffic_weights(const cluster_config& cfg);

/// Fleet-level view of one tenant (one catalog model).
struct tenant_metrics {
    std::uint64_t routed = 0;     ///< arrivals assigned to some SoC
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;    ///< refused at a full per-SoC queue
    quantile_accumulator latency_ms;
    quantile_accumulator queue_delay_ms;

    /// Latency-attribution rollup across the tenant's attributed
    /// completions (zeros unless attribution ran — see
    /// cluster_config::attribution). attribution.sum() equals
    /// attribution_latency_cycles bit-exactly.
    std::uint64_t attribution_completed = 0;
    std::uint64_t attribution_latency_cycles = 0;
    obs::attribution_components attribution;
};

struct cluster_result {
    /// Per-SoC simulation results: one entry per live SoC per round, in
    /// round order and fleet order within a round. per_soc[i] belongs to
    /// the round and SoC id round_summaries[i] names (for a fixed fleet of
    /// S SoCs that is round i / S, SoC i % S; autoscaling changes the
    /// count per round). Empty in bounded_history mode (see
    /// round_summaries / recent_completions instead).
    std::vector<sim::experiment_result> per_soc;

    /// Compact per-(round, SoC) rollup of every live SoC's round, in the
    /// order per_soc uses — the O(rounds x fleet) stand-in for per_soc in
    /// bounded_history mode.
    struct round_summary {
        std::uint32_t round = 0;
        std::uint32_t soc_id = 0;
        std::uint64_t completions = 0;
        std::uint64_t rejected = 0;
        std::uint64_t events = 0;
        cycle_t makespan = 0;
    };
    std::vector<round_summary> round_summaries;
    /// Ring of the last cluster_config::history_records completion
    /// records (bounded_history mode only; ring order, not chronological
    /// once wrapped).
    std::vector<sim::inference_record> recent_completions;
    /// Placement echo: model indices resident on each SoC.
    std::vector<std::vector<std::uint32_t>> resident_models;

    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    /// Sum of per-SoC executed event counts (raw-speed denominator for
    /// bench/sim_throughput's fleet scenario).
    std::uint64_t events_executed = 0;
    std::uint64_t dropped_queue = 0;        ///< per-SoC admission drops
    std::uint64_t dropped_unroutable = 0;   ///< no SoC hosts the model
    cycle_t makespan = 0;                   ///< max per-SoC makespan

    /// Fleet-wide latency/queue-delay summaries. Exact by default;
    /// cluster_config::streaming_quantiles switches them (and the
    /// per-tenant trackers) to the O(1)-memory P² backend.
    quantile_accumulator fleet_latency_ms;
    quantile_accumulator fleet_queue_delay_ms;
    /// Per-tenant metrics keyed by model abbreviation.
    std::map<std::string, tenant_metrics> tenants;
    /// Cross-tenant interference: interference[i][j] = cycles tenant i
    /// lost while tenant j held the contended resource (non-zero entries
    /// only; empty unless attribution ran).
    std::map<std::string, std::map<std::string, std::uint64_t>> interference;

    /// Completions within qos_scale * Table-I target.
    std::uint64_t deadline_met = 0;
    /// Final router load weights (empty without feedback).
    std::vector<double> route_weights;
    /// Re-placements triggered by SLA violation streaks.
    std::uint32_t replacements = 0;

    /// Autoscaling history in decision order (empty with autoscaling
    /// off). soc_ids are stable across the run: initial SoCs are
    /// 0..socs-1 and every added SoC gets the next id, so obs lanes and
    /// per-SoC RNG streams never alias after adds/drains.
    std::vector<scale_event> scale_events;
    /// Queued requests lifted out of draining SoCs and re-routed (each
    /// was counted in `arrivals` once, at its original routing).
    std::uint64_t migrated_requests = 0;

    /// Fleet SLA: deadline_met over all arrivals — drops and unroutable
    /// requests count as violations.
    double sla_rate() const {
        return arrivals ? static_cast<double>(deadline_met) /
                              static_cast<double>(arrivals)
                        : 0.0;
    }

    double drop_rate() const {
        return arrivals ? static_cast<double>(dropped_queue +
                                              dropped_unroutable) /
                              static_cast<double>(arrivals)
                        : 0.0;
    }
    /// Completed inferences per second of fleet makespan.
    double throughput_per_s() const {
        return makespan ? static_cast<double>(completed) /
                              (cycles_to_ms(makespan) * 1e-3)
                        : 0.0;
    }
};

/// Runs one cluster simulation to completion (deterministic under
/// cfg.seed). Throws std::invalid_argument on an empty fleet and on the
/// contradictory knobs documented on cluster_config and autoscale_config.
cluster_result run_cluster(const cluster_config& cfg);

}  // namespace camdn::serve
