// The run observer: the bundle of observability sinks a run carries
// (sim::experiment_config::obs).
//
// The scheduler attaches it to its SoC's probe (obs/probe.h), which fans
// every component's facts out to these sinks and owns the attribution
// holder tables. All pointers default to null — the zero-overhead-off
// property: with nothing attached every hook in the machine is a single
// null check, and a run's results, goldens and snapshot bytes are
// bit-identical to a build without the observability layer. The pointers
// are borrowed (the caller owns each sink and outlives the run). None of
// these fields enter the scheduler's machine/run fingerprints, so
// snapshots taken with and without observers attached are
// interchangeable.
#pragma once

#include <cstdint>

namespace camdn::obs {

class trace_recorder;
class metrics_registry;
class jsonl_sink;
class profiler;
class latency_attributor;

struct run_observer {
    trace_recorder* trace = nullptr;     ///< Chrome-trace event recorder
    metrics_registry* metrics = nullptr; ///< counters/gauges/P² histograms
    jsonl_sink* epochs = nullptr;        ///< per-epoch telemetry rows
    profiler* prof = nullptr;            ///< host wall-time attribution
    /// Per-request latency attribution + interference matrix
    /// (obs/attribution.h).
    latency_attributor* attr = nullptr;

    /// SoC index: the trace pid and the "soc" field of JSONL rows.
    std::uint32_t soc_index = 0;

    bool enabled() const {
        return trace != nullptr || metrics != nullptr || epochs != nullptr ||
               prof != nullptr || attr != nullptr;
    }
    /// True when the scheduler must run the telemetry bus to feed this
    /// observer (epoch rows, epoch-paced metrics, and the attribution
    /// counter tracks sampled into the trace all consume cuts).
    bool wants_epochs() const {
        return epochs != nullptr || metrics != nullptr ||
               (attr != nullptr && trace != nullptr);
    }
};

}  // namespace camdn::obs
