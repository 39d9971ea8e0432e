// Streaming metrics registry: named counters, gauges and histograms.
//
// Counters are monotonic uint64 totals (completions, epochs cut, queue
// dispatches), gauges are last-written doubles (idle pages at the last
// epoch cut), and histograms are P² streaming quantile bundles
// (common/stats.h p2_quantiles) — O(1) memory per metric regardless of
// sample count, which is what lets a million-request run keep latency
// percentiles without retaining every sample.
//
// The probe feeds the registry from epoch cuts and completions (all
// simulation facts), so its contents are deterministic; names are stored
// in ordered maps so write_json() emits identical bytes for identical
// runs. Host wall-time never enters the registry — that belongs to the
// profiler (obs/profile.h), whose output is nondeterministic by nature.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "common/stats.h"

namespace camdn::obs {

class metrics_registry {
public:
    /// Adds `delta` to counter `name` (created at zero on first touch).
    void add(const std::string& name, std::uint64_t delta = 1) {
        counters_[name] += delta;
    }
    /// Assigns counter `name` (idempotent end-of-run totals: executed
    /// events, dispatch counts — safe to re-export per segment).
    void set(const std::string& name, std::uint64_t value) {
        counters_[name] = value;
    }
    std::uint64_t counter(const std::string& name) const {
        const auto it = counters_.find(name);
        return it != counters_.end() ? it->second : 0;
    }

    void gauge_set(const std::string& name, double value) {
        gauges_[name] = value;
    }
    double gauge(const std::string& name) const {
        const auto it = gauges_.find(name);
        return it != gauges_.end() ? it->second : 0.0;
    }

    /// Stable handles for hot-path producers: the returned pointers stay
    /// valid for the registry's lifetime (std::map nodes never move), so a
    /// caller that bumps the same metric every epoch resolves the name
    /// once and then writes through the pointer — no string construction
    /// or map lookup per update. Created at zero on first touch.
    std::uint64_t* counter_slot(const std::string& name) {
        return &counters_[name];
    }
    double* gauge_slot(const std::string& name) { return &gauges_[name]; }

    /// The named histogram, created empty on first touch. The reference is
    /// stable for the registry's lifetime (usable as a hot-path handle).
    p2_quantiles& histogram(const std::string& name) { return hists_[name]; }
    const p2_quantiles* find_histogram(const std::string& name) const {
        const auto it = hists_.find(name);
        return it != hists_.end() ? &it->second : nullptr;
    }

    bool empty() const {
        return counters_.empty() && gauges_.empty() && hists_.empty();
    }
    const std::map<std::string, std::uint64_t>& counters() const {
        return counters_;
    }

    /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
    /// {"name":{"count":..,"mean":..,"p50":..,"p95":..,"p99":..,"min":..,
    /// "max":..}}}. Name-ordered, fixed formatting — deterministic bytes.
    void write_json(std::ostream& out) const;

private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, p2_quantiles> hists_;
};

}  // namespace camdn::obs
