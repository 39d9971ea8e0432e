// Request router: assigns each arrival of the shared stream to one of the
// SoCs hosting its model, under a pluggable policy.
//
// Routing runs once, sequentially, over the time-ordered arrival stream
// before any SoC simulation starts, and keeps an analytical view of fleet
// state: per-SoC server occupancy (estimated from the memoized isolated
// latencies) and per-SoC cache warmth (an LRU of model working sets sized
// by the offline mapping's page demand, precomputed by the placement
// planner, so the mapping-registry mutex is never taken on this path).
#pragma once

#include <cstdint>
#include <vector>

#include "serve/placement.h"

namespace camdn::serve {

class request_router {
public:
    /// `cfg` and `place` must outlive the router.
    request_router(const cluster_config& cfg, const placement& place);

    /// Routes one arrival at time `at` for catalog model `model_idx`,
    /// updating the router's load/warmth state. Returns the chosen SoC
    /// index, or -1 when no SoC hosts the model.
    std::int32_t route(cycle_t at, std::uint32_t model_idx);

    /// True when `model_idx`'s pages are currently warm on SoC `s`.
    bool warm(std::uint32_t s, std::uint32_t model_idx) const;

    /// Per-SoC backlog multipliers from the fleet feedback loop (>1 makes
    /// a SoC look more loaded, steering traffic away). `w` must outlive
    /// the router; nullptr (default) weighs every SoC equally.
    void set_load_weights(const std::vector<double>* w) { load_weights_ = w; }

private:
    struct soc_state {
        /// Estimated busy-until time per task slot (analytical queue).
        std::vector<cycle_t> server_free;
        /// Models with warm cache pages, most recently served first.
        std::vector<std::uint32_t> warm_lru;
        std::uint32_t warm_pages = 0;
    };

    /// Estimated queued-plus-running work on SoC `s` at time `at`, cycles.
    cycle_t backlog(std::uint32_t s, cycle_t at) const;
    std::uint32_t pick_round_robin(const std::vector<std::uint32_t>& hosts);
    std::uint32_t pick_least_outstanding(
        const std::vector<std::uint32_t>& hosts, cycle_t at) const;
    std::uint32_t pick_cache_affinity(const std::vector<std::uint32_t>& hosts,
                                      cycle_t at, std::uint32_t model_idx) const;
    void commit(std::uint32_t s, cycle_t at, std::uint32_t model_idx);

    const cluster_config& cfg_;
    const placement& place_;
    const std::vector<double>* load_weights_ = nullptr;
    std::vector<soc_state> socs_;
    /// iso_[s][m]: isolated latency of catalog model m on SoC s.
    std::vector<std::vector<cycle_t>> iso_;
    cycle_t mean_service_ = 1;
    std::uint64_t rr_next_ = 0;
};

}  // namespace camdn::serve
