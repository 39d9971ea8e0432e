#include "serve/router.h"

#include <algorithm>

#include "sim/sweep.h"

namespace camdn::serve {

request_router::request_router(const cluster_config& cfg,
                               const placement& place)
    : cfg_(cfg), place_(place) {
    const std::size_t S = cfg.socs.size();
    const std::size_t M = cfg.models.size();

    socs_.resize(S);
    iso_.assign(S, std::vector<cycle_t>(M, 1));
    std::uint64_t sum = 0, n = 0;
    for (std::size_t s = 0; s < S; ++s) {
        socs_[s].server_free.assign(cfg.socs[s].slots, 0);
        const auto& iso =
            sim::cached_isolated_latencies(cfg.socs[s].soc, cfg.models);
        for (std::size_t m = 0; m < M; ++m) {
            iso_[s][m] = std::max<cycle_t>(iso.at(cfg.models[m]->abbr), 1);
            sum += iso_[s][m];
            n += 1;
        }
    }
    mean_service_ = n ? std::max<cycle_t>(sum / n, 1) : 1;
}

bool request_router::warm(std::uint32_t s, std::uint32_t model_idx) const {
    const auto& lru = socs_[s].warm_lru;
    return std::find(lru.begin(), lru.end(), model_idx) != lru.end();
}

cycle_t request_router::backlog(std::uint32_t s, cycle_t at) const {
    cycle_t work = 0;
    for (cycle_t free : socs_[s].server_free)
        if (free > at) work += free - at;
    // Fleet feedback inflates the apparent backlog of pressured SoCs.
    if (load_weights_ != nullptr && s < load_weights_->size())
        work = static_cast<cycle_t>(static_cast<double>(work) *
                                    (*load_weights_)[s]);
    return work;
}

std::uint32_t request_router::pick_round_robin(
    const std::vector<std::uint32_t>& hosts) {
    return hosts[rr_next_++ % hosts.size()];
}

std::uint32_t request_router::pick_least_outstanding(
    const std::vector<std::uint32_t>& hosts, cycle_t at) const {
    std::uint32_t best = hosts.front();
    cycle_t best_work = backlog(best, at);
    for (std::size_t i = 1; i < hosts.size(); ++i) {
        const cycle_t work = backlog(hosts[i], at);
        if (work < best_work) {
            best = hosts[i];
            best_work = work;
        }
    }
    return best;
}

std::uint32_t request_router::pick_cache_affinity(
    const std::vector<std::uint32_t>& hosts, cycle_t at,
    std::uint32_t model_idx) const {
    const std::uint32_t balanced = pick_least_outstanding(hosts, at);

    // Warmth is only worth chasing for models whose bytes actually see
    // reuse; pure streaming models (high single-use fraction) keep nothing
    // in the cache worth returning to.
    std::uint32_t best_warm = hosts.size();
    cycle_t best_warm_work = 0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        const std::uint32_t s = hosts[i];
        if (!warm(s, model_idx)) continue;
        if (place_.reused_fraction[s][model_idx] < 0.05) continue;
        const cycle_t work = backlog(s, at);
        if (best_warm == hosts.size() || work < best_warm_work) {
            best_warm = s;
            best_warm_work = work;
        }
    }
    if (best_warm == hosts.size()) return balanced;

    // Stickiness is bounded: once the warm host's backlog exceeds the
    // fleet minimum by more than warm_host_slack mean service times, load
    // wins over warmth (keeps stickiness from starving the fleet).
    constexpr double warm_host_slack = 2.0;
    const cycle_t slack = static_cast<cycle_t>(
        warm_host_slack * static_cast<double>(mean_service_));
    if (best_warm_work > backlog(balanced, at) + slack) return balanced;
    return best_warm;
}

void request_router::commit(std::uint32_t s, cycle_t at,
                            std::uint32_t model_idx) {
    // Occupy the earliest-free analytical server slot.
    auto& free = socs_[s].server_free;
    auto slot = std::min_element(free.begin(), free.end());
    *slot = std::max(at, *slot) + iso_[s][model_idx];

    // Touch the warm set: the model's working set (the offline mapping's
    // peak page demand, precomputed by the placement planner) displaces
    // the least recently served residents once the SoC's page pool is
    // over-committed.
    const std::uint32_t pages = place_.footprint_pages[s][model_idx];

    auto& lru = socs_[s].warm_lru;
    auto it = std::find(lru.begin(), lru.end(), model_idx);
    if (it != lru.end()) {
        lru.erase(it);
    } else {
        socs_[s].warm_pages += pages;
    }
    lru.insert(lru.begin(), model_idx);
    while (socs_[s].warm_pages > place_.capacity_pages[s] && lru.size() > 1) {
        const std::uint32_t victim = lru.back();
        lru.pop_back();
        socs_[s].warm_pages -=
            std::min(socs_[s].warm_pages, place_.footprint_pages[s][victim]);
    }
}

std::int32_t request_router::route(cycle_t at, std::uint32_t model_idx) {
    const auto& hosts = place_.hosts[model_idx];
    if (hosts.empty()) return -1;

    std::uint32_t s = hosts.front();
    if (hosts.size() > 1) {
        switch (cfg_.router) {
            case route_policy::round_robin:
                s = pick_round_robin(hosts);
                break;
            case route_policy::least_outstanding:
                s = pick_least_outstanding(hosts, at);
                break;
            case route_policy::cache_affinity:
                s = pick_cache_affinity(hosts, at, model_idx);
                break;
        }
    }
    commit(s, at, model_idx);
    return static_cast<std::int32_t>(s);
}

}  // namespace camdn::serve
