#include "serve/placement.h"

#include <algorithm>
#include <numeric>

#include "model/reuse_analysis.h"
#include "sim/mapping_registry.h"

namespace camdn::serve {

namespace {

/// Peak cache-page demand of `m` on `soc`: the largest LWM candidate over
/// all layers of the memoized offline mapping.
std::uint32_t peak_pages(const model::model& m, const sim::soc_config& soc) {
    const auto& mm = sim::mapping_for(m, soc.mapper());
    std::uint32_t peak = 0;
    for (const auto& table : mm.tables) {
        // lwm is ascending in pages_needed; back() is the largest.
        peak = std::max(peak, table.lwm.back().pages_needed);
        if (table.lbm) peak = std::max(peak, table.lbm->pages_needed);
    }
    return std::max<std::uint32_t>(peak, 1);
}

}  // namespace

placement plan_placement(const cluster_config& cfg) {
    const std::size_t S = cfg.socs.size();
    const std::size_t M = cfg.models.size();

    placement out;
    out.resident.resize(S);
    out.hosts.resize(M);
    out.footprint_pages.assign(S, std::vector<std::uint32_t>(M, 0));
    out.reused_fraction.assign(S, std::vector<double>(M, 0.0));
    out.capacity_pages.resize(S);

    for (std::size_t s = 0; s < S; ++s) {
        const auto& soc = cfg.socs[s].soc;
        out.capacity_pages[s] = soc.cache.npu_pages();
        for (std::size_t m = 0; m < M; ++m) {
            out.footprint_pages[s][m] = peak_pages(*cfg.models[m], soc);
            out.reused_fraction[s][m] =
                1.0 - model::analyze_reuse(*cfg.models[m],
                                           soc.npu.scratchpad_bytes)
                          .single_use_fraction();
        }
    }
    if (S == 0 || M == 0) return out;

    const std::vector<double> share = traffic_weights(cfg);

    std::vector<std::uint32_t> free = out.capacity_pages;
    std::vector<std::vector<bool>> hosted(S, std::vector<bool>(M, false));

    auto place = [&](std::size_t s, std::size_t m) {
        hosted[s][m] = true;
        out.resident[s].push_back(static_cast<std::uint32_t>(m));
        out.hosts[m].push_back(static_cast<std::uint32_t>(s));
        free[s] -= std::min(free[s], out.footprint_pages[s][m]);
    };

    // Pass 1: one home per model. Heaviest pressure (traffic x mean page
    // demand) first, each on the roomiest SoC that fits — or, failing
    // that, the roomiest SoC outright (oversubscribed but still served).
    std::vector<std::size_t> order(M);
    std::iota(order.begin(), order.end(), 0);
    auto pressure = [&](std::size_t m) {
        std::uint64_t pages = 0;
        for (std::size_t s = 0; s < S; ++s) pages += out.footprint_pages[s][m];
        return share[m] * static_cast<double>(pages) / static_cast<double>(S);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pressure(a) > pressure(b);
                     });
    for (std::size_t m : order) {
        std::size_t best = S;
        for (std::size_t s = 0; s < S; ++s) {
            if (free[s] < out.footprint_pages[s][m]) continue;
            if (best == S || free[s] > free[best]) best = s;
        }
        if (best == S) {
            out.oversubscribed = true;
            best = 0;
            for (std::size_t s = 1; s < S; ++s)
                if (free[s] > free[best]) best = s;
        }
        place(best, m);
    }

    // Pass 2: replicate the hottest models (traffic per replica) onto the
    // roomiest SoCs that still fit them, until nothing fits.
    for (;;) {
        std::size_t pick_m = M, pick_s = S;
        double pick_heat = -1.0;
        for (std::size_t m = 0; m < M; ++m) {
            const double heat =
                share[m] / static_cast<double>(out.hosts[m].size());
            if (heat <= pick_heat) continue;
            std::size_t best = S;
            for (std::size_t s = 0; s < S; ++s) {
                if (hosted[s][m] || free[s] < out.footprint_pages[s][m])
                    continue;
                if (best == S || free[s] > free[best]) best = s;
            }
            if (best == S) continue;
            pick_m = m;
            pick_s = best;
            pick_heat = heat;
        }
        if (pick_m == M) break;
        place(pick_s, pick_m);
    }

    for (auto& h : out.hosts) std::sort(h.begin(), h.end());
    return out;
}

}  // namespace camdn::serve
