#include "runtime/bandwidth_allocator.h"

#include <algorithm>
#include <cmath>

namespace camdn::runtime {

namespace {

/// Estimated remaining cycles of the current inference (profiled layer
/// estimates from the mapping file).
std::uint64_t est_remaining_cycles(const task& t) {
    std::uint64_t rem = 0;
    for (std::size_t i = t.current_layer; i < t.mapping->layer_est.size(); ++i)
        rem += t.mapping->layer_est[i];
    return rem;
}

/// Bandwidth demand of the task's current layer, bytes per cycle, using
/// its minimal (cache-oblivious) candidate — MoCA has no cache knowledge.
double layer_demand(const task& t) {
    const auto& cand = t.current_mct().minimal();
    if (cand.est_cycles == 0) return 0.0;
    return static_cast<double>(cand.dram_bytes()) /
           static_cast<double>(cand.est_cycles);
}

}  // namespace

void bandwidth_allocator::reallocate(const std::vector<task*>& running,
                                     cycle_t now) {
    std::vector<double> weight(running.size(), 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < running.size(); ++i) {
        task* t = running[i];
        if (t == nullptr || !t->running()) continue;
        double w = std::max(layer_demand(*t), 1e-6);
        if (t->deadline != never) {
            // Urgency: ratio of required pace to available pace, clamped.
            const double remaining_work =
                static_cast<double>(est_remaining_cycles(*t));
            const double remaining_time =
                t->deadline > now ? static_cast<double>(t->deadline - now) : 1.0;
            const double urgency =
                std::clamp(remaining_work / remaining_time, 0.25, 4.0);
            w *= urgency;
        }
        weight[i] = w;
        total += w;
    }
    if (total <= 0.0) return;
    for (std::size_t i = 0; i < running.size(); ++i) {
        task* t = running[i];
        if (t == nullptr || !t->running()) continue;
        dram_.set_task_share(
            t->id, std::min(1.0, headroom_ * weight[i] / total));
    }
}

}  // namespace camdn::runtime
