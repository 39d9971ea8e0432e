#include "adapt/fleet_feedback.h"

#include <algorithm>

#include "runtime/qos.h"

namespace camdn::adapt {

soc_rollup rollup_from(const sim::experiment_result& res, double qos_scale) {
    soc_rollup r;
    r.completed = res.completions.size();
    r.dropped = res.rejected_arrivals;
    for (const auto& rec : res.completions)
        if (runtime::meets_qos_target(rec.abbr, rec.latency(), qos_scale))
            r.deadline_met += 1;
    const std::uint64_t offered = r.completed + r.dropped;
    r.sla_rate = offered ? static_cast<double>(r.deadline_met) /
                               static_cast<double>(offered)
                         : 1.0;

    if (!res.telemetry.empty()) {
        double wait = 0.0;
        for (const auto& e : res.telemetry) wait += e.page_wait_frac();
        r.page_wait_frac = wait / static_cast<double>(res.telemetry.size());
    }
    return r;
}

fleet_feedback::fleet_feedback(std::size_t socs)
    : weights_(socs, 1.0), streak_(socs, 0) {}

void fleet_feedback::observe(const std::vector<soc_rollup>& round) {
    const std::size_t n = std::min(round.size(), weights_.size());
    if (n == 0) return;

    double mean = 0.0;
    for (std::size_t s = 0; s < n; ++s) mean += round[s].pressure();
    mean /= static_cast<double>(n);

    for (std::size_t s = 0; s < n; ++s) {
        // Pressure above the fleet mean inflates the SoC's apparent
        // backlog (router avoids it); below-mean pressure deflates it.
        const double delta = round[s].pressure() - mean;
        weights_[s] = std::clamp(weights_[s] * (1.0 + delta), weight_min,
                                 weight_max);
        if (round[s].sla_rate < sla_target)
            streak_[s] += 1;
        else
            streak_[s] = 0;
    }
}

bool fleet_feedback::replacement_due() {
    bool due = false;
    for (const std::uint32_t s : streak_)
        if (s >= replace_patience) due = true;
    if (due) std::fill(streak_.begin(), streak_.end(), 0u);
    return due;
}

}  // namespace camdn::adapt
