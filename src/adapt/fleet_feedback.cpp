#include "adapt/fleet_feedback.h"

#include <algorithm>
#include <cmath>

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

fleet_feedback::fleet_feedback(const fleet_feedback_config& cfg,
                               std::size_t socs)
    : cfg_(cfg), weights_(socs, 1.0), streak_(socs, 0) {}

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
        weights_[s] = std::clamp(
            weights_[s] * (1.0 + cfg_.pressure_gain * delta),
            cfg_.weight_min, cfg_.weight_max);
        if (round[s].sla_rate < cfg_.sla_target)
            streak_[s] += 1;
        else
            streak_[s] = 0;
    }
}

bool fleet_feedback::replacement_due() {
    bool due = false;
    for (const std::uint32_t s : streak_)
        if (s >= cfg_.replace_patience) due = true;
    if (due) std::fill(streak_.begin(), streak_.end(), 0u);
    return due;
}

double fleet_feedback::mix_divergence(
    const std::vector<double>& planned,
    const std::vector<std::uint64_t>& observed) {
    const std::size_t m = std::min(planned.size(), observed.size());
    if (m == 0) return 0.0;
    double total_w = 0.0;
    double total_n = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        total_w += std::max(planned[i], 0.0);
        total_n += static_cast<double>(observed[i]);
    }
    if (total_w <= 0.0 || total_n <= 0.0) return 0.0;

    // Add-one smoothing on the counts; a proportional floor on the
    // weights — both sides stay proper distributions, so the divergence
    // is finite and >= 0 even with unserved tenants or zero weights.
    const double floor = total_w / static_cast<double>(m) * 1e-3;
    double kl = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double p = (static_cast<double>(observed[i]) + 1.0) /
                         (total_n + static_cast<double>(m));
        const double q = (std::max(planned[i], 0.0) + floor) /
                         (total_w + static_cast<double>(m) * floor);
        kl += p * std::log(p / q);
    }
    return std::max(kl, 0.0);
}

bool fleet_feedback::drift_replan_due(
    const std::vector<double>& planned,
    const std::vector<std::uint64_t>& observed) const {
    return cfg_.mix_kl_threshold > 0.0 &&
           mix_divergence(planned, observed) > cfg_.mix_kl_threshold;
}

}  // namespace camdn::adapt
