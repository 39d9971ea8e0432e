// Fleet-level feedback: per-SoC telemetry rollups and the routing-weight /
// re-placement controller the serve layer closes its loop with.
//
// A cluster run with feedback enabled proceeds in rounds. After each round
// every SoC's simulation result (completions, drops, telemetry epochs) is
// collapsed into a `soc_rollup`; the `fleet_feedback` controller turns the
// rollups into per-SoC load weights — the router multiplies a SoC's
// estimated backlog by its weight, steering traffic away from SoCs under
// cache page-wait pressure — and flags sustained QoS violation so the
// cluster can re-plan placement against the traffic mix it actually
// observed. Decisions are pure functions of the rollup stream, keeping
// cluster runs bit-identical across repetitions and pool widths.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/experiment.h"

namespace camdn::adapt {

/// One SoC's round, collapsed to the signals the fleet controller uses.
struct soc_rollup {
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;        ///< refused at the admission queue
    std::uint64_t deadline_met = 0;   ///< completions within the SLA target
    double sla_rate = 1.0;            ///< met / (completed + dropped)
    double page_wait_frac = 0.0;      ///< mean telemetry epoch pressure

    /// Routing pressure: page-wait dominated, with drops and SLA misses
    /// folded in (all dimensionless, wait scaled to comparable magnitude).
    double pressure() const {
        const std::uint64_t offered = completed + dropped;
        const double drop_frac =
            offered ? static_cast<double>(dropped) / offered : 0.0;
        return 10.0 * page_wait_frac + drop_frac + (1.0 - sla_rate);
    }
};

/// Collapses one SoC round result. The SLA target per completion is
/// qos_scale * its model's Table-I latency target; dropped arrivals count
/// as violations.
soc_rollup rollup_from(const sim::experiment_result& res, double qos_scale);

class fleet_feedback {
public:
    /// Weight bounds: a SoC's backlog multiplier stays in [min, max]. Each
    /// round moves it by one unit of weight per unit of pressure above or
    /// below the fleet mean.
    static constexpr double weight_min = 0.25;
    static constexpr double weight_max = 4.0;
    /// A round with sla_rate below this counts toward the violation streak.
    static constexpr double sla_target = 0.9;
    /// Consecutive violating rounds on any SoC before re-placement fires.
    static constexpr std::uint32_t replace_patience = 2;

    explicit fleet_feedback(std::size_t socs);

    /// Consumes one round of rollups (fleet order) and updates weights and
    /// violation streaks.
    void observe(const std::vector<soc_rollup>& round);

    /// Per-SoC backlog multipliers for the router (>1 = avoid).
    const std::vector<double>& weights() const { return weights_; }

    /// True when some SoC has violated its SLA target for
    /// `replace_patience` consecutive rounds. Consuming the signal resets
    /// every streak (the re-placement gets a fresh observation window).
    bool replacement_due();

private:
    std::vector<double> weights_;
    std::vector<std::uint32_t> streak_;
};

}  // namespace camdn::adapt
