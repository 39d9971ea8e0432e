// Placement planner: decides which models are resident (and replicated)
// on which SoCs of the fleet, constrained by each SoC's NPU cache
// subspace.
//
// The page demand of a model on a given SoC comes from its offline
// mapping (the largest LWM candidate over all layers — the working set
// Algorithm 1 negotiates toward); the reuse fraction from reuse analysis
// weights how much a warm replica is actually worth to the router.
// Planning is greedy and deterministic: every model gets one home first
// (highest traffic x footprint pressure placed on the roomiest SoC), then
// the hottest models are replicated while capacity allows.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/cluster.h"

namespace camdn::serve {

struct placement {
    /// resident[s] — catalog indices resident on SoC s, in planning order.
    std::vector<std::vector<std::uint32_t>> resident;
    /// hosts[m] — SoC indices hosting catalog model m, ascending.
    std::vector<std::vector<std::uint32_t>> hosts;
    /// footprint_pages[s][m] — peak cache-page demand of model m on SoC s.
    std::vector<std::vector<std::uint32_t>> footprint_pages;
    /// reused_fraction[s][m] — fraction of model m's bytes with reuse on
    /// SoC s (1 - single_use_fraction from reuse analysis).
    std::vector<std::vector<double>> reused_fraction;
    /// capacity_pages[s] — allocatable NPU-subspace pages of SoC s.
    std::vector<std::uint32_t> capacity_pages;
    /// True when some model's home exceeded its SoC's free capacity (it is
    /// still placed — serving beats rejecting — but warmth will churn).
    bool oversubscribed = false;
};

/// Plans placement for `cfg` (deterministic; also warms the process
/// mapping registry for every (model, SoC) pair).
placement plan_placement(const cluster_config& cfg);

}  // namespace camdn::serve
