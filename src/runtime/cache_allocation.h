// Dynamic cache allocation — Algorithm 1 of the paper, verbatim.
//
// At the start of each layer the algorithm predicts near-future available
// pages from the co-runners' profiled reallocation times, gates LBM on that
// prediction, and otherwise selects the largest LWM candidate that fits.
// On a timeout the caller downgrades to the next-smaller candidate via
// `downgrade()`.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/page_allocator.h"
#include "common/types.h"
#include "mapping/mapping.h"
#include "runtime/task.h"

namespace camdn::runtime {

/// Poll interval while a page request waits (the caller re-runs the
/// negotiation until it succeeds or the decision's timeout passes).
inline constexpr cycle_t page_retry_cycles = 2'000;

struct allocation_decision {
    const mapping::mapping_candidate* candidate = nullptr;
    std::uint32_t pages_needed = 0;
    /// Absolute timeout for waiting on the page request; `never` when LBM
    /// is already enabled for the current block (paper line 9).
    cycle_t timeout = never;
};

class cache_allocation_algorithm {
public:
    /// `ahead_ratio` is the paper's 0.2 look-ahead factor on the profiled
    /// layer/block latency estimate.
    explicit cache_allocation_algorithm(double ahead_ratio = 0.2)
        : ahead_ratio_(ahead_ratio) {}

    /// predAvailPages (paper lines 1-6): idle pages plus pages expected to
    /// be released by other tasks that will reallocate before `t_ahead`.
    std::int64_t predict_available_pages(const std::vector<const task*>& running,
                                         const task& current,
                                         const cache::page_allocator& pool,
                                         cycle_t t_ahead) const;

    /// Full selection (paper lines 7-22). `allow_lbm` = false restricts the
    /// choice to LWM candidates (ablation switch).
    allocation_decision select(const task& current,
                               const std::vector<const task*>& running,
                               const cache::page_allocator& pool, cycle_t now,
                               bool allow_lbm = true) const;

    /// Timeout path: the largest candidate requiring strictly fewer pages
    /// than `cap_pages` (falls back to the minimal, zero-page candidate).
    allocation_decision downgrade(const task& current, std::uint32_t cap_pages,
                                  cycle_t now) const;

    double ahead_ratio() const { return ahead_ratio_; }

    /// Adaptive-control inputs (policy::camdn_adaptive): the feedback
    /// controller retunes the look-ahead each epoch and replaces the
    /// equal-split fairness floor with observed per-slot shares. `shares`
    /// must outlive the algorithm; nullptr restores the static floor.
    void set_ahead_ratio(double r) { ahead_ratio_ = r; }
    void set_fair_pages(const std::vector<std::uint32_t>* shares) {
        fair_pages_ = shares;
    }

private:
    double ahead_ratio_;
    const std::vector<std::uint32_t>* fair_pages_ = nullptr;
};

}  // namespace camdn::runtime
