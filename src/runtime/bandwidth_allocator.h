// MoCA-style memory-bandwidth partitioning (baseline, paper §II-B1).
//
// MoCA assigns each co-located task a DRAM bandwidth share sized to its
// memory-access requirement and its deadline urgency, re-evaluated every
// epoch. The shares drive the per-task regulators inside dram_system.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dram/dram_system.h"
#include "runtime/task.h"

namespace camdn::runtime {

/// Epoch of the MoCA/AuRORA bandwidth re-partitioning timer.
inline constexpr cycle_t bw_epoch_cycles = 50'000;

class bandwidth_allocator {
public:
    /// Shares are demand-proportional with `headroom` slack above the
    /// exact partition: regulation bounds sustained overuse without
    /// serializing bursty phases (MoCA adapts its partition every epoch
    /// rather than enforcing a hard static split).
    explicit bandwidth_allocator(dram::dram_system& dram,
                                 double headroom = 2.0)
        : dram_(dram), headroom_(headroom) {}

    /// Recomputes shares for `running` tasks at time `now`. Demand is the
    /// current layer's DRAM bytes per estimated cycle; urgency scales the
    /// demand of tasks that are behind their deadline pace.
    void reallocate(const std::vector<task*>& running, cycle_t now);

private:
    dram::dram_system& dram_;
    double headroom_;
};

}  // namespace camdn::runtime
