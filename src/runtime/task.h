// Runtime state of one co-located DNN task (tenant).
//
// Carries the Algorithm 1 global bookkeeping (Tnext / Pnext / Palloc,
// updated at the end of each layer) alongside scheduling and measurement
// state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mapping/mapping.h"
#include "model/model.h"

namespace camdn::runtime {

struct task {
    task_id id = no_task;
    const model::model* mdl = nullptr;
    const mapping::model_mapping* mapping = nullptr;

    std::uint32_t current_layer = 0;

    /// Cores executing this task (>=1 while running). Multi-core tasks
    /// split the m dimension and multicast their parameter reads.
    std::vector<npu_id> cores;

    // Timing of the current inference.
    cycle_t arrival = 0;
    cycle_t started = 0;
    cycle_t deadline = never;  ///< absolute; `never` when no QoS target

    // ---- Algorithm 1 globals (paper: Tnext, Pnext, Palloc) ----
    cycle_t t_next = 0;        ///< predicted next reallocation time
    std::uint32_t p_next = 0;  ///< predicted pages needed at next reallocation
    std::uint32_t p_alloc = 0; ///< pages currently held

    // ---- LBM state ----
    bool lbm_enabled = false;
    std::uint32_t lbm_block = 0;

    // Measurement.
    std::uint32_t completed_inferences = 0;
    std::uint64_t dram_bytes_mark = 0;  ///< dram byte counter at inference start

    bool running() const { return !cores.empty(); }

    const mapping::mct& current_mct() const {
        return mapping->tables[current_layer];
    }
};

}  // namespace camdn::runtime
