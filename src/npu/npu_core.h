// Per-core bookkeeping: how long the core has been busy. The tile-level
// execution state machine lives in sim/layer_engine; this class is the
// hardware-side resource.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace camdn::npu {

class npu_core {
public:
    void assign(cycle_t now) { busy_since_ = now; }
    void release(cycle_t now) { busy_cycles_ += now - busy_since_; }

    std::uint64_t busy_cycles() const { return busy_cycles_; }
    /// Cycle the current assignment started (mid-layer checkpointing).
    cycle_t busy_since() const { return busy_since_; }

    /// Checkpoint restore: re-seeds the cumulative busy counter. A
    /// mid-layer resume re-establishes the assignment itself via assign()
    /// with the saved busy_since cycle.
    void restore_busy_cycles(std::uint64_t cycles) { busy_cycles_ = cycles; }

private:
    cycle_t busy_since_ = 0;
    std::uint64_t busy_cycles_ = 0;
};

}  // namespace camdn::npu
