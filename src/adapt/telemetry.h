// Telemetry bus: low-overhead per-epoch runtime counters.
//
// The scheduler attaches its bus to the SoC's probe (obs/probe.h), which
// adds the components' facts to the open epoch's per-slot counters; every
// fact is an integer increment, so instrumentation costs nothing when
// telemetry is off and stays cheap when it is on. The scheduler cuts the
// accumulated counters into an `epoch_snapshot` every adaptive epoch; the
// snapshot stream is what the feedback controller (adapt/controller.h) and
// the fleet rollups (adapt/fleet_feedback.h) consume, and it is exported on
// `sim::experiment_result::telemetry` for offline analysis.
//
// This header depends only on common/.
#pragma once

#include <cstdint>
#include <vector>

#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn::adapt {

/// Counters of one task slot accumulated since the last epoch cut.
/// All counts are event-ordered simulation facts, so snapshot streams are
/// bit-identical across repeated runs and sweep-pool widths.
struct task_counters {
    // Cache behaviour (transparent + NEC region paths).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t region_lines = 0;  ///< NEC region reads+writes (lines)
    std::uint64_t fill_lines = 0;    ///< NEC fills from DRAM (lines)

    // DMA traffic issued on behalf of the slot.
    std::uint64_t dma_bytes = 0;

    // Layer execution.
    std::uint64_t layers_retired = 0;
    std::uint64_t compute_cycles = 0;  ///< pure-compute portion of layers
    std::uint64_t layer_cycles = 0;    ///< issue-to-retire span of layers
    std::uint64_t lbm_layers = 0;      ///< layers run on an LBM candidate

    // Algorithm-1 page negotiation.
    std::uint64_t page_wait_cycles = 0;  ///< stalled waiting on page grants
    std::uint64_t page_timeouts = 0;     ///< negotiations that hit timeout
    std::uint64_t lbm_downgrades = 0;    ///< LBM decisions lost to timeout

    // Completions and QoS slack.
    std::uint64_t completions = 0;
    std::uint64_t deadline_completions = 0;  ///< completions carrying a deadline
    std::uint64_t deadline_misses = 0;
    /// Sum of signed slack (deadline - end) over completions with a
    /// deadline, cycles. Negative when the slot is running late.
    std::int64_t slack_cycles = 0;

    /// True when the slot did anything at all this epoch.
    bool active() const {
        return layers_retired || dma_bytes || page_wait_cycles || completions;
    }
};

/// One cut of the telemetry bus: per-slot counters plus SoC-level facts
/// sampled by the scheduler at the cut.
struct epoch_snapshot {
    std::uint64_t index = 0;
    cycle_t start = 0;
    cycle_t end = 0;

    std::vector<task_counters> tasks;  ///< indexed by task slot

    // SoC-level, sampled at the cut.
    std::uint64_t dram_bytes = 0;      ///< DRAM bytes moved this epoch
    std::uint64_t dram_throttled = 0;  ///< regulated requests this epoch
    double bw_utilization = 0.0;       ///< dram_bytes / (peak * epoch span)
    std::uint32_t idle_pages = 0;      ///< free NPU-subspace pages at cut
    std::uint32_t active_slots = 0;    ///< slots with activity this epoch

    cycle_t span() const { return end > start ? end - start : 0; }

    std::uint64_t total_page_wait() const {
        std::uint64_t sum = 0;
        for (const auto& t : tasks) sum += t.page_wait_cycles;
        return sum;
    }
    std::uint64_t total_timeouts() const {
        std::uint64_t sum = 0;
        for (const auto& t : tasks) sum += t.page_timeouts;
        return sum;
    }
    /// Page-wait cycles per active slot per epoch cycle — the contention
    /// pressure signal the controller and the fleet router act on.
    double page_wait_frac() const {
        const cycle_t s = span();
        if (!s || !active_slots) return 0.0;
        return static_cast<double>(total_page_wait()) /
               (static_cast<double>(s) * active_slots);
    }
};

/// The accumulator the probe writes into.
class telemetry_bus {
public:
    explicit telemetry_bus(std::uint32_t slots = 0) { reset(slots); }

    /// Zeroes every counter and the history; the open epoch starts at
    /// `start`.
    void reset(std::uint32_t slots, cycle_t start = 0) {
        cur_.assign(slots, task_counters{});
        history_.clear();
        epoch_start_ = start;
    }

    std::uint32_t slots() const { return static_cast<std::uint32_t>(cur_.size()); }

    /// The open epoch: its start cycle and its per-slot counters so far.
    cycle_t epoch_start() const { return epoch_start_; }
    const std::vector<task_counters>& open_epoch() const { return cur_; }

    /// Slot t's open-epoch counters, which the probe adds to; nullptr for
    /// an out-of-range slot (no_task, isolated warm-up probes).
    task_counters* slot(task_id t) {
        return t >= 0 && static_cast<std::size_t>(t) < cur_.size()
                   ? &cur_[static_cast<std::size_t>(t)]
                   : nullptr;
    }

    // ---- epoch cutting (scheduler only) ----

    /// SoC-level facts the scheduler samples at the cut.
    struct cut_sample {
        std::uint64_t dram_bytes = 0;      ///< epoch delta
        std::uint64_t dram_throttled = 0;  ///< epoch delta
        double peak_bytes_per_cycle = 0.0;
        std::uint32_t idle_pages = 0;
    };

    /// Closes the current epoch at `now`, appends it to history and starts
    /// a fresh one. Returns the closed snapshot.
    const epoch_snapshot& cut(cycle_t now, const cut_sample& s);

    /// True when the open epoch has recorded anything (a final partial cut
    /// is worth keeping).
    bool open_epoch_active() const;

    const std::vector<epoch_snapshot>& history() const { return history_; }
    /// Drops the cut history and keeps the open epoch: a warm segment
    /// restart, as restore_state(r, keep_history = false) leaves the bus.
    void clear_history() { history_.clear(); }

    // ---- checkpoint support ----

    /// Serializes the open-epoch counters, the epoch start time and the cut
    /// history. `keep_history` on restore selects between an exact
    /// continuation (history carries, epoch indices keep counting) and a
    /// warm segment restart (fresh history, only the open epoch carries so
    /// boundaries stay aligned to the global epoch grid).
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r, bool keep_history);

private:
    std::vector<task_counters> cur_;
    std::vector<epoch_snapshot> history_;
    cycle_t epoch_start_ = 0;
};

}  // namespace camdn::adapt
