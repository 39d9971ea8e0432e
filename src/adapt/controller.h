// Epoch-driven feedback controller for `policy::camdn_adaptive`.
//
// CaMDN's Algorithm 1 acts on offline estimates: the fairness floor and the
// predicted steady-state demand assume all `co_located` slots are busy, and
// the 0.2 `ahead_ratio` look-ahead is a fixed profile-time constant. Under
// bursty or drifting traffic both assumptions break — idle slots strand
// cache pages, and a fixed look-ahead either forfeits LBM in lulls or
// over-commits and times out under contention. Following MoCA's
// memory-centric adaptive execution, this controller closes the loop: every
// epoch it consumes the telemetry snapshot and re-derives
//   * per-slot cache page shares (the Algorithm-1 fairness floor and
//     steady-state prediction) from the observed active-slot count,
//   * the `ahead_ratio` via multiplicative increase/decrease keyed to
//     observed page-wait pressure and negotiation timeouts,
//   * MoCA-style per-slot DRAM bandwidth caps from observed traffic skew
//     and QoS slack.
// The decision path is a pure function of the snapshot stream and the
// fixed gains below, so adaptive sweeps stay bit-identical across runs
// and thread-pool widths.
#pragma once

#include <cstdint>
#include <vector>

#include "adapt/telemetry.h"
#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn::adapt {

/// Telemetry/decision epoch (cycles of the 1 GHz clock). Also paces
/// telemetry-only recording.
inline constexpr cycle_t epoch_cycles = 100'000;

/// What the scheduler applies after each epoch decision.
struct control_action {
    double ahead_ratio = 0.2;
    /// Per-slot fairness floor / steady-state prediction, pages.
    std::vector<std::uint32_t> page_share;
    /// Per-slot DRAM share in [0,1]; 0 = unregulated.
    std::vector<double> bw_share;
};

class feedback_controller {
public:
    // ---- page-share loop ----
    /// Smoothing of the observed active-slot count, in [0,1]; higher reacts
    /// faster to bursts, lower rides through blips.
    static constexpr double active_smoothing = 0.5;

    // ---- ahead_ratio loop (multiplicative increase / decrease) ----
    // The look-ahead only ever grows above the profile-time baseline (the
    // paper's 0.2, tuned for saturated co-location) and falls back to it
    // under contention: in a fully loaded SoC the adaptive policy thereby
    // converges to static CaMDN instead of under- or over-shooting it.
    static constexpr double ahead_max = 0.35;
    /// Applied when contention is low.
    static constexpr double ahead_up = 1.2;
    /// Applied on timeouts / heavy waiting.
    static constexpr double ahead_down = 0.5;
    /// Page-wait fraction (per active slot) above which the look-ahead
    /// backs off, and below which it may grow. Between the two: hold.
    static constexpr double wait_hi = 0.01;
    static constexpr double wait_lo = 0.001;

    // ---- bandwidth loop ----
    /// A slot is a bandwidth hog when its share of epoch DMA bytes exceeds
    /// hog_factor / active_slots while some other slot is behind.
    static constexpr double hog_factor = 1.5;
    /// Caps never drop below this DRAM share.
    static constexpr double bw_floor = 0.125;

    feedback_controller(std::uint32_t slots, std::uint32_t total_pages,
                        double initial_ahead);

    /// Consumes one epoch snapshot and returns the action to apply for the
    /// next epoch. Deterministic.
    const control_action& on_epoch(const epoch_snapshot& snap);

    const control_action& action() const { return action_; }

    /// Checkpoint support: serializes / restores the loop state (smoothed
    /// active count and the last published action) so a resumed run
    /// continues the control trajectory bit for bit.
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r);

private:
    void update_shares(const epoch_snapshot& snap);
    void update_ahead(const epoch_snapshot& snap);
    void update_bandwidth(const epoch_snapshot& snap);

    std::uint32_t slots_;
    std::uint32_t total_pages_;
    double active_ema_;
    double ahead_baseline_;
    control_action action_;
};

}  // namespace camdn::adapt
