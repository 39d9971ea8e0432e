#include "adapt/controller.h"

#include <algorithm>
#include <cmath>

namespace camdn::adapt {

feedback_controller::feedback_controller(std::uint32_t slots,
                                         std::uint32_t total_pages,
                                         double initial_ahead)
    : slots_(std::max<std::uint32_t>(slots, 1)),
      total_pages_(total_pages),
      active_ema_(static_cast<double>(slots_)),
      ahead_baseline_(initial_ahead) {
    action_.ahead_ratio = initial_ahead;
    action_.page_share.assign(slots_, total_pages_ / slots_);
    action_.bw_share.assign(slots_, 0.0);
}

const control_action& feedback_controller::on_epoch(const epoch_snapshot& snap) {
    update_shares(snap);
    update_ahead(snap);
    update_bandwidth(snap);
    return action_;
}

void feedback_controller::update_shares(const epoch_snapshot& snap) {
    // Track how many slots are genuinely competing for the cache. Idle
    // slots strand pages under the static equal split; the adaptive split
    // divides the pool by the smoothed active count instead, so survivors
    // of a lull run on larger candidates and a returning burst shrinks the
    // split back within an epoch or two.
    const double observed =
        static_cast<double>(std::max<std::uint32_t>(snap.active_slots, 1));
    active_ema_ += active_smoothing * (observed - active_ema_);
    // Round up: a fractional competitor still constrains the split. Never
    // below 1 or above the slot count.
    const std::uint32_t effective = std::min<std::uint32_t>(
        slots_, std::max<std::uint32_t>(
                    1, static_cast<std::uint32_t>(std::ceil(active_ema_ - 1e-9))));
    const std::uint32_t share = total_pages_ / effective;
    // The share is a prediction horizon input, not a hard grant, so every
    // slot gets the same figure: whichever slots turn out active next epoch
    // plan against the same split.
    std::fill(action_.page_share.begin(), action_.page_share.end(), share);
}

void feedback_controller::update_ahead(const epoch_snapshot& snap) {
    // Multiplicative increase / decrease on the Algorithm-1 look-ahead,
    // floored at the profile-time baseline. A quiet epoch (hardly any
    // waiting, zero timeouts) grows the horizon, admitting LBM blocks and
    // larger candidates earlier while the cache is uncontended; timeouts
    // or sustained waiting collapse it back toward the baseline, where
    // decisions coincide with static CaMDN. Anything in between holds.
    // Growth additionally requires spare capacity (idle slots). A fully
    // loaded SoC with momentarily quiet negotiation is still the regime
    // the baseline was tuned for, and stretching the horizon there trades
    // timeouts for nothing — page-pool idleness at the cut instant is too
    // transient a signal (tasks release between layers) to count.
    const bool spare = snap.active_slots < slots_;
    const double wait = snap.page_wait_frac();
    double a = action_.ahead_ratio;
    if (snap.total_timeouts() > 0 || wait > wait_hi) {
        a *= ahead_down;
    } else if (wait < wait_lo && snap.active_slots > 0 && spare) {
        a *= ahead_up;
    }
    action_.ahead_ratio =
        std::clamp(a, ahead_baseline_, std::max(ahead_baseline_, ahead_max));
}

void feedback_controller::save_state(snapshot_writer& w) const {
    w.d(active_ema_);
    w.d(action_.ahead_ratio);
    w.u64(action_.page_share.size());
    for (const std::uint32_t p : action_.page_share) w.u32(p);
    w.u64(action_.bw_share.size());
    for (const double s : action_.bw_share) w.d(s);
}

void feedback_controller::restore_state(snapshot_reader& r) {
    active_ema_ = r.d();
    action_.ahead_ratio = r.d();
    const std::uint64_t npages = r.count(4);
    if (npages != action_.page_share.size())
        throw snapshot_error("snapshot controller slot-count mismatch");
    for (auto& p : action_.page_share) p = r.u32();
    const std::uint64_t nbw = r.count(8);
    if (nbw != action_.bw_share.size())
        throw snapshot_error("snapshot controller slot-count mismatch");
    for (auto& s : action_.bw_share) s = r.d();
}

void feedback_controller::update_bandwidth(const epoch_snapshot& snap) {
    // MoCA-style epoch caps, driven by observed slack instead of layer
    // profiles: when one slot moved an outsized share of the epoch's DMA
    // bytes while another slot is behind its deadline, cap the hog at its
    // population share for the next epoch. Everyone else runs
    // unregulated. Without deadline observations (throughput mode) the
    // loop stays inert — a cap can only trade tail latency for fairness,
    // and with nobody's slack to restore that trade has no payer.
    std::fill(action_.bw_share.begin(), action_.bw_share.end(), 0.0);
    const std::uint32_t active = snap.active_slots;
    if (active < 2) return;

    std::uint64_t total_bytes = 0;
    bool someone_late = false;
    for (const auto& c : snap.tasks) {
        total_bytes += c.dma_bytes;
        if (!c.active()) continue;
        if (c.deadline_misses > 0 ||
            (c.deadline_completions > 0 && c.slack_cycles < 0))
            someone_late = true;
    }
    if (!someone_late || total_bytes == 0) return;

    const double fair = 1.0 / static_cast<double>(active);
    for (std::size_t s = 0; s < snap.tasks.size(); ++s) {
        const auto& c = snap.tasks[s];
        if (!c.active()) continue;
        const double frac = static_cast<double>(c.dma_bytes) /
                            static_cast<double>(total_bytes);
        const bool behind = c.deadline_misses > 0 ||
                            (c.deadline_completions > 0 && c.slack_cycles < 0);
        if (!behind && frac > hog_factor * fair)
            action_.bw_share[s] = std::max(bw_floor, fair);
    }
}

}  // namespace camdn::adapt
