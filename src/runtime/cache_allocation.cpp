#include "runtime/cache_allocation.h"

#include <algorithm>

namespace camdn::runtime {

std::int64_t cache_allocation_algorithm::predict_available_pages(
    const std::vector<const task*>& running, const task& current,
    const cache::page_allocator& pool, cycle_t t_ahead) const {
    std::int64_t ahead = static_cast<std::int64_t>(pool.idle_pages());
    for (const task* t : running) {
        if (t == nullptr || t->id == current.id) continue;
        if (t->t_next < t_ahead) {
            ahead += static_cast<std::int64_t>(pool.allocated(t->id)) -
                     static_cast<std::int64_t>(t->p_next);
        }
    }
    // Fairness floor: over any longer horizon a task can always obtain the
    // equal split (co-runners' requests beyond their split time out), so
    // never predict less than that — it keeps transient contention from
    // collapsing the selection to the zero-page candidate. Under adaptive
    // control the floor is the controller's observed per-slot share (the
    // pool divided by slots that are actually competing).
    std::int64_t fair_share;
    if (fair_pages_ != nullptr && current.id >= 0 &&
        static_cast<std::size_t>(current.id) < fair_pages_->size()) {
        fair_share =
            static_cast<std::int64_t>((*fair_pages_)[current.id]);
    } else {
        fair_share = static_cast<std::int64_t>(
            pool.total_pages() /
            std::max<std::size_t>(std::size_t{1}, running.size()));
    }
    return std::max(ahead, fair_share);
}

allocation_decision cache_allocation_algorithm::select(
    const task& current, const std::vector<const task*>& running,
    const cache::page_allocator& pool, cycle_t now, bool allow_lbm) const {
    const mapping::mct& table = current.current_mct();
    const mapping::model_mapping& mm = *current.mapping;
    const std::uint32_t layer = current.current_layer;

    // Lines 7-9: LBM already enabled for this block — stay on it, wait
    // without timeout (the pages are already held).
    if (allow_lbm && current.lbm_enabled && table.lbm &&
        mm.block_of[layer] == current.lbm_block) {
        return {&*table.lbm, table.lbm->pages_needed, never};
    }

    // Lines 10-15: at a block head, enable LBM if the prediction says the
    // block's pages will be available soon enough.
    if (allow_lbm && table.lbm && mm.is_block_head(layer)) {
        const cycle_t t_ahead =
            now + static_cast<cycle_t>(
                      ahead_ratio_ *
                      static_cast<double>(mm.block_est[mm.block_of[layer]]));
        const std::int64_t p_ahead =
            predict_available_pages(running, current, pool, t_ahead);
        if (static_cast<std::int64_t>(table.lbm->pages_needed) < p_ahead) {
            return {&*table.lbm, table.lbm->pages_needed, t_ahead};
        }
    }

    // Lines 16-22: pick the LWM candidate with the most pages that still
    // fits the predicted availability.
    const cycle_t t_ahead =
        now + static_cast<cycle_t>(ahead_ratio_ *
                                   static_cast<double>(mm.layer_est[layer]));
    const std::int64_t p_ahead =
        predict_available_pages(running, current, pool, t_ahead);

    const mapping::mapping_candidate* chosen = &table.lwm.front();
    for (const auto& cand : table.lwm) {
        if (chosen->pages_needed < cand.pages_needed &&
            static_cast<std::int64_t>(cand.pages_needed) <= p_ahead) {
            chosen = &cand;
        }
    }
    return {chosen, chosen->pages_needed, t_ahead};
}

allocation_decision cache_allocation_algorithm::downgrade(
    const task& current, std::uint32_t cap_pages, cycle_t now) const {
    const mapping::mct& table = current.current_mct();
    const mapping::mapping_candidate* chosen = &table.lwm.front();
    for (const auto& cand : table.lwm) {
        if (cand.pages_needed < cap_pages &&
            cand.pages_needed > chosen->pages_needed) {
            chosen = &cand;
        }
    }
    const cycle_t t_ahead =
        now + static_cast<cycle_t>(
                  ahead_ratio_ *
                  static_cast<double>(
                      current.mapping->layer_est[current.current_layer]));
    return {chosen, chosen->pages_needed, t_ahead};
}

}  // namespace camdn::runtime
