#include "cache/page_allocator.h"

#include <algorithm>
#include <numeric>

namespace camdn::cache {

page_allocator::page_allocator(const cache_config& config) {
    total_ = config.npu_pages();
    free_.reserve(total_);
    // NPU pages live in the high ways [cpu_ways, ways): pcpns
    // [cpu_ways * pages_per_way, pages_total). Push in reverse so the
    // lowest pcpn is handed out first (deterministic, easier to test).
    const std::uint32_t first = config.cpu_ways() * config.pages_per_way();
    const std::uint32_t last = config.pages_total();
    for (std::uint32_t pcpn = last; pcpn > first; --pcpn) free_.push_back(pcpn - 1);
}

std::uint32_t page_allocator::allocated(task_id task) const {
    auto it = held_.find(task);
    return it == held_.end() ? 0 : static_cast<std::uint32_t>(it->second.size());
}

const std::vector<std::uint32_t>& page_allocator::pages_of(task_id task) const {
    static const std::vector<std::uint32_t> empty;
    auto it = held_.find(task);
    return it == held_.end() ? empty : it->second;
}

std::optional<std::vector<std::uint32_t>> page_allocator::try_allocate(
    task_id task, std::uint32_t count) {
    if (count > free_.size()) return std::nullopt;
    std::vector<std::uint32_t> taken;
    taken.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        taken.push_back(free_.back());
        free_.pop_back();
    }
    auto& mine = held_[task];
    mine.insert(mine.end(), taken.begin(), taken.end());
    return taken;
}

std::vector<std::uint32_t> page_allocator::release(task_id task,
                                                   std::uint32_t count) {
    std::vector<std::uint32_t> freed;
    auto it = held_.find(task);
    if (it == held_.end()) return freed;
    auto& mine = it->second;
    if (count > mine.size()) count = static_cast<std::uint32_t>(mine.size());
    freed.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        freed.push_back(mine.back());
        mine.pop_back();
        free_.push_back(freed.back());
    }
    if (mine.empty()) held_.erase(it);
    return freed;
}

std::vector<std::uint32_t> page_allocator::release_all(task_id task) {
    return release(task, allocated(task));
}

bool page_allocator::accounting_consistent() const {
    std::size_t held = 0;
    for (const auto& [task, pages] : held_) held += pages.size();
    return held + free_.size() == total_;
}

void page_allocator::save_state(snapshot_writer& w) const {
    w.u32(total_);
    w.u64(free_.size());
    for (const std::uint32_t pcpn : free_) w.u32(pcpn);

    std::vector<task_id> holders;
    holders.reserve(held_.size());
    for (const auto& [task, pages] : held_) holders.push_back(task);
    std::sort(holders.begin(), holders.end());
    w.u64(holders.size());
    for (const task_id t : holders) {
        const auto& pages = held_.at(t);
        w.i32(t);
        w.u64(pages.size());
        for (const std::uint32_t pcpn : pages) w.u32(pcpn);
    }
}

void page_allocator::restore_state(snapshot_reader& r) {
    const std::uint32_t total = r.u32();
    if (total != total_)
        throw snapshot_error("snapshot page-pool size mismatch: saved " +
                             std::to_string(total) + ", configured " +
                             std::to_string(total_));
    // The valid pcpn population of this pool, collected before the
    // overwrite: the restored contents must be a permutation of it, so a
    // corrupt-but-well-formed snapshot (out-of-range or duplicated pcpn)
    // is rejected instead of silently corrupting cache addressing.
    std::vector<std::uint32_t> valid = free_;
    for (const auto& [task, pages] : held_)
        valid.insert(valid.end(), pages.begin(), pages.end());
    std::sort(valid.begin(), valid.end());

    free_.clear();
    const std::uint64_t nfree = r.count(4);
    free_.reserve(nfree);
    for (std::uint64_t i = 0; i < nfree; ++i) free_.push_back(r.u32());

    held_.clear();
    const std::uint64_t holders = r.count(12);
    for (std::uint64_t h = 0; h < holders; ++h) {
        const task_id t = r.i32();
        const std::uint64_t n = r.count(4);
        auto& pages = held_[t];
        pages.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) pages.push_back(r.u32());
    }

    std::vector<std::uint32_t> restored = free_;
    for (const auto& [task, pages] : held_)
        restored.insert(restored.end(), pages.begin(), pages.end());
    std::sort(restored.begin(), restored.end());
    if (restored != valid)
        throw snapshot_error(
            "snapshot page-pool contents are not a permutation of this "
            "pool's pages");
}

}  // namespace camdn::cache
