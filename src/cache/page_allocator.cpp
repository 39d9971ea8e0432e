#include "cache/page_allocator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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

bool page_allocator::try_allocate(task_id task, std::uint32_t count) {
    if (task < 0)
        throw std::invalid_argument("page_allocator: pages belong to real "
                                    "tasks, not id " + std::to_string(task));
    if (count > free_.size()) return false;
    const auto idx = static_cast<std::size_t>(task);
    if (idx >= held_.size()) held_.resize(idx + 1);
    auto& mine = held_[idx];
    mine.insert(mine.end(), free_.rbegin(), free_.rbegin() + count);
    free_.resize(free_.size() - count);
    return true;
}

void page_allocator::release(task_id task, std::uint32_t count) {
    if (task < 0 || static_cast<std::size_t>(task) >= held_.size()) return;
    auto& mine = held_[static_cast<std::size_t>(task)];
    count = std::min(count, static_cast<std::uint32_t>(mine.size()));
    free_.insert(free_.end(), mine.rbegin(), mine.rbegin() + count);
    mine.resize(mine.size() - count);
}

bool page_allocator::accounting_consistent() const {
    std::size_t held = 0;
    for (const auto& pages : held_) held += pages.size();
    return held + free_.size() == total_;
}

void page_allocator::save_state(snapshot_writer& w) const {
    w.u32(total_);
    w.u64(free_.size());
    for (const std::uint32_t pcpn : free_) w.u32(pcpn);

    w.u64(static_cast<std::uint64_t>(
        std::count_if(held_.begin(), held_.end(),
                      [](const auto& pages) { return !pages.empty(); })));
    for (std::size_t t = 0; t < held_.size(); ++t) {
        if (held_[t].empty()) continue;
        w.i32(static_cast<task_id>(t));
        w.u64(held_[t].size());
        for (const std::uint32_t pcpn : held_[t]) w.u32(pcpn);
    }
}

void page_allocator::restore_state(snapshot_reader& r, std::size_t task_slots) {
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
    for (const auto& pages : held_)
        valid.insert(valid.end(), pages.begin(), pages.end());
    std::sort(valid.begin(), valid.end());

    free_.clear();
    const std::uint64_t nfree = r.count(4);
    free_.reserve(nfree);
    for (std::uint64_t i = 0; i < nfree; ++i) free_.push_back(r.u32());

    // Holders were saved in strictly ascending id order, so an id at or
    // below its predecessor's (the first's predecessor is -1) is negative,
    // repeated or out of order.
    held_.clear();
    const std::uint64_t holders = r.count(12);
    task_id last = -1;
    for (std::uint64_t h = 0; h < holders; ++h) {
        const task_id t = r.i32();
        if (t <= last || static_cast<std::size_t>(t) >= task_slots)
            throw snapshot_error(
                "snapshot page-pool holder id " + std::to_string(t) +
                " is negative, repeated, out of order or outside the " +
                std::to_string(task_slots) + " task slots");
        last = t;
        const std::uint64_t n = r.count(4);
        held_.resize(static_cast<std::size_t>(t) + 1);
        auto& pages = held_.back();
        pages.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) pages.push_back(r.u32());
    }

    std::vector<std::uint32_t> restored = free_;
    for (const auto& pages : held_)
        restored.insert(restored.end(), pages.begin(), pages.end());
    std::sort(restored.begin(), restored.end());
    if (restored != valid)
        throw snapshot_error(
            "snapshot page-pool contents are not a permutation of this "
            "pool's pages");
}

}  // namespace camdn::cache
