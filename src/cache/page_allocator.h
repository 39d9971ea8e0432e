// Central allocator for the NPU-subspace cache pages.
//
// Algorithm 1 of the paper requests pages at layer boundaries and queries
// `idlePages()`; this allocator is that shared pool. Pages are identified
// by pcpn and belong to the NPU ways only (the transparent subspace is
// never handed out). Allocation is all-or-nothing per request — a model
// region must be fully resident before a layer may use it.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.h"
#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn::cache {

class page_allocator {
public:
    explicit page_allocator(const cache_config& config);

    /// Pages currently unassigned (Algorithm 1's idlePages()).
    std::uint32_t idle_pages() const {
        return static_cast<std::uint32_t>(free_.size());
    }

    /// Total allocatable pages (NPU subspace).
    std::uint32_t total_pages() const { return total_; }

    /// Pages currently held by `task`.
    std::uint32_t allocated(task_id task) const;

    /// The pcpns currently held by `task`, in allocation order (empty when
    /// the task holds nothing).
    const std::vector<std::uint32_t>& pages_of(task_id task) const;

    /// Attempts to take `count` pages for `task`; returns their pcpns or
    /// nullopt when fewer than `count` pages are idle (nothing is taken).
    std::optional<std::vector<std::uint32_t>> try_allocate(task_id task,
                                                           std::uint32_t count);

    /// Returns the `count` most recently allocated pages of `task` to the
    /// pool and reports which pcpns were freed. count is clamped to the
    /// task's holdings.
    std::vector<std::uint32_t> release(task_id task, std::uint32_t count);

    /// Returns every page held by `task`.
    std::vector<std::uint32_t> release_all(task_id task);

    /// Sum of every task's holdings + idle == total (invariant checker).
    bool accounting_consistent() const;

    /// Checkpoint support. The exact free-list order is captured (LIFO
    /// handout order determines which pcpns future allocations receive, so
    /// a resumed run must replay it bit for bit); holdings serialize in
    /// ascending task order so snapshot bytes are deterministic.
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r);

private:
    std::uint32_t total_ = 0;
    std::vector<std::uint32_t> free_;  // LIFO free list of pcpns
    std::unordered_map<task_id, std::vector<std::uint32_t>> held_;
};

}  // namespace camdn::cache
