// Central allocator for the NPU-subspace cache pages.
//
// Algorithm 1 of the paper requests pages at layer boundaries and queries
// `idlePages()`; this allocator is that shared pool. Pages are identified
// by pcpn and belong to the NPU ways only (the transparent subspace is
// never handed out). Allocation is all-or-nothing per request — a model
// region must be fully resident before a layer may use it.
//
// The pool is the one record of which pages each task holds: a task's
// pages in allocation order are its CPT (vcpn v maps to the v-th, see
// cache/cpt.h), and their count is Algorithm 1's Palloc.
#pragma once

#include <cstdint>
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

    /// Pages currently held by `task` (Algorithm 1's Palloc).
    std::uint32_t allocated(task_id task) const {
        return static_cast<std::uint32_t>(pages_of(task).size());
    }

    /// The pcpns currently held by `task`, in allocation order (empty when
    /// the task holds nothing).
    const std::vector<std::uint32_t>& pages_of(task_id task) const {
        return task >= 0 && static_cast<std::size_t>(task) < held_.size()
                   ? held_[static_cast<std::size_t>(task)]
                   : no_pages_;
    }

    /// Takes `count` pages for `task` when that many are idle; otherwise
    /// takes nothing. Returns whether the pages were taken. Throws
    /// std::invalid_argument for a negative task id.
    bool try_allocate(task_id task, std::uint32_t count);

    /// Returns the `count` most recently allocated pages of `task` to the
    /// pool; count is clamped to the task's holdings.
    void release(task_id task, std::uint32_t count);

    /// Returns every page held by `task`.
    void release_all(task_id task) { release(task, allocated(task)); }

    /// Sum of every task's holdings + idle == total (invariant checker).
    bool accounting_consistent() const;

    /// Checkpoint support. The exact free-list order is captured (LIFO
    /// handout order determines which pcpns future allocations receive, so
    /// a resumed run must replay it bit for bit); the tasks holding pages
    /// serialize in ascending id order so snapshot bytes are
    /// deterministic. restore_state throws snapshot_error on a pool-size
    /// mismatch, on holder ids that are negative, repeated, out of order
    /// or not below `task_slots` (the resuming scheduler's slot count;
    /// checked before anything is sized by them), and on contents that
    /// are not a permutation of this pool's pages.
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r, std::size_t task_slots);

private:
    std::uint32_t total_ = 0;
    std::vector<std::uint32_t> free_;  // LIFO free list of pcpns
    /// Holdings indexed by task id (small dense ints), each in allocation
    /// order; grows to the largest id that has allocated.
    std::vector<std::vector<std::uint32_t>> held_;
    /// What pages_of returns for a task that never allocated. A class
    /// member rather than a function-local static: the region bursts look
    /// pages up on every call, and a local static costs a guard check.
    static inline const std::vector<std::uint32_t> no_pages_{};
};

}  // namespace camdn::cache
