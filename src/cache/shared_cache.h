// Sliced shared last-level cache with two access paths:
//
//  * transparent path — conventional set-associative LRU lookup used by the
//    general-purpose subspace and by all baseline policies (the NPU DMA of
//    MoCA/AuRORA/shared-baseline goes through here and contends freely);
//  * NEC path — the NPU-Exclusive Controller semantics of CaMDN
//    (§III-B2): explicit line read/write inside a model-exclusive region,
//    fill/writeback against DRAM, bypass around the cache, and multicast
//    variants that combine identical requests from a group of NPUs.
//
// The two paths are disjoint by way index once partitioning is enabled:
// the way-mask register, set once at construction, keeps transparent
// fills inside the low `cpu_ways` ways while NEC operations address the
// high `npu_ways` ways through CPT translation of the pages the pool
// holds for their task.
//
// Timing: each slice serves one line per cycle (tracked as a busy-until
// horizon per slice); DRAM interactions delegate to dram::dram_system.
// Burst entry points exploit the fact that consecutive lines stripe across
// slices, so a burst's slice occupancy is computed in O(slices).
//
// The transparent path is one burst kernel (transparent_lines) with the
// per-line semantics of an LRU cache, bit for bit: the victim is the
// lowest invalid way below the way mask, else the least recently used
// valid way. Its layout serves the lookup.
// Sets are stored in line order: line L lives in set L mod (slices x
// sets), which is slice + slices x set of its (slice, set) pair, so a
// burst walks consecutive sets instead of one stream per slice. Each set
// is split in two arrays. Its hot part is 64 bytes: valid/dirty masks, a
// 16-bit tag signature per way, and the ways in recency order (one nibble
// each) — the set's only LRU record, whose tail a miss takes as its
// victim. The stock 16 MiB cache's hot array is 1 MiB, small enough to
// stay in a host core's L2. A signature match is confirmed on the full
// tag. The cold part holds the full tags and the owners, touched only for
// the way the lookup picked. The burst loop prefetches both parts a fixed
// number of sets ahead. Snapshots write each set's order word and line
// records slice-major (slice, then set, then way), the snapshot format's
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_config.h"
#include "cache/cpt.h"
#include "cache/page_allocator.h"
#include "common/snapshot_io.h"
#include "common/types.h"
#include "dram/dram_system.h"

namespace camdn::obs {
class probe;
}

namespace camdn::cache {

struct cache_stats {
    // Transparent path.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t read_miss_fills = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t evictions = 0;
    /// Evictions where the victim belonged to a different task — the
    /// paper's definition of cache contention (§II-C).
    std::uint64_t inter_task_evictions = 0;

    // NEC path.
    std::uint64_t region_reads = 0;
    std::uint64_t region_writes = 0;
    std::uint64_t region_fills = 0;
    std::uint64_t region_writebacks = 0;
    std::uint64_t bypass_reads = 0;
    std::uint64_t bypass_writes = 0;
    /// Requests that multicast combining removed from the NoC/memory.
    std::uint64_t multicast_combined = 0;
    /// Total slice service slots consumed (1 cycle each).
    std::uint64_t slice_busy_cycles = 0;

    double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }
};

struct access_result {
    bool hit = false;
    cycle_t done = 0;
};

class shared_cache {
public:
    /// `transparent_ways` is the way-mask register: the number of ways the
    /// transparent path may allocate into. Baselines run unpartitioned
    /// (config.ways); CaMDN policies restrict the transparent path to
    /// config.cpu_ways(). Throws std::invalid_argument for 0 transparent
    /// ways or more than config.ways, when config.npu_ways exceeds
    /// config.ways, config.ways exceeds max_ways, or a count the address
    /// decode divides by is not a power of two: slices, sets per slice,
    /// page bytes and pages per way (checked_page_geometry).
    shared_cache(const cache_config& config, dram::dram_system& dram,
                 std::uint32_t transparent_ways);
    /// An unpartitioned cache: every way transparent.
    shared_cache(const cache_config& config, dram::dram_system& dram)
        : shared_cache(config, dram, config.ways) {}

    const cache_config& config() const { return config_; }
    std::uint32_t transparent_ways() const { return transparent_ways_; }

    // ---- Transparent path ----

    /// Ways the recency order can hold (one nibble each); the constructor
    /// throws std::invalid_argument for a geometry with more.
    static constexpr std::uint32_t max_ways = 16;

    access_result transparent_access(addr_t paddr, bool is_write,
                                     cycle_t arrival, task_id task) {
        return transparent_lines(paddr, 1, is_write, arrival, task);
    }

    /// Accesses `nlines` consecutive lines; returns completion of the last.
    cycle_t transparent_burst(addr_t paddr, std::uint64_t nlines, bool is_write,
                              cycle_t arrival, task_id task) {
        return transparent_lines(paddr, nlines, is_write, arrival, task).done;
    }

    // ---- Model-exclusive regions (page pool) ----

    page_allocator& pages() { return pages_; }
    const page_allocator& pages() const { return pages_; }

    // ---- NEC semantics (bursts over consecutive lines) ----
    // A region burst covers `nlines` lines from virtual cache address
    // `vcaddr` of `task`'s region; it throws std::logic_error when the
    // task does not hold the page of the burst's first line.

    cycle_t region_read_burst(task_id task, addr_t vcaddr, std::uint64_t nlines,
                              cycle_t arrival, std::uint32_t group_size = 1);
    cycle_t region_write_burst(task_id task, addr_t vcaddr, std::uint64_t nlines,
                               cycle_t arrival);
    cycle_t region_fill_burst(task_id task, addr_t vcaddr, addr_t dram_addr,
                              std::uint64_t nlines, cycle_t arrival);
    cycle_t region_writeback_burst(task_id task, addr_t vcaddr, addr_t dram_addr,
                                   std::uint64_t nlines, cycle_t arrival);
    cycle_t bypass_read_burst(addr_t dram_addr, std::uint64_t nlines,
                              cycle_t arrival, task_id task,
                              std::uint32_t group_size = 1);
    cycle_t bypass_write_burst(addr_t dram_addr, std::uint64_t nlines,
                               cycle_t arrival, task_id task);

    const cache_stats& stats() const { return stats_; }

    /// The SoC's probe (nullptr: nothing attached). Slice waits charge the
    /// slice's previous user, transparent read misses the victim's owner.
    void set_probe(obs::probe* p) { probe_ = p; }

    /// Checkpoint support: serializes / restores the full warm state —
    /// each transparent set's recency order and lines, slice busy horizons
    /// (absolute cycles; the resumed run continues the same clock),
    /// cumulative stats and the page pool. restore_state throws
    /// snapshot_error on a line count or transparent-way count other than
    /// this cache's; on a recency order the lookup cannot run on (its
    /// first transparent_ways() nibbles not each way below the mask once,
    /// or the rest not the masked-off ways in index order above zero
    /// nibbles); on a valid line in a masked-off way; and on a page pool
    /// page_allocator::restore_state rejects (`task_slots` is the resuming
    /// scheduler's slot count).
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r, std::size_t task_slots);

private:
    /// A transparent set's hot part, 64 bytes: everything a lookup reads.
    /// Deliberately not alignas(64): glibc kept over-aligned blocks of the
    /// set arrays' size in its per-thread arenas, and a sweep of fresh SoCs
    /// grew peak RSS by a cache per sweep. Aligning both arrays by hand
    /// inside one plain allocation measured no faster on a recorded AuRORA
    /// burst trace, so the arrays are plain vectors.
    struct hot_set {
        /// Recency order, the set's only LRU record: nibble p holds the way
        /// at position p, position 0 the most recently used. Positions
        /// [0, transparent_ways_) hold exactly the ways below the mask, so
        /// position transparent_ways_ - 1 is the LRU victim; the
        /// masked-off ways follow in index order, and nibbles past the
        /// cache's ways are 0.
        std::uint64_t order = 0;
        std::uint16_t valid = 0;  ///< bit w: way w holds a line
        std::uint16_t dirty = 0;  ///< bit w: way w's line is dirty
        /// Per way, 16 bits of the line id above the set index: the
        /// lookup compares these first and confirms a candidate on the
        /// full tag.
        std::uint16_t sig[max_ways] = {};
        std::uint32_t pad[5] = {};  // the hot part fills 64 bytes
    };
    static_assert(sizeof(hot_set) == 64, "one host cache line per set");
    /// A transparent set's cold part, touched per way once the lookup has
    /// picked one: each way's full line id (so the victim address is
    /// known) and owner.
    struct cold_set {
        std::uint64_t tag[max_ways];
        task_id owner[max_ways];
    };
    static_assert(sizeof(hot_set) + sizeof(cold_set) == 256,
                  "hot part, tags and owners: 64 + 128 + 64 bytes");

    /// The transparent path's one body: `nlines` consecutive lines from
    /// `paddr`, all arriving at `arrival`. Slice service is solved per
    /// slice in closed form, cache state is updated line by line, and the
    /// misses' writebacks and fills go to DRAM afterwards as one line run
    /// in line order. `hit` reports whether every line hit.
    access_result transparent_lines(addr_t paddr, std::uint64_t nlines,
                                    bool is_write, cycle_t arrival,
                                    task_id task);

    /// Transparent lines of the geometry (snapshot record count).
    std::size_t lines() const { return hot_.size() * config_.ways; }

    /// The slice of the line of `task`'s region holding `vcaddr`,
    /// translated through the task's held pages. Throws std::logic_error
    /// when the task does not hold the page.
    std::uint32_t region_slice(task_id task, addr_t vcaddr) const;

    /// Reserves `nlines` striped service slots starting at `start_slice`,
    /// one per line at or after `arrival`; returns the cycle the last
    /// completes. `task` is the requester, for attribution only (no_task =
    /// untracked) — timing ignores it.
    cycle_t occupy_striped(std::uint32_t start_slice, std::uint64_t nlines,
                           cycle_t arrival, task_id task);

    cache_config config_;
    dram::dram_system& dram_;
    std::uint32_t sets_ = 0;
    const std::uint32_t transparent_ways_;
    // Transparent bursts decode their first line's slice and set index
    // with masks of the power-of-two geometry.
    std::uint64_t slice_mask_ = 0;
    std::uint64_t index_mask_ = 0;
    std::uint32_t sig_shift_ = 0;  // line id bits below the tag signature
    // Sets in line order (index = line mod (slices * sets_)), split into
    // the parts a lookup reads and the parts it touches per way.
    std::vector<hot_set> hot_;
    std::vector<cold_set> cold_;
    std::vector<cycle_t> slice_free_;
    // transparent_lines scratch, members so bursts allocate nothing: each
    // touched slice's first service start, in the order the burst touches
    // them, and the burst's DRAM line run (two lines per miss at most).
    std::vector<cycle_t> slice_start_;
    std::vector<dram::line_request> dram_run_;

    page_allocator pages_;
    page_translation translation_;

    cache_stats stats_;

    obs::probe* probe_ = nullptr;
    // Attributed cost of a transparent read miss over a hit: the isolated
    // DRAM line service plus fill/NoC hops. DRAM *waits* inside the miss
    // are the DRAM hooks' to charge, so they are excluded here.
    cycle_t miss_penalty_cycles_ = 0;
};

}  // namespace camdn::cache
