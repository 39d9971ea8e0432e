// Property suite for the transparent-path burst kernel: every burst must
// be bit-exact against the per-line algorithm it replaced, kept here as a
// reference model — array-of-struct line entries with LRU stamps, a victim
// scan for the smallest stamp, one occupy_slice per line and one DRAM
// access() per miss and dirty writeback on the reference's own
// dram_system. The kernel keeps no stamps, only each set's recency order;
// the reference writes that order from its stamps for the byte
// comparison.
//
// Randomized bursts cover lengths from one line to past slices x sets (a
// burst that revisits sets), reads and writes, several tasks and the
// untracked one, arrivals before and after the slice horizons, way masks
// of 4 and of every way, 4, 12 and 16 MiB caches (12 MiB over 12 ways,
// 4 of them transparent: a way count that is not a power of two, and
// order words with masked-off ways and unused nibbles), a DRAM-regulated
// task that gets throttled, and restores of the kernel's snapshot into a
// fresh cache mid-run (every set's recency order and tag signatures come
// back from the snapshot). After each burst the suite compares the
// completion cycle, cache stats and DRAM stats. Both sides' snapshot
// bytes (cache and DRAM sections) are compared every few bursts and after
// the last: a 4 MiB cache serializes 0.95 MB and a 16 MiB one 3.8 MB, too
// much to repeat after every burst under the sanitizers. With latency
// attributors attached, each slot's waits and holder rows must match too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "cache/page_allocator.h"
#include "cache/shared_cache.h"
#include "cache/tag_match.h"
#include "common/snapshot_io.h"
#include "dram/dram_system.h"
#include "obs/attribution.h"
#include "obs/probe.h"

namespace camdn::cache {
namespace {

/// The per-line transparent path, as shared_cache ran it before the burst
/// kernel: a 24-byte entry per line and a full-set scan per access.
class perline_cache {
public:
    perline_cache(const cache_config& cfg, dram::dram_system& dram,
                  std::uint32_t transparent_ways)
        : cfg_(cfg),
          dram_(dram),
          sets_(cfg.sets_per_slice()),
          tw_(transparent_ways),
          lines_(static_cast<std::size_t>(cfg.slices) * sets_ * cfg.ways),
          slice_free_(cfg.slices, 0),
          pages_(cfg) {}

    void set_attribution(obs::latency_attributor* attr) {
        attr_ = attr;
        slice_user_.assign(cfg_.slices, no_task);
        miss_penalty_ = dram_.isolated_line_service_cycles() +
                        cfg_.fill_latency + cfg_.noc_latency;
    }

    access_result access(addr_t paddr, bool is_write, cycle_t arrival,
                         task_id task) {
        const std::uint64_t line_id = paddr / line_bytes;
        const auto slice = static_cast<std::uint32_t>(line_id % cfg_.slices);
        const auto set =
            static_cast<std::uint32_t>((line_id / cfg_.slices) % sets_);
        entry* chosen = nullptr;
        entry* invalid_way = nullptr;
        entry* lru_way = nullptr;
        for (std::uint32_t w = 0; w < tw_; ++w) {
            entry& e = lines_[(static_cast<std::size_t>(slice) * sets_ + set) *
                                  cfg_.ways +
                              w];
            if (e.valid && e.tag == line_id) {
                chosen = &e;
                break;
            }
            if (!e.valid) {
                if (invalid_way == nullptr) invalid_way = &e;
            } else if (lru_way == nullptr || e.lru < lru_way->lru) {
                lru_way = &e;
            }
        }

        const cycle_t service = occupy_slice(slice, arrival, task);
        if (chosen != nullptr) {
            ++stats_.hits;
            chosen->lru = ++tick_;
            if (is_write) chosen->dirty = true;
            return access_result{true, service + cfg_.hit_latency};
        }
        ++stats_.misses;
        entry& victim = invalid_way != nullptr ? *invalid_way : *lru_way;
        if (attr_ != nullptr && !is_write)
            attr_->on_cache_wait(
                task, victim.valid && victim.owner != task ? victim.owner : task,
                miss_penalty_);
        if (victim.valid) {
            ++stats_.evictions;
            if (victim.owner != task) ++stats_.inter_task_evictions;
            if (victim.dirty) {
                ++stats_.writebacks;
                dram_.access(victim.tag * line_bytes, true, service,
                             victim.owner);
            }
        }
        victim.valid = true;
        victim.tag = line_id;
        victim.owner = task;
        victim.lru = ++tick_;
        victim.dirty = is_write;
        if (is_write) return access_result{false, service + cfg_.hit_latency};
        ++stats_.read_miss_fills;
        const cycle_t dram_done = dram_.access(paddr, false, service, task);
        return access_result{false,
                             dram_done + cfg_.fill_latency + cfg_.noc_latency};
    }

    cycle_t burst(addr_t paddr, std::uint64_t nlines, bool is_write,
                  cycle_t arrival, task_id task) {
        cycle_t done = arrival;
        for (std::uint64_t i = 0; i < nlines; ++i)
            done = std::max(
                done, access(paddr + i * line_bytes, is_write, arrival, task)
                          .done);
        return done;
    }

    const cache_stats& stats() const { return stats_; }

    /// shared_cache::save_state's layout. Each set's recency order comes
    /// from the stamps: the valid ways below the mask by descending stamp,
    /// then the invalid ones by ascending index (misses take the lowest
    /// first), then the masked-off ways in index order.
    void save_state(snapshot_writer& w) const {
        w.u32(static_cast<std::uint32_t>(lines_.size()));
        w.u32(tw_);
        std::vector<std::uint32_t> by_recency(cfg_.ways);
        for (std::size_t set = 0; set < lines_.size(); set += cfg_.ways) {
            const entry* const e = &lines_[set];
            std::iota(by_recency.begin(), by_recency.end(), 0u);
            std::stable_sort(by_recency.begin(), by_recency.begin() + tw_,
                             [e](std::uint32_t a, std::uint32_t b) {
                                 if (e[a].valid != e[b].valid)
                                     return e[a].valid;
                                 return e[a].valid && e[a].lru > e[b].lru;
                             });
            std::uint64_t order = 0;
            for (std::uint32_t p = 0; p < cfg_.ways; ++p)
                order |= std::uint64_t{by_recency[p]} << (4 * p);
            w.u64(order);
            for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
                w.u64(e[way].tag);
                w.i32(e[way].owner);
                w.b(e[way].valid);
                w.b(e[way].dirty);
            }
        }
        w.u64(slice_free_.size());
        for (const cycle_t c : slice_free_) w.u64(c);
        for (const std::uint64_t v :
             {stats_.hits, stats_.misses, stats_.read_miss_fills,
              stats_.writebacks, stats_.evictions, stats_.inter_task_evictions,
              stats_.region_reads, stats_.region_writes, stats_.region_fills,
              stats_.region_writebacks, stats_.bypass_reads,
              stats_.bypass_writes, stats_.multicast_combined,
              stats_.slice_busy_cycles})
            w.u64(v);
        pages_.save_state(w);
    }

private:
    struct entry {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        task_id owner = no_task;
        bool valid = false;
        bool dirty = false;
    };

    cycle_t occupy_slice(std::uint32_t slice, cycle_t arrival, task_id task) {
        const cycle_t start = std::max(arrival, slice_free_[slice]);
        if (attr_ != nullptr) {
            if (start > arrival)
                attr_->on_cache_wait(task, slice_user_[slice], start - arrival);
            slice_user_[slice] = task;
        }
        slice_free_[slice] = start + 1;
        ++stats_.slice_busy_cycles;
        return start + 1;
    }

    cache_config cfg_;
    dram::dram_system& dram_;
    std::uint32_t sets_;
    std::uint32_t tw_;
    std::vector<entry> lines_;
    std::vector<cycle_t> slice_free_;
    std::uint64_t tick_ = 0;
    cache_stats stats_;
    page_allocator pages_;
    obs::latency_attributor* attr_ = nullptr;
    std::vector<task_id> slice_user_;
    cycle_t miss_penalty_ = 0;
};

/// Serializes `x` into `buf`.
template <typename T>
const std::vector<std::uint8_t>& snapshot_into(std::vector<std::uint8_t>& buf,
                                               const T& x) {
    snapshot_writer w;
    x.save_state(w);
    buf = w.take();
    return buf;
}

void expect_cache_stats_eq(const cache_stats& a, const cache_stats& b,
                           std::size_t burst) {
    EXPECT_EQ(a.hits, b.hits) << "burst " << burst;
    EXPECT_EQ(a.misses, b.misses) << "burst " << burst;
    EXPECT_EQ(a.read_miss_fills, b.read_miss_fills) << "burst " << burst;
    EXPECT_EQ(a.writebacks, b.writebacks) << "burst " << burst;
    EXPECT_EQ(a.evictions, b.evictions) << "burst " << burst;
    EXPECT_EQ(a.inter_task_evictions, b.inter_task_evictions)
        << "burst " << burst;
    EXPECT_EQ(a.slice_busy_cycles, b.slice_busy_cycles) << "burst " << burst;
}

void expect_dram_stats_eq(const dram::dram_stats& a, const dram::dram_stats& b,
                          std::size_t burst) {
    EXPECT_EQ(a.reads, b.reads) << "burst " << burst;
    EXPECT_EQ(a.writes, b.writes) << "burst " << burst;
    EXPECT_EQ(a.row_hits, b.row_hits) << "burst " << burst;
    EXPECT_EQ(a.row_misses, b.row_misses) << "burst " << burst;
    EXPECT_EQ(a.row_empties, b.row_empties) << "burst " << burst;
    EXPECT_EQ(a.throttled, b.throttled) << "burst " << burst;
    EXPECT_EQ(a.bus_busy_deci, b.bus_busy_deci) << "burst " << burst;
}

constexpr int ntasks = 4;  // tasks 0..3, plus the untracked no_task

struct scenario {
    std::uint64_t cache_bytes = mib(4);
    std::uint32_t transparent_ways = 16;
    /// Every this many bursts the kernel side restores its own snapshot.
    std::size_t restore_every = 0;
    /// Snapshot bytes are compared every this many bursts and after the
    /// last.
    std::size_t snapshot_every = 1;
    std::size_t bursts = 1000;
    std::uint64_t seed = 1;
    bool attribution = false;
    /// The cache's way count.
    std::uint32_t ways = 16;
};

/// Attributors with one tenant per slot, so holder rows name slots.
void start_inferences(obs::latency_attributor& a) {
    for (task_id s = 0; s < ntasks; ++s) {
        a.on_dispatch(s, "t" + std::to_string(s));
        a.on_inference_start(s, 0, 0);
    }
}

/// Ends every slot's inference with a span far above any raw wait, so the
/// waterfall caps nothing: each tenant's dram_contention / cache_penalty
/// are the slot's raw sums and its interference row holds the per-holder
/// charges exactly.
void compare_and_restart(obs::latency_attributor& kernel,
                         obs::latency_attributor& ref, std::size_t burst) {
    for (obs::latency_attributor* a : {&kernel, &ref}) {
        for (task_id s = 0; s < ntasks; ++s) {
            a->on_layer_retired(s, std::uint64_t{1} << 50, 0);
            a->on_inference_end(s, std::uint64_t{1} << 50);
        }
    }
    ASSERT_EQ(kernel.tenant_names(), ref.tenant_names());
    const auto n = static_cast<std::uint32_t>(kernel.tenant_names().size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto& k = kernel.tenants()[i].comp;
        const auto& r = ref.tenants()[i].comp;
        EXPECT_EQ(k.cache_penalty, r.cache_penalty)
            << "tenant " << i << " at burst " << burst;
        EXPECT_EQ(k.dram_contention, r.dram_contention)
            << "tenant " << i << " at burst " << burst;
        for (std::uint32_t j = 0; j < n; ++j)
            EXPECT_EQ(kernel.interference(i, j), ref.interference(i, j))
                << "row " << i << " holder " << j << " at burst " << burst;
    }
    start_inferences(kernel);
    start_inferences(ref);
}

/// Drives `sc.bursts` random bursts through both sides; returns the
/// kernel side's DRAM throttle count.
std::uint64_t run_scenario(const scenario& sc) {
    cache_config cfg;
    cfg.total_bytes = sc.cache_bytes;
    cfg.ways = sc.ways;
    dram::dram_system kernel_dram{dram::dram_config{}};
    dram::dram_system ref_dram{dram::dram_config{}};
    auto kernel_owner =
        std::make_unique<shared_cache>(cfg, kernel_dram, sc.transparent_ways);
    shared_cache* kernel = kernel_owner.get();
    perline_cache ref{cfg, ref_dram, sc.transparent_ways};
    // Task 1 is regulated to a sliver of the bandwidth: its fills and the
    // writebacks of its lines cross epoch budgets and get throttled.
    for (dram::dram_system* d : {&kernel_dram, &ref_dram})
        d->set_task_share(1, 0.02);

    obs::latency_attributor kernel_attr, ref_attr;
    // One probe per side holds the DRAM's bank and bus holders (and, on
    // the kernel side, the cache's slice holders).
    const dram::dram_config& dcfg = kernel_dram.config();
    obs::probe kernel_probe(std::size_t{dcfg.channels} * dcfg.banks_per_channel,
                            dcfg.channels, cfg.slices);
    obs::probe ref_probe(std::size_t{dcfg.channels} * dcfg.banks_per_channel,
                         dcfg.channels, cfg.slices);
    if (sc.attribution) {
        obs::run_observer o;
        o.attr = &kernel_attr;
        kernel_probe.attach(o, nullptr);
        o.attr = &ref_attr;
        ref_probe.attach(o, nullptr);
        kernel->set_probe(&kernel_probe);
        kernel_dram.set_probe(&kernel_probe);
        ref.set_attribution(&ref_attr);
        ref_dram.set_probe(&ref_probe);
        start_inferences(kernel_attr);
        start_inferences(ref_attr);
    }

    // Addresses come from a pool twice the cache's size, so lines are
    // reused, evicted and reloaded; bursts mostly continue a sequential
    // stream, as DMA tiles do.
    std::mt19937_64 rng(sc.seed);
    const std::uint64_t pool_lines = 2 * cfg.lines_total();
    const std::uint64_t sets_total =
        static_cast<std::uint64_t>(cfg.slices) * cfg.sets_per_slice();
    std::uint64_t cursor = 0;
    cycle_t clock = 0;
    std::vector<std::uint8_t> kernel_bytes, ref_bytes;
    for (std::size_t b = 0; b < sc.bursts; ++b) {
        if (sc.restore_every != 0 && b % sc.restore_every == 0 && b > 0) {
            // Into a fresh cache, as a warm resume does — except with an
            // attributor attached, whose slice holders a fresh cache would
            // forget (they are observation state, never serialized).
            snapshot_reader r(snapshot_into(kernel_bytes, *kernel));
            if (!sc.attribution) {
                kernel_owner = std::make_unique<shared_cache>(
                    cfg, kernel_dram, sc.transparent_ways);
                kernel = kernel_owner.get();
            }
            kernel->restore_state(r, ntasks);
        }

        std::uint64_t nlines;
        switch (rng() % 16) {
            case 0:  // now and then longer than one pass over every set
                nlines = rng() % (cfg.total_bytes > mib(4) ? 32 : 4) == 0
                             ? sets_total + 1 + rng() % (sets_total / 4)
                             : 257 + rng() % 1024;
                break;
            case 1:
            case 2:
                nlines = 1;
                break;
            case 3:
            case 4:
            case 5:
                nlines = 2 + rng() % 16;
                break;
            default:
                nlines = 17 + rng() % 240;
                break;
        }
        switch (rng() % 4) {
            case 0:
                cursor = rng() % pool_lines;
                break;
            case 1:  // revisit a recent region
                cursor = cursor > 512 ? cursor - rng() % 512 : 0;
                break;
            default:
                break;  // continue the stream
        }
        const addr_t addr = (cursor % pool_lines) * line_bytes +
                            (rng() % 4 == 0 ? rng() % line_bytes : 0);
        cursor += nlines;
        const bool is_write = rng() % 3 == 0;
        const task_id task = static_cast<task_id>(rng() % (ntasks + 1)) - 1;
        // Arrivals move past the slice horizons or stay behind them.
        switch (rng() % 3) {
            case 0:
                break;
            case 1:
                clock += rng() % 64;
                break;
            default:
                clock += 200 + rng() % 20000;
                break;
        }

        cycle_t done_k, done_r;
        if (nlines == 1 && rng() % 2 == 0) {
            const auto k =
                kernel->transparent_access(addr, is_write, clock, task);
            const auto r = ref.access(addr, is_write, clock, task);
            EXPECT_EQ(k.hit, r.hit) << "burst " << b;
            done_k = k.done;
            done_r = r.done;
        } else {
            done_k = kernel->transparent_burst(addr, nlines, is_write, clock,
                                               task);
            done_r = ref.burst(addr, nlines, is_write, clock, task);
        }
        EXPECT_EQ(done_k, done_r) << "burst " << b << " (" << nlines
                                  << " lines)";
        expect_cache_stats_eq(kernel->stats(), ref.stats(), b);
        expect_dram_stats_eq(kernel_dram.stats(), ref_dram.stats(), b);
        if (b % sc.snapshot_every == 0 || b + 1 == sc.bursts) {
            EXPECT_TRUE(snapshot_into(kernel_bytes, *kernel) ==
                        snapshot_into(ref_bytes, ref))
                << "cache snapshot differs after burst " << b;
            EXPECT_TRUE(snapshot_into(kernel_bytes, kernel_dram) ==
                        snapshot_into(ref_bytes, ref_dram))
                << "DRAM snapshot differs after burst " << b;
        }
        if (sc.attribution && (b % 200 == 199 || b + 1 == sc.bursts))
            compare_and_restart(kernel_attr, ref_attr, b);
        if (::testing::Test::HasFailure()) break;
    }
    EXPECT_GT(kernel->stats().hits, 0u);
    EXPECT_GT(kernel->stats().evictions, 0u);
    EXPECT_GT(kernel->stats().writebacks, 0u);
    return kernel_dram.stats().throttled;
}

TEST(transparent_burst, matches_the_per_line_reference) {
    std::uint64_t throttled = 0;
    // 4 MiB: the long bursts revisit sets.
    throttled += run_scenario({mib(4), 16, 0, 16, 3000, 11});
    throttled += run_scenario({mib(4), 4, 0, 16, 2000, 12});
    // 16 MiB, the stock geometry, unpartitioned and partitioned.
    throttled += run_scenario({mib(16), 16, 900, 100, 2000, 14});
    throttled += run_scenario({mib(16), 4, 0, 100, 1000, 15});
    // 12 MiB over 12 ways, 4 transparent: 2,048 sets per slice, so a way
    // count that is not a power of two runs too, and restores read order
    // words whose masked-off ways and unused nibbles they check.
    scenario twelve{mib(12), 4, 600, 50, 1500, 16};
    twelve.ways = 12;
    throttled += run_scenario(twelve);
    EXPECT_GT(throttled, 0u) << "the regulated task never throttled";
}

TEST(transparent_burst, attributed_bursts_match_the_per_line_reference) {
    scenario sc{mib(4), 16, 800, 16, 1500, 21};
    sc.attribution = true;
    run_scenario(sc);
    scenario big{mib(16), 4, 0, 100, 600, 22};
    big.attribution = true;
    run_scenario(big);
}

TEST(transparent_burst, signature_match_agrees_with_the_scalar_loop) {
    // The lookup's vector compare (SSE2 on x86-64) against the portable
    // loop other targets run: random signatures, with the key planted in
    // random lanes and every lane pattern of a few 0/all-ones keys.
    std::mt19937_64 rng(31);
    std::uint16_t sig[16];
    for (int trial = 0; trial < 20000; ++trial) {
        const auto key = static_cast<std::uint16_t>(
            trial % 4 == 0 ? (trial / 4 % 2 ? 0xffff : 0) : rng());
        for (auto& s : sig)
            s = rng() % 3 == 0 ? key : static_cast<std::uint16_t>(rng());
        ASSERT_EQ(match_signatures(sig, key), match_signatures_scalar(sig, key))
            << "trial " << trial;
    }
}

TEST(transparent_burst, restored_order_names_the_victim) {
    // The recency order is the set's only LRU record: a restored order
    // picks the victim, whatever order the lines were last touched in.
    dram::dram_system dram{dram::dram_config{}};
    const cache_config cfg{};
    shared_cache cache{cfg, dram};
    const addr_t set_stride =
        static_cast<addr_t>(cfg.slices) * cfg.sets_per_slice() * line_bytes;
    // Lines 0..15 of slice 0 / set 0 land in ways 0..15, line 15 last.
    for (std::uint32_t i = 0; i < cfg.ways; ++i)
        cache.transparent_access(i * set_stride, false, 0, 0);

    std::vector<std::uint8_t> bytes;
    snapshot_into(bytes, cache);
    // Set 0's order word follows the line and way counts: way 15 at
    // position 0, way 0 (the LRU) at position 15.
    constexpr std::size_t order_at = 4 + 4;
    ASSERT_EQ(snapshot_reader(bytes.data() + order_at, 8).u64(),
              0x0123456789abcdefull);
    // Swap ways 0 and 5: way 5 becomes the tail.
    const std::uint64_t swapped = 0x5123406789abcdefull;
    for (std::size_t b = 0; b < 8; ++b)
        bytes[order_at + b] = static_cast<std::uint8_t>(swapped >> (8 * b));
    snapshot_reader r(bytes);
    cache.restore_state(r, 1);

    cache.transparent_access(cfg.ways * set_stride, false, 0, 0);  // evicts
    EXPECT_TRUE(cache.transparent_access(0, false, 0, 0).hit);
    EXPECT_FALSE(cache.transparent_access(5 * set_stride, false, 0, 0).hit);
}

}  // namespace
}  // namespace camdn::cache
