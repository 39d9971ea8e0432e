// Unit tests for the transparent (set-associative LRU) path of the sliced
// shared cache, including way masking and contention bookkeeping.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/shared_cache.h"
#include "dram/dram_system.h"

namespace camdn::cache {
namespace {

struct rig {
    dram::dram_system dram{dram::dram_config{}};
    cache_config cfg{};
    shared_cache cache{cfg, dram};
};

/// Address of the n-th line mapping to (slice 0, set 0).
addr_t set0_line(const cache_config& cfg, std::uint32_t n) {
    return static_cast<addr_t>(n) *
           (static_cast<addr_t>(cfg.slices) * cfg.sets_per_slice()) * line_bytes;
}

TEST(transparent, miss_then_hit) {
    rig r;
    const auto miss = r.cache.transparent_access(0, false, 0, 0);
    EXPECT_FALSE(miss.hit);
    const auto hit = r.cache.transparent_access(0, false, miss.done, 0);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(r.cache.stats().hits, 1u);
    EXPECT_EQ(r.cache.stats().misses, 1u);
}

TEST(transparent, hit_latency_below_miss_latency) {
    rig r;
    const auto miss = r.cache.transparent_access(0, false, 0, 0);
    const auto hit = r.cache.transparent_access(0, false, miss.done, 0);
    EXPECT_LT(hit.done - miss.done, miss.done);
}

TEST(transparent, lru_evicts_oldest_way) {
    rig r;
    const std::uint32_t ways = r.cfg.ways;
    // Fill one set completely, then touch line 0 again to refresh it.
    for (std::uint32_t i = 0; i < ways; ++i)
        r.cache.transparent_access(set0_line(r.cfg, i), false, 0, 0);
    r.cache.transparent_access(set0_line(r.cfg, 0), false, 0, 0);
    // Insert one more: the victim must be line 1 (LRU), not line 0.
    r.cache.transparent_access(set0_line(r.cfg, ways), false, 0, 0);
    EXPECT_TRUE(r.cache.transparent_access(set0_line(r.cfg, 0), false, 0, 0).hit);
    EXPECT_FALSE(r.cache.transparent_access(set0_line(r.cfg, 1), false, 0, 0).hit);
}

TEST(transparent, way_mask_restricts_associativity) {
    rig r;
    r.cache.set_transparent_ways(4);
    for (std::uint32_t i = 0; i < 4; ++i)
        r.cache.transparent_access(set0_line(r.cfg, i), false, 0, 0);
    // A fifth distinct line must evict within the 4 allowed ways.
    r.cache.transparent_access(set0_line(r.cfg, 4), false, 0, 0);
    EXPECT_EQ(r.cache.stats().evictions, 1u);
    // The first line (LRU among the four) is gone.
    EXPECT_FALSE(r.cache.transparent_access(set0_line(r.cfg, 0), false, 0, 0).hit);
}

TEST(transparent, write_miss_does_not_fetch_from_dram) {
    rig r;
    r.cache.transparent_access(0, true, 0, 0);
    EXPECT_EQ(r.dram.stats().reads, 0u);  // write-validate, full-line DMA
    EXPECT_EQ(r.cache.stats().misses, 1u);
}

TEST(transparent, dirty_eviction_writes_back) {
    rig r;
    const std::uint32_t ways = r.cfg.ways;
    r.cache.transparent_access(set0_line(r.cfg, 0), true, 0, 0);  // dirty
    for (std::uint32_t i = 1; i <= ways; ++i)
        r.cache.transparent_access(set0_line(r.cfg, i), false, 0, 0);
    EXPECT_EQ(r.cache.stats().writebacks, 1u);
    EXPECT_EQ(r.dram.stats().writes, 1u);
}

TEST(transparent, clean_eviction_is_silent) {
    rig r;
    const std::uint32_t ways = r.cfg.ways;
    for (std::uint32_t i = 0; i <= ways; ++i)
        r.cache.transparent_access(set0_line(r.cfg, i), false, 0, 0);
    EXPECT_EQ(r.cache.stats().evictions, 1u);
    EXPECT_EQ(r.cache.stats().writebacks, 0u);
    EXPECT_EQ(r.dram.stats().writes, 0u);
}

TEST(transparent, inter_task_eviction_counted) {
    rig r;
    const std::uint32_t ways = r.cfg.ways;
    for (std::uint32_t i = 0; i < ways; ++i)
        r.cache.transparent_access(set0_line(r.cfg, i), false, 0, /*task=*/1);
    r.cache.transparent_access(set0_line(r.cfg, ways), false, 0, /*task=*/2);
    EXPECT_EQ(r.cache.stats().inter_task_evictions, 1u);
}

TEST(transparent, per_task_hit_miss_counters) {
    rig r;
    r.cache.transparent_access(0, false, 0, 3);
    r.cache.transparent_access(0, false, 0, 3);
    r.cache.transparent_access(line_bytes, false, 0, 5);
    EXPECT_EQ(r.cache.task_hits(3), 1u);
    EXPECT_EQ(r.cache.task_misses(3), 1u);
    EXPECT_EQ(r.cache.task_misses(5), 1u);
    EXPECT_EQ(r.cache.task_hits(5), 0u);
    EXPECT_EQ(r.cache.task_hits(99), 0u);
}

TEST(transparent, burst_completion_covers_all_lines) {
    rig r;
    const cycle_t done = r.cache.transparent_burst(0, 256, false, 0, 0);
    EXPECT_EQ(r.cache.stats().misses, 256u);
    EXPECT_GT(done, 0u);
    // Re-reading the same burst is all hits and faster.
    const cycle_t again = r.cache.transparent_burst(0, 256, false, done, 0);
    EXPECT_EQ(r.cache.stats().hits, 256u);
    EXPECT_LT(again - done, done);
}

TEST(transparent, hit_rate_definition) {
    rig r;
    r.cache.transparent_access(0, false, 0, 0);
    r.cache.transparent_access(0, false, 0, 0);
    r.cache.transparent_access(0, false, 0, 0);
    EXPECT_NEAR(r.cache.stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(transparent, slices_serve_in_parallel) {
    rig r;
    // 8 lines striped over 8 slices at the same arrival finish much sooner
    // than 8 lines hammering one slice.
    rig r2;
    cycle_t striped = 0;
    for (std::uint32_t i = 0; i < 8; ++i)
        striped = std::max(
            striped, r.cache.transparent_access(i * line_bytes, true, 0, 0).done);
    cycle_t same_slice = 0;
    for (std::uint32_t i = 0; i < 8; ++i)
        same_slice = std::max(
            same_slice,
            r2.cache.transparent_access(set0_line(r2.cfg, i), true, 0, 0).done);
    EXPECT_LT(striped, same_slice);
}

TEST(transparent, rejects_more_ways_than_the_order_holds) {
    // Each set keeps its ways' recency order one nibble per way, which
    // holds 16; a wider geometry must fail at construction, not fall back.
    dram::dram_system dram{dram::dram_config{}};
    cache_config cfg;
    cfg.ways = shared_cache::max_ways;
    EXPECT_NO_THROW(shared_cache(cfg, dram));
    cfg.ways = shared_cache::max_ways + 1;
    EXPECT_THROW(shared_cache(cfg, dram), std::invalid_argument);
    cfg.ways = 32;
    EXPECT_THROW(shared_cache(cfg, dram), std::invalid_argument);
}

TEST(transparent, way_mask_outside_one_to_ways_throws) {
    // The way mask must leave the transparent path at least one way and
    // no more than the cache has; Release builds must reject the rest too.
    rig r;
    EXPECT_THROW(r.cache.set_transparent_ways(0), std::invalid_argument);
    EXPECT_THROW(r.cache.set_transparent_ways(r.cfg.ways + 1),
                 std::invalid_argument);
    // cpu_ways() of a geometry with npu_ways > ways wraps to this.
    EXPECT_THROW(r.cache.set_transparent_ways(~0u - 3), std::invalid_argument);
    EXPECT_EQ(r.cache.transparent_ways(), r.cfg.ways);
    r.cache.set_transparent_ways(1);
    EXPECT_EQ(r.cache.transparent_ways(), 1u);
}

TEST(transparent, rejects_more_npu_ways_than_ways) {
    dram::dram_system dram{dram::dram_config{}};
    cache_config cfg;
    cfg.npu_ways = cfg.ways;
    EXPECT_NO_THROW(shared_cache(cfg, dram));
    cfg.npu_ways = cfg.ways + 1;
    EXPECT_THROW(shared_cache(cfg, dram), std::invalid_argument);
}

// Capacity sweep: larger caches keep a working set resident longer.
class capacity_sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(capacity_sweep, working_set_within_capacity_hits) {
    dram::dram_system dram{dram::dram_config{}};
    cache_config cfg;
    cfg.total_bytes = GetParam();
    shared_cache cache(cfg, dram);
    const std::uint64_t lines = cfg.total_bytes / line_bytes / 2;  // half cap
    cache.transparent_burst(0, lines, false, 0, 0);
    const cache_stats first = cache.stats();
    cache.transparent_burst(0, lines, false, 0, 0);
    // The second pass hits on every line.
    EXPECT_EQ(cache.stats().hits - first.hits, lines);
    EXPECT_EQ(cache.stats().misses, first.misses);
}

INSTANTIATE_TEST_SUITE_P(sizes, capacity_sweep,
                         ::testing::Values(mib(4), mib(8), mib(16), mib(32)));

}  // namespace
}  // namespace camdn::cache
