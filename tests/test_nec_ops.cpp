// Unit tests for the NEC access semantics (paper §III-B2): region
// read/write, fill/writeback, bypass, multicast and their timing/stats,
// through the burst entry points (a single line is a one-line burst).
#include <gtest/gtest.h>

#include "cache/cpt.h"
#include "cache/shared_cache.h"
#include "dram/dram_system.h"

namespace camdn::cache {
namespace {

struct rig {
    dram::dram_system dram{dram::dram_config{}};
    cache_config cfg{};
    shared_cache cache{cfg, dram};

    // Give task 0 a region of 4 pages.
    rig() { EXPECT_TRUE(cache.pages().try_allocate(0, 4)); }
};

TEST(nec, region_read_has_cache_latency_no_dram) {
    rig r;
    const cycle_t done = r.cache.region_read_burst(0, 0, 1, 0);
    EXPECT_EQ(r.dram.stats().accesses(), 0u);
    EXPECT_LE(done, r.cfg.hit_latency + 4u);
    EXPECT_EQ(r.cache.stats().region_reads, 1u);
}

TEST(nec, region_write_no_dram) {
    rig r;
    r.cache.region_write_burst(0, 0, 1, 0);
    EXPECT_EQ(r.dram.stats().accesses(), 0u);
    EXPECT_EQ(r.cache.stats().region_writes, 1u);
}

TEST(nec, fill_moves_memory_into_cache) {
    rig r;
    const cycle_t done = r.cache.region_fill_burst(0, 0, mib(1), 1, 0);
    EXPECT_EQ(r.dram.stats().reads, 1u);
    EXPECT_GT(done, static_cast<cycle_t>(r.cfg.hit_latency));
    EXPECT_EQ(r.cache.stats().region_fills, 1u);
}

TEST(nec, writeback_moves_cache_into_memory) {
    rig r;
    r.cache.region_writeback_burst(0, 0, mib(2), 1, 0);
    EXPECT_EQ(r.dram.stats().writes, 1u);
    EXPECT_EQ(r.cache.stats().region_writebacks, 1u);
}

TEST(nec, bypass_skips_the_cache_entirely) {
    rig r;
    const std::uint64_t slices_before = r.cache.stats().slice_busy_cycles;
    r.cache.bypass_read_burst(0, 1, 0, 0);
    r.cache.bypass_write_burst(64, 1, 0, 0);
    EXPECT_EQ(r.cache.stats().slice_busy_cycles, slices_before);
    EXPECT_EQ(r.dram.stats().reads, 1u);
    EXPECT_EQ(r.dram.stats().writes, 1u);
    EXPECT_EQ(r.cache.stats().bypass_reads, 1u);
    EXPECT_EQ(r.cache.stats().bypass_writes, 1u);
}

TEST(nec, multicast_read_counts_combined_requests) {
    rig r;
    r.cache.region_read_burst(0, 0, 1, 0, /*group_size=*/4);
    EXPECT_EQ(r.cache.stats().multicast_combined, 3u);
    EXPECT_EQ(r.dram.stats().accesses(), 0u);
}

TEST(nec, multicast_bypass_read_hits_dram_once) {
    rig r;
    r.cache.bypass_read_burst(0, 1, 0, 0, /*group_size=*/4);
    EXPECT_EQ(r.dram.stats().reads, 1u);  // one combined request, not four
    EXPECT_EQ(r.cache.stats().multicast_combined, 3u);
}

TEST(nec, region_burst_stripes_across_slices) {
    rig r;
    // 8 lines land on 8 distinct slices: total service is ~1 slot + latency,
    // far below 8 serialized slots.
    const cycle_t done = r.cache.region_read_burst(0, 0, 8, 0);
    EXPECT_LE(done, static_cast<cycle_t>(r.cfg.hit_latency) + 2);
    EXPECT_EQ(r.cache.stats().region_reads, 8u);
}

TEST(nec, region_burst_throughput_is_slices_per_cycle) {
    rig r;
    const std::uint64_t lines = 1024;  // 2 pages worth
    const cycle_t done = r.cache.region_read_burst(0, 0, lines, 0);
    // 8 slices at 1 line/cycle: ~lines/8 cycles + latency.
    EXPECT_NEAR(static_cast<double>(done),
                static_cast<double>(lines) / 8.0 + r.cfg.hit_latency,
                8.0);
}

TEST(nec, fill_burst_accounts_dram_and_slices) {
    rig r;
    const std::uint64_t lines = 100;
    r.cache.region_fill_burst(0, 0, mib(4), lines, 0);
    EXPECT_EQ(r.dram.stats().reads, lines);
    EXPECT_EQ(r.cache.stats().region_fills, lines);
}

TEST(nec, writeback_burst_accounts_dram_writes) {
    rig r;
    r.cache.region_writeback_burst(0, 0, mib(4), 64, 0);
    EXPECT_EQ(r.dram.stats().writes, 64u);
}

TEST(nec, bypass_bursts_count_lines) {
    rig r;
    r.cache.bypass_read_burst(0, 32, 0, 0, /*group_size=*/2);
    r.cache.bypass_write_burst(mib(1), 16, 0, 0);
    EXPECT_EQ(r.cache.stats().bypass_reads, 32u);
    EXPECT_EQ(r.cache.stats().bypass_writes, 16u);
    EXPECT_EQ(r.cache.stats().multicast_combined, 32u);  // (2-1)*32
}

TEST(nec, zero_line_bursts_are_no_ops) {
    rig r;
    EXPECT_EQ(r.cache.region_read_burst(0, 0, 0, 123), 123u);
    EXPECT_EQ(r.cache.bypass_write_burst(0, 0, 456, 0), 456u);
    EXPECT_EQ(r.dram.stats().accesses(), 0u);
}

TEST(nec, regions_and_transparent_paths_share_slice_bandwidth) {
    rig r;
    // Saturate slice 0 through the NEC path, then observe a transparent
    // access to the same slice being delayed.
    for (int i = 0; i < 100; ++i) r.cache.region_read_burst(0, 0, 1, 0);
    const auto res = r.cache.transparent_access(0, true, 0, 1);
    EXPECT_GT(res.done, 100u);
}

TEST(nec, per_task_regions_are_isolated_by_cpt) {
    rig r;
    ASSERT_TRUE(r.cache.pages().try_allocate(1, 1));
    // Same vcaddr, different tasks, different physical placement.
    const page_translation cpt(r.cfg);
    const pcaddr a = cpt.translate(r.cache.pages().pages_of(0)[0], 0);
    const pcaddr b = cpt.translate(r.cache.pages().pages_of(1)[0], 0);
    EXPECT_TRUE(a.way != b.way || a.set != b.set || a.slice != b.slice);
}

}  // namespace
}  // namespace camdn::cache
