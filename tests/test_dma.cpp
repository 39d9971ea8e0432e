// Unit tests for the chunked, windowed DMA engine.
#include <gtest/gtest.h>

#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "dram/dram_system.h"
#include "npu/dma_engine.h"

namespace camdn::npu {
namespace {

struct rig {
    event_queue eq;
    dram::dram_system dram{dram::dram_config{}};
    cache::cache_config cfg{};
    cache::shared_cache cache{cfg, dram};
    dma_engine dma{eq, cache, /*chunk_lines=*/128, /*window=*/4};
};

TEST(dma, zero_line_transfer_completes_immediately) {
    rig r;
    bool fired = false;
    transfer_request req;
    req.nlines = 0;
    r.dma.set_sink([&](const dma_target& t, cycle_t done) {
        fired = true;
        EXPECT_EQ(t.a, 7u);
        EXPECT_EQ(done, 0u);
    });
    r.dma.submit_tracked(req, {7, 0});
    EXPECT_TRUE(fired);  // no event round needed
}

TEST(dma, processes_every_line_exactly_once) {
    rig r;
    transfer_request req;
    req.op = transfer_request::kind::bypass_read;
    req.task = 0;
    req.addr = 0;
    req.nlines = 1000;
    bool done_fired = false;
    r.dma.set_sink([&](const dma_target&, cycle_t) { done_fired = true; });
    r.dma.submit_tracked(req, {});
    r.eq.run();
    EXPECT_TRUE(done_fired);
    EXPECT_EQ(r.dram.stats().reads, 1000u);
}

TEST(dma, completion_time_is_plausible_for_bandwidth) {
    rig r;
    transfer_request req;
    req.op = transfer_request::kind::bypass_read;
    req.nlines = 16'000;  // 1 MiB
    cycle_t done = 0;
    r.dma.set_sink([&](const dma_target&, cycle_t d) { done = d; });
    r.dma.submit_tracked(req, {});
    r.eq.run();
    // 1 MiB at 102.4 B/cycle is ~10.2K cycles; allow generous latency slack.
    EXPECT_GT(done, 9'000u);
    EXPECT_LT(done, 20'000u);
}

TEST(dma, small_transfer_single_chunk) {
    rig r;
    transfer_request req;
    req.op = transfer_request::kind::transparent_write;
    req.task = 2;
    req.addr = mib(4);
    req.nlines = 5;
    cycle_t done = 0;
    r.dma.set_sink([&](const dma_target&, cycle_t d) { done = d; });
    r.dma.submit_tracked(req, {});
    r.eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(r.cache.stats().misses, 5u);
}

TEST(dma, concurrent_transfers_share_resources) {
    rig r;
    transfer_request a;
    a.op = transfer_request::kind::bypass_read;
    a.addr = 0;
    a.nlines = 8'000;
    transfer_request b = a;
    b.addr = mib(64);

    // The completion token tells the two transfers apart.
    cycle_t done_a = 0, done_b = 0;
    r.dma.set_sink([&](const dma_target& t, cycle_t d) {
        (t.a == 0 ? done_a : done_b) = d;
    });
    r.dma.submit_tracked(a, {0, 0});
    r.dma.submit_tracked(b, {1, 0});
    r.eq.run();

    rig solo;
    transfer_request s = a;
    cycle_t done_solo = 0;
    solo.dma.set_sink([&](const dma_target&, cycle_t d) { done_solo = d; });
    solo.dma.submit_tracked(s, {});
    solo.eq.run();

    // With a competitor, each stream takes materially longer than alone.
    EXPECT_GT(std::max(done_a, done_b),
              done_solo + done_solo / 2);
}

TEST(dma, region_transfers_route_to_the_nec) {
    rig r;
    ASSERT_TRUE(r.cache.pages().try_allocate(0, 2));

    transfer_request req;
    req.op = transfer_request::kind::region_fill;
    req.task = 0;
    req.addr = 0;
    req.dram_addr = mib(8);
    req.nlines = 512;
    r.dma.submit_tracked(req, {});
    r.eq.run();
    EXPECT_EQ(r.cache.stats().region_fills, 512u);
    EXPECT_EQ(r.dram.stats().reads, 512u);
}

TEST(dma, transfer_now_matches_counts) {
    rig r;
    transfer_request req;
    req.op = transfer_request::kind::bypass_write;
    req.nlines = 64;
    const cycle_t done = r.dma.transfer_now(req, 100);
    EXPECT_GT(done, 100u);
    EXPECT_EQ(r.dram.stats().writes, 64u);
}

TEST(dma, chunk_and_window_accessors) {
    rig r;
    EXPECT_EQ(r.dma.chunk_lines(), 128u);
    EXPECT_EQ(r.dma.window(), 4u);
    dma_engine degenerate(r.eq, r.cache, 0, 0);
    EXPECT_EQ(degenerate.chunk_lines(), 1u);  // clamped
    EXPECT_EQ(degenerate.window(), 1u);
}

// Chunk-size sweep: total work is invariant, completion near-invariant.
class dma_chunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(dma_chunking, line_count_invariant_under_chunk_size) {
    event_queue eq;
    dram::dram_system dram{dram::dram_config{}};
    cache::shared_cache cache{cache::cache_config{}, dram};
    dma_engine dma(eq, cache, GetParam(), 4);

    transfer_request req;
    req.op = transfer_request::kind::bypass_read;
    req.nlines = 4'096;
    cycle_t done = 0;
    dma.set_sink([&](const dma_target&, cycle_t d) { done = d; });
    dma.submit_tracked(req, {});
    eq.run();
    EXPECT_EQ(dram.stats().reads, 4'096u);
    // 256 KiB at ~102 B/cycle ~ 2.6K cycles; bounded regardless of chunking.
    EXPECT_LT(done, 6'000u);
}

INSTANTIATE_TEST_SUITE_P(chunk_sizes, dma_chunking,
                         ::testing::Values(32, 64, 128, 256, 512, 1024));

}  // namespace
}  // namespace camdn::npu
