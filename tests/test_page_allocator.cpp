// Unit tests for the NPU-subspace page allocator: pool bounds, atomicity,
// LIFO release and accounting invariants under randomized operations.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "cache/page_allocator.h"
#include "common/rng.h"

namespace camdn::cache {
namespace {

TEST(page_allocator, pool_is_the_npu_subspace) {
    cache_config cfg;  // Table II: 12/16 ways of 512 pages
    page_allocator pool(cfg);
    EXPECT_EQ(pool.total_pages(), 384u);
    EXPECT_EQ(pool.idle_pages(), 384u);
}

TEST(page_allocator, handed_out_pages_live_in_npu_ways) {
    cache_config cfg;
    page_allocator pool(cfg);
    const std::uint32_t first_npu_pcpn = cfg.cpu_ways() * cfg.pages_per_way();
    ASSERT_TRUE(pool.try_allocate(0, pool.total_pages()));
    for (auto pcpn : pool.pages_of(0)) {
        EXPECT_GE(pcpn, first_npu_pcpn);
        EXPECT_LT(pcpn, cfg.pages_total());
    }
}

TEST(page_allocator, allocation_is_all_or_nothing) {
    cache_config cfg;
    page_allocator pool(cfg);
    ASSERT_TRUE(pool.try_allocate(1, 380));
    EXPECT_FALSE(pool.try_allocate(2, 5));
    // The failed request must not have consumed anything.
    EXPECT_EQ(pool.idle_pages(), 4u);
    EXPECT_EQ(pool.allocated(2), 0u);
}

TEST(page_allocator, zero_page_request_succeeds_trivially) {
    page_allocator pool{cache_config{}};
    EXPECT_TRUE(pool.try_allocate(0, 0));
    EXPECT_EQ(pool.allocated(0), 0u);
    EXPECT_EQ(pool.idle_pages(), pool.total_pages());
}

TEST(page_allocator, release_returns_most_recent_pages) {
    page_allocator pool{cache_config{}};
    ASSERT_TRUE(pool.try_allocate(0, 2));
    const std::vector<std::uint32_t> first = pool.pages_of(0);
    ASSERT_TRUE(pool.try_allocate(0, 2));
    const std::vector<std::uint32_t> second(pool.pages_of(0).begin() + 2,
                                            pool.pages_of(0).end());
    pool.release(0, 2);
    EXPECT_EQ(pool.allocated(0), 2u);
    EXPECT_EQ(pool.pages_of(0), first);
    // LIFO: the second allocation's pages went back last-first, so the
    // next request receives them in their original order.
    ASSERT_TRUE(pool.try_allocate(1, 2));
    EXPECT_EQ(pool.pages_of(1), second);
}

TEST(page_allocator, release_clamps_to_holdings) {
    page_allocator pool{cache_config{}};
    ASSERT_TRUE(pool.try_allocate(3, 4));
    pool.release(3, 100);
    EXPECT_EQ(pool.allocated(3), 0u);
    EXPECT_EQ(pool.idle_pages(), pool.total_pages());
}

TEST(page_allocator, release_all) {
    page_allocator pool{cache_config{}};
    pool.try_allocate(1, 10);
    pool.try_allocate(2, 20);
    pool.release_all(1);
    EXPECT_EQ(pool.allocated(1), 0u);
    EXPECT_EQ(pool.allocated(2), 20u);
    EXPECT_EQ(pool.idle_pages(), pool.total_pages() - 20u);
}

TEST(page_allocator, release_of_unknown_task_is_a_no_op) {
    page_allocator pool{cache_config{}};
    pool.release(42, 5);
    pool.release(no_task, 5);
    EXPECT_EQ(pool.idle_pages(), pool.total_pages());
    EXPECT_TRUE(pool.pages_of(42).empty());
}

TEST(page_allocator, negative_task_ids_hold_nothing) {
    page_allocator pool{cache_config{}};
    EXPECT_THROW(pool.try_allocate(no_task, 1), std::invalid_argument);
    EXPECT_EQ(pool.idle_pages(), pool.total_pages());
}

TEST(page_allocator, no_double_handout) {
    page_allocator pool{cache_config{}};
    ASSERT_TRUE(pool.try_allocate(1, 100));
    ASSERT_TRUE(pool.try_allocate(2, 100));
    std::set<std::uint32_t> seen(pool.pages_of(1).begin(),
                                 pool.pages_of(1).end());
    for (auto p : pool.pages_of(2)) EXPECT_TRUE(seen.insert(p).second);
}

TEST(page_allocator, accounting_invariant_under_random_ops) {
    cache_config cfg;
    page_allocator pool(cfg);
    rng r(2024);
    for (int step = 0; step < 2'000; ++step) {
        const task_id task = static_cast<task_id>(r.next_below(8));
        if (r.next_below(2) == 0) {
            pool.try_allocate(task, static_cast<std::uint32_t>(r.next_below(40)));
        } else {
            pool.release(task, static_cast<std::uint32_t>(r.next_below(40)));
        }
        ASSERT_TRUE(pool.accounting_consistent());
    }
    for (task_id t = 0; t < 8; ++t) pool.release_all(t);
    EXPECT_EQ(pool.idle_pages(), pool.total_pages());
}

TEST(page_allocator, holdings_round_trip_through_a_snapshot) {
    cache_config cfg;
    page_allocator pool(cfg);
    ASSERT_TRUE(pool.try_allocate(0, 3));
    ASSERT_TRUE(pool.try_allocate(5, 7));
    ASSERT_TRUE(pool.try_allocate(2, 4));
    pool.release(2, 4);  // a task that held pages and holds none
    snapshot_writer w;
    pool.save_state(w);
    const auto bytes = w.take();

    page_allocator fresh(cfg);
    snapshot_reader r(bytes);
    fresh.restore_state(r, 6);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(fresh.pages_of(0), pool.pages_of(0));
    EXPECT_EQ(fresh.pages_of(5), pool.pages_of(5));
    EXPECT_EQ(fresh.allocated(2), 0u);
    EXPECT_EQ(fresh.idle_pages(), pool.idle_pages());
    snapshot_writer again;
    fresh.save_state(again);
    EXPECT_EQ(again.take(), bytes);

    // Task 5 is no slot of a five-slot scheduler.
    page_allocator narrow(cfg);
    snapshot_reader r5(bytes);
    EXPECT_THROW(narrow.restore_state(r5, 5), snapshot_error);
}

// Parameterized over cache geometry: the allocatable pool always equals
// npu_ways / ways of the capacity.
class allocator_geometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(allocator_geometry, pool_size_tracks_partition) {
    cache_config cfg;
    cfg.total_bytes = std::get<0>(GetParam());
    cfg.npu_ways = std::get<1>(GetParam());
    page_allocator pool(cfg);
    EXPECT_EQ(pool.total_pages(),
              cfg.npu_ways * (cfg.total_bytes / cfg.page_bytes) / cfg.ways);
}

INSTANTIATE_TEST_SUITE_P(
    geometries, allocator_geometry,
    ::testing::Combine(::testing::Values(mib(4), mib(16), mib(64)),
                       ::testing::Values(4u, 8u, 12u, 16u)));

}  // namespace
}  // namespace camdn::cache
