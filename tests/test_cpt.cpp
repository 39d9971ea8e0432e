// Unit tests for the CPT translation: the paper's Fig 5(b) address
// arithmetic from a physical cache page and an in-page offset (slice
// striping, set bands, way selection), its agreement with the page
// pool's holdings as a region burst reads them, and the §III-B3 table
// bound.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>

#include "cache/cpt.h"
#include "cache/page_allocator.h"
#include "cache/shared_cache.h"
#include "dram/dram_system.h"

namespace camdn::cache {
namespace {

TEST(cpt, table2_capacity_matches_paper) {
    cache_config cfg;  // 16 MiB / 32 KiB pages
    // "at most 512 entries of at most 3 bytes ... 1.5KB SRAM overhead"
    EXPECT_EQ(cfg.pages_total(), 512u);
    EXPECT_EQ(cfg.pages_total() * 3u, 1536u);
}

TEST(cpt, vcaddr_splits_into_page_and_offset) {
    cache_config cfg;
    const page_translation cpt(cfg);
    const addr_t vcaddr = 5 * cfg.page_bytes + 3 * line_bytes + 7;
    EXPECT_EQ(cpt.page_of(vcaddr), 5u);
    EXPECT_EQ(cpt.offset_in_page(vcaddr), 3 * line_bytes + 7);
}

TEST(cpt, consecutive_lines_stripe_across_slices) {
    cache_config cfg;
    const page_translation cpt(cfg);
    for (std::uint32_t i = 0; i < cfg.slices * 2; ++i) {
        // Some NPU-subspace page.
        const pcaddr p = cpt.translate(480, i * line_bytes);
        EXPECT_EQ(p.slice, i % cfg.slices);  // paper Fig 5(b)
    }
}

TEST(cpt, set_advances_after_one_round_of_slices) {
    cache_config cfg;
    const page_translation cpt(cfg);
    const pcaddr first = cpt.translate(480, 0);
    const pcaddr next_round = cpt.translate(480, cfg.slices * line_bytes);
    EXPECT_EQ(next_round.set, first.set + 1);
    EXPECT_EQ(next_round.way, first.way);
}

TEST(cpt, way_and_set_band_derive_from_pcpn) {
    cache_config cfg;
    const page_translation cpt(cfg);
    const std::uint32_t pcpn = 480;  // way 15, band 0 under Table II
    const pcaddr p = cpt.translate(pcpn, 0);
    EXPECT_EQ(p.way, pcpn / cfg.pages_per_way());
    EXPECT_EQ(p.set, (pcpn % cfg.pages_per_way()) * cfg.sets_per_page());
}

TEST(cpt, translation_is_injective_across_the_npu_subspace) {
    // The pool hands out only NPU-subspace pages; every line of every one
    // of them must land on its own (way, set, slice).
    cache_config cfg;
    const page_translation cpt(cfg);
    const std::uint32_t first = cfg.cpu_ways() * cfg.pages_per_way();
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
    for (std::uint32_t p = first; p < cfg.pages_total(); ++p) {
        for (addr_t off = 0; off < cfg.page_bytes; off += line_bytes) {
            const pcaddr a = cpt.translate(p, off);
            ASSERT_TRUE(seen.insert({a.way, a.set, a.slice}).second)
                << "duplicate location for page " << p << " offset " << off;
        }
    }
    EXPECT_EQ(seen.size(), cfg.npu_pages() * cfg.lines_per_page());
}

TEST(cpt, held_pages_place_tasks_apart) {
    // Paging is a translation, not an allocator: the same vcaddr of two
    // tasks lands on the pages each one holds.
    cache_config cfg;
    const page_translation cpt(cfg);
    page_allocator pool(cfg);
    ASSERT_TRUE(pool.try_allocate(0, 1));
    ASSERT_TRUE(pool.try_allocate(1, 1));
    const pcaddr a = cpt.translate(pool.pages_of(0)[cpt.page_of(0)], 0);
    const pcaddr b = cpt.translate(pool.pages_of(1)[cpt.page_of(0)], 0);
    EXPECT_TRUE(a.way != b.way || a.set != b.set);
}

TEST(cpt, region_burst_on_an_unheld_page_throws) {
    dram::dram_system dram{dram::dram_config{}};
    const cache_config cfg{};
    shared_cache cache{cfg, dram};
    ASSERT_TRUE(cache.pages().try_allocate(0, 2));
    const addr_t last_held = 2 * cfg.page_bytes - line_bytes;
    EXPECT_NO_THROW(cache.region_read_burst(0, last_held, 1, 0));
    EXPECT_NO_THROW(cache.region_write_burst(0, 0, 8, 0));

    // The page after the task's last, a task holding nothing, a vcpn
    // past the 512 pages of the cache, and the untracked task.
    const addr_t unheld = 2 * cfg.page_bytes;
    EXPECT_THROW(cache.region_read_burst(0, unheld, 1, 0), std::logic_error);
    EXPECT_THROW(cache.region_write_burst(0, unheld, 1, 0), std::logic_error);
    EXPECT_THROW(cache.region_fill_burst(0, unheld, 0, 1, 0),
                 std::logic_error);
    EXPECT_THROW(cache.region_writeback_burst(0, unheld, 0, 1, 0),
                 std::logic_error);
    EXPECT_THROW(cache.region_read_burst(1, 0, 1, 0), std::logic_error);
    EXPECT_THROW(cache.region_read_burst(0, 600 * cfg.page_bytes, 1, 0),
                 std::logic_error);
    EXPECT_THROW(cache.region_read_burst(no_task, 0, 1, 0), std::logic_error);

    // Released pages are unheld again.
    cache.pages().release(0, 1);
    EXPECT_THROW(cache.region_read_burst(0, last_held, 1, 0),
                 std::logic_error);
}

// Parameterized: geometry invariants across page sizes (ablation sweep).
class cpt_page_size : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(cpt_page_size, geometry_is_consistent) {
    cache_config cfg;
    cfg.page_bytes = GetParam();
    EXPECT_EQ(cfg.pages_total() * cfg.page_bytes, cfg.total_bytes);
    EXPECT_EQ(cfg.npu_pages(), cfg.npu_ways * cfg.pages_per_way());
    EXPECT_EQ(cfg.sets_per_page() * cfg.slices * line_bytes, cfg.page_bytes);

    const page_translation cpt(cfg);
    EXPECT_EQ(cpt.page_of(cfg.page_bytes - 1), 0u);
    EXPECT_EQ(cpt.page_of(cfg.page_bytes), 1u);
    const pcaddr last =
        cpt.translate(cfg.pages_total() - 1, cfg.page_bytes - line_bytes);
    EXPECT_EQ(last.way, cfg.ways - 1);
    EXPECT_EQ(last.set, cfg.sets_per_slice() - 1);
    EXPECT_EQ(last.slice, cfg.slices - 1);
}

INSTANTIATE_TEST_SUITE_P(page_sizes, cpt_page_size,
                         ::testing::Values(kib(8), kib(16), kib(32), kib(64),
                                           kib(128)));

// The decode is bit fields, so every count it divides by must be a power
// of two. A 12 MiB cache has 1,536 sets per slice and 24 pages per way:
// both the translation and the cache reject it at construction.
TEST(cpt, non_power_of_two_geometry_is_rejected) {
    dram::dram_system dram{dram::dram_config{}};
    cache_config cfg;
    cfg.total_bytes = mib(12);
    ASSERT_EQ(cfg.pages_per_way(), 24u);
    EXPECT_THROW(page_translation{cfg}, std::invalid_argument);
    EXPECT_THROW(shared_cache(cfg, dram), std::invalid_argument);

    cache_config slices;
    slices.slices = 6;
    EXPECT_THROW(page_translation{slices}, std::invalid_argument);
    EXPECT_THROW(shared_cache(slices, dram), std::invalid_argument);

    cache_config pages;
    pages.page_bytes = kib(24);
    EXPECT_THROW(page_translation{pages}, std::invalid_argument);
    EXPECT_THROW(shared_cache(pages, dram), std::invalid_argument);

    // 12 ways of 8 slices leave 2,048 sets per slice: a way count is no
    // decoded field, so it may be any number up to max_ways.
    cache_config twelve;
    twelve.total_bytes = mib(12);
    twelve.ways = 12;
    EXPECT_NO_THROW(page_translation{twelve});
    EXPECT_NO_THROW(shared_cache(twelve, dram));
}

// Degenerate page geometries fail at construction instead of dividing by
// zero or building an empty pool. A 256-byte page is smaller than one line
// per slice (zero sets per page); a 64 KiB page does not fit one way of a
// 256 KiB cache (zero pages per way).
TEST(cpt, degenerate_page_geometry_is_rejected) {
    dram::dram_system dram{dram::dram_config{}};
    cache_config tiny;
    tiny.page_bytes = 256;
    ASSERT_EQ(tiny.sets_per_page(), 0u);
    EXPECT_THROW(page_translation{tiny}, std::invalid_argument);
    EXPECT_THROW(shared_cache(tiny, dram), std::invalid_argument);

    cache_config wide;
    wide.total_bytes = kib(256);
    wide.page_bytes = kib(64);
    ASSERT_EQ(wide.pages_per_way(), 0u);
    EXPECT_THROW(page_translation{wide}, std::invalid_argument);
    EXPECT_THROW(shared_cache(wide, dram), std::invalid_argument);

    cache_config no_ways;
    no_ways.ways = 0;
    no_ways.npu_ways = 0;
    EXPECT_THROW(page_translation{no_ways}, std::invalid_argument);
    EXPECT_THROW(shared_cache(no_ways, dram), std::invalid_argument);
}

}  // namespace
}  // namespace camdn::cache
