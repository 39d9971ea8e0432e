// Unit tests for the cycle-level DRAM model: latency classes, bandwidth
// ceilings, per-task attribution and MoCA-style regulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/snapshot_io.h"
#include "dram/dram_system.h"

namespace camdn::dram {
namespace {

dram_config table2_config() { return dram_config{}; }

TEST(dram_config, table2_peak_bandwidth) {
    dram_config cfg;
    EXPECT_DOUBLE_EQ(cfg.peak_bytes_per_cycle(), 102.4);  // 102.4 GB/s @1GHz
    EXPECT_EQ(cfg.burst_deci_cycles(), 25u);  // 64 B / 25.6 B-per-cycle
}

TEST(dram, row_hit_is_faster_than_row_empty_and_conflict) {
    dram_system d(table2_config());
    const dram_config cfg = table2_config();
    // Consecutive lines of one (channel, bank) pair are spaced by
    // channels * banks lines; rows hold row_bytes/line_bytes of them.
    const addr_t bank_stride =
        static_cast<addr_t>(cfg.channels) * cfg.banks_per_channel * line_bytes;
    // First access: row empty (activate + CAS).
    const cycle_t first = d.access(0, false, 0);
    // Next line of the same row on the same bank: row hit.
    const cycle_t hit = d.access(bank_stride, false, first) - first;
    // A distant row on the same bank: conflict (precharge + activate).
    const addr_t far_row = bank_stride * (cfg.row_bytes / line_bytes) * 8;
    const cycle_t conflict =
        d.access(far_row, false, first + hit) - (first + hit);
    EXPECT_LT(hit, static_cast<cycle_t>(first));
    EXPECT_LT(hit, conflict);
    EXPECT_EQ(d.stats().row_hits, 1u);
    EXPECT_EQ(d.stats().row_misses, 1u);
    EXPECT_EQ(d.stats().row_empties, 1u);
}

TEST(dram, sequential_stream_reaches_peak_bandwidth) {
    dram_system d(table2_config());
    const std::uint64_t lines = 40'000;
    const cycle_t done = d.access_burst(0, lines, false, 0);
    const double achieved =
        static_cast<double>(lines * line_bytes) / static_cast<double>(done);
    // Sequential lines interleave channels and stay in open rows: within
    // 10% of the 102.4 B/cycle peak.
    EXPECT_GT(achieved, 0.9 * 102.4);
    EXPECT_LE(achieved, 102.4 + 1e-9);
}

TEST(dram, single_channel_stream_is_quarter_peak) {
    dram_system d(table2_config());
    // Touch only channel 0: line ids congruent 0 mod 4.
    cycle_t t = 0;
    const std::uint64_t lines = 10'000;
    for (std::uint64_t i = 0; i < lines; ++i)
        t = d.access(i * 4 * line_bytes, false, 0);
    const double achieved =
        static_cast<double>(lines * line_bytes) / static_cast<double>(t);
    EXPECT_NEAR(achieved, 25.6, 2.6);
}

TEST(dram, completion_monotonic_under_same_arrival) {
    dram_system d(table2_config());
    cycle_t prev = 0;
    for (int i = 0; i < 512; ++i) {
        const cycle_t done = d.access(i * line_bytes, false, 0);
        EXPECT_GE(done, prev);
        prev = done;
    }
}

TEST(dram, per_task_byte_attribution) {
    dram_system d(table2_config());
    d.access_burst(0, 10, false, 0, /*task=*/1);
    d.access_burst(mib(1), 5, true, 0, /*task=*/2);
    EXPECT_EQ(d.task_bytes(1), 10 * line_bytes);
    EXPECT_EQ(d.task_bytes(2), 5 * line_bytes);
    EXPECT_EQ(d.task_bytes(3), 0u);
    EXPECT_EQ(d.stats().reads, 10u);
    EXPECT_EQ(d.stats().writes, 5u);
}

TEST(dram, unattributed_traffic_is_never_throttled) {
    dram_system d(table2_config());
    d.set_task_share(7, 0.01);
    const cycle_t unregulated = d.access_burst(0, 100, false, 0, no_task);
    EXPECT_EQ(d.stats().throttled, 0u);
    EXPECT_GT(unregulated, 0u);
}

TEST(dram, regulation_throttles_over_budget_tasks) {
    dram_system d(table2_config());
    d.set_task_share(1, 0.05);  // 5% of 102.4 B/cyc over a 10 us epoch
    const std::uint64_t lines = 20'000;
    const cycle_t done = d.access_burst(0, lines, false, 0, 1);
    const double achieved =
        static_cast<double>(lines * line_bytes) / static_cast<double>(done);
    EXPECT_LT(achieved, 0.07 * 102.4);
    EXPECT_GT(d.stats().throttled, 0u);
}

TEST(dram, share_zero_disables_regulation) {
    dram_system d(table2_config());
    d.set_task_share(1, 0.05);
    d.set_task_share(1, 0.0);
    d.access_burst(0, 10'000, false, 0, 1);
    EXPECT_EQ(d.stats().throttled, 0u);
}

TEST(dram, nan_share_is_rejected) {
    // std::clamp would pass NaN through, and every regulator comparison
    // with a NaN share fails: the burst path would commit the whole burst
    // while the per-line walk throttled every line.
    dram_system d(table2_config());
    EXPECT_THROW(d.set_task_share(0, std::nan("")), std::invalid_argument);
    // The rejected share leaves task 0 unregulated on the per-line path.
    for (addr_t a = 0; a < 64 * line_bytes; a += line_bytes)
        d.access(a, false, 0, 0);
    EXPECT_EQ(d.stats().throttled, 0u);
}

// Zero divisors fail at construction instead of as a SIGFPE (a zero
// regulation epoch divided in regulate()) or a degenerate decode.
TEST(dram, zero_channels_are_rejected) {
    dram_config cfg = table2_config();
    cfg.channels = 0;
    EXPECT_THROW(dram_system{cfg}, std::invalid_argument);
}

TEST(dram, zero_banks_per_channel_are_rejected) {
    dram_config cfg = table2_config();
    cfg.banks_per_channel = 0;
    EXPECT_THROW(dram_system{cfg}, std::invalid_argument);
}

TEST(dram, zero_bus_bandwidth_is_rejected) {
    dram_config cfg = table2_config();
    cfg.bytes_per_cycle_x10 = 0;
    EXPECT_THROW(dram_system{cfg}, std::invalid_argument);
}

TEST(dram, zero_regulation_epoch_is_rejected) {
    dram_config cfg = table2_config();
    cfg.regulation_epoch = 0;
    EXPECT_THROW(dram_system{cfg}, std::invalid_argument);
}

TEST(dram, row_smaller_than_a_line_is_rejected) {
    dram_config cfg = table2_config();
    cfg.row_bytes = line_bytes - 1;
    EXPECT_THROW(dram_system{cfg}, std::invalid_argument);
    cfg.row_bytes = line_bytes;  // one line per row is a valid geometry
    EXPECT_NO_THROW(dram_system{cfg});
}

TEST(dram, restore_rejects_share_outside_unit_interval) {
    const dram_config cfg = table2_config();
    dram_system d(cfg);
    d.set_task_share(0, 0.5);
    snapshot_writer w;
    d.save_state(w);
    const std::vector<std::uint8_t> good = w.bytes();
    // Task 0's share follows the banks, the bus horizons and the
    // regulator count.
    const std::size_t at = 8 + 16 * static_cast<std::size_t>(cfg.channels) *
                                   cfg.banks_per_channel +
                           8 + 8 * cfg.channels + 8;
    double saved = 0.0;
    std::memcpy(&saved, good.data() + at, sizeof saved);
    ASSERT_EQ(saved, 0.5);
    {
        snapshot_reader r(good);
        dram_system ok(cfg);
        EXPECT_NO_THROW(ok.restore_state(r));
    }
    for (const double bad : {std::nan(""), -0.5, 7.0}) {
        std::vector<std::uint8_t> bytes = good;
        std::memcpy(bytes.data() + at, &bad, sizeof bad);
        snapshot_reader r(bytes);
        dram_system fresh(cfg);
        EXPECT_THROW(fresh.restore_state(r), snapshot_error) << bad;
    }
}

TEST(dram, bus_busy_accounting_bounded_by_elapsed) {
    dram_system d(table2_config());
    const cycle_t done = d.access_burst(0, 5'000, false, 0);
    // Busy deci-cycles across 4 channels cannot exceed 4 * elapsed.
    EXPECT_LE(d.stats().bus_busy_deci, done * 10 * 4);
    EXPECT_GT(d.stats().bus_busy_deci, 0u);
}

TEST(dram, writes_occupy_the_bus_like_reads) {
    dram_system reads(table2_config());
    dram_system writes(table2_config());
    const cycle_t r = reads.access_burst(0, 10'000, false, 0);
    const cycle_t w = writes.access_burst(0, 10'000, true, 0);
    EXPECT_NEAR(static_cast<double>(r), static_cast<double>(w), r * 0.05);
}

// Parameterized: the model respects its geometry across configurations.
class dram_geometry : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(dram_geometry, bandwidth_scales_with_channels) {
    dram_config cfg;
    cfg.channels = GetParam();
    dram_system d(cfg);
    const std::uint64_t lines = 20'000;
    const cycle_t done = d.access_burst(0, lines, false, 0);
    const double achieved =
        static_cast<double>(lines * line_bytes) / static_cast<double>(done);
    const double peak = cfg.peak_bytes_per_cycle();
    EXPECT_GT(achieved, 0.85 * peak);
    EXPECT_LE(achieved, peak + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(channel_counts, dram_geometry,
                         ::testing::Values(1, 2, 4, 8));

class dram_interleave
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(dram_interleave, all_banks_are_reachable) {
    dram_config cfg;
    cfg.channels = std::get<0>(GetParam());
    cfg.banks_per_channel = std::get<1>(GetParam());
    dram_system d(cfg);
    // Touch enough consecutive lines to hit every (channel, bank) pair;
    // row_empties counts exactly one activation per bank touched.
    const std::uint64_t spread =
        static_cast<std::uint64_t>(cfg.channels) * cfg.banks_per_channel;
    d.access_burst(0, spread, false, 0);
    EXPECT_EQ(d.stats().row_empties, spread);
}

INSTANTIATE_TEST_SUITE_P(
    geometries, dram_interleave,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(4, 16)));

}  // namespace
}  // namespace camdn::dram
