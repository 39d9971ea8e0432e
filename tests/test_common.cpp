// Unit tests for the common substrate: event queue, RNG, statistics,
// table printing and unit helpers.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/types.h"

namespace camdn {
namespace {

// ---- types.h helpers ----

TEST(types, ceil_div_basics) {
    EXPECT_EQ(ceil_div(0, 4), 0u);
    EXPECT_EQ(ceil_div(1, 4), 1u);
    EXPECT_EQ(ceil_div(4, 4), 1u);
    EXPECT_EQ(ceil_div(5, 4), 2u);
    EXPECT_EQ(ceil_div(8, 4), 2u);
}

TEST(types, round_up) {
    EXPECT_EQ(round_up(0, 64), 0u);
    EXPECT_EQ(round_up(1, 64), 64u);
    EXPECT_EQ(round_up(64, 64), 64u);
    EXPECT_EQ(round_up(65, 64), 128u);
}

TEST(types, lines_for_covers_partial_lines) {
    EXPECT_EQ(lines_for(0), 0u);
    EXPECT_EQ(lines_for(1), 1u);
    EXPECT_EQ(lines_for(64), 1u);
    EXPECT_EQ(lines_for(65), 2u);
    EXPECT_EQ(lines_for(kib(32)), 512u);
}

TEST(types, unit_helpers) {
    EXPECT_EQ(kib(1), 1024u);
    EXPECT_EQ(mib(1), 1024u * 1024);
    EXPECT_EQ(mib(16) / kib(32), 512u);  // pages in a 16 MiB cache
}

TEST(types, time_conversions_round_trip) {
    EXPECT_DOUBLE_EQ(cycles_to_ms(ms_to_cycles(6.7)), 6.7);
    EXPECT_EQ(ms_to_cycles(1.0), 1'000'000u);
    EXPECT_EQ(us_to_cycles(1.0), 1'000u);
}

TEST(types, saturating_arithmetic_clamps_to_never) {
    EXPECT_EQ(sat_add(3, 4), 7u);
    EXPECT_EQ(sat_add(never, 1), never);
    EXPECT_EQ(sat_add(never - 1, 1), never);
    EXPECT_EQ(sat_add(never - 1, 2), never);
    EXPECT_EQ(sat_add(0, never), never);

    EXPECT_EQ(sat_mul(3, 4), 12u);
    EXPECT_EQ(sat_mul(never, 0), 0u);
    EXPECT_EQ(sat_mul(0, never), 0u);
    EXPECT_EQ(sat_mul(never, 1), never);
    EXPECT_EQ(sat_mul(never / 2 + 1, 2), never);
    EXPECT_EQ(sat_mul(never / 2, 2), never - 1);  // largest exact even case
}

// ---- event queue ----

/// A queue whose sched channel records each dispatched payload `a` and
/// then runs `then` (nested scheduling).
struct recording_queue {
    event_queue eq;
    std::vector<std::uint64_t> order;
    std::function<void(const typed_event&)> then;

    recording_queue() {
        eq.set_handler(event_channel::sched, [this](const typed_event& ev) {
            order.push_back(ev.a);
            if (then) then(ev);
        });
    }
    std::uint64_t at(cycle_t when, std::uint64_t a, std::uint8_t kind = 0) {
        return eq.schedule_event(when, typed_event{2, kind, a, 0});
    }
};

TEST(event_queue, runs_in_time_order) {
    recording_queue q;
    q.at(30, 3);
    q.at(10, 1);
    q.at(20, 2);
    q.eq.run();
    EXPECT_EQ(q.order, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(q.eq.now(), 30u);
}

TEST(event_queue, fifo_among_equal_timestamps) {
    recording_queue q;
    for (std::uint64_t i = 0; i < 8; ++i) q.at(5, i);
    q.eq.run();
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(q.order[i], i);
}

TEST(event_queue, scheduling_in_past_clamps_to_now) {
    recording_queue q;
    cycle_t seen = 0;
    q.then = [&](const typed_event& ev) {
        if (ev.a == 0) q.at(50, 1);  // in the past
        else seen = q.eq.now();
    };
    q.at(100, 0);
    q.eq.run();
    EXPECT_EQ(seen, 100u);
}

TEST(event_queue, run_until_leaves_later_events) {
    recording_queue q;
    q.at(10, 1);
    q.at(100, 2);
    q.eq.run_until(50);
    EXPECT_EQ(q.order.size(), 1u);
    EXPECT_EQ(q.eq.now(), 50u);
    EXPECT_EQ(q.eq.pending(), 1u);
    q.eq.run();
    EXPECT_EQ(q.order.size(), 2u);
}

TEST(event_queue, nested_scheduling_from_callbacks) {
    recording_queue q;
    q.then = [&](const typed_event& ev) {
        if (ev.a + 1 < 5) q.at(q.eq.now() + 10, ev.a + 1);
    };
    q.at(0, 0);
    q.eq.run();
    EXPECT_EQ(q.order.size(), 5u);
    EXPECT_EQ(q.eq.now(), 40u);
}

TEST(event_queue, step_returns_false_when_empty) {
    event_queue eq;
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

TEST(event_queue, run_respects_max_events) {
    recording_queue q;
    for (std::uint64_t i = 0; i < 10; ++i) q.at(i, i);
    EXPECT_EQ(q.eq.run(3), 3u);
    EXPECT_EQ(q.order.size(), 3u);
}

TEST(event_queue, cancelled_events_neither_run_nor_advance_the_clock) {
    recording_queue q;
    q.at(10, 1);
    q.at(100, 100, /*kind=*/7);
    EXPECT_EQ(q.eq.pending(event_channel::sched, 7), 1u);
    EXPECT_EQ(q.eq.cancel(event_channel::sched, 7), 1u);
    EXPECT_EQ(q.eq.pending(event_channel::sched, 7), 0u);
    q.eq.run();
    EXPECT_EQ(q.order, (std::vector<std::uint64_t>{1}));
    // The cancelled event is gone: the clock stops at the last live event
    // instead of being dragged to cycle 100.
    EXPECT_EQ(q.eq.now(), 10u);
    EXPECT_TRUE(q.eq.empty());
}

TEST(event_queue, uncancelled_event_fires_once_and_cancel_after_is_a_no_op) {
    recording_queue q;
    q.at(5, 1, /*kind=*/7);
    q.eq.run();
    EXPECT_EQ(q.order, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(q.eq.cancel(event_channel::sched, 7), 0u);  // harmless
    EXPECT_EQ(q.eq.now(), 5u);
}

TEST(event_queue, next_time_skips_cancelled_entries) {
    recording_queue q;
    q.at(3, 1, /*kind=*/7);
    q.at(7, 2);
    EXPECT_EQ(q.eq.next_time(), 3u);
    q.eq.cancel(event_channel::sched, 7);
    EXPECT_EQ(q.eq.next_time(), 7u);
    q.eq.run();
    EXPECT_EQ(q.eq.next_time(), never);
}

TEST(event_queue, restored_events_replay_saved_tie_break_order) {
    // Two runs: one schedules A then B at the same cycle; the other
    // restores them in the opposite call order but under the saved
    // sequence numbers — execution order must match the original.
    recording_queue q;
    q.eq.restore_now(50);
    q.eq.restore_event(60, /*seq=*/7, typed_event{2, 0, 'B', 0});
    q.eq.restore_event(60, /*seq=*/3, typed_event{2, 0, 'A', 0});
    q.eq.restore_next_seq(8);
    q.at(60, 'C');  // gets seq 8: runs last
    q.eq.run();
    EXPECT_EQ(q.order, (std::vector<std::uint64_t>{'A', 'B', 'C'}));
    EXPECT_EQ(q.eq.now(), 60u);
}

TEST(event_queue, restore_now_moves_the_clock_of_an_empty_queue) {
    recording_queue q;
    q.eq.restore_now(1234);
    EXPECT_EQ(q.eq.now(), 1234u);
    q.at(1000, 1);  // past: clamps to restored now
    q.eq.run();
    EXPECT_EQ(q.order.size(), 1u);
    EXPECT_EQ(q.eq.now(), 1234u);
}

// ---- typed events ----

TEST(event_queue, typed_events_dispatch_to_their_channel_in_seq_order) {
    event_queue eq;
    std::string order;
    eq.set_handler(event_channel::dma, [&](const typed_event& ev) {
        order += 'd';
        order += static_cast<char>('0' + ev.a);
    });
    eq.set_handler(event_channel::layer,
                   [&](const typed_event& ev) { order += 'L'; (void)ev; });
    eq.set_handler(event_channel::sched,
                   [&](const typed_event& ev) { order += 's'; (void)ev; });
    // Interleave channels at one cycle: the shared sequence counter orders
    // them exactly by scheduling order.
    eq.schedule_event(10, typed_event{2, 0, 0, 0});  // sched
    eq.schedule_event(10, typed_event{0, 0, 1, 0});  // dma, a=1
    eq.schedule_event(10, typed_event{1, 0, 0, 0});  // layer
    eq.schedule_event(10, typed_event{2, 0, 0, 0});  // sched
    eq.schedule_event(5, typed_event{0, 0, 2, 0});   // dma, earlier cycle
    eq.run();
    EXPECT_EQ(order, "d2sd1Ls");
}

TEST(event_queue, typed_events_round_trip_through_save_restore) {
    event_queue eq;
    std::string order;
    auto wire = [&order](event_queue& q) {
        q.set_handler(event_channel::dma, [&order](const typed_event& ev) {
            order += 'd';
            order += static_cast<char>('0' + ev.a);
        });
        q.set_handler(event_channel::sched, [&order](const typed_event& ev) {
            order += 's';
            order += static_cast<char>('0' + ev.b);
        });
    };
    wire(eq);
    eq.schedule_event(30, typed_event{0, 0, 1, 0});
    eq.schedule_event(20, typed_event{2, 0, 0, 7});
    eq.schedule_event(30, typed_event{0, 0, 2, 0});
    EXPECT_EQ(eq.pending(), 3u);

    snapshot_writer w;
    eq.save_typed(w);
    const auto bytes = w.take();

    // A second save must produce identical bytes (sorted, not heap order).
    snapshot_writer w2;
    eq.save_typed(w2);
    EXPECT_EQ(bytes, w2.bytes());

    event_queue fresh;
    wire(fresh);
    fresh.restore_now(10);
    {
        snapshot_reader r(bytes);
        fresh.restore_typed(r);
        EXPECT_TRUE(r.done());
    }
    fresh.restore_next_seq(eq.next_seq());
    fresh.run();
    EXPECT_EQ(order.substr(0, 0), "");  // original queue never ran
    EXPECT_EQ(order, "s7d1d2");
    EXPECT_EQ(fresh.now(), 30u);
}

TEST(event_queue, typed_restore_rejects_unknown_channels) {
    snapshot_writer w;
    w.u64(1);       // one event
    w.u64(10);      // when
    w.u64(0);       // seq
    w.u8(200);      // bogus channel
    w.u8(0);        // kind
    w.u64(0);       // a
    w.u64(0);       // b
    const auto bytes = w.take();
    event_queue eq;
    snapshot_reader r(bytes);
    EXPECT_THROW(eq.restore_typed(r), snapshot_error);
}

TEST(event_queue, typed_dispatch_without_handler_throws) {
    event_queue eq;
    eq.schedule_event(1, typed_event{1, 0, 0, 0});  // layer: no handler
    EXPECT_THROW(eq.run(), std::logic_error);
}

// ---- rng ----

TEST(rng, deterministic_for_fixed_seed) {
    rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(rng, different_seeds_differ) {
    rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(rng, next_below_is_in_range) {
    rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 8ull, 1000ull}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
    }
}

TEST(rng, next_double_in_unit_interval) {
    rng r(99);
    double sum = 0.0;
    for (int i = 0; i < 10'000; ++i) {
        const double x = r.next_double();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);  // unbiased mean
}

TEST(rng, next_below_roughly_uniform) {
    rng r(5);
    std::vector<int> buckets(8, 0);
    for (int i = 0; i < 8000; ++i) ++buckets[r.next_below(8)];
    for (int b : buckets) EXPECT_NEAR(b, 1000, 150);
}

// ---- stats ----

TEST(running_stat, tracks_count_mean_min_max) {
    running_stat s;
    s.add(2.0);
    s.add(4.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(running_stat, weighted_mean) {
    running_stat s;
    s.add(1.0, 3.0);
    s.add(5.0, 1.0);
    EXPECT_DOUBLE_EQ(s.mean(), (3.0 + 5.0) / 4.0);
}

TEST(running_stat, empty_is_zero) {
    running_stat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(bucket_histogram, buckets_are_half_open_upper_inclusive) {
    bucket_histogram h({1.0, 4.0, 8.0});
    h.add(1.0);   // bucket 0 (<= 1)
    h.add(1.5);   // bucket 1
    h.add(4.0);   // bucket 1 (upper bound inclusive)
    h.add(5.0);   // bucket 2
    h.add(100.0); // overflow bucket
    EXPECT_EQ(h.bucket_count(), 4u);
    EXPECT_DOUBLE_EQ(h.bucket_weight(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucket_weight(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucket_weight(2), 1.0);
    EXPECT_DOUBLE_EQ(h.bucket_weight(3), 1.0);
}

TEST(bucket_histogram, weighted_fractions_sum_to_one) {
    bucket_histogram h({10.0, 20.0});
    h.add(5.0, 2.5);
    h.add(15.0, 7.5);
    h.add(25.0, 10.0);
    double total = 0.0;
    for (std::size_t i = 0; i < h.bucket_count(); ++i) total += h.fraction(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.125);
}

TEST(bucket_histogram, empty_fractions_are_zero) {
    bucket_histogram h({1.0});
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
    EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
}

TEST(bucket_histogram, nan_samples_are_quarantined) {
    bucket_histogram h({1.0, 10.0});
    h.add(0.5);
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.add(std::numeric_limits<double>::quiet_NaN(), 3.0);
    h.add(5.0);
    // NaN never lands in a bucket (its comparisons all fail, which used
    // to drop it into bucket 0) and never inflates the total weight.
    EXPECT_DOUBLE_EQ(h.total_weight(), 2.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.0);
    EXPECT_DOUBLE_EQ(h.nan_weight(), 4.0);
}

TEST(percentile_tracker, nearest_rank_quantiles) {
    percentile_tracker t;
    for (int v = 100; v >= 1; --v) t.add(v);  // 1..100, inserted descending
    EXPECT_EQ(t.count(), 100u);
    EXPECT_DOUBLE_EQ(t.p50(), 50.0);
    EXPECT_DOUBLE_EQ(t.p95(), 95.0);
    EXPECT_DOUBLE_EQ(t.p99(), 99.0);
    EXPECT_DOUBLE_EQ(t.min(), 1.0);
    EXPECT_DOUBLE_EQ(t.max(), 100.0);
    EXPECT_DOUBLE_EQ(t.mean(), 50.5);
}

TEST(percentile_tracker, empty_is_zero) {
    percentile_tracker t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.p50(), 0.0);
    EXPECT_DOUBLE_EQ(t.p99(), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(percentile_tracker, single_sample_answers_every_quantile) {
    percentile_tracker t;
    t.add(7.5);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 7.5);
    EXPECT_DOUBLE_EQ(t.p50(), 7.5);
    EXPECT_DOUBLE_EQ(t.p99(), 7.5);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 7.5);
}

TEST(percentile_tracker, insertion_order_does_not_matter) {
    percentile_tracker a, b;
    const double xs[] = {3, 1, 4, 1, 5, 9, 2, 6};
    for (double x : xs) a.add(x);
    for (int i = 7; i >= 0; --i) b.add(xs[i]);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
}

TEST(percentile_tracker, add_after_query_resorts) {
    percentile_tracker t;
    t.add(10.0);
    t.add(20.0);
    EXPECT_DOUBLE_EQ(t.max(), 20.0);
    t.add(5.0);  // arrives after a query sorted the buffer
    EXPECT_DOUBLE_EQ(t.min(), 5.0);
    EXPECT_DOUBLE_EQ(t.p50(), 10.0);
}

TEST(percentile_tracker, nan_samples_are_rejected_and_merge_carries_count) {
    percentile_tracker t;
    t.add(1.0);
    t.add(std::numeric_limits<double>::quiet_NaN());
    t.add(3.0);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(t.nan_count(), 1u);
    // Quantiles see only the finite samples.
    EXPECT_DOUBLE_EQ(t.min(), 1.0);
    EXPECT_DOUBLE_EQ(t.max(), 3.0);

    percentile_tracker other;
    other.add(std::numeric_limits<double>::quiet_NaN());
    other.add(2.0);
    t.merge(other);
    EXPECT_EQ(t.count(), 3u);
    EXPECT_EQ(t.nan_count(), 2u);
    EXPECT_DOUBLE_EQ(t.p50(), 2.0);
}

TEST(percentile_tracker, merge_combines_samples) {
    percentile_tracker a, b;
    for (int v = 1; v <= 50; ++v) a.add(v);
    for (int v = 51; v <= 100; ++v) b.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.p50(), 50.0);
    EXPECT_DOUBLE_EQ(a.p99(), 99.0);
    a.merge(percentile_tracker{});  // empty merge is a no-op
    EXPECT_EQ(a.count(), 100u);
}

TEST(fmt_fixed, formats_digits) {
    EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
    EXPECT_EQ(fmt_fixed(1.0, 0), "1");
    EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
}

// ---- table printer ----

TEST(table_printer, aligns_columns) {
    table_printer t({"a", "bbbb"});
    t.add_row({"xxxx", "y"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a     bbbb"), std::string::npos);
    EXPECT_NE(out.find("xxxx  y"), std::string::npos);
}

TEST(table_printer, tolerates_ragged_rows) {
    table_printer t({"h1", "h2"});
    t.add_row({"only-one"});
    t.add_row({"a", "b", "c"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("only-one"), std::string::npos);
    EXPECT_NE(os.str().find("c"), std::string::npos);
}

}  // namespace
}  // namespace camdn
