// Regression tests for the hot-path engine rewrites behind sim_throughput:
//
//   * event_queue — POD entries carrying typed records in a sorted near run
//     in front of a heap: the microbench-shaped throughput smoke, exact
//     accounting under churn, (channel, kind) cancellation dropping
//     pending() at cancel time, fire-once / cancel-after-fire semantics,
//     and a property check against the plain binary heap it replaced
//     (seeded op streams, an arrival backlog with churn at the front, and
//     inserts at the near run's reach boundary);
//   * dma_engine — flights in a flat id-ordered vector: snapshot bytes of
//     a mid-air state must round-trip identically through a fresh engine
//     (byte compatibility with the std::map encoding it replaced);
//   * percentile_tracker — the sorted two-way merge() stays exact;
//   * mapping registry — interned-name lookups return the same cached
//     mapping, and map_model's per-signature memoization gives repeated
//     layers identical tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "common/snapshot_io.h"
#include "common/stats.h"
#include "dram/dram_system.h"
#include "mapping/layer_mapper.h"
#include "model/model_zoo.h"
#include "npu/dma_engine.h"
#include "sim/mapping_registry.h"
#include "sim/soc.h"

namespace camdn {
namespace {

// ---- event queue ------------------------------------------------------

TEST(engine_hotpath, event_queue_schedule_step_throughput_smoke) {
    // Microbench shape: a large interleaved stream of events on two
    // channels drains completely with exact accounting.
    event_queue eq;
    std::size_t fired = 0;
    eq.set_handler(event_channel::dma, [](const typed_event&) {});
    eq.set_handler(event_channel::sched, [&](const typed_event&) { ++fired; });
    constexpr std::size_t n = 50'000;
    for (std::size_t i = 0; i < n; ++i) {
        eq.schedule_event(i % 997, typed_event{2, 0, i, 0});
        eq.schedule_event(i % 991, typed_event{0, 0, i, 0});
    }
    EXPECT_EQ(eq.pending(), 2 * n);
    EXPECT_EQ(eq.pending(event_channel::sched, 0), n);
    EXPECT_EQ(eq.pending(event_channel::dma, 0), n);
    EXPECT_EQ(eq.run(), 2 * n);
    EXPECT_EQ(fired, n);
    EXPECT_EQ(eq.executed_events(), 2 * n);
    EXPECT_EQ(eq.typed_dispatched(event_channel::sched), n);
    EXPECT_EQ(eq.typed_dispatched(event_channel::dma), n);
    EXPECT_TRUE(eq.empty());
}

TEST(engine_hotpath, event_queue_accounting_under_churn) {
    // Repeated fill/drain cycles keep the accounting exact, and a
    // zero-latency self-rescheduling chain runs 1000 deep.
    event_queue eq;
    std::size_t fired = 0;
    int depth = 0;
    eq.set_handler(event_channel::sched, [&](const typed_event& ev) {
        ++fired;
        if (ev.kind == 1 && ++depth < 1000)
            eq.schedule_event(eq.now(), typed_event{2, 1, 0, 0});
    });
    for (int round = 0; round < 20; ++round) {
        fired = 0;
        for (std::uint64_t i = 0; i < 500; ++i)
            eq.schedule_event(eq.now() + i, typed_event{2, 0, i, 0});
        EXPECT_EQ(eq.pending(), 500u);
        eq.run();
        EXPECT_EQ(fired, 500u);
        EXPECT_EQ(eq.pending(), 0u);
    }
    const cycle_t start = eq.now();
    eq.schedule_event(start, typed_event{2, 1, 0, 0});
    eq.run();
    EXPECT_EQ(depth, 1000);
    EXPECT_EQ(eq.now(), start);
}

TEST(engine_hotpath, cancel_drops_pending_immediately) {
    event_queue eq;
    eq.set_handler(event_channel::sched, [](const typed_event&) {});
    // Every other event is kind 1; the rest are kind 2.
    for (std::uint64_t i = 0; i < 100; ++i)
        eq.schedule_event(10 + i, typed_event{2, i % 2 == 0 ? std::uint8_t{1}
                                                            : std::uint8_t{2},
                                              i, 0});
    eq.schedule_event(5, typed_event{2, 0, 0, 0});
    EXPECT_EQ(eq.pending(), 101u);
    // The removal happens at cancel() time, not when the dead entries
    // would surface at the heap head.
    EXPECT_EQ(eq.cancel(event_channel::sched, 1), 50u);
    EXPECT_EQ(eq.pending(), 51u);
    EXPECT_EQ(eq.cancel(event_channel::sched, 1), 0u);  // nothing left: no-op
    EXPECT_EQ(eq.run(), 51u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed_events(), 51u);  // cancelled entries never count
    EXPECT_EQ(eq.now(), 109u);             // the last kind-2 event
}

TEST(engine_hotpath, cancel_semantics) {
    event_queue eq;
    int fired = 0;
    eq.set_handler(event_channel::sched, [&](const typed_event&) { ++fired; });
    eq.set_handler(event_channel::dma, [&](const typed_event&) { ++fired; });
    eq.schedule_event(50, typed_event{2, 1, 0, 0});
    EXPECT_EQ(eq.pending(event_channel::sched, 1), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.cancel(event_channel::sched, 1), 0u);  // post-fire: no-op
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 50u);

    // Cancellation is keyed by (channel, kind): the same kind on another
    // channel and another kind on the same channel both survive.
    eq.schedule_event(60, typed_event{2, 1, 0, 0});
    eq.schedule_event(70, typed_event{0, 1, 0, 0});
    eq.schedule_event(80, typed_event{2, 3, 0, 0});
    EXPECT_EQ(eq.cancel(event_channel::sched, 1), 1u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 80u);
}

// ---- event queue vs the reference binary heap -------------------------

/// The plain binary heap on (when, seq) that event_queue used before its
/// near run, with the same clock, counters, inline rule and typed-section
/// format. The property tests below drive both with identical op streams.
class reference_heap {
public:
    void set_handler(event_channel ch, event_queue::typed_handler fn) {
        handlers_[static_cast<std::size_t>(ch)] = std::move(fn);
    }
    std::uint64_t schedule_event(cycle_t when, const typed_event& ev) {
        push({std::max(when, now_), next_seq_, ev});
        return next_seq_++;
    }
    bool step() {
        if (heap_.empty()) return false;
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const node n = heap_.back();
        heap_.pop_back();
        now_ = n.when;
        ++executed_;
        ++dispatched_[n.ev.channel];
        handlers_[n.ev.channel](n.ev);
        return true;
    }
    std::size_t run(std::size_t max_events = SIZE_MAX) {
        const cycle_t saved = horizon_;
        if (max_events == SIZE_MAX) horizon_ = never;
        std::size_t executed = 0;
        while (executed < max_events && step()) ++executed;
        horizon_ = saved;
        return executed;
    }
    void run_until(cycle_t until) {
        const cycle_t saved = horizon_;
        horizon_ = until == never ? never : until + 1;
        while (next_time() <= until && !heap_.empty()) step();
        horizon_ = saved;
        now_ = std::max(now_, until);
    }
    bool try_inline(cycle_t when, event_channel ch) {
        if (when >= horizon_ || when < now_ || next_time() <= when)
            return false;
        now_ = when;
        ++executed_;
        ++dispatched_[static_cast<std::size_t>(ch)];
        return true;
    }
    std::size_t cancel(event_channel ch, std::uint8_t kind) {
        const auto kept = std::remove_if(heap_.begin(), heap_.end(),
                                         [&](const node& n) {
                                             return matches(n, ch, kind);
                                         });
        const auto removed = static_cast<std::size_t>(heap_.end() - kept);
        heap_.erase(kept, heap_.end());
        std::make_heap(heap_.begin(), heap_.end(), later);
        return removed;
    }
    std::size_t pending(event_channel ch, std::uint8_t kind) const {
        return static_cast<std::size_t>(
            std::count_if(heap_.begin(), heap_.end(), [&](const node& n) {
                return matches(n, ch, kind);
            }));
    }
    std::size_t pending() const { return heap_.size(); }
    cycle_t next_time() const {
        return heap_.empty() ? never : heap_.front().when;
    }
    void save_typed(snapshot_writer& w) const {
        auto sorted = heap_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const node& a, const node& b) { return later(b, a); });
        w.u64(sorted.size());
        for (const node& n : sorted) {
            w.u64(n.when);
            w.u64(n.seq);
            w.u8(n.ev.channel);
            w.u8(n.ev.kind);
            w.u64(n.ev.a);
            w.u64(n.ev.b);
        }
    }
    void restore_typed(snapshot_reader& r) {
        const std::uint64_t n = r.count(8 + 8 + 1 + 1 + 8 + 8);
        for (std::uint64_t i = 0; i < n; ++i) {
            node e;
            e.when = r.u64();
            e.seq = r.u64();
            e.ev.channel = r.u8();
            e.ev.kind = r.u8();
            e.ev.a = r.u64();
            e.ev.b = r.u64();
            push(e);
        }
    }
    void restore_now(cycle_t now) { now_ = now; }
    void restore_next_seq(std::uint64_t seq) { next_seq_ = seq; }
    void set_inline_horizon(cycle_t h) { horizon_ = h; }
    cycle_t inline_horizon() const { return horizon_; }
    cycle_t now() const { return now_; }
    std::uint64_t next_seq() const { return next_seq_; }
    std::uint64_t executed_events() const { return executed_; }
    std::uint64_t typed_dispatched(event_channel ch) const {
        return dispatched_[static_cast<std::size_t>(ch)];
    }

private:
    struct node {
        cycle_t when = 0;
        std::uint64_t seq = 0;
        typed_event ev;
    };
    static bool later(const node& a, const node& b) {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
    static bool matches(const node& n, event_channel ch, std::uint8_t kind) {
        return n.ev.channel == static_cast<std::uint8_t>(ch) &&
               n.ev.kind == kind;
    }
    void push(const node& n) {
        heap_.push_back(n);
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    std::vector<node> heap_;
    std::array<event_queue::typed_handler, n_event_channels> handlers_{};
    cycle_t now_ = 0;
    cycle_t horizon_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::array<std::uint64_t, n_event_channels> dispatched_{};
};

std::uint64_t mix(std::uint64_t x) {  // splitmix64
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// A queue whose handlers log every dispatch (payload, clock) and, keyed
/// on the payload, sometimes schedule a follow-up close by or ask to run
/// it inline first, as DMA and layer handlers do.
template <class Q>
struct driven {
    std::unique_ptr<Q> q = std::make_unique<Q>();
    std::vector<std::uint64_t> log;
    std::size_t inlined = 0;

    driven() { wire(); }
    driven(const driven&) = delete;
    driven& operator=(const driven&) = delete;

    void wire() {
        for (std::size_t ch = 0; ch < n_event_channels; ++ch)
            q->set_handler(static_cast<event_channel>(ch),
                           [this](const typed_event& ev) { on(ev); });
    }
    void on(const typed_event& ev) {
        log.push_back(ev.a);
        log.push_back(q->now());
        const std::uint64_t x = mix(ev.b);
        const auto ch = static_cast<event_channel>((x >> 8) % 3);
        const typed_event child{
            static_cast<std::uint8_t>(ch),
            static_cast<std::uint8_t>((x >> 16) % event_kind_count(ch)),
            mix(ev.a), x};
        const cycle_t when = q->now() + (x >> 24) % 9;
        if (x % 8 == 0 &&
            q->try_inline(when, static_cast<event_channel>(child.channel))) {
            log.push_back(~child.a);
            ++inlined;
            return;
        }
        if (x % 4 <= 1) q->schedule_event(when, child);
    }
    std::vector<std::uint8_t> typed_bytes() const {
        snapshot_writer w;
        q->save_typed(w);
        return w.bytes();
    }
    /// save_typed() -> restore_typed() into a fresh queue, as a resume
    /// does; the fresh queue's counters restart at zero.
    void resume_fresh() {
        const auto bytes = typed_bytes();
        auto fresh = std::make_unique<Q>();
        fresh->restore_now(q->now());
        snapshot_reader r(bytes);
        fresh->restore_typed(r);
        fresh->restore_next_seq(q->next_seq());
        fresh->set_inline_horizon(q->inline_horizon());
        q = std::move(fresh);
        wire();
    }
};

void expect_same(const driven<event_queue>& got,
                 const driven<reference_heap>& ref, const std::string& where) {
    ASSERT_EQ(got.log, ref.log) << where;
    EXPECT_EQ(got.q->now(), ref.q->now()) << where;
    EXPECT_EQ(got.q->next_seq(), ref.q->next_seq()) << where;
    EXPECT_EQ(got.q->executed_events(), ref.q->executed_events()) << where;
    for (std::size_t ch = 0; ch < n_event_channels; ++ch)
        EXPECT_EQ(got.q->typed_dispatched(static_cast<event_channel>(ch)),
                  ref.q->typed_dispatched(static_cast<event_channel>(ch)))
            << where << " channel " << ch;
    EXPECT_EQ(got.q->pending(), ref.q->pending()) << where;
    EXPECT_EQ(got.q->next_time(), ref.q->next_time()) << where;
    ASSERT_EQ(got.typed_bytes(), ref.typed_bytes()) << where;
}

/// Applies one op, decoded from `x`, to `d`'s queue. Queries append their
/// answer to the log, so a diverging answer shows as a log mismatch.
template <class Q>
void apply_op(driven<Q>& d, std::uint64_t x, std::uint64_t id) {
    Q& q = *d.q;
    const auto ch = static_cast<event_channel>((x >> 8) % 3);
    // Only kinds the channel defines: restore_typed rejects the rest.
    const auto kind =
        static_cast<std::uint8_t>((x >> 16) % event_kind_count(ch));
    const typed_event ev{static_cast<std::uint8_t>(ch), kind, id, x};
    const std::uint64_t r = x >> 24;
    switch (x % 16) {
        case 0: case 1: case 2: case 3:  // near, often at equal times
            q.schedule_event(q.now() + r % 64, ev);
            break;
        case 4:  // far timer
            q.schedule_event(q.now() + 10'000 + r % 1'000'000, ev);
            break;
        case 5:  // at the next pending event's time
            q.schedule_event(std::min(q.next_time(), q.now() + 64), ev);
            break;
        case 6:  // in the past: clamped to now()
            q.schedule_event(q.now() - std::min<cycle_t>(q.now(), r % 8), ev);
            break;
        case 7: case 8: case 9: case 10: case 11:
            q.step();
            break;
        case 12:
            d.log.push_back(q.cancel(ch, kind));
            break;
        case 13:
            d.log.push_back(q.pending(ch, kind));
            d.log.push_back(q.next_time());
            break;
        case 14: {  // inline horizon: off, a few cycles ahead, or open
            const cycle_t horizons[] = {0, q.now() + r % 32, never};
            q.set_inline_horizon(horizons[r % 3]);
            break;
        }
        default:
            if (r % 2 == 0)
                q.run_until(q.now() + r % 16);
            else
                d.log.push_back(q.run(r % 5));
            break;
    }
}

TEST(engine_hotpath, event_queue_matches_reference_heap_on_seeded_ops) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        driven<event_queue> got;
        driven<reference_heap> ref;
        std::uint64_t x = seed;
        constexpr int ops = 20'000;
        for (int op = 0; op < ops; ++op) {
            x = mix(x);
            apply_op(got, x, static_cast<std::uint64_t>(op));
            apply_op(ref, x, static_cast<std::uint64_t>(op));
            if (op % 250 == 0) {
                expect_same(got, ref, "seed " + std::to_string(seed) +
                                          " op " + std::to_string(op));
                if (::testing::Test::HasFatalFailure()) return;
            }
            if (op == ops / 2) {
                got.resume_fresh();
                ref.resume_fresh();
            }
        }
        got.q->run();
        ref.q->run();
        expect_same(got, ref, "seed " + std::to_string(seed) + " drained");
        EXPECT_EQ(got.q->pending(), 0u);
        EXPECT_GT(got.inlined, 0u) << "no continuation ran inline";
    }
}

TEST(engine_hotpath, event_queue_matches_reference_heap_under_arrival_backlog) {
    // An open-loop generator arms its whole arrival list up front, so a
    // long backlog of increasing far events sits behind the churn of DMA
    // and layer events at the front.
    driven<event_queue> got;
    driven<reference_heap> ref;
    auto both = [&](auto&& op) {
        op(*got.q);
        op(*ref.q);
    };
    for (std::uint64_t i = 0; i < 1'000; ++i)
        both([&](auto& q) {
            q.schedule_event(1'000'000 + 5'000 * i,
                             typed_event{2, 1, i, mix(i)});
        });
    std::uint64_t x = 99;
    for (std::uint64_t op = 0; op < 30'000; ++op) {
        x = mix(x);
        both([&](auto& q) {
            q.schedule_event(q.now() + x % 200,
                             typed_event{0, 0, 1'000 + op, x});
            q.step();
            q.step();
        });
        if (op % 1'000 == 0) {
            expect_same(got, ref, "op " + std::to_string(op));
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
    EXPECT_GT(got.q->now(), 1'000'000u) << "the churn never reached the backlog";
    both([](auto& q) { q.run(); });
    expect_same(got, ref, "drained");
}

TEST(engine_hotpath, event_queue_matches_reference_heap_at_the_reach_boundary) {
    // A run of 2 * near_reach events, each due before every earlier one,
    // then inserts with exactly `depth` pending events due before them —
    // on either side of the deepest slot a push still scans for.
    constexpr std::size_t reach = event_queue::near_reach;
    for (const std::size_t depth : {reach - 1, reach, reach + 1, reach + 2}) {
        for (const bool tie : {false, true}) {
            driven<event_queue> got;
            driven<reference_heap> ref;
            auto both = [&](auto&& op) {
                op(*got.q);
                op(*ref.q);
            };
            for (std::uint64_t i = 0; i < 2 * reach; ++i)
                both([&](auto& q) {
                    q.schedule_event(100 * (2 * reach - i),
                                     typed_event{1, 0, i, 4 * i + 2});
                });
            // Ascending times are 100, 200, ...: an insert at 100 * depth
            // (a tie, broken by its later sequence) or 50 past it has
            // exactly `depth` entries due before it.
            const cycle_t when = 100 * depth + (tie ? 0 : 50);
            for (std::uint64_t k = 0; k < 3; ++k)
                both([&](auto& q) {
                    q.schedule_event(when + k, typed_event{2, 1, 500 + k, 3});
                });
            const std::string where =
                "depth " + std::to_string(depth) + (tie ? " tie" : "");
            expect_same(got, ref, where);
            // Pop past half the run, insert at the boundary again, drain.
            both([&](auto& q) { q.run(reach); });
            for (std::uint64_t k = 0; k < 3; ++k)
                both([&](auto& q) {
                    q.schedule_event(q.now() + 100 * depth + k,
                                     typed_event{2, 2, 600 + k, 3});
                });
            expect_same(got, ref, where + " refilled");
            both([](auto& q) { q.run(); });
            expect_same(got, ref, where + " drained");
        }
    }
}

TEST(engine_hotpath, typed_section_bytes_stable_across_restore) {
    event_queue eq;
    eq.set_handler(event_channel::layer, [](const typed_event&) {});
    for (std::uint64_t i = 0; i < 64; ++i)
        eq.schedule_event(100 + (i % 7), typed_event{1, 1, i, i * 3});
    snapshot_writer w;
    eq.save_typed(w);

    event_queue fresh;
    fresh.restore_now(eq.now());
    snapshot_reader r(w.bytes());
    fresh.restore_typed(r);
    fresh.restore_next_seq(eq.next_seq());
    snapshot_writer w2;
    fresh.save_typed(w2);
    EXPECT_EQ(w.bytes(), w2.bytes());
}

// ---- DMA engine -------------------------------------------------------

struct dma_rig {
    event_queue eq;
    dram::dram_system dram{dram::dram_config{}};
    cache::cache_config cfg{};
    cache::shared_cache cache{cfg, dram};
    // The engine registers itself on the queue's dma channel, so pending
    // chunk_done events pump the flights without extra wiring.
    npu::dma_engine dma{eq, cache, /*chunk_lines=*/64, /*window=*/4};

    dma_rig() { dma.set_sink([](const npu::dma_target&, cycle_t) {}); }
};

TEST(engine_hotpath, dma_snapshot_bytes_roundtrip_mid_air) {
    // Several flights with chunks mid-air: the flat-vector flight table
    // must serialize, restore into a fresh engine and re-serialize to the
    // exact same bytes.
    event_queue eq;
    dram::dram_system dram{dram::dram_config{}};
    cache::cache_config ccfg{};
    cache::shared_cache cache{ccfg, dram};
    npu::dma_engine dma{eq, cache, /*chunk_lines=*/64, /*window=*/4};
    dma.set_sink([](const npu::dma_target&, cycle_t) {});

    for (std::uint64_t f = 0; f < 5; ++f) {
        npu::transfer_request req;
        req.op = npu::transfer_request::kind::bypass_read;
        req.task = static_cast<task_id>(f);
        req.addr = f * (1u << 20);
        req.nlines = 2'000 + 333 * f;
        dma.submit_tracked(req, npu::dma_target{f, f * 17});
    }
    ASSERT_EQ(dma.live_flights(), 5u);

    snapshot_writer w;
    dma.save_state(w);

    npu::dma_engine fresh{eq, cache, /*chunk_lines=*/64, /*window=*/4};
    fresh.set_sink([](const npu::dma_target&, cycle_t) {});
    snapshot_reader r(w.bytes());
    fresh.restore_state(r);
    EXPECT_EQ(fresh.live_flights(), 5u);

    snapshot_writer w2;
    fresh.save_state(w2);
    EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(engine_hotpath, dma_flight_table_survives_partial_drain) {
    // Advance the simulation partway so some flights retired and others
    // still hold outstanding chunks, then roundtrip the survivors.
    dma_rig rig;
    for (std::uint64_t f = 0; f < 4; ++f) {
        npu::transfer_request req;
        req.op = npu::transfer_request::kind::bypass_read;
        req.task = 0;
        req.addr = f * (1u << 22);
        req.nlines = 256 * (f + 1);
        rig.dma.submit_tracked(req, npu::dma_target{f, 0});
    }
    rig.eq.run(6);  // partial drain: chunk_done events interleave flights
    ASSERT_GT(rig.dma.live_flights(), 0u);

    snapshot_writer w;
    rig.dma.save_state(w);
    npu::dma_engine fresh{rig.eq, rig.cache, 64, 4};
    fresh.set_sink([](const npu::dma_target&, cycle_t) {});
    snapshot_reader r(w.bytes());
    fresh.restore_state(r);
    snapshot_writer w2;
    fresh.save_state(w2);
    EXPECT_EQ(w.bytes(), w2.bytes());
}

// ---- percentile tracker -----------------------------------------------

TEST(engine_hotpath, percentile_merge_stays_exact) {
    // The sorted two-way merge must agree exactly with inserting every
    // sample into one tracker (deterministic LCG stream, no RNG state).
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<double>(x % 100'000) / 7.0;
    };
    percentile_tracker a, b, reference;
    a.reserve(1'000);
    for (int i = 0; i < 1'000; ++i) {
        const double v = next();
        a.add(v);
        reference.add(v);
    }
    for (int i = 0; i < 777; ++i) {
        const double v = next();
        b.add(v);
        reference.add(v);
    }
    a.merge(b);
    ASSERT_EQ(a.count(), reference.count());
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), reference.quantile(q)) << "q=" << q;
    EXPECT_EQ(a.sorted_samples(), reference.sorted_samples());

    // Merging into/from empty trackers keeps the multiset.
    percentile_tracker empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), reference.count());
    percentile_tracker sink;
    sink.merge(a);
    EXPECT_EQ(sink.sorted_samples(), reference.sorted_samples());
}

// ---- mapping registry + memoized MCT ----------------------------------

TEST(engine_hotpath, mapping_registry_interns_and_caches) {
    sim::clear_mapping_registry();
    const sim::soc_config cfg{};
    const auto& m = model::model_by_abbr("RS.");
    const auto& first = sim::mapping_for(m, cfg.mapper());
    const auto& second = sim::mapping_for(m, cfg.mapper());
    EXPECT_EQ(&first, &second);  // same interned (model, config) entry

    // A config differing in a keyed field resolves to a distinct mapping.
    auto other = cfg.mapper();
    other.lbm_max_layers += 1;
    const auto& third = sim::mapping_for(m, other);
    EXPECT_NE(&first, &third);
    sim::clear_mapping_registry();
}

/// Compute cycles and latency estimates summed over every candidate of
/// every layer: two mappings agree on these only if the cost model saw the
/// same NPU and bandwidth figures.
std::pair<std::uint64_t, std::uint64_t> candidate_cycles(
    const mapping::model_mapping& mm) {
    std::uint64_t compute = 0, est = 0;
    for (const auto& table : mm.tables) {
        for (const auto& cand : table.lwm) {
            compute += cand.compute_cycles;
            est += cand.est_cycles;
        }
        if (table.lbm) {
            compute += table.lbm->compute_cycles;
            est += table.lbm->est_cycles;
        }
    }
    return {compute, est};
}

TEST(engine_hotpath, mapping_registry_keys_every_field_the_mapper_reads) {
    // The cost model reads the SIMD width, the pipeline fill and the cache
    // bandwidth estimate; a config differing only there must get its own
    // entry, equal to a fresh map_model.
    sim::clear_mapping_registry();
    const auto& m = model::model_by_abbr("MB.");
    const auto base = sim::soc_config{}.mapper();
    auto npu = base;
    npu.npu.simd_lanes = 16;
    npu.npu.pipeline_fill = 128;
    auto cache_bw = base;
    cache_bw.est_cache_bytes_per_cycle = 1.0;

    const auto& a = sim::mapping_for(m, base);
    const auto& b = sim::mapping_for(m, npu);
    const auto& c = sim::mapping_for(m, cache_bw);
    EXPECT_NE(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(candidate_cycles(a),
              candidate_cycles(mapping::map_model(m, base)));
    EXPECT_EQ(candidate_cycles(b), candidate_cycles(mapping::map_model(m, npu)));
    EXPECT_EQ(candidate_cycles(c),
              candidate_cycles(mapping::map_model(m, cache_bw)));
    EXPECT_NE(candidate_cycles(a), candidate_cycles(b));
    EXPECT_NE(candidate_cycles(a), candidate_cycles(c));

    // The core count is the one NPU field the mapper never reads.
    auto cores = base;
    cores.npu.cores = 8;
    EXPECT_EQ(&sim::mapping_for(m, cores), &a);
    sim::clear_mapping_registry();
}

TEST(engine_hotpath, repeated_transformer_layers_share_identical_tables) {
    // BERT's encoder blocks repeat; the memoized map_model must hand every
    // repeat a table identical to the first solve.
    const sim::soc_config cfg{};
    const auto& m = model::make_bert_base();
    const auto mm = mapping::map_model(m, cfg.mapper());
    ASSERT_EQ(mm.tables.size(), m.layers.size());

    int repeats_checked = 0;
    for (std::uint32_t i = 0; i < m.layers.size(); ++i) {
        for (std::uint32_t j = i + 1; j < m.layers.size(); ++j) {
            const auto& a = m.layers[i];
            const auto& b = m.layers[j];
            const auto& ba = mm.blocks[mm.block_of[i]];
            const auto& bb = mm.blocks[mm.block_of[j]];
            const bool same_sig =
                a.kind == b.kind && a.m == b.m && a.n == b.n && a.k == b.k &&
                a.input_bytes == b.input_bytes &&
                a.weight_bytes == b.weight_bytes &&
                a.output_bytes == b.output_bytes &&
                a.weight_is_intermediate == b.weight_is_intermediate &&
                (a.residual_from >= 0) == (b.residual_from >= 0) &&
                mapping::residual_in_block(m, i, ba) ==
                    mapping::residual_in_block(m, j, bb) &&
                (i == ba.first) == (j == bb.first) &&
                (i == ba.last) == (j == bb.last) &&
                (ba.size() >= 2) == (bb.size() >= 2) &&
                (ba.size() >= 2 ? ba.peak_bytes : 0) ==
                    (bb.size() >= 2 ? bb.peak_bytes : 0);
            if (!same_sig) continue;
            ++repeats_checked;
            const auto& ta = mm.tables[i];
            const auto& tb = mm.tables[j];
            ASSERT_EQ(ta.lwm.size(), tb.lwm.size()) << i << " vs " << j;
            for (std::size_t c = 0; c < ta.lwm.size(); ++c) {
                EXPECT_EQ(ta.lwm[c].tm, tb.lwm[c].tm);
                EXPECT_EQ(ta.lwm[c].tn, tb.lwm[c].tn);
                EXPECT_EQ(ta.lwm[c].tk, tb.lwm[c].tk);
                EXPECT_EQ(ta.lwm[c].pages_needed, tb.lwm[c].pages_needed);
                EXPECT_EQ(ta.lwm[c].est_cycles, tb.lwm[c].est_cycles);
            }
            EXPECT_EQ(ta.lbm.has_value(), tb.lbm.has_value());
            if (ta.lbm && tb.lbm)
                EXPECT_EQ(ta.lbm->est_cycles, tb.lbm->est_cycles);
        }
    }
    EXPECT_GT(repeats_checked, 0);  // transformer repeats must exist
}

}  // namespace
}  // namespace camdn
