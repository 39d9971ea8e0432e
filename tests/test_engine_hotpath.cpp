// Regression tests for the hot-path engine rewrites behind sim_throughput:
//
//   * event_queue — POD heap entries carrying typed records: the
//     microbench-shaped throughput smoke, exact accounting under churn,
//     (channel, kind) cancellation dropping pending() at cancel time, and
//     fire-once / cancel-after-fire semantics;
//   * dma_engine — flights in a flat id-ordered vector: snapshot bytes of
//     a mid-air state must round-trip identically through a fresh engine
//     (byte compatibility with the std::map encoding it replaced);
//   * percentile_tracker — the sorted two-way merge() stays exact;
//   * mapping registry — interned-name lookups return the same cached
//     mapping, and map_model's per-signature memoization gives repeated
//     layers identical tables.
#include <gtest/gtest.h>

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

TEST(engine_hotpath, typed_section_bytes_stable_across_restore) {
    event_queue eq;
    eq.set_handler(event_channel::layer, [](const typed_event&) {});
    for (std::uint64_t i = 0; i < 64; ++i)
        eq.schedule_event(100 + (i % 7), typed_event{1, 2, i, i * 3});
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

    const auto snap = sim::snapshot_mappings();
    EXPECT_EQ(snap.find(m, cfg.mapper()), &first);

    // A config differing in a keyed field resolves to a distinct mapping.
    auto other = cfg.mapper();
    other.lbm_max_layers += 1;
    const auto& third = sim::mapping_for(m, other);
    EXPECT_NE(&first, &third);
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
