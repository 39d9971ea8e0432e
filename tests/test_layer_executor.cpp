// Tests of the tile-level layer engine: the traffic it actually moves
// must agree with the mapping candidate's analytic prediction, and its
// pipelining must respect compute/memory bounds.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mapping/layer_mapper.h"
#include "model/model_zoo.h"
#include "runtime/task.h"
#include "sim/address_map.h"
#include "sim/layer_engine.h"
#include "sim/mapping_registry.h"
#include "sim/soc.h"

namespace camdn::sim {
namespace {

struct rig {
    soc_config cfg{};
    soc machine;
    runtime::task task;
    address_map addrs{0, 1};

    explicit rig(policy pol = policy::camdn_full) : machine(cfg, pol) {}

    /// Prepares `task` to run layer `layer` of `abbr` with pages granted.
    const mapping::mapping_candidate& arm(const std::string& abbr,
                                          std::uint32_t layer,
                                          bool want_lbm = false) {
        const auto& m = model::model_by_abbr(abbr);
        const auto& mm = mapping_for(m, cfg.mapper());
        task.id = 0;
        task.mdl = &m;
        task.mapping = &mm;
        task.current_layer = layer;
        const mapping::mapping_candidate* cand =
            want_lbm && mm.tables[layer].lbm ? &*mm.tables[layer].lbm
                                             : &mm.tables[layer].lwm.back();
        if (cand->pages_needed > 0) {
            auto pages =
                machine.cache().pages().try_allocate(0, cand->pages_needed);
            auto& cpt = machine.cache().cpt(0);
            for (std::uint32_t v = 0; v < pages->size(); ++v)
                cpt.map(v, (*pages)[v]);
        }
        return *cand;
    }

    /// Runs the armed layer under `cand` to completion on the engine, wired
    /// as the scheduler wires it; returns the layer's completion cycle.
    cycle_t run(const mapping::mapping_candidate& cand) {
        cycle_t end = 0;
        auto& engine = machine.layers();
        engine.set_features(camdn_features{});
        engine.set_on_done([&](task_id, cycle_t done) { end = done; });
        engine.start(task, cand, addrs);
        machine.eq().run();
        return end;
    }
};

TEST(layer_executor, completes_and_reports_monotonic_time) {
    rig r;
    const auto& cand = r.arm("RS.", 2);
    const cycle_t end = r.run(cand);
    EXPECT_GT(end, 0u);
}

TEST(layer_executor, dram_traffic_matches_candidate_estimate) {
    // For a dense layer with pinned tensors, the executor's DRAM line
    // count must match the candidate's dram_bytes within chunk rounding.
    for (std::uint32_t layer : {2u, 5u, 10u}) {
        rig r;
        const auto& cand = r.arm("RS.", layer);
        r.run(cand);
        const double measured =
            static_cast<double>(r.machine.dram().stats().bytes());
        const double predicted = static_cast<double>(cand.dram_bytes());
        EXPECT_NEAR(measured, predicted, 0.05 * predicted + 64 * 1024)
            << "layer " << layer;
    }
}

TEST(layer_executor, streaming_candidate_traffic_matches_too) {
    rig r(policy::shared_baseline);
    const auto& m = model::model_by_abbr("RS.");
    const auto& mm = mapping_for(m, r.cfg.mapper());
    r.task.id = 0;
    r.task.mdl = &m;
    r.task.mapping = &mm;
    r.task.current_layer = 2;
    const auto& cand = mm.tables[2].minimal();
    r.run(cand);
    // Transparent path: misses fetch from DRAM; re-fetch passes may hit in
    // cache, so measured DRAM is at most the prediction (plus writebacks).
    EXPECT_LE(r.machine.dram().stats().reads * line_bytes,
              cand.dram_read_bytes + mib(1));
    EXPECT_GT(r.machine.dram().stats().reads, 0u);
}

TEST(layer_executor, lbm_layer_produces_no_output_dram) {
    rig r;
    // A mid-block MobileNet layer: input and output both region-resident.
    const auto& m = model::model_by_abbr("MB.");
    const auto& mm = mapping_for(m, r.cfg.mapper());
    std::uint32_t mid = 0;
    for (std::uint32_t i = 0; i < m.layers.size(); ++i) {
        if (mm.tables[i].lbm && !mm.is_block_head(i) && !mm.is_block_tail(i)) {
            mid = i;
            break;
        }
    }
    ASSERT_GT(mid, 0u);
    const auto& cand = r.arm("MB.", mid, /*want_lbm=*/true);
    ASSERT_TRUE(cand.is_lbm);
    r.run(cand);
    // Line-granular DMA rounds each tile chunk up to a cache line.
    EXPECT_NEAR(static_cast<double>(r.machine.dram().stats().bytes()),
                static_cast<double>(cand.dram_bytes()), 4096.0)
        << "LBM layer must only stream its parameters";
    EXPECT_GT(r.machine.cache().stats().region_writes, 0u);
}

TEST(layer_executor, latency_at_least_compute_bound) {
    rig r;
    const auto& cand = r.arm("RS.", 2);
    const cycle_t end = r.run(cand);
    EXPECT_GE(end, cand.compute_cycles);
}

TEST(layer_executor, latency_at_least_isolated_dram_bound) {
    rig r;
    const auto& cand = r.arm("VT.", 3);  // a weight-heavy transformer GEMM
    const cycle_t end = r.run(cand);
    const double dram_min = static_cast<double>(cand.dram_bytes()) /
                            r.cfg.dram.peak_bytes_per_cycle();
    EXPECT_GE(static_cast<double>(end), dram_min);
}

TEST(layer_executor, multi_core_speeds_up_compute_bound_layers) {
    rig solo;
    const auto& cand1 = solo.arm("RS.", 2);
    solo.task.cores = {0};
    const cycle_t one = solo.run(cand1);

    rig quad;
    const auto& cand4 = quad.arm("RS.", 2);
    quad.task.cores = {0, 1, 2, 3};
    const cycle_t four = quad.run(cand4);
    EXPECT_LT(four, one);
}

TEST(layer_executor, multicast_combines_multi_core_weight_reads) {
    // The first ResNet layer whose largest candidate pins weights: a
    // multi-core run re-reads them from the region as one multicast.
    const auto& mm =
        mapping_for(model::model_by_abbr("RS."), soc_config{}.mapper());
    std::uint32_t layer = 0;
    while (layer < mm.tables.size() &&
           mm.tables[layer].lwm.back().weights_pinned_bytes == 0)
        ++layer;
    ASSERT_LT(layer, mm.tables.size()) << "no candidate pins weights";
    rig r;
    const auto& cand = r.arm("RS.", layer);
    ASSERT_GT(cand.weights_pinned_bytes, 0u);
    r.task.cores = {0, 1, 2, 3};
    r.run(cand);
    EXPECT_GT(r.machine.cache().stats().multicast_combined, 0u);
}

TEST(layer_executor, candidate_outside_the_mct_is_rejected) {
    // A run is saved by its candidate's index in the layer's MCT, so the
    // engine starts none other.
    rig r;
    mapping::mapping_candidate copy = r.arm("RS.", 2);
    EXPECT_THROW(r.machine.layers().start(r.task, copy, r.addrs),
                 std::logic_error);
    EXPECT_TRUE(r.machine.layers().idle());
}

TEST(layer_executor, elementwise_layers_stream_in_chunks) {
    rig r;
    // PointPillars' scatter: a large pool/scatter op.
    const auto& m = model::model_by_abbr("PP.");
    std::uint32_t scatter = 0;
    for (std::uint32_t i = 0; i < m.layers.size(); ++i)
        if (m.layers[i].name == "scatter") scatter = i;
    ASSERT_GT(scatter, 0u);
    const auto& cand = r.arm("PP.", scatter);
    const cycle_t end = r.run(cand);
    EXPECT_GT(end, 0u);
    // All output bytes reached memory (bypass writes).
    EXPECT_GE(r.machine.cache().stats().bypass_writes,
              lines_for(m.layers[scatter].output_bytes));
}

}  // namespace
}  // namespace camdn::sim
