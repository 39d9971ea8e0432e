// Tests of the parallel sweep engine: parallel execution must be
// bit-identical to sequential execution, and the memoized isolated-latency
// cache must agree with the uncached reference.
#include <gtest/gtest.h>

#include "model/model_zoo.h"
#include "sim/experiment.h"
#include "sim/sweep.h"

namespace camdn::sim {
namespace {

std::vector<experiment_config> mixed_configs() {
    std::vector<experiment_config> cfgs;
    const policy pols[] = {policy::shared_baseline, policy::moca,
                           policy::aurora, policy::camdn_hw_only,
                           policy::camdn_full};
    for (std::size_t i = 0; i < 5; ++i) {
        experiment_config cfg;
        cfg.pol = pols[i];
        cfg.workload = {&model::model_by_abbr("RS."),
                        &model::model_by_abbr("MB.")};
        cfg.co_located = 4;
        cfg.inferences_per_slot = 1;
        cfg.seed = 11 + i;
        cfgs.push_back(std::move(cfg));
    }
    // One open-loop config in the mix: the sweep engine must be agnostic
    // to the workload generator.
    experiment_config open;
    open.pol = policy::camdn_full;
    open.kind = runtime::workload_kind::open_loop_poisson;
    open.workload = {&model::model_by_abbr("MB.")};
    open.co_located = 2;
    open.arrival_rate_per_ms = 4.0;
    open.total_arrivals = 6;
    open.seed = 3;
    cfgs.push_back(std::move(open));
    return cfgs;
}

void expect_identical(const experiment_result& a, const experiment_result& b) {
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_EQ(a.rejected_arrivals, b.rejected_arrivals);
    EXPECT_DOUBLE_EQ(a.cache_stats.hit_rate(), b.cache_stats.hit_rate());
    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        EXPECT_EQ(a.completions[i].slot, b.completions[i].slot);
        EXPECT_EQ(a.completions[i].abbr, b.completions[i].abbr);
        EXPECT_EQ(a.completions[i].arrival, b.completions[i].arrival);
        EXPECT_EQ(a.completions[i].start, b.completions[i].start);
        EXPECT_EQ(a.completions[i].end, b.completions[i].end);
        EXPECT_EQ(a.completions[i].dram_bytes, b.completions[i].dram_bytes);
        EXPECT_EQ(a.completions[i].cores, b.completions[i].cores);
    }
}

TEST(sweep, parallel_results_are_bit_identical_to_sequential) {
    const auto cfgs = mixed_configs();
    const auto sequential = run_sweep(cfgs, 1);
    const auto parallel = run_sweep(cfgs, 4);
    ASSERT_EQ(sequential.size(), cfgs.size());
    ASSERT_EQ(parallel.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expect_identical(sequential[i], parallel[i]);
}

TEST(sweep, matches_direct_run_experiment) {
    const auto cfgs = mixed_configs();
    const auto swept = run_sweep(cfgs, 4);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        expect_identical(run_experiment(cfgs[i]), swept[i]);
}

TEST(sweep, preserves_input_order) {
    const auto cfgs = mixed_configs();
    const auto results = run_sweep(cfgs, 4);
    // Each config has a distinct completion count or workload signature;
    // the co_located=2 open-loop config sits last.
    EXPECT_EQ(results.back().completions.size(), 6u);
    for (std::size_t i = 0; i + 1 < cfgs.size(); ++i)
        EXPECT_EQ(results[i].completions.size(), 4u);
}

TEST(sweep, empty_input_yields_empty_output) {
    EXPECT_TRUE(run_sweep({}, 4).empty());
}

TEST(sweep, more_threads_than_configs_is_fine) {
    std::vector<experiment_config> cfgs(1);
    cfgs[0].pol = policy::shared_baseline;
    cfgs[0].workload = {&model::model_by_abbr("MB.")};
    cfgs[0].co_located = 2;
    cfgs[0].seed = 1;
    const auto results = run_sweep(cfgs, 16);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].completions.size(), 2u);
}

// ---- adaptive-controller determinism --------------------------------
// Same seed + config must yield bit-identical experiment_result AND
// telemetry snapshots regardless of sweep thread-pool width: the feedback
// controller's decision path is event-ordered simulation state only.

void expect_telemetry_identical(const experiment_result& a,
                                const experiment_result& b) {
    ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
    for (std::size_t e = 0; e < a.telemetry.size(); ++e) {
        const auto& x = a.telemetry[e];
        const auto& y = b.telemetry[e];
        EXPECT_EQ(x.index, y.index);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(x.dram_bytes, y.dram_bytes);
        EXPECT_EQ(x.dram_throttled, y.dram_throttled);
        EXPECT_EQ(x.idle_pages, y.idle_pages);
        EXPECT_EQ(x.active_slots, y.active_slots);
        EXPECT_DOUBLE_EQ(x.bw_utilization, y.bw_utilization);
        ASSERT_EQ(x.tasks.size(), y.tasks.size());
        for (std::size_t s = 0; s < x.tasks.size(); ++s) {
            const auto& p = x.tasks[s];
            const auto& q = y.tasks[s];
            EXPECT_EQ(p.cache_hits, q.cache_hits);
            EXPECT_EQ(p.cache_misses, q.cache_misses);
            EXPECT_EQ(p.dma_bytes, q.dma_bytes);
            EXPECT_EQ(p.layers_retired, q.layers_retired);
            EXPECT_EQ(p.lbm_layers, q.lbm_layers);
            EXPECT_EQ(p.page_wait_cycles, q.page_wait_cycles);
            EXPECT_EQ(p.page_timeouts, q.page_timeouts);
            EXPECT_EQ(p.lbm_downgrades, q.lbm_downgrades);
            EXPECT_EQ(p.completions, q.completions);
            EXPECT_EQ(p.deadline_misses, q.deadline_misses);
            EXPECT_EQ(p.slack_cycles, q.slack_cycles);
        }
    }
}

std::vector<experiment_config> adaptive_configs() {
    std::vector<experiment_config> cfgs;

    experiment_config bursty;
    bursty.pol = policy::camdn_adaptive;
    bursty.kind = runtime::workload_kind::open_loop_mmpp;
    bursty.workload = {&model::model_by_abbr("MB."),
                       &model::model_by_abbr("RS.")};
    bursty.co_located = 4;
    bursty.arrival_rate_per_ms = 3.0;
    bursty.mmpp_rate_scale = {0.25, 4.0};
    bursty.mmpp_sojourn_ms = 2.0;
    bursty.total_arrivals = 10;
    bursty.seed = 7;
    cfgs.push_back(bursty);

    experiment_config qos = bursty;
    qos.kind = runtime::workload_kind::tenant_churn;
    qos.qos_mode = true;  // exercises the slack-driven bandwidth caps
    qos.seed = 9;
    cfgs.push_back(std::move(qos));

    experiment_config closed;
    closed.pol = policy::camdn_adaptive;
    closed.workload = {&model::model_by_abbr("MB."),
                       &model::model_by_abbr("EF.")};
    closed.co_located = 4;
    closed.inferences_per_slot = 2;
    closed.seed = 21;
    cfgs.push_back(std::move(closed));
    return cfgs;
}

TEST(sweep, adaptive_policy_is_bit_identical_across_pool_widths) {
    const auto cfgs = adaptive_configs();
    const auto sequential = run_sweep(cfgs, 1);
    const auto parallel = run_sweep(cfgs, 4);
    ASSERT_EQ(sequential.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expect_identical(sequential[i], parallel[i]);
        expect_telemetry_identical(sequential[i], parallel[i]);
        EXPECT_FALSE(sequential[i].telemetry.empty());
    }
}

TEST(sweep, adaptive_policy_repeated_run_is_bit_identical) {
    const auto cfgs = adaptive_configs();
    const auto first = run_sweep(cfgs, 2);
    const auto second = run_sweep(cfgs, 3);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expect_identical(first[i], second[i]);
        expect_telemetry_identical(first[i], second[i]);
    }
}

TEST(sweep, telemetry_only_recording_never_changes_results) {
    // cfg.telemetry on a static policy must observe without perturbing:
    // the instrumented run stays bit-identical to the bare one.
    auto cfgs = mixed_configs();
    auto observed = cfgs;
    for (auto& c : observed) c.telemetry = true;
    const auto bare = run_sweep(cfgs, 2);
    const auto instrumented = run_sweep(observed, 2);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expect_identical(bare[i], instrumented[i]);
        EXPECT_TRUE(bare[i].telemetry.empty());
        EXPECT_FALSE(instrumented[i].telemetry.empty());
    }
}

TEST(sweep, cached_isolated_latencies_match_uncached_reference) {
    clear_isolated_latency_cache();
    soc_config soc;
    std::vector<const model::model*> models{&model::model_by_abbr("MB."),
                                            &model::model_by_abbr("EF.")};
    const auto& cached = cached_isolated_latencies(soc, models);
    const auto reference = isolated_latencies(soc, models);
    EXPECT_EQ(cached, reference);
}

TEST(sweep, cached_isolated_latencies_memoizes_per_key) {
    clear_isolated_latency_cache();
    soc_config soc;
    std::vector<const model::model*> models{&model::model_by_abbr("MB.")};
    const auto& first = cached_isolated_latencies(soc, models);
    const auto& second = cached_isolated_latencies(soc, models);
    EXPECT_EQ(&first, &second);  // same cache entry, no recompute

    // A different SoC is a different key.
    soc_config big = soc;
    big.cache.total_bytes = mib(64);
    const auto& other = cached_isolated_latencies(big, models);
    EXPECT_NE(&first, &other);

    // So is a different model set.
    std::vector<const model::model*> more{&model::model_by_abbr("MB."),
                                          &model::model_by_abbr("RS.")};
    const auto& wider = cached_isolated_latencies(soc, more);
    EXPECT_NE(&first, &wider);
    EXPECT_EQ(wider.count("RS."), 1u);
}

}  // namespace
}  // namespace camdn::sim
