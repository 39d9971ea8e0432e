// Integration tests of the full simulator through the experiment harness:
// determinism, accounting conservation, policy mechanics and the feature
// toggles. Small workloads keep each case under a second.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "model/model_zoo.h"
#include "sim/experiment.h"

namespace camdn::sim {
namespace {

experiment_config small_cfg(policy pol) {
    experiment_config cfg;
    cfg.pol = pol;
    cfg.workload = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.co_located = 4;
    cfg.inferences_per_slot = 1;
    cfg.seed = 11;
    return cfg;
}

TEST(experiment, completes_all_inferences_for_every_policy) {
    for (policy pol : {policy::shared_baseline, policy::moca, policy::aurora,
                       policy::camdn_hw_only, policy::camdn_full}) {
        const auto res = run_experiment(small_cfg(pol));
        EXPECT_EQ(res.completions.size(), 4u) << policy_name(pol);
        EXPECT_GT(res.makespan, 0u) << policy_name(pol);
        for (const auto& rec : res.completions) {
            EXPECT_GT(rec.end, rec.arrival) << policy_name(pol);
            EXPECT_GE(rec.end, rec.start) << policy_name(pol);
        }
    }
}

TEST(experiment, deterministic_under_fixed_seed) {
    const auto a = run_experiment(small_cfg(policy::camdn_full));
    const auto b = run_experiment(small_cfg(policy::camdn_full));
    ASSERT_EQ(a.completions.size(), b.completions.size());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        EXPECT_EQ(a.completions[i].end, b.completions[i].end);
        EXPECT_EQ(a.completions[i].abbr, b.completions[i].abbr);
        EXPECT_EQ(a.completions[i].dram_bytes, b.completions[i].dram_bytes);
    }
}

TEST(experiment, different_seeds_change_the_schedule) {
    auto cfg = small_cfg(policy::shared_baseline);
    cfg.workload = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB."),
                    &model::model_by_abbr("EF."), &model::model_by_abbr("GN.")};
    cfg.co_located = 8;
    const auto a = run_experiment(cfg);
    cfg.seed = 997;
    const auto b = run_experiment(cfg);
    bool any_different = a.makespan != b.makespan;
    for (std::size_t i = 0; !any_different && i < a.completions.size(); ++i)
        any_different = a.completions[i].abbr != b.completions[i].abbr;
    EXPECT_TRUE(any_different);
}

TEST(experiment, workload_is_policy_invariant) {
    // Same seed => the (slot, inference)->model assignment is identical
    // across policies (fair comparison, as in the paper).
    const auto a = run_experiment(small_cfg(policy::shared_baseline));
    const auto b = run_experiment(small_cfg(policy::camdn_full));
    std::multiset<std::string> ma, mb;
    for (const auto& r : a.completions) ma.insert(r.abbr);
    for (const auto& r : b.completions) mb.insert(r.abbr);
    EXPECT_EQ(ma, mb);
}

TEST(experiment, single_tenant_runs_alone) {
    experiment_config cfg;
    cfg.pol = policy::shared_baseline;
    cfg.workload = {&model::model_by_abbr("MB.")};
    cfg.co_located = 1;
    cfg.inferences_per_slot = 2;
    const auto res = run_experiment(cfg);
    ASSERT_EQ(res.completions.size(), 2u);
    EXPECT_EQ(res.completions[0].abbr, "MB.");
    // No queueing: arrival == start.
    for (const auto& r : res.completions) EXPECT_EQ(r.arrival, r.start);
}

TEST(experiment, oversubscribed_slots_queue_for_cores) {
    experiment_config cfg = small_cfg(policy::shared_baseline);
    cfg.soc.npu.cores = 2;  // 4 slots on 2 cores
    const auto res = run_experiment(cfg);
    ASSERT_EQ(res.completions.size(), 4u);
    int queued = 0;
    for (const auto& r : res.completions) queued += r.start > r.arrival;
    EXPECT_GT(queued, 0);
}

TEST(experiment, per_task_dram_bytes_are_attributed) {
    const auto res = run_experiment(small_cfg(policy::shared_baseline));
    std::uint64_t attributed = 0;
    for (const auto& r : res.completions) attributed += r.dram_bytes;
    EXPECT_GT(attributed, 0u);
    EXPECT_LE(attributed, res.dram_total_bytes);
}

TEST(experiment, camdn_uses_regions_not_transparent_path) {
    const auto res = run_experiment(small_cfg(policy::camdn_full));
    EXPECT_EQ(res.cache_stats.hits + res.cache_stats.misses, 0u);
    EXPECT_GT(res.cache_stats.region_reads + res.cache_stats.region_fills +
                  res.cache_stats.bypass_reads,
              0u);
}

TEST(experiment, baselines_use_transparent_path_only) {
    const auto res = run_experiment(small_cfg(policy::shared_baseline));
    EXPECT_GT(res.cache_stats.hits + res.cache_stats.misses, 0u);
    EXPECT_EQ(res.cache_stats.region_reads, 0u);
    EXPECT_EQ(res.cache_stats.bypass_reads, 0u);
}

TEST(experiment, moca_actually_regulates) {
    auto cfg = small_cfg(policy::moca);
    cfg.co_located = 4;
    const auto res = run_experiment(cfg);
    // Regulation may or may not throttle depending on phases, but the
    // policy path must at least complete and move the same workload.
    EXPECT_EQ(res.completions.size(), 4u);
}

TEST(experiment, lbm_toggle_changes_traffic) {
    auto cfg = small_cfg(policy::camdn_full);
    cfg.workload = {&model::model_by_abbr("MB.")};
    const auto with_lbm = run_experiment(cfg);
    cfg.features.lbm = false;
    const auto without = run_experiment(cfg);
    EXPECT_LT(with_lbm.dram_total_bytes, without.dram_total_bytes);
}

TEST(experiment, bypass_toggle_reroutes_streams) {
    auto cfg = small_cfg(policy::camdn_full);
    cfg.features.bypass = false;
    const auto res = run_experiment(cfg);
    // Streams now go through the transparent path (within CPU ways).
    EXPECT_GT(res.cache_stats.hits + res.cache_stats.misses, 0u);
}

TEST(experiment, empty_workload_defaults_to_the_zoo) {
    experiment_config cfg;
    cfg.pol = policy::shared_baseline;
    cfg.co_located = 2;
    cfg.inferences_per_slot = 1;
    cfg.seed = 3;
    const auto res = run_experiment(cfg);
    EXPECT_EQ(res.completions.size(), 2u);
}

TEST(experiment, qos_mode_assigns_deadlines) {
    auto cfg = small_cfg(policy::aurora);
    cfg.qos_mode = true;
    cfg.qos_scale = 1.0;
    const auto res = run_experiment(cfg);
    EXPECT_EQ(res.completions.size(), 4u);
}

TEST(experiment, result_helpers_aggregate_correctly) {
    experiment_result res;
    inference_record a;
    a.abbr = "RS.";
    a.arrival = 0;
    a.end = ms_to_cycles(10.0);
    a.dram_bytes = mib(64);
    inference_record b;
    b.abbr = "MB.";
    b.arrival = 0;
    b.end = ms_to_cycles(2.0);
    b.dram_bytes = mib(16);
    res.completions = {a, b};
    EXPECT_DOUBLE_EQ(res.avg_latency_ms(), 6.0);
    EXPECT_DOUBLE_EQ(res.mean_latency_ms("RS."), 10.0);
    EXPECT_DOUBLE_EQ(res.mem_mb_per_inference(), 40.0);
    EXPECT_DOUBLE_EQ(res.mem_mb_per_inference("MB."), 16.0);
    EXPECT_EQ(res.completions_of("RS."), 1u);
    EXPECT_EQ(res.completions_of(""), 2u);
}

// ---- Golden tests --------------------------------------------------------
// Full inference records captured from the pre-refactor monolithic driver
// (the 459-line scheduler inside experiment.cpp before the runtime
// extraction). The closed_loop generator must reproduce them bit for bit.

struct golden_rec {
    task_id slot;
    const char* abbr;
    cycle_t arrival, start, end;
    std::uint64_t dram_bytes;
    std::uint32_t cores;
};

void expect_golden(const experiment_result& res, cycle_t makespan,
                   std::uint64_t dram_total,
                   const std::vector<golden_rec>& recs) {
    EXPECT_EQ(res.makespan, makespan);
    EXPECT_EQ(res.dram_total_bytes, dram_total);
    ASSERT_EQ(res.completions.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto& got = res.completions[i];
        const auto& want = recs[i];
        EXPECT_EQ(got.slot, want.slot) << "record " << i;
        EXPECT_EQ(got.abbr, want.abbr) << "record " << i;
        EXPECT_EQ(got.arrival, want.arrival) << "record " << i;
        EXPECT_EQ(got.start, want.start) << "record " << i;
        EXPECT_EQ(got.end, want.end) << "record " << i;
        EXPECT_EQ(got.dram_bytes, want.dram_bytes) << "record " << i;
        EXPECT_EQ(got.cores, want.cores) << "record " << i;
    }
}

TEST(experiment_golden, camdn_full_matches_pre_refactor_driver) {
    experiment_config cfg;
    cfg.pol = policy::camdn_full;
    cfg.workload = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.co_located = 4;
    cfg.inferences_per_slot = 2;
    cfg.seed = 11;
    expect_golden(run_experiment(cfg), 1771603, 98272896,
                  {{0, "MB.", 0, 0, 311320, 5028160, 4},
                   {1, "MB.", 0, 0, 311842, 5028160, 4},
                   {3, "MB.", 0, 0, 313264, 5028160, 4},
                   {0, "MB.", 311320, 311320, 591217, 5028160, 4},
                   {3, "MB.", 313264, 313264, 592738, 5028160, 4},
                   {2, "RS.", 0, 0, 1477978, 34051968, 4},
                   {2, "MB.", 1477978, 1477978, 1746333, 5028160, 4},
                   {1, "RS.", 311842, 311842, 1771603, 34051968, 4}});
}

TEST(experiment_golden, shared_baseline_matches_pre_refactor_driver) {
    experiment_config cfg;
    cfg.pol = policy::shared_baseline;
    cfg.workload = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.co_located = 4;
    cfg.inferences_per_slot = 2;
    cfg.seed = 11;
    expect_golden(run_experiment(cfg), 2171755, 122625408,
                  {{0, "MB.", 0, 0, 365694, 8826432, 4},
                   {1, "MB.", 0, 0, 366894, 8807296, 4},
                   {3, "MB.", 0, 0, 376090, 8827776, 4},
                   {0, "MB.", 365694, 365694, 717493, 8292032, 4},
                   {3, "MB.", 376090, 376090, 728997, 8223232, 4},
                   {2, "RS.", 0, 0, 1841771, 36577856, 4},
                   {2, "MB.", 1841771, 1841771, 2121781, 4876992, 4},
                   {1, "RS.", 366894, 366894, 2171755, 35273472, 4}});
}

TEST(experiment_golden, aurora_qos_matches_pre_refactor_driver) {
    experiment_config cfg;
    cfg.pol = policy::aurora;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
    cfg.co_located = 4;
    cfg.inferences_per_slot = 1;
    cfg.seed = 7;
    cfg.qos_mode = true;
    cfg.qos_scale = 1.0;
    // The pre-refactor driver reported makespan 750000 here: its final
    // bandwidth-reallocation epoch (a no-op — the run had drained) was
    // still pending and dragged the clock past the last completion. The
    // cancellable bw-epoch timer now stops the chain when the run drains,
    // so the makespan is the last completion. Completion records are
    // unchanged bit for bit.
    expect_golden(run_experiment(cfg), 719856, 36468736,
                  {{0, "MB.", 0, 0, 704400, 9060288, 1},
                   {1, "MB.", 0, 0, 708188, 9081920, 1},
                   {2, "MB.", 0, 0, 713506, 9140096, 1},
                   {3, "MB.", 0, 0, 719856, 9175936, 1}});
}

TEST(experiment, camdn_without_a_transparent_way_is_rejected) {
    // With every way in the NPU subspace the way-mask register leaves the
    // transparent path no way at all; CaMDN policies must refuse the SoC
    // rather than time lookups in an empty set.
    auto cfg = small_cfg(policy::camdn_full);
    cfg.features.bypass = false;
    cfg.soc.cache.npu_ways = cfg.soc.cache.ways;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
    // Baselines run the whole cache transparently whatever the partition.
    cfg.pol = policy::aurora;
    EXPECT_EQ(run_experiment(cfg).completions.size(), 4u);
}

TEST(experiment, isolated_latencies_cover_requested_models) {
    soc_config soc;
    std::vector<const model::model*> models{&model::model_by_abbr("MB."),
                                            &model::model_by_abbr("EF.")};
    const auto iso = isolated_latencies(soc, models);
    ASSERT_EQ(iso.size(), 2u);
    EXPECT_GT(iso.at("MB."), 0u);
    EXPECT_GT(iso.at("EF."), 0u);
    // EfficientNet-b0 does more work than MobileNet-v2.
    EXPECT_GT(iso.at("EF."), iso.at("MB."));
}

}  // namespace
}  // namespace camdn::sim
