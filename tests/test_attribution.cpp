// Tests of the latency-attribution layer (obs/attribution.h):
//   * exactness — the six components sum bit-exactly to end-to-end
//     latency for every attributed inference, across closed-loop,
//     Poisson, MMPP and fleet scenarios;
//   * interference matrix — every tenant's row sums bit-exactly to the
//     tenant's blameable stall (page_wait + dma_stall + dram_contention +
//     cache_penalty), and the per-tenant latency identity survives the
//     fleet fold (absorb across rounds and SoCs);
//   * zero-overhead-off — an attribution-attached run is bit-identical
//     (results AND snapshot bytes) to a bare run;
//   * exporters — metrics keys and the JSONL row carry the totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "model/model_zoo.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"
#include "runtime/workload.h"
#include "serve/cluster.h"
#include "sim/experiment.h"

namespace camdn {
namespace {

sim::experiment_config base_cfg(sim::policy pol) {
    sim::experiment_config cfg;
    cfg.pol = pol;
    cfg.workload = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.co_located = 4;
    cfg.kind = runtime::workload_kind::closed_loop;
    cfg.inferences_per_slot = 3;
    cfg.seed = 17;
    return cfg;
}

/// Runs `cfg` with an attributor attached and checks the per-inference
/// decomposition identity plus the interference row-sum identity.
void check_exact_decomposition(sim::experiment_config cfg) {
    obs::latency_attributor attr;
    cfg.obs.attr = &attr;
    const auto res = sim::run_experiment(cfg);

    ASSERT_GT(res.completions.size(), 0u);
    // Every completion was attributed (no snapshot boundaries here).
    ASSERT_EQ(attr.records().size(), res.completions.size());

    for (const auto& rec : attr.records()) {
        EXPECT_EQ(rec.comp.sum(), rec.end - rec.arrival)
            << "slot " << rec.slot << " tenant "
            << attr.tenant_names()[rec.tenant] << ": components must tile "
            << "the end-to-end latency exactly";
        EXPECT_GT(rec.comp.compute, 0u);
    }

    const auto& tenants = attr.tenants();
    std::uint64_t total_completed = 0;
    for (std::uint32_t i = 0; i < tenants.size(); ++i) {
        const auto& t = tenants[i];
        total_completed += t.completed;
        EXPECT_EQ(t.comp.sum(), t.latency_cycles)
            << "tenant " << attr.tenant_names()[i];
        EXPECT_EQ(attr.interference_row_sum(i), t.comp.stall_sum())
            << "tenant " << attr.tenant_names()[i]
            << ": interference row must account for every blameable cycle";
    }
    EXPECT_EQ(total_completed, res.completions.size());
}

TEST(attribution, closed_loop_components_sum_exactly) {
    check_exact_decomposition(base_cfg(sim::policy::camdn_full));
}

TEST(attribution, closed_loop_baseline_policy_sums_exactly) {
    // No page negotiation on this path: page_wait must be zero and the
    // rest still tiles exactly.
    auto cfg = base_cfg(sim::policy::shared_baseline);
    obs::latency_attributor attr;
    cfg.obs.attr = &attr;
    sim::run_experiment(cfg);
    for (const auto& rec : attr.records()) {
        EXPECT_EQ(rec.comp.page_wait, 0u);
        EXPECT_EQ(rec.comp.sum(), rec.end - rec.arrival);
    }
}

TEST(attribution, open_loop_poisson_components_sum_exactly) {
    auto cfg = base_cfg(sim::policy::camdn_full);
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.arrival_rate_per_ms = 1.2;
    cfg.total_arrivals = 16;
    cfg.admission_queue_limit = 8;
    check_exact_decomposition(cfg);
}

TEST(attribution, open_loop_mmpp_components_sum_exactly) {
    auto cfg = base_cfg(sim::policy::camdn_adaptive);
    cfg.kind = runtime::workload_kind::open_loop_mmpp;
    cfg.arrival_rate_per_ms = 1.0;
    cfg.total_arrivals = 16;
    cfg.admission_queue_limit = 8;
    check_exact_decomposition(cfg);
}

TEST(attribution, queued_arrivals_charge_queue_wait) {
    // A burst far above service rate must show admission-queue wait.
    auto cfg = base_cfg(sim::policy::camdn_full);
    cfg.co_located = 2;
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.arrival_rate_per_ms = 50.0;
    cfg.total_arrivals = 12;
    cfg.admission_queue_limit = 12;
    obs::latency_attributor attr;
    cfg.obs.attr = &attr;
    sim::run_experiment(cfg);
    std::uint64_t queue_wait = 0;
    for (const auto& rec : attr.records()) {
        queue_wait += rec.comp.queue_wait;
        EXPECT_EQ(rec.comp.sum(), rec.end - rec.arrival);
    }
    EXPECT_GT(queue_wait, 0u);
}

TEST(attribution, contended_run_blames_other_tenants) {
    // Four co-located tenants on one shared cache: the interference matrix
    // must carry off-diagonal blame somewhere.
    auto cfg = base_cfg(sim::policy::camdn_full);
    obs::latency_attributor attr;
    cfg.obs.attr = &attr;
    sim::run_experiment(cfg);

    std::uint64_t off_diagonal = 0;
    const std::uint32_t n = static_cast<std::uint32_t>(attr.tenants().size());
    for (std::uint32_t i = 0; i < n; ++i)
        for (std::uint32_t j = 0; j < n; ++j)
            if (i != j) off_diagonal += attr.interference(i, j);
    EXPECT_GT(off_diagonal, 0u);

    // The totals roll up the same cycles the records carry.
    obs::attribution_components from_records;
    for (const auto& rec : attr.records()) from_records.accumulate(rec.comp);
    EXPECT_EQ(attr.totals().sum(), from_records.sum());
}

TEST(attribution, batched_dram_paths_keep_the_exact_decomposition) {
    // The DRAM model's batched burst paths aggregate their attribution
    // hooks by holder (one on_dram_wait per (victim, holder) run instead
    // of one per line). The identities must be indifferent to that
    // folding: a contended multi-tenant run whose traffic is dominated by
    // multi-line bursts still tiles every latency exactly and still sums
    // every interference row to the tenant's blameable stall.
    auto cfg = base_cfg(sim::policy::camdn_full);
    cfg.co_located = 6;
    cfg.inferences_per_slot = 4;
    obs::latency_attributor attr;
    cfg.obs.attr = &attr;
    sim::run_experiment(cfg);

    ASSERT_GT(attr.records().size(), 0u);
    for (const auto& rec : attr.records())
        EXPECT_EQ(rec.comp.sum(), rec.end - rec.arrival);
    for (std::uint32_t i = 0; i < attr.tenants().size(); ++i)
        EXPECT_EQ(attr.interference_row_sum(i),
                  attr.tenants()[i].comp.stall_sum());
    // The run must actually have exercised the aggregated hooks: enough
    // co-located tenants on one DRAM guarantees bank/bus blame.
    EXPECT_GT(attr.totals().dram_contention, 0u);
}

TEST(attribution, regulated_bursts_keep_the_exact_decomposition) {
    // MoCA-style bandwidth partitioning drives the regulation edge of the
    // batched dispatch: bursts that fit the epoch budget commit in bulk,
    // bursts that straddle it take the exact per-line walk with throttle
    // attribution. Both must preserve the identities.
    auto cfg = base_cfg(sim::policy::moca);
    check_exact_decomposition(cfg);
}

TEST(attribution, top_stall_component_names_the_largest) {
    obs::attribution_components c;
    EXPECT_STREQ(obs::top_stall_component(c), "none");
    c.dram_contention = 10;
    c.cache_penalty = 3;
    EXPECT_STREQ(obs::top_stall_component(c), "dram_contention");
    c.page_wait = 11;
    EXPECT_STREQ(obs::top_stall_component(c), "page_wait");
}

TEST(attribution, absorb_merges_by_tenant_name) {
    obs::latency_attributor a, b;
    a.on_dispatch(0, "RS.");
    a.on_inference_start(0, 0, 10);
    a.on_layer_retired(0, 100, 100);
    a.on_inference_end(0, 110);

    b.on_dispatch(0, "MB.");
    b.on_inference_start(0, 5, 5);
    b.on_layer_retired(0, 50, 40);
    b.on_dram_wait(0, no_task, 10);
    b.on_inference_end(0, 55);
    b.on_dispatch(1, "RS.");
    b.on_inference_start(1, 0, 0);
    b.on_layer_retired(1, 20, 20);
    b.on_inference_end(1, 20);

    a.absorb(b);
    ASSERT_EQ(a.tenant_names().size(), 2u);
    const auto& tens = a.tenants();
    // "RS." folded across both attributors.
    EXPECT_EQ(tens[0].completed, 2u);
    EXPECT_EQ(tens[0].latency_cycles, 110u + 20u);
    EXPECT_EQ(tens[1].completed, 1u);
    EXPECT_EQ(tens[1].comp.dram_contention, 10u);
    EXPECT_EQ(a.records().size(), 3u);
    for (std::uint32_t i = 0; i < 2; ++i)
        EXPECT_EQ(a.interference_row_sum(i), tens[i].comp.stall_sum());
}

TEST(attribution, fleet_tenant_rollup_keeps_the_latency_identity) {
    serve::soc_instance_config inst;
    inst.slots = 2;
    inst.admission_queue_limit = 8;
    serve::cluster_config cfg = serve::uniform_cluster(2, inst);
    cfg.models = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.arrival_rate_per_ms = 2.0;
    cfg.total_arrivals = 24;
    cfg.feedback_rounds = 2;
    cfg.attribution = true;
    const auto res = serve::run_cluster(cfg);

    std::uint64_t attributed = 0;
    for (const auto& [abbr, t] : res.tenants) {
        attributed += t.attribution_completed;
        EXPECT_EQ(t.attribution.sum(), t.attribution_latency_cycles)
            << "tenant " << abbr;
        // The interference row accounts for exactly the blameable stall.
        std::uint64_t row = 0;
        const auto it = res.interference.find(abbr);
        if (it != res.interference.end())
            for (const auto& [holder, cycles] : it->second) row += cycles;
        EXPECT_EQ(row, t.attribution.stall_sum()) << "tenant " << abbr;
    }
    // Each SoC keeps one attributor across round barriers, so inferences
    // that span a round cut are attributed too.
    EXPECT_GT(attributed, 0u);
    EXPECT_LE(attributed, res.completed);

    // And attribution never perturbs the simulation.
    auto bare_cfg = cfg;
    bare_cfg.attribution = false;
    const auto bare = serve::run_cluster(bare_cfg);
    EXPECT_EQ(bare.completed, res.completed);
    EXPECT_EQ(bare.makespan, res.makespan);
    EXPECT_EQ(bare.events_executed, res.events_executed);
}

// ---- zero-overhead-off -------------------------------------------------

sim::experiment_config observed_cfg() {
    auto cfg = base_cfg(sim::policy::camdn_adaptive);
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.arrival_rate_per_ms = 0.8;
    cfg.total_arrivals = 8;
    cfg.admission_queue_limit = 8;
    return cfg;
}

TEST(attribution, attached_run_results_are_bit_identical) {
    const auto bare = sim::run_experiment(observed_cfg());

    obs::latency_attributor attr;
    auto cfg = observed_cfg();
    cfg.obs.attr = &attr;
    const auto attributed = sim::run_experiment(cfg);

    EXPECT_EQ(bare.makespan, attributed.makespan);
    EXPECT_EQ(bare.events_executed, attributed.events_executed);
    EXPECT_EQ(bare.dram_total_bytes, attributed.dram_total_bytes);
    ASSERT_EQ(bare.completions.size(), attributed.completions.size());
    for (std::size_t i = 0; i < bare.completions.size(); ++i) {
        EXPECT_EQ(bare.completions[i].end, attributed.completions[i].end);
        EXPECT_EQ(bare.completions[i].dram_bytes,
                  attributed.completions[i].dram_bytes);
    }
    EXPECT_EQ(attr.records().size(), bare.completions.size());
}

TEST(attribution, snapshot_bytes_are_bit_identical_with_attr_attached) {
    const auto cfg = observed_cfg();
    const cycle_t boundary = ms_to_cycles(2.0);

    auto gen_bare = runtime::make_workload_generator(cfg);
    runtime::scheduler bare(cfg, *gen_bare);
    ASSERT_TRUE(bare.run_segment(boundary));

    obs::latency_attributor attr;
    auto acfg = cfg;
    acfg.obs.attr = &attr;
    auto gen_attr = runtime::make_workload_generator(acfg);
    runtime::scheduler attributed(acfg, *gen_attr);
    ASSERT_TRUE(attributed.run_segment(boundary));

    EXPECT_EQ(bare.save().encode(), attributed.save().encode());
}

// ---- exporters ---------------------------------------------------------

TEST(attribution, metrics_export_carries_totals_and_matrix) {
    auto cfg = base_cfg(sim::policy::camdn_full);
    obs::latency_attributor attr;
    obs::metrics_registry metrics;
    cfg.obs.attr = &attr;
    cfg.obs.metrics = &metrics;
    const auto res = sim::run_experiment(cfg);

    EXPECT_EQ(metrics.counter("attr.total.compute_cycles"),
              attr.totals().compute);
    std::uint64_t completed = 0, latency = 0;
    for (const auto& name : attr.tenant_names()) {
        completed += metrics.counter("attr." + name + ".completed");
        latency += metrics.counter("attr." + name + ".latency_cycles");
    }
    EXPECT_EQ(completed, res.completions.size());
    EXPECT_EQ(latency, attr.totals().sum());

    const std::string row = attr.jsonl_row(3, 7);
    EXPECT_NE(row.find("\"type\":\"attribution\""), std::string::npos);
    EXPECT_NE(row.find("\"soc\":3"), std::string::npos);
    EXPECT_NE(row.find("\"compute\":"), std::string::npos);
}

}  // namespace
}  // namespace camdn
