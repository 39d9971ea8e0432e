// Tests of the adaptive-control subsystem (src/adapt): the telemetry bus
// accounting as the probe writes it, the epoch feedback controller's three
// loops (page shares, ahead_ratio, bandwidth caps), the fleet feedback
// weights/re-placement signal, the new bursty/churn workload generators,
// and the cluster-level feedback rounds.
#include <gtest/gtest.h>

#include "adapt/controller.h"
#include "adapt/fleet_feedback.h"
#include "adapt/telemetry.h"
#include "model/model_zoo.h"
#include "obs/probe.h"
#include "runtime/workload.h"
#include "serve/cluster.h"
#include "sim/experiment.h"

namespace camdn {
namespace {

// ---- telemetry bus ---------------------------------------------------

/// A bus of `slots` slots behind a probe with nothing else attached: the
/// facts reach the counters the way a run's components report them.
struct probed_bus {
    adapt::telemetry_bus bus;
    obs::probe probe{1, 1, 1};
    explicit probed_bus(std::uint32_t slots) : bus(slots) {
        probe.attach(obs::run_observer{}, &bus);
    }
};

TEST(telemetry, counters_accumulate_and_cut_resets) {
    probed_bus pb(2);
    auto& bus = pb.bus;
    pb.probe.cache_accesses(0, 1, 0);
    pb.probe.cache_accesses(0, 0, 1);
    pb.probe.dma_bytes(1, 4096);
    pb.probe.page_wait(1, 1000, 1500, 2, [](std::uint32_t) { return 0u; });
    pb.probe.layer_retired(0, "MB.", 0, 50, 200, 100, true);  // span 150

    adapt::telemetry_bus::cut_sample s;
    s.dram_bytes = 1 << 20;
    s.peak_bytes_per_cycle = 16.0;
    s.idle_pages = 7;
    const auto& snap = bus.cut(1000, s);

    EXPECT_EQ(snap.index, 0u);
    EXPECT_EQ(snap.start, 0u);
    EXPECT_EQ(snap.end, 1000u);
    EXPECT_EQ(snap.tasks[0].cache_hits, 1u);
    EXPECT_EQ(snap.tasks[0].cache_misses, 1u);
    EXPECT_EQ(snap.tasks[0].layers_retired, 1u);
    EXPECT_EQ(snap.tasks[0].lbm_layers, 1u);
    EXPECT_EQ(snap.tasks[1].dma_bytes, 4096u);
    EXPECT_EQ(snap.tasks[1].page_wait_cycles, 500u);
    EXPECT_EQ(snap.idle_pages, 7u);
    EXPECT_EQ(snap.active_slots, 2u);
    EXPECT_DOUBLE_EQ(snap.bw_utilization,
                     static_cast<double>(1 << 20) / (16.0 * 1000.0));

    // The cut opened a fresh epoch.
    EXPECT_FALSE(bus.open_epoch_active());
    const auto& snap2 = bus.cut(2000, {});
    EXPECT_EQ(snap2.index, 1u);
    EXPECT_EQ(snap2.start, 1000u);
    EXPECT_EQ(snap2.tasks[0].cache_hits, 0u);
    EXPECT_EQ(snap2.active_slots, 0u);
}

TEST(telemetry, out_of_range_slots_are_ignored) {
    probed_bus pb(1);
    pb.probe.cache_accesses(no_task, 1, 0);
    pb.probe.dma_bytes(5, 100);
    pb.probe.page_timeout(-3, 0, true);
    const auto& snap = pb.bus.cut(10, {});
    EXPECT_EQ(snap.tasks[0].cache_hits, 0u);
    EXPECT_EQ(snap.tasks[0].dma_bytes, 0u);
    EXPECT_EQ(snap.total_timeouts(), 0u);
}

TEST(telemetry, completion_slack_is_signed) {
    probed_bus pb(1);
    pb.probe.completion(0, "MB.", 1, 0, 0, 150, 100);   // 50 late
    pb.probe.completion(0, "MB.", 1, 0, 0, 80, 100);    // 20 early
    pb.probe.completion(0, "MB.", 1, 0, 0, 99, never);  // no deadline
    const auto& snap = pb.bus.cut(200, {});
    EXPECT_EQ(snap.tasks[0].completions, 3u);
    EXPECT_EQ(snap.tasks[0].deadline_completions, 2u);
    EXPECT_EQ(snap.tasks[0].deadline_misses, 1u);
    EXPECT_EQ(snap.tasks[0].slack_cycles, -30);
}

// ---- feedback controller ---------------------------------------------

adapt::epoch_snapshot snapshot(std::uint32_t slots, cycle_t span = 100'000) {
    adapt::epoch_snapshot s;
    s.start = 0;
    s.end = span;
    s.tasks.resize(slots);
    return s;
}

TEST(controller, idle_slots_widen_the_page_share) {
    adapt::feedback_controller ctl(4, 400, 0.2);
    EXPECT_EQ(ctl.action().page_share[0], 100u);  // equal split initially

    auto snap = snapshot(4);
    snap.tasks[0].layers_retired = 3;  // only slot 0 active
    snap.active_slots = 1;
    // The smoothed count falls from 4 toward 1: the share widens at once
    // and keeps widening, without jumping past the pool.
    std::uint32_t share = ctl.on_epoch(snap).page_share[0];
    EXPECT_GT(share, 100u);
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t next = ctl.on_epoch(snap).page_share[0];
        EXPECT_GE(next, share);
        share = next;
    }
    EXPECT_EQ(share, 400u);  // settled: the whole pool for the lone tenant

    // A returning burst shrinks the split back within two epochs.
    auto busy = snapshot(4);
    for (auto& t : busy.tasks) t.layers_retired = 1;
    busy.active_slots = 4;
    EXPECT_LT(ctl.on_epoch(busy).page_share[0], 400u);
    EXPECT_EQ(ctl.on_epoch(busy).page_share[0], 100u);
}

TEST(controller, ahead_grows_only_with_spare_capacity_and_quiet_waits) {
    adapt::feedback_controller ctl(4, 400, 0.2);

    // Quiet epoch, all slots active: baseline regime, hold.
    auto full = snapshot(4);
    for (auto& t : full.tasks) t.layers_retired = 1;
    full.active_slots = 4;
    EXPECT_DOUBLE_EQ(ctl.on_epoch(full).ahead_ratio, 0.2);

    // Quiet epoch with idle slots: grow.
    auto lull = snapshot(4);
    lull.tasks[0].layers_retired = 1;
    lull.active_slots = 1;
    const double grown = ctl.on_epoch(lull).ahead_ratio;
    EXPECT_GT(grown, 0.2);
    EXPECT_LE(grown, adapt::feedback_controller::ahead_max);
}

TEST(controller, ahead_backs_off_to_baseline_on_timeouts_never_below) {
    adapt::feedback_controller ctl(4, 400, 0.2);

    auto lull = snapshot(4);
    lull.tasks[0].layers_retired = 1;
    lull.active_slots = 1;
    for (int i = 0; i < 10; ++i) ctl.on_epoch(lull);
    EXPECT_DOUBLE_EQ(ctl.action().ahead_ratio,
                     adapt::feedback_controller::ahead_max);

    auto contended = snapshot(4);
    for (auto& t : contended.tasks) {
        t.layers_retired = 1;
        t.page_timeouts = 2;
    }
    contended.active_slots = 4;
    for (int i = 0; i < 10; ++i) ctl.on_epoch(contended);
    EXPECT_DOUBLE_EQ(ctl.action().ahead_ratio, 0.2);  // floored at baseline
}

TEST(controller, bandwidth_caps_need_observed_slack) {
    adapt::feedback_controller ctl(2, 400, 0.2);

    // Skewed traffic but no deadline observations: stays inert.
    auto snap = snapshot(2);
    snap.tasks[0].layers_retired = 1;
    snap.tasks[0].dma_bytes = 10'000'000;
    snap.tasks[1].layers_retired = 1;
    snap.tasks[1].dma_bytes = 100'000;
    snap.active_slots = 2;
    const auto& a = ctl.on_epoch(snap);
    EXPECT_DOUBLE_EQ(a.bw_share[0], 0.0);
    EXPECT_DOUBLE_EQ(a.bw_share[1], 0.0);

    // The light slot is now late on its deadline: the hog gets capped.
    snap.tasks[1].completions = 1;
    snap.tasks[1].deadline_completions = 1;
    snap.tasks[1].deadline_misses = 1;
    snap.tasks[1].slack_cycles = -1000;
    const auto& b = ctl.on_epoch(snap);
    EXPECT_GT(b.bw_share[0], 0.0);
    EXPECT_DOUBLE_EQ(b.bw_share[1], 0.0);  // the victim stays unregulated
}

TEST(controller, decision_path_is_deterministic) {
    adapt::feedback_controller a(4, 400, 0.2);
    adapt::feedback_controller b(4, 400, 0.2);
    for (int i = 0; i < 5; ++i) {
        auto snap = snapshot(4);
        snap.tasks[i % 4].layers_retired = 1;
        snap.tasks[i % 4].page_wait_cycles = 100 * i;
        snap.active_slots = 1;
        const auto& x = a.on_epoch(snap);
        const auto& y = b.on_epoch(snap);
        EXPECT_DOUBLE_EQ(x.ahead_ratio, y.ahead_ratio);
        EXPECT_EQ(x.page_share, y.page_share);
        EXPECT_EQ(x.bw_share, y.bw_share);
    }
}

// ---- fleet feedback --------------------------------------------------

adapt::soc_rollup rollup(double wait, double sla, std::uint64_t dropped = 0) {
    adapt::soc_rollup r;
    r.completed = 10;
    r.dropped = dropped;
    r.page_wait_frac = wait;
    r.sla_rate = sla;
    return r;
}

TEST(fleet_feedback, pressure_shifts_weights_away_from_hot_socs) {
    adapt::fleet_feedback fb(2);
    fb.observe({rollup(0.05, 1.0), rollup(0.0, 1.0)});
    EXPECT_GT(fb.weights()[0], fb.weights()[1]);
    EXPECT_GT(fb.weights()[0], 1.0);
    EXPECT_LT(fb.weights()[1], 1.0);
}

TEST(fleet_feedback, weights_stay_clamped) {
    // Pressures of 21.9 and 0 sit 10.95 either side of the fleet mean, so
    // one round would scale the hot SoC's weight by 11.95 and drive the
    // idle one's below zero: both clamp.
    adapt::fleet_feedback fb(2);
    for (int i = 0; i < 20; ++i)
        fb.observe({rollup(2.0, 0.0, 90), rollup(0.0, 1.0)});
    EXPECT_DOUBLE_EQ(fb.weights()[0], adapt::fleet_feedback::weight_max);
    EXPECT_DOUBLE_EQ(fb.weights()[1], adapt::fleet_feedback::weight_min);
}

TEST(fleet_feedback, replacement_fires_after_patience_and_resets) {
    // sla_target 0.9, replace_patience 2.
    adapt::fleet_feedback fb(2);

    fb.observe({rollup(0.0, 0.5), rollup(0.0, 1.0)});
    EXPECT_FALSE(fb.replacement_due());
    fb.observe({rollup(0.0, 0.5), rollup(0.0, 1.0)});
    EXPECT_TRUE(fb.replacement_due());
    // Consuming the signal reset the streaks.
    EXPECT_FALSE(fb.replacement_due());

    // A healthy round in between breaks the streak.
    fb.observe({rollup(0.0, 0.5), rollup(0.0, 1.0)});
    fb.observe({rollup(0.0, 1.0), rollup(0.0, 1.0)});
    fb.observe({rollup(0.0, 0.5), rollup(0.0, 1.0)});
    EXPECT_FALSE(fb.replacement_due());
}

TEST(fleet_feedback, rollup_from_counts_sla_against_table1_targets) {
    sim::experiment_result res;
    sim::inference_record fast;
    fast.abbr = "MB.";
    fast.arrival = 0;
    fast.start = 0;
    fast.end = ms_to_cycles(0.1);  // well within any target
    res.completions.push_back(fast);
    sim::inference_record slow = fast;
    slow.end = ms_to_cycles(10'000.0);  // misses every target
    res.completions.push_back(slow);
    res.rejected_arrivals = 2;  // drops count as misses

    const auto r = adapt::rollup_from(res, 1.0);
    EXPECT_EQ(r.completed, 2u);
    EXPECT_EQ(r.dropped, 2u);
    EXPECT_EQ(r.deadline_met, 1u);
    EXPECT_DOUBLE_EQ(r.sla_rate, 0.25);
}

// ---- bursty / churn workload generators ------------------------------

sim::experiment_config mmpp_cfg() {
    sim::experiment_config cfg;
    cfg.pol = sim::policy::camdn_full;
    cfg.kind = runtime::workload_kind::open_loop_mmpp;
    cfg.workload = {&model::model_by_abbr("MB.")};
    cfg.co_located = 2;
    cfg.arrival_rate_per_ms = 4.0;
    cfg.mmpp_rate_scale = {0.25, 4.0};
    cfg.mmpp_sojourn_ms = 2.0;
    cfg.total_arrivals = 12;
    cfg.seed = 5;
    return cfg;
}

TEST(workload_adapt, mmpp_is_deterministic_and_serves_all_when_unbounded) {
    auto cfg = mmpp_cfg();
    cfg.admission_queue_limit = runtime::unbounded_queue;
    const auto a = sim::run_experiment(cfg);
    const auto b = sim::run_experiment(cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.completions.size(), 12u);
    EXPECT_EQ(a.rejected_arrivals, 0u);
}

TEST(workload_adapt, mmpp_burstiness_exceeds_plain_poisson) {
    // Same mean rate, same arrival count: the modulated stream must show a
    // higher maximum short-window arrival density than the flat one.
    auto bursty = mmpp_cfg();
    bursty.total_arrivals = 64;
    bursty.admission_queue_limit = runtime::unbounded_queue;
    auto flat = bursty;
    flat.kind = runtime::workload_kind::open_loop_poisson;

    auto density = [](const sim::experiment_result& res) {
        // Max arrivals within any 1 ms window of the completion records.
        std::vector<cycle_t> at;
        for (const auto& rec : res.completions) at.push_back(rec.arrival);
        std::sort(at.begin(), at.end());
        std::size_t best = 0;
        for (std::size_t i = 0; i < at.size(); ++i) {
            std::size_t j = i;
            while (j < at.size() && at[j] - at[i] <= ms_to_cycles(1.0)) ++j;
            best = std::max(best, j - i);
        }
        return best;
    };
    const auto bres = sim::run_experiment(bursty);
    const auto fres = sim::run_experiment(flat);
    EXPECT_GT(density(bres), density(fres));
}

TEST(workload_adapt, tenant_churn_rotates_the_active_set) {
    sim::experiment_config cfg;
    cfg.pol = sim::policy::camdn_full;
    cfg.kind = runtime::workload_kind::tenant_churn;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF."),
                    &model::model_by_abbr("RS."), &model::model_by_abbr("VT.")};
    cfg.co_located = 2;
    cfg.arrival_rate_per_ms = 2.0;
    cfg.churn_interval_ms = 4.0;
    cfg.churn_active_models = 2;
    cfg.total_arrivals = 24;
    cfg.admission_queue_limit = runtime::unbounded_queue;
    cfg.seed = 11;

    const auto res = sim::run_experiment(cfg);
    EXPECT_EQ(res.completions.size(), 24u);
    // Early phase serves only the first window; over the whole run more
    // than churn_active_models distinct tenants appear.
    std::set<std::string> all;
    for (const auto& rec : res.completions) all.insert(rec.abbr);
    EXPECT_GT(all.size(), 2u);

    const auto again = sim::run_experiment(cfg);
    EXPECT_EQ(res.makespan, again.makespan);
}

// ---- cluster feedback rounds -----------------------------------------

serve::cluster_config feedback_cluster() {
    serve::soc_instance_config inst;
    inst.pol = sim::policy::camdn_adaptive;
    inst.slots = 2;
    inst.admission_queue_limit = 8;
    auto cfg = serve::uniform_cluster(3, inst);
    cfg.models = {&model::model_by_abbr("MB."), &model::model_by_abbr("RS.")};
    cfg.process = serve::arrival_process::mmpp;
    cfg.arrival_rate_per_ms = 4.0;
    cfg.total_arrivals = 36;
    cfg.feedback_rounds = 3;
    cfg.threads = 2;
    return cfg;
}

TEST(cluster_feedback, rounds_are_deterministic_across_pool_widths) {
    auto cfg = feedback_cluster();
    const auto a = serve::run_cluster(cfg);
    cfg.threads = 1;
    const auto b = serve::run_cluster(cfg);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.dropped_queue, b.dropped_queue);
    EXPECT_EQ(a.replacements, b.replacements);
    ASSERT_EQ(a.route_weights.size(), b.route_weights.size());
    for (std::size_t s = 0; s < a.route_weights.size(); ++s)
        EXPECT_DOUBLE_EQ(a.route_weights[s], b.route_weights[s]);
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p99(), b.fleet_latency_ms.p99());
}

TEST(cluster_feedback, round_major_per_soc_results_and_weights_exported) {
    const auto cfg = feedback_cluster();
    const auto res = serve::run_cluster(cfg);
    EXPECT_EQ(res.per_soc.size(), cfg.socs.size() * cfg.feedback_rounds);
    EXPECT_EQ(res.route_weights.size(), cfg.socs.size());
    EXPECT_EQ(res.arrivals, cfg.total_arrivals);
    // Telemetry recording is implied by feedback rounds.
    bool any_epochs = false;
    for (const auto& r : res.per_soc) any_epochs |= !r.telemetry.empty();
    EXPECT_TRUE(any_epochs);
}

TEST(cluster_feedback, single_round_stays_single_shot) {
    auto cfg = feedback_cluster();
    cfg.feedback_rounds = 1;
    const auto res = serve::run_cluster(cfg);
    EXPECT_EQ(res.per_soc.size(), cfg.socs.size());
    EXPECT_TRUE(res.route_weights.empty());
    EXPECT_EQ(res.replacements, 0u);
}

// ---- warm-carry feedback rounds (scheduler snapshots) ----------------

serve::cluster_config warmth_cluster() {
    serve::soc_instance_config inst;
    // MoCA keeps all traffic on the transparent path, so carried cache
    // warmth is directly visible in the telemetry hit counters.
    inst.pol = sim::policy::moca;
    inst.slots = 2;
    inst.admission_queue_limit = 32;
    auto cfg = serve::uniform_cluster(2, inst);
    cfg.models = {&model::model_by_abbr("MB.")};
    cfg.arrival_rate_per_ms = 2.0;
    cfg.total_arrivals = 24;
    cfg.feedback_rounds = 2;
    cfg.threads = 2;
    return cfg;
}

/// Transparent hit rate of the first telemetry epoch of `round`, summed
/// over the fleet (per_soc is round-major).
double first_epoch_hit_rate(const serve::cluster_result& res,
                            std::size_t round, std::size_t socs) {
    std::uint64_t hits = 0, misses = 0;
    for (std::size_t s = 0; s < socs; ++s) {
        const auto& r = res.per_soc[round * socs + s];
        if (r.telemetry.empty()) continue;
        for (const auto& c : r.telemetry.front().tasks) {
            hits += c.cache_hits;
            misses += c.cache_misses;
        }
    }
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

TEST(cluster_feedback, warm_carry_preserves_cache_warmth_across_rounds) {
    const auto cfg = warmth_cluster();
    const auto res = serve::run_cluster(cfg);
    const std::size_t S = cfg.socs.size();
    ASSERT_EQ(res.per_soc.size(), 2 * S);

    // Round 1 starts every SoC on a cold cache; round 2 resumes on the
    // cache state round 1 left, so its first epoch's hit rate must beat
    // round 1's. (checkpoint.warm_resume_carries_clock_and_cache_warmth
    // compares warm against cold on one trace.)
    EXPECT_GT(first_epoch_hit_rate(res, 1, S), first_epoch_hit_rate(res, 0, S));

    // The carried clock keeps per-SoC makespans monotone across rounds.
    for (std::size_t s = 0; s < S; ++s) {
        if (!res.per_soc[S + s].completions.empty()) {
            EXPECT_GE(res.per_soc[S + s].makespan, res.per_soc[s].makespan);
        }
    }
}

TEST(cluster_feedback, warm_carry_deterministic_across_pool_widths) {
    auto cfg = warmth_cluster();
    const auto a = serve::run_cluster(cfg);
    cfg.threads = 1;
    const auto b = serve::run_cluster(cfg);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.dropped_queue, b.dropped_queue);
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p99(), b.fleet_latency_ms.p99());
    ASSERT_EQ(a.per_soc.size(), b.per_soc.size());
    for (std::size_t i = 0; i < a.per_soc.size(); ++i) {
        EXPECT_EQ(a.per_soc[i].makespan, b.per_soc[i].makespan);
        EXPECT_EQ(a.per_soc[i].completions.size(),
                  b.per_soc[i].completions.size());
        EXPECT_EQ(a.per_soc[i].telemetry.size(), b.per_soc[i].telemetry.size());
    }
}

}  // namespace
}  // namespace camdn
