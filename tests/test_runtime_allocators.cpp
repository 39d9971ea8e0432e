// Tests for the baseline resource allocators: MoCA-style bandwidth
// partitioning and AuRORA-style core groups sized by deadline slack.
#include <gtest/gtest.h>

#include <utility>

#include "dram/dram_system.h"
#include "mapping/layer_mapper.h"
#include "model/model.h"
#include "model/model_zoo.h"
#include "runtime/bandwidth_allocator.h"
#include "sim/experiment.h"

namespace camdn::runtime {
namespace {

struct rig {
    model::model mdl;
    mapping::model_mapping mapping;
    dram::dram_system dram{dram::dram_config{}};

    rig() {
        model::model_builder b("synthetic", "SY.", model::model_domain::vision,
                               "Conv", 5.0, 1, 1, 1);
        b.gemm("g0", 1024, 1024, 1024);
        b.gemm("g1", 1024, 1024, 1024);
        mdl = std::move(b).build();
        mapping = mapping::map_model(mdl, mapping::mapper_config{});
    }

    task make_task(task_id id, cycle_t deadline = never) {
        task t;
        t.id = id;
        t.mdl = &mdl;
        t.mapping = &mapping;
        t.cores = {static_cast<npu_id>(id)};
        t.deadline = deadline;
        return t;
    }
};

TEST(bandwidth_allocator, equal_demand_equal_share) {
    rig r;
    bandwidth_allocator bw(r.dram, /*headroom=*/1.0);
    task a = r.make_task(0);
    task b = r.make_task(1);
    std::vector<task*> running{&a, &b};
    bw.reallocate(running, 0);

    // Equal demand halves the budget: a stream of one task saturates at
    // about half the peak.
    const std::uint64_t lines = 40'000;
    const cycle_t done = r.dram.access_burst(0, lines, false, 0, 0);
    const double achieved =
        static_cast<double>(lines * line_bytes) / static_cast<double>(done);
    EXPECT_LT(achieved, 0.6 * 102.4);
    EXPECT_GT(achieved, 0.35 * 102.4);
}

TEST(bandwidth_allocator, urgent_task_gets_more) {
    // Each task streams alone on its own rig, under the shares the same
    // allocation gives it.
    auto stream = [](task_id who) {
        rig r;
        bandwidth_allocator bw(r.dram, 1.0);
        task urgent = r.make_task(0, /*deadline=*/1'000);  // nearly due
        task relaxed = r.make_task(1, /*deadline=*/1'000'000'000);
        std::vector<task*> running{&urgent, &relaxed};
        bw.reallocate(running, 0);
        return r.dram.access_burst(who == 0 ? 0 : mib(512), 20'000, false, 0,
                                   who);
    };
    EXPECT_LT(stream(0), stream(1));
}

TEST(bandwidth_allocator, skips_idle_slots) {
    rig r;
    bandwidth_allocator bw(r.dram, 1.0);
    task a = r.make_task(0);
    task idle = r.make_task(1);
    idle.cores.clear();  // not running
    std::vector<task*> running{&a, &idle, nullptr};
    bw.reallocate(running, 0);  // must not crash and not throttle task 1
    r.dram.access_burst(0, 1'000, false, 0, 1);
    EXPECT_EQ(r.dram.stats().throttled, 0u);
}

// AuRORA's core-group sizing (the scheduler's dispatch, also used by CaMDN
// in QoS mode): a group covers the estimated work in the deadline window,
// from 1 up to 4 cores. Tightening the deadline widens every group.
TEST(core_groups, deadline_slack_sizes_every_group) {
    for (const auto pol : {sim::policy::aurora, sim::policy::camdn_full}) {
        for (const auto& [scale, cores] :
             {std::pair{1.0, 1u}, std::pair{0.5, 2u}, std::pair{0.2, 4u}}) {
            sim::experiment_config cfg;
            cfg.pol = pol;
            cfg.qos_mode = true;
            cfg.qos_scale = scale;
            cfg.workload = {&model::model_by_abbr("MB."),
                            &model::model_by_abbr("RS.")};
            cfg.co_located = 4;
            cfg.inferences_per_slot = 1;
            cfg.seed = 7;
            const auto res = sim::run_experiment(cfg);
            ASSERT_EQ(res.completions.size(), 4u);
            for (const auto& rec : res.completions)
                EXPECT_EQ(rec.cores, cores)
                    << sim::policy_name(pol) << " qos_scale " << scale << " "
                    << rec.abbr;
        }
    }
}
}  // namespace
}  // namespace camdn::runtime
