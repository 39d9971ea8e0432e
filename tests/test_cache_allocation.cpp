// Line-by-line tests of Algorithm 1 (dynamic cache allocation): the
// predAvailPages arithmetic, the LBM gates, largest-fit LWM selection and
// the timeout downgrade path.
#include <gtest/gtest.h>

#include "cache/page_allocator.h"
#include "mapping/layer_mapper.h"
#include "model/model.h"
#include "runtime/cache_allocation.h"

namespace camdn::runtime {
namespace {

/// A synthetic 4-layer model whose layers have pinnable tensors and whose
/// first three layers form one LBM block.
struct scenario {
    model::model mdl;
    mapping::model_mapping mapping;
    cache::cache_config cache_cfg{};
    cache::page_allocator pool{cache::cache_config{}};

    scenario() {
        model::model_builder b("synthetic", "SY.", model::model_domain::vision,
                               "Conv", 10.0, 1, 1, 1);
        b.gemm("g0", 512, 1024, 1024);
        b.gemm("g1", 512, 1024, 1024);
        b.gemm("g2", 512, 1024, 1024);
        b.gemm("g3", 512, 20000, 1024);
        mdl = std::move(b).build();

        mapping::mapper_config cfg;
        mapping = mapping::map_model(mdl, cfg);
    }

    task make_task(task_id id, std::uint32_t layer = 0) {
        task t;
        t.id = id;
        t.mdl = &mdl;
        t.mapping = &mapping;
        t.current_layer = layer;
        return t;
    }
};

TEST(pred_avail_pages, counts_idle_plus_expected_releases) {
    scenario s;
    cache_allocation_algorithm alg;
    task current = s.make_task(0);

    task other = s.make_task(1);
    ASSERT_TRUE(s.pool.try_allocate(1, 50));  // Palloc
    other.p_next = 10;
    other.t_next = 100;  // will reallocate before the horizon

    // Enough co-runners that the fairness floor (total/n) sits below the
    // arithmetic under test.
    std::vector<task> fillers;
    for (int i = 2; i < 10; ++i) {
        fillers.push_back(s.make_task(i));
        fillers.back().t_next = never;  // contribute nothing
    }
    std::vector<const task*> running{&current, &other};
    for (auto& f : fillers) running.push_back(&f);

    // Drain the pool so idle is a known quantity.
    ASSERT_TRUE(s.pool.try_allocate(9, s.pool.idle_pages() - 20));

    const auto ahead =
        alg.predict_available_pages(running, current, s.pool, /*t_ahead=*/200);
    EXPECT_EQ(ahead, 20 + (50 - 10));
}

TEST(pred_avail_pages, ignores_tasks_reallocating_after_horizon) {
    scenario s;
    cache_allocation_algorithm alg;
    task current = s.make_task(0);
    task other = s.make_task(1);
    ASSERT_TRUE(s.pool.try_allocate(1, 50));  // Palloc
    other.p_next = 10;
    other.t_next = 500;  // beyond the horizon

    ASSERT_TRUE(s.pool.try_allocate(9, s.pool.idle_pages() - 20));
    std::vector<const task*> running{&current, &other};
    const auto ahead =
        alg.predict_available_pages(running, current, s.pool, 200);
    // Fairness floor: total/2 tasks = 192 exceeds the raw 20 idle pages.
    EXPECT_EQ(ahead, static_cast<std::int64_t>(s.pool.total_pages() / 2));
}

TEST(pred_avail_pages, excludes_the_current_task) {
    scenario s;
    cache_allocation_algorithm alg;
    task current = s.make_task(0);
    ASSERT_TRUE(s.pool.try_allocate(0, 100));  // Palloc
    current.p_next = 0;
    current.t_next = 0;  // would count if not excluded
    std::vector<const task*> running{&current};
    const auto ahead =
        alg.predict_available_pages(running, current, s.pool, 1000);
    EXPECT_EQ(ahead, static_cast<std::int64_t>(s.pool.total_pages()));

    // Alone, the fairness floor is the whole pool either way; beside
    // co-runners that release nothing, only the idle pages count.
    std::vector<task> idle_peers;
    for (int i = 1; i < 8; ++i) {
        idle_peers.push_back(s.make_task(i));
        idle_peers.back().t_next = never;
    }
    for (const auto& p : idle_peers) running.push_back(&p);
    EXPECT_EQ(alg.predict_available_pages(running, current, s.pool, 1000),
              static_cast<std::int64_t>(s.pool.total_pages() - 100));
}

TEST(pred_avail_pages, negative_deltas_reduce_the_estimate) {
    scenario s;
    cache_allocation_algorithm alg;
    task current = s.make_task(0);
    task growing = s.make_task(1);  // holds no pages
    growing.p_next = 150;  // will take pages at its next reallocation
    growing.t_next = 0;
    ASSERT_TRUE(s.pool.try_allocate(9, s.pool.total_pages() - 200));
    std::vector<const task*> running{&current, &growing};
    const auto ahead =
        alg.predict_available_pages(running, current, s.pool, 1000);
    EXPECT_EQ(ahead, std::max<std::int64_t>(
                         200 - 150,
                         static_cast<std::int64_t>(s.pool.total_pages() / 2)));
}

TEST(algorithm1, lbm_already_enabled_returns_infinite_timeout) {
    scenario s;
    cache_allocation_algorithm alg;
    task t = s.make_task(0, /*layer=*/1);
    ASSERT_TRUE(s.mapping.tables[1].lbm.has_value());
    t.lbm_enabled = true;
    t.lbm_block = s.mapping.block_of[1];

    const auto d = alg.select(t, {&t}, s.pool, 1000);
    ASSERT_NE(d.candidate, nullptr);
    EXPECT_TRUE(d.candidate->is_lbm);
    EXPECT_EQ(d.timeout, never);
}

TEST(algorithm1, block_head_enables_lbm_when_pages_will_be_available) {
    scenario s;
    cache_allocation_algorithm alg;
    task t = s.make_task(0, /*layer=*/0);
    ASSERT_TRUE(s.mapping.is_block_head(0));
    // Pool is fully idle: prediction comfortably covers the block.
    const auto d = alg.select(t, {&t}, s.pool, 0);
    ASSERT_NE(d.candidate, nullptr);
    EXPECT_TRUE(d.candidate->is_lbm);
    EXPECT_NE(d.timeout, never);
    EXPECT_GT(d.timeout, 0u);
}

TEST(algorithm1, lbm_denied_when_prediction_is_too_small) {
    scenario s;
    cache_allocation_algorithm alg;
    task t = s.make_task(0, 0);
    // Soak the pool with co-runners that won't release anything soon and
    // keep many tasks running so the fairness floor is small.
    ASSERT_TRUE(s.pool.try_allocate(9, s.pool.total_pages()));
    std::vector<task> others;
    for (int i = 1; i <= 16; ++i) {
        others.push_back(s.make_task(i));
        others.back().t_next = never;  // no release within any horizon
    }
    std::vector<const task*> running{&t};
    for (auto& o : others) running.push_back(&o);

    const auto d = alg.select(t, running, s.pool, 0);
    ASSERT_NE(d.candidate, nullptr);
    const auto block_pages = s.mapping.tables[0].lbm->pages_needed;
    if (block_pages > s.pool.total_pages() / running.size()) {
        EXPECT_FALSE(d.candidate->is_lbm);
    }
}

TEST(algorithm1, lwm_selection_takes_largest_fitting_candidate) {
    scenario s;
    cache_allocation_algorithm alg;
    task t = s.make_task(0, /*layer=*/3);  // singleton block, no LBM
    ASSERT_FALSE(s.mapping.tables[3].lbm.has_value());

    const auto d = alg.select(t, {&t}, s.pool, 0);
    ASSERT_NE(d.candidate, nullptr);
    EXPECT_FALSE(d.candidate->is_lbm);
    // With the whole pool idle, the largest LWM candidate that fits the
    // pool must be chosen.
    const auto& lwm = s.mapping.tables[3].lwm;
    const mapping::mapping_candidate* expected = &lwm.front();
    for (const auto& c : lwm)
        if (c.pages_needed <= s.pool.total_pages() &&
            c.pages_needed > expected->pages_needed)
            expected = &c;
    EXPECT_EQ(d.candidate, expected);
    EXPECT_EQ(d.pages_needed, expected->pages_needed);
}

TEST(algorithm1, allow_lbm_false_never_returns_lbm) {
    scenario s;
    cache_allocation_algorithm alg;
    task t = s.make_task(0, 0);
    const auto d = alg.select(t, {&t}, s.pool, 0, /*allow_lbm=*/false);
    ASSERT_NE(d.candidate, nullptr);
    EXPECT_FALSE(d.candidate->is_lbm);
}

TEST(algorithm1, downgrade_steps_strictly_down_to_zero) {
    scenario s;
    cache_allocation_algorithm alg;
    task t = s.make_task(0, 3);
    const auto& lwm = s.mapping.tables[3].lwm;
    ASSERT_GE(lwm.size(), 2u);

    std::uint32_t cap = lwm.back().pages_needed;
    // Repeated timeouts walk the ladder down and terminate at zero pages.
    for (int guard = 0; guard < 64; ++guard) {
        const auto d = alg.downgrade(t, cap, 0);
        ASSERT_NE(d.candidate, nullptr);
        EXPECT_LT(d.candidate->pages_needed, std::max(cap, 1u));
        if (d.candidate->pages_needed == 0) return;  // reached the floor
        cap = d.candidate->pages_needed;
    }
    FAIL() << "downgrade did not converge";
}

TEST(algorithm1, timeout_scales_with_layer_estimate) {
    scenario s;
    cache_allocation_algorithm alg(0.2);
    task t = s.make_task(0, 3);
    const auto d = alg.select(t, {&t}, s.pool, /*now=*/1'000'000);
    const cycle_t expected =
        1'000'000 +
        static_cast<cycle_t>(0.2 * static_cast<double>(s.mapping.layer_est[3]));
    EXPECT_EQ(d.timeout, expected);
}

}  // namespace
}  // namespace camdn::runtime
