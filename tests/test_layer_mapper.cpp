// Tests for the heuristic-solver-hybrid layer mapper and whole-model
// mapping: candidate ladders, dominance, budget feasibility, determinism.
#include <gtest/gtest.h>

#include "mapping/layer_mapper.h"
#include "model/model_zoo.h"
#include "sim/soc_config.h"

namespace camdn::mapping {
namespace {

mapper_config default_cfg() { return mapper_config{}; }

const model_mapping& mapping_of(const std::string& abbr) {
    static std::map<std::string, model_mapping> cache;
    auto it = cache.find(abbr);
    if (it == cache.end()) {
        it = cache
                 .emplace(abbr, map_model(model::model_by_abbr(abbr),
                                          default_cfg()))
                 .first;
    }
    return it->second;
}

TEST(layer_mapper, minimal_candidate_needs_no_pages) {
    const auto& mm = mapping_of("RS.");
    for (const auto& table : mm.tables) {
        ASSERT_FALSE(table.lwm.empty());
        EXPECT_EQ(table.lwm.front().pages_needed, 0u);
        EXPECT_EQ(&table.minimal(), &table.lwm.front());
    }
}

TEST(layer_mapper, dominance_more_pages_strictly_less_dram) {
    for (const char* abbr : {"RS.", "VT.", "PP."}) {
        const auto& mm = mapping_of(abbr);
        for (const auto& table : mm.tables) {
            for (std::size_t i = 1; i < table.lwm.size(); ++i) {
                EXPECT_GT(table.lwm[i].pages_needed,
                          table.lwm[i - 1].pages_needed);
                EXPECT_LT(table.lwm[i].dram_bytes(),
                          table.lwm[i - 1].dram_bytes());
            }
        }
    }
}

TEST(layer_mapper, candidates_respect_their_usage_level) {
    const auto& mm = mapping_of("VT.");
    const mapper_config cfg = default_cfg();
    for (const auto& table : mm.tables) {
        for (const auto& c : table.lwm) {
            if (c.pages_needed == 0) continue;
            EXPECT_LE(c.pages_needed * cfg.page_bytes, c.usage_level);
        }
    }
}

TEST(layer_mapper, tiles_fit_the_scratchpad_budget) {
    const mapper_config cfg = default_cfg();
    for (const char* abbr : {"RS.", "MB.", "BE.", "PP."}) {
        const auto& mm = mapping_of(abbr);
        const auto& m = model::model_by_abbr(abbr);
        for (std::size_t i = 0; i < m.layers.size(); ++i) {
            const auto& l = m.layers[i];
            if (l.kind != model::layer_kind::conv &&
                l.kind != model::layer_kind::gemm)
                continue;
            for (const auto& c : mm.tables[i].lwm) {
                EXPECT_LE(tile_footprint_bytes(c.tm, c.tn, c.tk),
                          cfg.tile_budget())
                    << abbr << " layer " << i;
            }
        }
    }
}

TEST(layer_mapper, lbm_exists_exactly_for_multi_layer_blocks) {
    const auto& mm = mapping_of("MB.");
    for (std::size_t i = 0; i < mm.tables.size(); ++i) {
        const auto& block = mm.blocks[mm.block_of[i]];
        EXPECT_EQ(mm.tables[i].lbm.has_value(), block.size() >= 2)
            << "layer " << i;
    }
}

TEST(layer_mapper, lbm_candidates_carry_block_pages_and_flags) {
    const auto& mm = mapping_of("MB.");
    const mapper_config cfg = default_cfg();
    for (std::size_t i = 0; i < mm.tables.size(); ++i) {
        if (!mm.tables[i].lbm) continue;
        const auto& block = mm.blocks[mm.block_of[i]];
        const auto& c = *mm.tables[i].lbm;
        EXPECT_TRUE(c.is_lbm);
        EXPECT_EQ(c.pages_needed, ceil_div(block.peak_bytes, cfg.page_bytes));
        EXPECT_EQ(c.input_from_region, i != block.first);
        EXPECT_EQ(c.output_to_region, i != block.last);
    }
}

TEST(layer_mapper, lbm_reduces_dram_versus_minimal_inside_block) {
    const auto& mm = mapping_of("EF.");
    std::uint64_t lbm_wins = 0, comparisons = 0;
    for (const auto& table : mm.tables) {
        if (!table.lbm) continue;
        ++comparisons;
        lbm_wins += table.lbm->dram_bytes() < table.minimal().dram_bytes();
    }
    ASSERT_GT(comparisons, 0u);
    EXPECT_GT(static_cast<double>(lbm_wins) / comparisons, 0.8);
}

TEST(layer_mapper, deterministic) {
    const auto a = map_model(model::model_by_abbr("GN."), default_cfg());
    const auto b = map_model(model::model_by_abbr("GN."), default_cfg());
    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (std::size_t i = 0; i < a.tables.size(); ++i) {
        ASSERT_EQ(a.tables[i].lwm.size(), b.tables[i].lwm.size());
        for (std::size_t c = 0; c < a.tables[i].lwm.size(); ++c) {
            EXPECT_EQ(a.tables[i].lwm[c].dram_bytes(),
                      b.tables[i].lwm[c].dram_bytes());
            EXPECT_EQ(a.tables[i].lwm[c].tm, b.tables[i].lwm[c].tm);
        }
    }
}

TEST(layer_mapper, block_metadata_is_consistent) {
    for (const char* abbr : {"RS.", "WV."}) {
        const auto& mm = mapping_of(abbr);
        for (std::uint32_t i = 0; i < mm.tables.size(); ++i) {
            const auto& block = mm.block_of_layer(i);
            EXPECT_GE(i, block.first);
            EXPECT_LE(i, block.last);
            EXPECT_EQ(mm.is_block_head(i), i == block.first);
            EXPECT_EQ(mm.is_block_tail(i), i == block.last);
        }
        EXPECT_EQ(mm.layer_est.size(), mm.tables.size());
        EXPECT_EQ(mm.block_est.size(), mm.blocks.size());
        for (auto est : mm.block_est) EXPECT_GT(est, 0u);
    }
}

TEST(layer_mapper, more_cache_never_more_traffic_ladder_property) {
    // The candidate ladder is the paper's adaptability mechanism: DRAM
    // bytes are non-increasing in the usage level actually granted.
    for (const auto& m : model::benchmark_models()) {
        const auto mm = map_model(m, default_cfg());
        for (const auto& table : mm.tables) {
            for (std::size_t i = 1; i < table.lwm.size(); ++i)
                EXPECT_LE(table.lwm[i].dram_bytes(),
                          table.lwm[i - 1].dram_bytes());
        }
    }
}

// Every MCT a run builds keeps its LWM page counts strictly ascending
// (the dominance filter keeps one candidate per count), so "the largest
// candidate within N pages" has one answer whatever a loop's tie rule:
// the zoo under the mapper configs of three cache and five page sizes.
TEST(layer_mapper, lwm_pages_strictly_ascend_over_the_zoo) {
    for (const std::uint64_t cache : {mib(4), mib(16), mib(64)}) {
        for (const std::uint64_t page :
             {kib(8), kib(16), kib(32), kib(64), kib(128)}) {
            sim::soc_config soc;
            soc.cache.total_bytes = cache;
            soc.cache.page_bytes = page;
            const mapper_config cfg = soc.mapper();
            for (const auto& m : model::benchmark_models()) {
                const auto mm = map_model(m, cfg);
                for (std::size_t l = 0; l < mm.tables.size(); ++l) {
                    const auto& lwm = mm.tables[l].lwm;
                    ASSERT_EQ(lwm.front().pages_needed, 0u);
                    for (std::size_t i = 1; i < lwm.size(); ++i)
                        ASSERT_GT(lwm[i].pages_needed, lwm[i - 1].pages_needed)
                            << m.abbr << " layer " << l << ", "
                            << cache / mib(1) << " MiB cache, "
                            << page / kib(1) << " KiB pages";
                }
            }
        }
    }
}

TEST(layer_mapper, largest_lwm_within_picks_the_most_pages_that_fit) {
    for (const auto& table : mapping_of("RS.").tables) {
        EXPECT_EQ(&table.largest_lwm_within(0), &table.minimal());
        EXPECT_EQ(&table.largest_lwm_within(~std::uint64_t{0}),
                  &table.lwm.back());
        for (const auto& cand : table.lwm) {
            EXPECT_EQ(&table.largest_lwm_within(cand.pages_needed), &cand);
            // One page short falls back to the next smaller candidate.
            if (cand.pages_needed > 0) {
                EXPECT_EQ(&table.largest_lwm_within(cand.pages_needed - 1),
                          &cand - 1);
            }
        }
    }
}

// Parameterized: mapping respects scratchpad scaling.
class mapper_scratchpad : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(mapper_scratchpad, minimal_dram_non_increasing_in_scratchpad) {
    mapper_config small_cfg = default_cfg();
    small_cfg.npu.scratchpad_bytes = GetParam();
    mapper_config big_cfg = default_cfg();
    big_cfg.npu.scratchpad_bytes = GetParam() * 2;

    const auto& m = model::model_by_abbr("RS.");
    const auto small = map_model(m, small_cfg);
    const auto big = map_model(m, big_cfg);
    std::uint64_t small_total = 0, big_total = 0;
    for (std::size_t i = 0; i < m.layers.size(); ++i) {
        small_total += small.tables[i].minimal().dram_bytes();
        big_total += big.tables[i].minimal().dram_bytes();
    }
    EXPECT_LE(big_total, small_total);
}

INSTANTIATE_TEST_SUITE_P(scratchpads, mapper_scratchpad,
                         ::testing::Values(kib(64), kib(128), kib(256)));

}  // namespace
}  // namespace camdn::mapping
