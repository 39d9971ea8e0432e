// Tests for the compact MCT serialization: lossless round-trips and
// diagnosable failures on malformed documents.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mapping/layer_mapper.h"
#include "mapping/mct_io.h"
#include "model/model_zoo.h"

namespace camdn::mapping {
namespace {

void expect_candidates_equal(const mapping_candidate& a,
                             const mapping_candidate& b) {
    EXPECT_EQ(a.usage_level, b.usage_level);
    EXPECT_EQ(a.is_lbm, b.is_lbm);
    EXPECT_EQ(a.tm, b.tm);
    EXPECT_EQ(a.tn, b.tn);
    EXPECT_EQ(a.tk, b.tk);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.weights_pinned_bytes, b.weights_pinned_bytes);
    EXPECT_EQ(a.input_pinned_bytes, b.input_pinned_bytes);
    EXPECT_EQ(a.input_from_region, b.input_from_region);
    EXPECT_EQ(a.output_to_region, b.output_to_region);
    EXPECT_EQ(a.weight_passes, b.weight_passes);
    EXPECT_EQ(a.input_passes, b.input_passes);
    EXPECT_EQ(a.pages_needed, b.pages_needed);
    EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
    EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
    EXPECT_EQ(a.cache_read_bytes, b.cache_read_bytes);
    EXPECT_EQ(a.cache_write_bytes, b.cache_write_bytes);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.est_cycles, b.est_cycles);
}

class mct_roundtrip : public ::testing::TestWithParam<std::string> {};

TEST_P(mct_roundtrip, is_lossless) {
    const auto& m = model::model_by_abbr(GetParam());
    const auto original = map_model(m, mapper_config{});
    const auto restored = mapping_from_string(mapping_to_string(original));

    EXPECT_EQ(restored.model_name, original.model_name);
    ASSERT_EQ(restored.blocks.size(), original.blocks.size());
    for (std::size_t b = 0; b < original.blocks.size(); ++b) {
        EXPECT_EQ(restored.blocks[b].first, original.blocks[b].first);
        EXPECT_EQ(restored.blocks[b].last, original.blocks[b].last);
        EXPECT_EQ(restored.blocks[b].peak_bytes, original.blocks[b].peak_bytes);
        EXPECT_EQ(restored.blocks[b].out_offset, original.blocks[b].out_offset);
    }
    ASSERT_EQ(restored.tables.size(), original.tables.size());
    for (std::size_t i = 0; i < original.tables.size(); ++i) {
        ASSERT_EQ(restored.tables[i].lwm.size(), original.tables[i].lwm.size());
        for (std::size_t c = 0; c < original.tables[i].lwm.size(); ++c)
            expect_candidates_equal(restored.tables[i].lwm[c],
                                    original.tables[i].lwm[c]);
        ASSERT_EQ(restored.tables[i].lbm.has_value(),
                  original.tables[i].lbm.has_value());
        if (original.tables[i].lbm)
            expect_candidates_equal(*restored.tables[i].lbm,
                                    *original.tables[i].lbm);
    }
    EXPECT_EQ(restored.layer_est, original.layer_est);
    EXPECT_EQ(restored.block_est, original.block_est);
    EXPECT_EQ(restored.block_of, original.block_of);
}

INSTANTIATE_TEST_SUITE_P(all_models, mct_roundtrip,
                         ::testing::Values("RS.", "MB.", "EF.", "VT.", "BE.",
                                           "GN.", "WV.", "PP."));

TEST(mct_io, double_roundtrip_is_stable) {
    const auto& m = model::model_by_abbr("MB.");
    const auto original = map_model(m, mapper_config{});
    const std::string once = mapping_to_string(original);
    const std::string twice = mapping_to_string(mapping_from_string(once));
    EXPECT_EQ(once, twice);
}

TEST(mct_io, rejects_bad_magic) {
    std::istringstream is("not-a-mapping\n");
    EXPECT_THROW(read_mapping(is), std::runtime_error);
}

TEST(mct_io, rejects_truncated_document) {
    const auto& m = model::model_by_abbr("GN.");
    std::string text = mapping_to_string(map_model(m, mapper_config{}));
    text.resize(text.size() / 2);
    EXPECT_THROW(mapping_from_string(text), std::runtime_error);
}

TEST(mct_io, rejects_malformed_candidate_line) {
    std::string text =
        "camdn-mapping-v1\n"
        "model broken\n"
        "blocks 1\n"
        "block 0 0 64 0\n"
        "layers 1\n"
        "layer 0 100 1 0\n"
        "LWM garbage\n";
    EXPECT_THROW(mapping_from_string(text), std::runtime_error);
}

/// Expects `text` to be rejected with a message naming `line`.
void expect_rejected_at(const std::string& text, int line) {
    try {
        mapping_from_string(text);
        ADD_FAILURE() << "loaded:\n" << text;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
                  std::string::npos)
            << e.what() << " (expected line " << line << ")";
    }
}

/// A one-layer, one-block document whose layer lists LWM candidates
/// needing `pages` pages, in that order (candidate lines start at line 7).
std::string one_layer(const std::vector<std::uint32_t>& pages) {
    std::ostringstream os;
    os << "camdn-mapping-v1\nmodel tiny\nblocks 1\nblock 0 0 64 0\n"
       << "layers 1\nlayer 0 100 " << pages.size() << " 0\n";
    for (const std::uint32_t p : pages)
        os << "LWM 0 1 1 1 0 0 0 0 0 1 1 " << p << " 0 0 0 0 1 1\n";
    os << "block_est 1 100\nend\n";
    return os.str();
}

TEST(mct_io, rejects_a_layer_without_lwm_candidates) {
    // minimal() and largest_lwm_within read the front of the list.
    EXPECT_NO_THROW(mapping_from_string(one_layer({0})));
    expect_rejected_at(one_layer({}), 6);
}

TEST(mct_io, rejects_lwm_page_counts_that_do_not_ascend_from_zero) {
    // Algorithm 1's "largest candidate within N pages" scans the list as
    // ascending, and the minimal candidate needs no page.
    const auto m = mapping_from_string(one_layer({0, 2, 5}));
    EXPECT_EQ(m.tables[0].largest_lwm_within(4).pages_needed, 2u);
    expect_rejected_at(one_layer({1}), 7);
    expect_rejected_at(one_layer({0, 0}), 8);
    expect_rejected_at(one_layer({0, 3, 2}), 9);
}

/// A two-layer document with one block line and one block_est line.
std::string two_layers(const std::string& block, const std::string& est) {
    const std::string lwm = "LWM 0 1 1 1 0 0 0 0 0 1 1 0 0 0 0 0 1 1\n";
    return "camdn-mapping-v1\nmodel tiny\nblocks 1\n" + block +
           "\nlayers 2\nlayer 0 100 1 0\n" + lwm + "layer 1 100 1 0\n" +
           lwm + est + "\nend\n";
}

TEST(mct_io, rejects_blocks_outside_the_layers) {
    const auto m =
        mapping_from_string(two_layers("block 0 1 64 0 32", "block_est 1 9"));
    EXPECT_EQ(m.block_of, (std::vector<std::uint32_t>{0, 0}));
    // Ends before it starts: an unchecked offset count wraps to 2^32 - 1.
    expect_rejected_at(two_layers("block 5 3 64 0", "block_est 1 9"), 4);
    // Ends at the last 32-bit layer, where a block-of loop never ends.
    expect_rejected_at(two_layers("block 0 4294967295 64 0", "block_est 1 9"),
                       4);
    // Ends past the model's layers (checked on the layer-count line).
    expect_rejected_at(two_layers("block 1 2 64 0 0", "block_est 1 9"), 5);
    // One offset fewer or more than the block has layers.
    expect_rejected_at(two_layers("block 0 1 64 0", "block_est 1 9"), 4);
    expect_rejected_at(two_layers("block 0 1 64 0 0 0", "block_est 1 9"), 4);
}

TEST(mct_io, rejects_a_block_est_count_other_than_the_block_count) {
    // Checked before it sizes the estimates.
    const std::string block = "block 0 1 64 0 32";
    expect_rejected_at(two_layers(block, "block_est 2 9 9"), 10);
    expect_rejected_at(two_layers(block, "block_est 0"), 10);
    expect_rejected_at(two_layers(block, "block_est 18446744073709551615"), 10);
}

TEST(mct_io, error_message_carries_line_number) {
    std::string text =
        "camdn-mapping-v1\n"
        "model broken\n"
        "blocks 0\n"
        "layers 1\n"
        "layer 7 0 0 0\n";  // wrong index
    try {
        mapping_from_string(text);
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
    }
}

}  // namespace
}  // namespace camdn::mapping
