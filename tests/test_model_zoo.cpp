// Tests for the benchmark model zoo: Table I membership, realistic
// compute/parameter scales, and structural invariants of the layer IR.
#include <gtest/gtest.h>

#include "model/model_zoo.h"
#include "npu/compute_model.h"

namespace camdn::model {
namespace {

TEST(model_zoo, contains_the_eight_table1_models_in_order) {
    const auto& models = benchmark_models();
    ASSERT_EQ(models.size(), 8u);
    const char* abbrs[] = {"RS.", "MB.", "EF.", "VT.",
                           "BE.", "GN.", "WV.", "PP."};
    for (int i = 0; i < 8; ++i) EXPECT_EQ(models[i].abbr, abbrs[i]);
}

TEST(model_zoo, lookup_by_abbreviation) {
    EXPECT_EQ(model_by_abbr("RS.").name, "ResNet50");
    EXPECT_EQ(model_by_abbr("PP.").name, "PointPillars");
    EXPECT_THROW(model_by_abbr("XX."), std::out_of_range);
}

TEST(model_zoo, table1_qos_targets) {
    EXPECT_DOUBLE_EQ(model_by_abbr("RS.").qos_ms, 6.7);
    EXPECT_DOUBLE_EQ(model_by_abbr("MB.").qos_ms, 2.8);
    EXPECT_DOUBLE_EQ(model_by_abbr("EF.").qos_ms, 2.8);
    EXPECT_DOUBLE_EQ(model_by_abbr("VT.").qos_ms, 40.0);
    EXPECT_DOUBLE_EQ(model_by_abbr("BE.").qos_ms, 40.0);
    EXPECT_DOUBLE_EQ(model_by_abbr("GN.").qos_ms, 6.7);
    EXPECT_DOUBLE_EQ(model_by_abbr("WV.").qos_ms, 16.7);
    EXPECT_DOUBLE_EQ(model_by_abbr("PP.").qos_ms, 100.0);
}

TEST(model_zoo, table1_model_types) {
    EXPECT_EQ(model_by_abbr("RS.").type, "Conv");
    EXPECT_EQ(model_by_abbr("MB.").type, "DwConv");
    EXPECT_EQ(model_by_abbr("VT.").type, "Trans");
    EXPECT_EQ(model_by_abbr("GN.").type, "LSTM");
}

// Published MAC counts (multiply-accumulate, fvcore convention) at the
// paper's input shapes, with tolerance for the documented simplifications.
TEST(model_zoo, resnet50_macs_near_published) {
    const double g = model_by_abbr("RS.").total_macs() / 1e9;
    EXPECT_GT(g, 3.2);  // 4.1 G minus folded downsample convs
    EXPECT_LT(g, 4.5);
}

TEST(model_zoo, mobilenet_v2_macs_near_published) {
    const double g = model_by_abbr("MB.").total_macs() / 1e9;
    EXPECT_GT(g, 0.25);  // published 0.32 G
    EXPECT_LT(g, 0.40);
}

TEST(model_zoo, efficientnet_b0_macs_near_published) {
    const double g = model_by_abbr("EF.").total_macs() / 1e9;
    EXPECT_GT(g, 0.30);  // published 0.39 G
    EXPECT_LT(g, 0.50);
}

TEST(model_zoo, vit_base_macs_near_published) {
    const double g = model_by_abbr("VT.").total_macs() / 1e9;
    EXPECT_GT(g, 15.5);  // params x tokens ~ 17 G
    EXPECT_LT(g, 19.5);
}

TEST(model_zoo, weight_footprints_near_published_int8) {
    EXPECT_NEAR(model_by_abbr("RS.").total_weight_bytes() / 1e6, 23.0, 4.0);
    EXPECT_NEAR(model_by_abbr("MB.").total_weight_bytes() / 1e6, 3.4, 0.8);
    EXPECT_NEAR(model_by_abbr("VT.").total_weight_bytes() / 1e6, 86.0, 6.0);
    EXPECT_NEAR(model_by_abbr("BE.").total_weight_bytes() / 1e6, 86.0, 8.0);
}

TEST(model_zoo, dwconv_models_have_dwconv_layers) {
    for (const char* abbr : {"MB.", "EF."}) {
        const auto& m = model_by_abbr(abbr);
        int dw = 0;
        for (const auto& l : m.layers) dw += l.kind == layer_kind::dwconv;
        EXPECT_GT(dw, 10) << abbr;
    }
}

TEST(model_zoo, transformers_mark_attention_operands_as_intermediate) {
    const auto& m = model_by_abbr("BE.");
    int flagged = 0;
    for (const auto& l : m.layers) flagged += l.weight_is_intermediate;
    EXPECT_EQ(flagged, 24);  // scores + context per encoder block
}

TEST(model_zoo, residual_models_have_residual_edges) {
    for (const char* abbr : {"RS.", "MB.", "VT.", "BE."}) {
        const auto& m = model_by_abbr(abbr);
        int edges = 0;
        for (const auto& l : m.layers) edges += l.residual_from >= 0;
        EXPECT_GT(edges, 5) << abbr;
    }
}

TEST(model_zoo, intermediate_heavy_models_match_motivation) {
    // Bytes of inter-layer activations: the outputs of non-final layers.
    auto intermediate_bytes = [](const model& m) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i + 1 < m.layers.size(); ++i)
            total += m.layers[i].output_bytes;
        return total;
    };
    // MobileNet-v2 / EfficientNet-b0 carry more intermediate than weight
    // bytes — the models the paper highlights for LBM gains.
    for (const char* abbr : {"MB.", "EF."}) {
        const auto& m = model_by_abbr(abbr);
        EXPECT_GT(intermediate_bytes(m), m.total_weight_bytes()) << abbr;
    }
    // Transformers are the opposite.
    for (const char* abbr : {"VT.", "BE.", "WV."}) {
        const auto& m = model_by_abbr(abbr);
        EXPECT_LT(intermediate_bytes(m), m.total_weight_bytes()) << abbr;
    }
}

TEST(model_builder, conv_shape_arithmetic) {
    model_builder b("t", "T.", model_domain::vision, "Conv", 1.0, 3, 224, 224);
    b.conv("c1", 64, 7, 2);  // same-ish padding: 112x112
    EXPECT_EQ(b.h(), 112u);
    EXPECT_EQ(b.w(), 112u);
    EXPECT_EQ(b.c(), 64u);
    b.pool("p", 3, 2);
    EXPECT_EQ(b.h(), 56u);
    auto m = std::move(b).build();
    EXPECT_EQ(m.layers[0].m, 112u * 112);
    EXPECT_EQ(m.layers[0].k, 3u * 49);
    EXPECT_EQ(m.layers[0].weight_bytes, 64u * 3 * 49);
}

TEST(model_builder, gemm_bytes_follow_dims) {
    model_builder b("t", "T.", model_domain::nlp, "Trans", 1.0, 1, 1, 1);
    b.gemm("g", 128, 768, 3072);
    const model m = std::move(b).build();  // keep alive past the expectations
    const layer& l = m.layers.back();
    EXPECT_EQ(l.input_bytes, 128u * 3072);
    EXPECT_EQ(l.weight_bytes, 768u * 3072);
    EXPECT_EQ(l.output_bytes, 128u * 768);
    EXPECT_EQ(l.macs(), 128ull * 768 * 3072);
}

TEST(model_builder, conv1d_no_padding) {
    model_builder b("t", "T.", model_domain::audio, "Trans", 1.0, 1, 1, 16000);
    b.conv1d("c", 512, 10, 5);
    EXPECT_EQ(b.w(), (16000u - 10) / 5 + 1);
    EXPECT_EQ(b.c(), 512u);
}

// Structural invariants across every model and layer.
class zoo_invariants : public ::testing::TestWithParam<std::string> {};

TEST_P(zoo_invariants, layers_are_well_formed) {
    const auto& m = model_by_abbr(GetParam());
    ASSERT_FALSE(m.layers.empty());
    for (std::size_t i = 0; i < m.layers.size(); ++i) {
        const layer& l = m.layers[i];
        EXPECT_GE(l.m, 1u) << l.name;
        EXPECT_GE(l.n, 1u) << l.name;
        EXPECT_GE(l.k, 1u) << l.name;
        EXPECT_GT(l.output_bytes, 0u) << l.name;
        EXPECT_GT(l.macs(), 0u) << l.name;
        if (l.residual_from >= 0)
            EXPECT_LT(static_cast<std::size_t>(l.residual_from), i) << l.name;
        EXPECT_LE(l.min_traffic_bytes(),
                  l.input_bytes + l.weight_bytes + 2 * l.output_bytes);
    }
}

TEST_P(zoo_invariants, compute_time_fits_qos_budget_in_isolation) {
    // A model's pure compute lower bound on one 32x32 core must sit below
    // its Table I QoS target, or the target would be unreachable.
    const auto& m = model_by_abbr(GetParam());
    npu::npu_config npu;
    double cycles = 0.0;
    for (const auto& l : m.layers) {
        cycles += static_cast<double>(l.macs()) / npu.macs_per_cycle();
    }
    EXPECT_LT(cycles_to_ms(static_cast<cycle_t>(cycles)), m.qos_ms)
        << m.name;
}

INSTANTIATE_TEST_SUITE_P(all_models, zoo_invariants,
                         ::testing::Values("RS.", "MB.", "EF.", "VT.", "BE.",
                                           "GN.", "WV.", "PP."));

}  // namespace
}  // namespace camdn::model
