// A DNN model: an ordered chain of layers (layer i consumes layer i-1's
// output) plus identity/QoS metadata, and the builder used by the zoo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "model/layer.h"

namespace camdn::model {

struct model {
    std::string name;
    std::string abbr;  ///< Table I abbreviation, e.g. "RS."
    model_domain domain = model_domain::vision;
    /// Table I model type label (Conv / DwConv / Trans / LSTM).
    std::string type;
    /// Table I latency target in milliseconds.
    double qos_ms = 0.0;

    std::vector<layer> layers;

    std::uint64_t total_macs() const;
    std::uint64_t total_weight_bytes() const;
};

/// Incremental model construction that tracks the running activation shape
/// of convolutional backbones so layer byte sizes stay consistent.
class model_builder {
public:
    model_builder(std::string name, std::string abbr, model_domain domain,
                  std::string type, double qos_ms, std::uint32_t in_c,
                  std::uint32_t in_h, std::uint32_t in_w);

    /// Current activation tensor shape.
    std::uint32_t c() const { return c_; }
    std::uint32_t h() const { return h_; }
    std::uint32_t w() const { return w_; }
    std::uint32_t last_index() const {
        return static_cast<std::uint32_t>(m_.layers.size()) - 1;
    }

    /// 2-D convolution; pad defaults to "same" (k/2). Updates the shape.
    model_builder& conv(const std::string& name, std::uint32_t out_c,
                        std::uint32_t kernel, std::uint32_t stride,
                        std::int32_t pad = -1);

    /// Depthwise 3x3/5x5 convolution over the current channels.
    model_builder& dwconv(const std::string& name, std::uint32_t kernel,
                          std::uint32_t stride, std::int32_t pad = -1);

    /// 1-D convolution along the width (audio feature extractors). No
    /// padding, matching wav2vec 2.0's extractor.
    model_builder& conv1d(const std::string& name, std::uint32_t out_c,
                          std::uint32_t kernel, std::uint32_t stride);

    /// Pooling (max/avg): reduces spatial dims, keeps channels.
    model_builder& pool(const std::string& name, std::uint32_t kernel,
                        std::uint32_t stride);

    /// Global average pool to 1x1.
    model_builder& global_pool(const std::string& name);

    /// Dense GEMM with explicit dims and byte sizes derived from them.
    /// Resets the tracked shape to (n, 1, m) — callers chaining convs after
    /// gemms set shape explicitly via reshape().
    model_builder& gemm(const std::string& name, std::uint64_t m,
                        std::uint64_t n, std::uint64_t k,
                        bool weight_is_intermediate = false);

    /// Elementwise op over the current activation (relu/add/norm/softmax).
    model_builder& elementwise(const std::string& name,
                               std::int32_t residual_from = -1);

    /// Elementwise op over an explicit element count.
    model_builder& elementwise_n(const std::string& name, std::uint64_t elements,
                                 std::int32_t residual_from = -1);

    /// Reduction/scatter with explicit input and output element counts
    /// (pillar max-pool, canvas scatter, upsampling).
    model_builder& reduce_n(const std::string& name, std::uint64_t in_elements,
                            std::uint64_t out_elements);

    /// Mutable access to the most recently added layer, for byte-size
    /// overrides where the canonical GEMM formula misstates a tensor
    /// (multi-head attention operand sizes).
    layer& last_layer() { return m_.layers.back(); }

    /// Overrides the tracked activation shape (after scatter/reshape ops).
    model_builder& reshape(std::uint32_t c, std::uint32_t h, std::uint32_t w);

    model build() &&;

private:
    std::uint64_t activation_bytes() const {
        return static_cast<std::uint64_t>(c_) * h_ * w_;
    }

    model m_;
    std::uint32_t c_, h_, w_;
};

}  // namespace camdn::model
