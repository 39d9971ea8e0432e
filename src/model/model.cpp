#include "model/model.h"

#include <cassert>
#include <utility>

namespace camdn::model {

std::uint64_t model::total_macs() const {
    std::uint64_t total = 0;
    for (const auto& l : layers) total += l.macs();
    return total;
}

std::uint64_t model::total_weight_bytes() const {
    std::uint64_t total = 0;
    for (const auto& l : layers)
        if (!l.weight_is_intermediate) total += l.weight_bytes;
    return total;
}

model_builder::model_builder(std::string name, std::string abbr,
                             model_domain domain, std::string type,
                             double qos_ms, std::uint32_t in_c,
                             std::uint32_t in_h, std::uint32_t in_w)
    : c_(in_c), h_(in_h), w_(in_w) {
    m_.name = std::move(name);
    m_.abbr = std::move(abbr);
    m_.domain = domain;
    m_.type = std::move(type);
    m_.qos_ms = qos_ms;
}

namespace {
std::uint32_t out_dim(std::uint32_t in, std::uint32_t kernel,
                      std::uint32_t stride, std::int32_t pad) {
    const std::uint32_t p = pad >= 0 ? static_cast<std::uint32_t>(pad) : kernel / 2;
    assert(in + 2 * p >= kernel);
    return (in + 2 * p - kernel) / stride + 1;
}
}  // namespace

model_builder& model_builder::conv(const std::string& name, std::uint32_t out_c,
                                   std::uint32_t kernel, std::uint32_t stride,
                                   std::int32_t pad) {
    const std::uint32_t oh = out_dim(h_, kernel, stride, pad);
    const std::uint32_t ow = out_dim(w_, kernel, stride, pad);

    layer l;
    l.name = name;
    l.kind = layer_kind::conv;
    l.m = static_cast<std::uint64_t>(oh) * ow;
    l.n = out_c;
    l.k = static_cast<std::uint64_t>(c_) * kernel * kernel;
    l.input_bytes = activation_bytes();
    l.weight_bytes = static_cast<std::uint64_t>(out_c) * c_ * kernel * kernel;
    l.output_bytes = static_cast<std::uint64_t>(out_c) * oh * ow;
    m_.layers.push_back(l);

    c_ = out_c;
    h_ = oh;
    w_ = ow;
    return *this;
}

model_builder& model_builder::dwconv(const std::string& name,
                                     std::uint32_t kernel, std::uint32_t stride,
                                     std::int32_t pad) {
    const std::uint32_t oh = out_dim(h_, kernel, stride, pad);
    const std::uint32_t ow = out_dim(w_, kernel, stride, pad);

    layer l;
    l.name = name;
    l.kind = layer_kind::dwconv;
    l.m = static_cast<std::uint64_t>(oh) * ow;
    l.n = c_;
    l.k = static_cast<std::uint64_t>(kernel) * kernel;
    l.input_bytes = activation_bytes();
    l.weight_bytes = static_cast<std::uint64_t>(c_) * kernel * kernel;
    l.output_bytes = static_cast<std::uint64_t>(c_) * oh * ow;
    m_.layers.push_back(l);

    h_ = oh;
    w_ = ow;
    return *this;
}

model_builder& model_builder::conv1d(const std::string& name,
                                     std::uint32_t out_c, std::uint32_t kernel,
                                     std::uint32_t stride) {
    assert(h_ == 1 && w_ >= kernel);
    const std::uint32_t ow = (w_ - kernel) / stride + 1;

    layer l;
    l.name = name;
    l.kind = layer_kind::conv;
    l.m = ow;
    l.n = out_c;
    l.k = static_cast<std::uint64_t>(c_) * kernel;
    l.input_bytes = activation_bytes();
    l.weight_bytes = static_cast<std::uint64_t>(out_c) * c_ * kernel;
    l.output_bytes = static_cast<std::uint64_t>(out_c) * ow;
    m_.layers.push_back(l);

    c_ = out_c;
    w_ = ow;
    return *this;
}

model_builder& model_builder::reduce_n(const std::string& name,
                                       std::uint64_t in_elements,
                                       std::uint64_t out_elements) {
    layer l;
    l.name = name;
    l.kind = layer_kind::pool;
    l.m = in_elements;
    l.input_bytes = in_elements;
    l.output_bytes = out_elements;
    m_.layers.push_back(l);
    return *this;
}

model_builder& model_builder::pool(const std::string& name, std::uint32_t kernel,
                                   std::uint32_t stride) {
    const std::uint32_t oh = out_dim(h_, kernel, stride, -1);
    const std::uint32_t ow = out_dim(w_, kernel, stride, -1);

    layer l;
    l.name = name;
    l.kind = layer_kind::pool;
    l.m = static_cast<std::uint64_t>(c_) * oh * ow;
    l.input_bytes = activation_bytes();
    l.output_bytes = static_cast<std::uint64_t>(c_) * oh * ow;
    m_.layers.push_back(l);

    h_ = oh;
    w_ = ow;
    return *this;
}

model_builder& model_builder::global_pool(const std::string& name) {
    layer l;
    l.name = name;
    l.kind = layer_kind::pool;
    l.m = c_;
    l.input_bytes = activation_bytes();
    l.output_bytes = c_;
    m_.layers.push_back(l);

    h_ = 1;
    w_ = 1;
    return *this;
}

model_builder& model_builder::gemm(const std::string& name, std::uint64_t m,
                                   std::uint64_t n, std::uint64_t k,
                                   bool weight_is_intermediate) {
    layer l;
    l.name = name;
    l.kind = layer_kind::gemm;
    l.m = m;
    l.n = n;
    l.k = k;
    l.input_bytes = m * k;
    l.weight_bytes = n * k;
    l.output_bytes = m * n;
    l.weight_is_intermediate = weight_is_intermediate;
    m_.layers.push_back(l);

    c_ = static_cast<std::uint32_t>(n);
    h_ = 1;
    w_ = static_cast<std::uint32_t>(m);
    return *this;
}

model_builder& model_builder::elementwise(const std::string& name,
                                          std::int32_t residual_from) {
    return elementwise_n(name, activation_bytes(), residual_from);
}

model_builder& model_builder::elementwise_n(const std::string& name,
                                            std::uint64_t elements,
                                            std::int32_t residual_from) {
    layer l;
    l.name = name;
    l.kind = layer_kind::elementwise;
    l.m = elements;
    l.input_bytes = elements;
    l.output_bytes = elements;
    l.residual_from = residual_from;
    m_.layers.push_back(l);
    return *this;
}

model_builder& model_builder::reshape(std::uint32_t c, std::uint32_t h,
                                      std::uint32_t w) {
    c_ = c;
    h_ = h;
    w_ = w;
    return *this;
}

model model_builder::build() && { return std::move(m_); }

}  // namespace camdn::model
