// Analytic compute-time model of the 32x32 systolic PE array.
//
// All DNN operators are canonicalized to GEMM-like tiles (see
// model/layer.h). Dense GEMM/conv tiles stream k through the array at one
// MAC per PE per cycle; depthwise convolution cannot use the reduction
// dimension of the array (each channel reduces only over its own R*S
// window), so its throughput is bounded by one output column group per
// pass — the classic reason depthwise layers are heavily memory-bound on
// systolic NPUs.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "npu/npu_config.h"

namespace camdn::npu {

/// Cycles for a depthwise tile covering `pixels` output pixels over
/// `channels` channels with an r*s window. Channels map across PE columns,
/// pixels across rows; the k dimension collapses to r*s.
inline cycle_t dwconv_tile_cycles(const npu_config& cfg, std::uint64_t pixels,
                                  std::uint64_t channels, std::uint64_t rs) {
    if (pixels == 0 || channels == 0 || rs == 0) return 0;
    const std::uint64_t row_passes = ceil_div(pixels, cfg.pe_rows);
    const std::uint64_t col_passes = ceil_div(channels, cfg.pe_cols);
    return row_passes * col_passes * (rs + cfg.pipeline_fill);
}

/// Cycles for an elementwise/reduction op over `elements` values on the
/// SIMD unit.
inline cycle_t simd_cycles(const npu_config& cfg, std::uint64_t elements) {
    return ceil_div(elements, cfg.simd_lanes);
}

}  // namespace camdn::npu
