// Analytic cost model: given a layer, a tiling and tensor placements,
// derive traffic, compute cycles, pages and a latency estimate.
//
// Traffic accounting (int8 tensors, int32 accumulators in scratchpad):
//   * weights   read weight_passes = ceil(m/tm) times; a pinned tensor is
//     fetched from DRAM once and re-read from the cache region;
//   * inputs    read input_passes = ceil(n/tn) times, same pinning rule;
//     an LBM chain input comes from the region with zero DRAM traffic;
//   * outputs   written once — to DRAM via bypass, or into the region
//     under LBM;
//   * residual  second activation input read once (from the region when
//     its producer is inside the same LBM block).
// k-tiling is free of traffic: partial sums never leave the scratchpad.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "mapping/mapping.h"
#include "model/layer.h"
#include "npu/npu_config.h"

namespace camdn::mapping {

struct mapper_config {
    npu::npu_config npu{};
    std::uint64_t page_bytes = kib(32);

    /// Cache-usage levels for which LWM candidates are generated
    /// (paper Fig 6: 0 KiB, 256 KiB, 512 KiB, ...).
    std::vector<std::uint64_t> usage_levels = {
        0, kib(256), kib(512), mib(1), mib(2), mib(4), mib(8)};

    /// LBM segmentation: block budget and maximum block length.
    std::uint64_t lbm_block_budget = mib(8);
    std::uint32_t lbm_max_layers = 6;

    /// Bandwidth assumption for the latency estimate (fair share of the
    /// Table II 102.4 B/cycle across 16 cores).
    double est_dram_bytes_per_cycle = 6.4;
    /// Region read bandwidth seen by one core (NoC port width).
    double est_cache_bytes_per_cycle = 64.0;

    std::uint64_t tile_budget() const { return npu.tile_budget_bytes(); }
};

/// True when the residual source of `l` (if any) lies inside the same
/// layer block as `l`.
bool residual_in_block(const model::model& m, std::uint32_t layer_index,
                       const model::layer_block& block);

/// Fills every derived field of `cand` (traffic, pages, cycles, flow)
/// from the tiling/placement fields already set. `in_block_residual`
/// states whether the residual input is LBM-resident.
void finalize_candidate(const model::layer& l, const mapper_config& cfg,
                        mapping_candidate& cand, bool in_block_residual,
                        std::uint64_t lbm_block_pages);

/// Compute cycles of the whole layer with its reduction tiled by `tk` (the
/// m/n tiling does not change the array's passes).
std::uint64_t layer_compute_cycles(const model::layer& l,
                                   const mapper_config& cfg, std::uint64_t tk);

/// Scratchpad bytes of one (tm, tn, tk) tile: int8 input rows + int8
/// weight columns + int32 accumulators.
std::uint64_t tile_footprint_bytes(std::uint64_t tm, std::uint64_t tn,
                                   std::uint64_t tk);

}  // namespace camdn::mapping
