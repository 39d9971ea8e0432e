#include "mapping/cost_model.h"

#include <algorithm>
#include <cmath>

#include "npu/compute_model.h"

namespace camdn::mapping {

namespace {
constexpr std::uint64_t acc_bytes = 4;
}

std::uint64_t tile_footprint_bytes(std::uint64_t tm, std::uint64_t tn,
                                   std::uint64_t tk) {
    return tm * tk + tk * tn + tm * tn * acc_bytes;
}

bool residual_in_block(const model::model& m, std::uint32_t layer_index,
                       const model::layer_block& block) {
    const std::int32_t src = m.layers[layer_index].residual_from;
    if (src < 0) return false;
    return static_cast<std::uint32_t>(src) >= block.first &&
           static_cast<std::uint32_t>(src) < layer_index;
}

std::uint64_t layer_compute_cycles(const model::layer& l,
                                   const mapper_config& cfg, std::uint64_t tk) {
    using model::layer_kind;
    switch (l.kind) {
        case layer_kind::elementwise:
        case layer_kind::pool:
            return npu::simd_cycles(cfg.npu, l.m);
        case layer_kind::dwconv:
            // Channels across columns, pixels across rows, window as the
            // streamed dimension.
            return npu::dwconv_tile_cycles(cfg.npu, l.m, l.n, l.k);
        case layer_kind::conv:
        case layer_kind::gemm: {
            // Pipeline fill is paid once per k-tile per (row, col) pass.
            const std::uint64_t k_tiles = ceil_div(l.k, tk);
            const std::uint64_t row_passes = ceil_div(l.m, cfg.npu.pe_rows);
            const std::uint64_t col_passes = ceil_div(l.n, cfg.npu.pe_cols);
            return row_passes * col_passes *
                   (l.k + cfg.npu.pipeline_fill * k_tiles);
        }
    }
    return 0;
}

void finalize_candidate(const model::layer& l, const mapper_config& cfg,
                        mapping_candidate& cand, bool in_block_residual,
                        std::uint64_t lbm_block_pages) {
    using model::layer_kind;

    const bool simple =
        l.kind == layer_kind::elementwise || l.kind == layer_kind::pool;
    const bool dw = l.kind == layer_kind::dwconv;

    if (simple || dw) {
        cand.weight_passes = 1;
        cand.input_passes = 1;
    } else {
        cand.weight_passes = ceil_div(l.m, cand.tm);
        cand.input_passes = ceil_div(l.n, cand.tn);
        // Stationary tiles: when a tensor's tile covers the whole tensor
        // (single tile along its loop, full reduction depth), a
        // double-buffered NPU keeps it resident in the scratchpad instead
        // of re-fetching it every pass.
        if (ceil_div(l.n, cand.tn) == 1 && cand.tk == l.k)
            cand.weight_passes = 1;  // weight-stationary
        if (ceil_div(l.m, cand.tm) == 1 && cand.tk == l.k)
            cand.input_passes = 1;  // input-stationary
    }

    // Dataflow label.
    if (cand.weight_passes == 1 && cand.input_passes > 1)
        cand.flow = dataflow::weight_stationary;
    else if (cand.input_passes == 1 && cand.weight_passes > 1)
        cand.flow = dataflow::input_stationary;
    else
        cand.flow = dataflow::output_stationary;

    cand.dram_read_bytes = 0;
    cand.dram_write_bytes = 0;
    cand.cache_read_bytes = 0;
    cand.cache_write_bytes = 0;

    cand.weights_pinned_bytes = std::min(cand.weights_pinned_bytes, l.weight_bytes);
    cand.input_pinned_bytes = std::min(cand.input_pinned_bytes, l.input_bytes);

    // Weights: the pinned prefix is filled once and re-read from cache;
    // the remainder streams on every pass.
    if (l.weight_bytes > 0) {
        const std::uint64_t pinned = cand.weights_pinned_bytes;
        const std::uint64_t streamed = l.weight_bytes - pinned;
        cand.dram_read_bytes += pinned + streamed * cand.weight_passes;
        cand.cache_write_bytes += pinned;
        cand.cache_read_bytes += pinned * cand.weight_passes;
    }

    // Input activations, same partial-pinning rule; an LBM chain input is
    // wholly region-resident with zero DRAM traffic.
    if (l.input_bytes > 0) {
        if (cand.input_from_region) {
            cand.cache_read_bytes += l.input_bytes * cand.input_passes;
        } else {
            const std::uint64_t pinned = cand.input_pinned_bytes;
            const std::uint64_t streamed = l.input_bytes - pinned;
            cand.dram_read_bytes += pinned + streamed * cand.input_passes;
            cand.cache_write_bytes += pinned;
            cand.cache_read_bytes += pinned * cand.input_passes;
        }
    }

    // Residual second input (read once). Only LBM actually keeps the
    // producer's tensor region-resident; LWM candidates re-read it from
    // DRAM even when the producer shares the block.
    if (l.residual_from >= 0) {
        if (cand.is_lbm && in_block_residual) {
            cand.cache_read_bytes += l.output_bytes;
        } else {
            cand.dram_read_bytes += l.output_bytes;
        }
    }

    // Output.
    if (cand.output_to_region) {
        cand.cache_write_bytes += l.output_bytes;
    } else {
        cand.dram_write_bytes += l.output_bytes;
    }

    // Pages: LBM candidates reserve the whole block's peak; LWM candidates
    // reserve their pinned bytes.
    if (cand.is_lbm) {
        cand.pages_needed = static_cast<std::uint32_t>(lbm_block_pages);
    } else {
        const std::uint64_t pinned =
            cand.weights_pinned_bytes + cand.input_pinned_bytes;
        cand.pages_needed =
            static_cast<std::uint32_t>(ceil_div(pinned, cfg.page_bytes));
    }

    cand.compute_cycles = layer_compute_cycles(l, cfg, cand.tk);

    const double dram_cycles =
        static_cast<double>(cand.dram_bytes()) / cfg.est_dram_bytes_per_cycle;
    const double cache_cycles =
        static_cast<double>(cand.cache_read_bytes + cand.cache_write_bytes) /
        cfg.est_cache_bytes_per_cycle;
    cand.est_cycles = static_cast<std::uint64_t>(
        std::max({static_cast<double>(cand.compute_cycles), dram_cycles,
                  cache_cycles}));
}

}  // namespace camdn::mapping
