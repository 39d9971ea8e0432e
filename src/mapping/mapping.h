// Mapping candidates and Mapping Candidate Tables (MCTs, paper §III-C).
//
// A mapping candidate fixes, for one layer:
//   * the tiling (tm, tn, tk) of the canonical GEMM loops onto the
//     scratchpad (k is always the innermost tile loop; partial sums stay
//     in the scratchpad accumulators, so tk never adds traffic);
//   * the placement of each tensor: pinned into the model's cache region,
//     streamed through bypass (CaMDN), or streamed through the transparent
//     cache (baselines execute the same candidate through that path);
//   * derived metrics the scheduler needs (pages, traffic, cycle estimate).
//
// An MCT stores one layer-wise candidate (LWM) per cache-usage level plus
// at most one layer-block candidate (LBM) that keeps intermediates of the
// enclosing block entirely in cache.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "model/layer_blocks.h"
#include "model/model.h"

namespace camdn::mapping {

/// Dataflow class implied by the tiling (for reporting; the traffic model
/// depends only on the tile sizes).
enum class dataflow : std::uint8_t {
    output_stationary,
    weight_stationary,
    input_stationary,
};

struct mapping_candidate {
    /// Cache-usage level this candidate was generated for (bytes). The
    /// candidate's true footprint is pages_needed * page_bytes <= level.
    std::uint64_t usage_level = 0;
    bool is_lbm = false;

    // Tiling of the canonical GEMM dims.
    std::uint64_t tm = 1;
    std::uint64_t tn = 1;
    std::uint64_t tk = 1;
    dataflow flow = dataflow::output_stationary;

    // Tensor placements. Pinning may be partial: the first
    // *_pinned_bytes of the tensor live in the model's cache region and
    // the remainder streams — this is what lets a candidate exist at every
    // usage level even when whole tensors exceed it.
    std::uint64_t weights_pinned_bytes = 0;
    std::uint64_t input_pinned_bytes = 0;
    bool input_from_region = false;  ///< LBM chain: producer left it in cache
    bool output_to_region = false;   ///< LBM: output stays in cache

    // Refetch factors implied by the tiling.
    std::uint64_t weight_passes = 1;
    std::uint64_t input_passes = 1;

    // Derived requirements and estimates.
    std::uint32_t pages_needed = 0;
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
    std::uint64_t cache_read_bytes = 0;   ///< region reads (incl. re-reads)
    std::uint64_t cache_write_bytes = 0;  ///< region fills + LBM writes
    std::uint64_t compute_cycles = 0;
    /// Profiling-style isolated latency estimate (Algorithm 1's Test).
    std::uint64_t est_cycles = 0;

    std::uint64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
};

/// Mapping Candidate Table of one layer.
struct mct {
    /// LWM candidates in strictly ascending pages_needed order (map_layer's
    /// dominance filter keeps one candidate per page count).
    std::vector<mapping_candidate> lwm;
    std::optional<mapping_candidate> lbm;

    /// Smallest candidate — always exists and needs zero pages.
    const mapping_candidate& minimal() const { return lwm.front(); }

    /// The LWM candidate with the most pages within `pages` (Algorithm 1,
    /// lines 16-22); the minimal one when none fits.
    const mapping_candidate& largest_lwm_within(std::uint64_t pages) const {
        for (auto it = lwm.rbegin(); it != lwm.rend(); ++it)
            if (it->pages_needed <= pages) return *it;
        return minimal();
    }
};

/// Serializable identity of `cand` inside `table`: its LWM index, -1 for
/// the LBM candidate, -2 when not part of the table. Checkpoints store
/// this index instead of the pointer.
inline std::int32_t candidate_index(const mct& table,
                                    const mapping_candidate* cand) {
    if (table.lbm && cand == &*table.lbm) return -1;
    for (std::size_t i = 0; i < table.lwm.size(); ++i)
        if (cand == &table.lwm[i]) return static_cast<std::int32_t>(i);
    return -2;
}

/// Inverse of candidate_index; nullptr when the index does not resolve.
inline const mapping_candidate* candidate_at(const mct& table,
                                             std::int32_t index) {
    if (index == -1) return table.lbm ? &*table.lbm : nullptr;
    if (index >= 0 && static_cast<std::size_t>(index) < table.lwm.size())
        return &table.lwm[index];
    return nullptr;
}

/// Offline mapping output for one model (the "model mapping file").
struct model_mapping {
    std::string model_name;
    std::vector<mct> tables;                      // one per layer
    std::vector<model::layer_block> blocks;       // LBM segmentation
    std::vector<std::uint32_t> block_of;          // layer -> block index

    /// Per-layer latency estimate (median candidate), cycles.
    std::vector<std::uint64_t> layer_est;
    /// Per-block latency estimate under LBM, cycles.
    std::vector<std::uint64_t> block_est;

    const model::layer_block& block_of_layer(std::uint32_t layer) const {
        return blocks[block_of[layer]];
    }
    bool is_block_head(std::uint32_t layer) const {
        return blocks[block_of[layer]].first == layer;
    }
    bool is_block_tail(std::uint32_t layer) const {
        return blocks[block_of[layer]].last == layer;
    }
};

}  // namespace camdn::mapping
