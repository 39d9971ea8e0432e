// Typed-event execution engine for tile-level layer runs.
//
// The engine walks a mapping candidate's (mi, ni) tile grid with a
// double-buffered three-phase pipeline per tile (LOAD -> COMPUTE -> STORE):
// loads of tile i+1 overlap compute of tile i, and the loader never runs
// more than one tile ahead of compute (two scratchpad buffers). All traffic
// flows through the DMA engine in chunks, so concurrently running cores
// contend realistically in the DRAM banks and cache slices.
//
// Unlike the closure-continuation executor it replaces, every in-flight
// layer is an explicit `layer_run` record — tile cursor, load/store
// occupancy, pipeline horizons — keyed by task slot and advanced by typed
// events (event_channel::layer tile gates and store issues, plus DMA
// completions routed through the engine's sink). A run is therefore
// serializable mid-layer: save_state() writes every cursor and
// restore_state() rebinds the runs to the restored tasks, with the pending
// typed events riding the event queue's typed section — the structure that
// lets the scheduler checkpoint at an arbitrary cycle and lets fleet
// rounds pause every SoC mid-layer at the window edge.
//
// Path selection:
//   * baseline policies stream everything through the transparent cache;
//   * CaMDN policies fill pinned tensors into the model's region once and
//     re-read them from cache, bypass non-reusable streams around the
//     cache, keep LBM intermediates region-resident, and multicast the
//     parameter reads of multi-core tasks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/snapshot_io.h"
#include "common/types.h"
#include "mapping/mapping.h"
#include "npu/dma_engine.h"
#include "runtime/task.h"
#include "sim/address_map.h"
#include "sim/soc_config.h"

namespace camdn::obs {
class probe;
}

namespace camdn::sim {

class soc;

class layer_engine {
public:
    /// Registers the engine on the machine's typed layer channel and as
    /// the DMA completion sink. `machine` must outlive the engine.
    explicit layer_engine(soc& machine);

    /// Feature toggles used by subsequent start() calls (per-experiment
    /// configuration; the scheduler sets this once).
    void set_features(const camdn_features& f) { feat_ = f; }

    /// Completion hook: fires once every load, compute and store of a
    /// slot's layer has retired, with the completion cycle. Wired once by
    /// the scheduler.
    using done_fn = std::function<void(task_id, cycle_t)>;
    void set_on_done(done_fn fn) { on_done_ = std::move(fn); }

    /// Starts layer `t.current_layer` of `t` under `cand`, which must be a
    /// candidate of that layer's MCT (a run is saved by its index there).
    /// One run per slot. Throws std::logic_error on a candidate outside
    /// the MCT, or on a slot whose previous layer has not completed.
    void start(runtime::task& t, const mapping::mapping_candidate& cand,
               const address_map& addrs);

    bool idle() const { return active_count_ == 0; }
    bool slot_active(task_id slot) const {
        return slot >= 0 && static_cast<std::size_t>(slot) < runs_.size() &&
               runs_[slot].active;
    }

    /// One in-flight run as a snapshot stores it: the slot, the
    /// candidate's index in the layer's MCT and the tile cursor.
    struct run_record {
        task_id slot = no_task;
        std::int32_t cand_index = 0;  ///< lwm index; -1 = lbm
        std::uint64_t idx = 0;        ///< next tile to issue
        std::uint64_t load_tile = 0;  ///< tile currently loading
        std::uint32_t load_remaining = 0;  ///< outstanding load transfers
        cycle_t load_latest = 0;           ///< latest load completion so far
        std::uint64_t pending_stores = 0;
        bool all_issued = false;
        cycle_t final_end = 0;
        cycle_t issue_cycle = 0;
        cycle_t compute_end_prev = 0;
        cycle_t compute_end_prev2 = 0;
    };

    /// Serializes every in-flight run's record, in ascending slot order.
    void save_state(snapshot_writer& w) const;

    /// Decodes the records save_state wrote. restore_state rebinds them;
    /// snapshot inspectors read them as they are. Throws snapshot_error on
    /// truncation.
    static std::vector<run_record> read_runs(snapshot_reader& r);

    /// Rebuilds the run table against already-restored tasks: `tasks` and
    /// `addrs` are indexed by slot, and each restored run's candidate is
    /// resolved from its task's current MCT. Throws snapshot_error on a
    /// slot/candidate/cursor that does not fit. Requires an idle engine.
    void restore_state(snapshot_reader& r, std::vector<runtime::task>& tasks,
                       const std::vector<address_map>& addrs);

    /// The SoC's probe (nullptr: nothing attached). Event processing
    /// charges host time to `layer`; a retired layer reports its span.
    void set_probe(obs::probe* p) { probe_ = p; }

private:
    // Typed layer events: a = slot; store_due carries the tile in b.
    static constexpr std::uint8_t kind_tile_gate = 0;
    static constexpr std::uint8_t kind_store_due = 1;
    static_assert(kind_store_due + 1 == event_kind_count(event_channel::layer),
                  "event_kind_count(layer) counts the layer engine's kinds");
    // DMA token layout: a = slot, b = tile | store_bit.
    static constexpr std::uint64_t store_bit = std::uint64_t{1} << 63;

    /// One in-flight layer: its serialized record, plus derived state
    /// bind() recomputes from the task, candidate and machine, so none of
    /// it rides the snapshot.
    struct layer_run : run_record {
        bool active = false;  ///< slot entry in use (vector slots recycle)

        // ---- derived (rebuilt by bind()) ----
        runtime::task* t = nullptr;
        const mapping::mapping_candidate* cand = nullptr;
        const model::layer* l = nullptr;
        address_map addrs{no_task};
        camdn_features feat{};
        bool use_region = false;
        std::uint32_t group = 1;  // cores running this task
        std::uint64_t tiles_m = 1, tiles_n = 1, total = 1;
        std::uint64_t compute_total = 0;
        // vcaddr layout inside the model's region.
        addr_t w_vc = 0, in_vc = 0;
        addr_t lbm_in_vc = 0, lbm_out_vc = 0, lbm_res_vc = 0;
        bool residual_from_region = false;

        void push_read(std::vector<npu::transfer_request>& out,
                       npu::transfer_request::kind kind, addr_t addr,
                       addr_t dram_addr, std::uint64_t nlines,
                       bool shareable) const;
        void push_split_read(std::vector<npu::transfer_request>& reqs,
                             std::uint64_t off, std::uint64_t bytes,
                             std::uint64_t pinned, addr_t vc_base,
                             addr_t dram_base, bool first_pass,
                             bool shareable) const;
        std::vector<npu::transfer_request> build_loads(std::uint64_t mi,
                                                       std::uint64_t ni) const;
        npu::transfer_request build_store(std::uint64_t tile) const;
        npu::transfer_request::kind stream_read_kind() const;
        npu::transfer_request::kind stream_write_kind() const;
    };

    /// Recomputes a run's derived state from its task and candidate.
    void bind(layer_run& run, runtime::task& t,
              const mapping::mapping_candidate& cand,
              const address_map& addrs) const;

    void on_event(const typed_event& ev);
    void on_transfer_done(const npu::dma_target& target, cycle_t done);
    void next_tile(layer_run& run);
    void loads_complete(layer_run& run, std::uint64_t tile, cycle_t load_done);
    void issue_store(layer_run& run, std::uint64_t tile);
    void maybe_finish(task_id slot);
    layer_run& run_of(task_id slot);

    soc& machine_;
    camdn_features feat_{};
    done_fn on_done_;
    /// Slot-indexed run table (slots are small dense ints; grown on
    /// demand). Entries recycle in place — `active` marks live runs — so
    /// the per-event lookup is one bounds check and an index, and
    /// save_state's ascending-slot walk matches the byte order of the
    /// std::map encoding this replaces.
    std::vector<layer_run> runs_;
    std::size_t active_count_ = 0;
    obs::probe* probe_ = nullptr;
};

}  // namespace camdn::sim
