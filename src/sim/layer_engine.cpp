#include "sim/layer_engine.h"

#include <algorithm>
#include <stdexcept>

#include "obs/probe.h"
#include "sim/soc.h"

namespace camdn::sim {

namespace {

using npu::transfer_request;
using req_kind = npu::transfer_request::kind;

/// Bytes of element `i` of `total` when `bytes` is split as evenly as
/// possible (difference-of-prefixes, so the chunks sum exactly).
std::uint64_t chunk_bytes(std::uint64_t bytes, std::uint64_t i,
                          std::uint64_t total) {
    return bytes * (i + 1) / total - bytes * i / total;
}
std::uint64_t chunk_offset(std::uint64_t bytes, std::uint64_t i,
                           std::uint64_t total) {
    return bytes * i / total;
}

/// Pseudo-tile size for streaming operators (elementwise/pool/dwconv):
/// pipelining granularity, not a residency constraint.
constexpr std::uint64_t stream_tile_bytes = kib(256);

}  // namespace

layer_engine::layer_engine(soc& machine) : machine_(machine) {
    machine_.eq().set_handler(event_channel::layer,
                              [this](const typed_event& ev) { on_event(ev); });
    machine_.dma().set_sink(
        [this](const npu::dma_target& target, cycle_t done) {
            on_transfer_done(target, done);
        });
}

// ---- request construction -------------------------------------------------

/// Duplicated (per-core) or multicast read according to features.
void layer_engine::layer_run::push_read(std::vector<transfer_request>& out,
                                        req_kind kind, addr_t addr,
                                        addr_t dram_addr, std::uint64_t nlines,
                                        bool shareable) const {
    if (nlines == 0) return;
    transfer_request r;
    r.op = kind;
    r.task = t->id;
    r.addr = addr;
    r.dram_addr = dram_addr;
    r.nlines = nlines;
    if (group > 1 && shareable) {
        const bool can_multicast =
            use_region && feat.multicast &&
            (kind == req_kind::region_read || kind == req_kind::bypass_read);
        if (can_multicast) {
            r.group_size = group;
            out.push_back(r);
            return;
        }
        // No combining: every core issues its own copy.
        for (std::uint32_t g = 0; g < group; ++g) out.push_back(r);
        return;
    }
    out.push_back(r);
}

req_kind layer_engine::layer_run::stream_read_kind() const {
    if (!use_region) return req_kind::transparent_read;
    return feat.bypass ? req_kind::bypass_read : req_kind::transparent_read;
}
req_kind layer_engine::layer_run::stream_write_kind() const {
    if (!use_region) return req_kind::transparent_write;
    return feat.bypass ? req_kind::bypass_write : req_kind::transparent_write;
}

/// Emits the requests for a [off, off+bytes) slice of a tensor whose
/// first `pinned` bytes live in the region at `vc_base`. The pinned
/// prefix fills on its first pass and is re-read from the region after;
/// the streamed suffix uses the policy's stream path every pass.
void layer_engine::layer_run::push_split_read(
    std::vector<transfer_request>& reqs, std::uint64_t off, std::uint64_t bytes,
    std::uint64_t pinned, addr_t vc_base, addr_t dram_base, bool first_pass,
    bool shareable) const {
    if (bytes == 0) return;
    const bool pin_path = use_region && pinned > 0 && off < pinned;
    if (pin_path) {
        const std::uint64_t pin_bytes = std::min(bytes, pinned - off);
        push_read(reqs,
                  first_pass ? req_kind::region_fill : req_kind::region_read,
                  vc_base + off, dram_base + off, lines_for(pin_bytes),
                  !first_pass && shareable);
        off += pin_bytes;
        bytes -= pin_bytes;
        if (bytes == 0) return;
    }
    push_read(reqs, stream_read_kind(), dram_base + off, dram_base + off,
              lines_for(bytes), shareable);
}

std::vector<transfer_request> layer_engine::layer_run::build_loads(
    std::uint64_t mi, std::uint64_t ni) const {
    std::vector<transfer_request> reqs;
    const std::uint32_t li = t->current_layer;

    // Parameters (or the attention second operand). Re-fetched once per
    // mi pass — or loaded once when weight-stationary (weight_passes
    // == 1 with multiple mi tiles); identical across cores -> shareable.
    const bool w_stationary = cand->weight_passes == 1 && tiles_m > 1;
    if (l->weight_bytes > 0 && !(w_stationary && mi > 0)) {
        const std::uint64_t bytes = chunk_bytes(l->weight_bytes, ni, tiles_n);
        const std::uint64_t off = chunk_offset(l->weight_bytes, ni, tiles_n);
        push_split_read(reqs, off, bytes, cand->weights_pinned_bytes, w_vc,
                        addrs.weights(li), /*first_pass=*/mi == 0,
                        /*shareable=*/true);
    }

    // Input activations. Re-fetched once per ni pass — or kept resident
    // when input-stationary; cores work on disjoint m -> not shareable.
    const bool in_stationary = cand->input_passes == 1 && tiles_n > 1;
    if (l->input_bytes > 0 && !(in_stationary && ni > 0)) {
        const std::uint64_t bytes = chunk_bytes(l->input_bytes, mi, tiles_m);
        const std::uint64_t off = chunk_offset(l->input_bytes, mi, tiles_m);
        const addr_t dram =
            li == 0 ? addrs.model_input() : addrs.activation(li - 1);
        if (cand->input_from_region) {
            push_read(reqs, req_kind::region_read, lbm_in_vc + off, dram + off,
                      lines_for(bytes), false);
        } else {
            push_split_read(reqs, off, bytes, cand->input_pinned_bytes, in_vc,
                            dram, /*first_pass=*/ni == 0,
                            /*shareable=*/false);
        }
    }

    // Residual second operand (elementwise adds), chunked like input.
    if (l->residual_from >= 0 && l->output_bytes > 0) {
        const std::uint64_t bytes = chunk_bytes(l->output_bytes, mi, tiles_m);
        const std::uint64_t off = chunk_offset(l->output_bytes, mi, tiles_m);
        const addr_t dram =
            addrs.activation(static_cast<std::uint32_t>(l->residual_from)) +
            off;
        if (residual_from_region && cand->is_lbm) {
            push_read(reqs, req_kind::region_read, lbm_res_vc + off, dram,
                      lines_for(bytes), false);
        } else {
            push_read(reqs, stream_read_kind(), dram, dram, lines_for(bytes),
                      false);
        }
    }
    return reqs;
}

transfer_request layer_engine::layer_run::build_store(
    std::uint64_t tile) const {
    transfer_request r;
    r.task = t->id;
    const std::uint64_t bytes = chunk_bytes(l->output_bytes, tile, total);
    const std::uint64_t off = chunk_offset(l->output_bytes, tile, total);
    r.nlines = lines_for(bytes);
    const addr_t dram = addrs.activation(t->current_layer) + off;
    if (cand->output_to_region && use_region) {
        r.op = req_kind::region_write;
        r.addr = lbm_out_vc + off;
        r.dram_addr = dram;
    } else {
        r.op = stream_write_kind();
        r.addr = dram;
        r.dram_addr = dram;
    }
    return r;
}

// ---- run lifecycle --------------------------------------------------------

void layer_engine::bind(layer_run& run, runtime::task& t,
                        const mapping::mapping_candidate& cand,
                        const address_map& addrs) const {
    run.t = &t;
    run.cand = &cand;
    run.l = &t.mdl->layers[t.current_layer];
    run.addrs = addrs;
    run.feat = feat_;
    run.use_region = is_camdn(machine_.active_policy());
    run.group =
        std::max<std::uint32_t>(1, static_cast<std::uint32_t>(t.cores.size()));

    const model::layer& l = *run.l;
    const bool dense = l.kind == model::layer_kind::conv ||
                       l.kind == model::layer_kind::gemm;
    if (dense) {
        run.tiles_m = ceil_div(l.m, cand.tm);
        run.tiles_n = ceil_div(l.n, cand.tn);
    } else {
        const std::uint64_t span = std::max(l.input_bytes, l.output_bytes);
        run.tiles_m =
            std::max<std::uint64_t>(1, ceil_div(span, stream_tile_bytes));
        run.tiles_n = 1;
    }
    run.total = run.tiles_m * run.tiles_n;
    run.compute_total = cand.compute_cycles / run.group;

    // Region layout. LWM: pinned weights then pinned input. LBM: the
    // block arena laid out by layout_block.
    if (cand.is_lbm) {
        const auto& block = t.mapping->block_of_layer(t.current_layer);
        run.lbm_out_vc = block.offset_of(t.current_layer);
        if (cand.input_from_region)
            run.lbm_in_vc = block.offset_of(t.current_layer - 1);
        const std::int32_t res = l.residual_from;
        if (res >= 0 &&
            mapping::residual_in_block(*t.mdl, t.current_layer, block)) {
            run.residual_from_region = true;
            run.lbm_res_vc = block.offset_of(static_cast<std::uint32_t>(res));
        }
    } else {
        run.w_vc = 0;
        run.in_vc = round_up(cand.weights_pinned_bytes, line_bytes);
    }
}

void layer_engine::start(runtime::task& t,
                         const mapping::mapping_candidate& cand,
                         const address_map& addrs) {
    if (slot_active(t.id))
        throw std::logic_error(
            "layer_engine::start: slot already has a layer in flight");
    const std::int32_t cand_index =
        mapping::candidate_index(t.current_mct(), &cand);
    if (cand_index == -2)
        throw std::logic_error(
            "layer_engine::start: candidate is not in the layer's MCT");
    if (static_cast<std::size_t>(t.id) >= runs_.size())
        runs_.resize(t.id + 1);
    layer_run& run = runs_[t.id];
    run = layer_run{};
    run.active = true;
    ++active_count_;
    run.slot = t.id;
    run.cand_index = cand_index;
    bind(run, t, cand, addrs);
    run.issue_cycle = machine_.eq().now();
    run.compute_end_prev = machine_.eq().now();
    run.compute_end_prev2 = machine_.eq().now();
    next_tile(run);
}

layer_engine::layer_run& layer_engine::run_of(task_id slot) {
    if (!slot_active(slot))
        throw std::logic_error(
            "layer_engine: event for a slot with no layer in flight");
    return runs_[slot];
}

void layer_engine::on_event(const typed_event& ev) {
    const obs::probe::scope host(probe_, obs::subsystem::layer);
    const task_id slot = static_cast<task_id>(ev.a);
    switch (ev.kind) {
        case kind_tile_gate:
            next_tile(run_of(slot));
            return;
        case kind_store_due:
            issue_store(run_of(slot), ev.b);
            return;
        default:
            throw std::logic_error("layer_engine: unknown typed event kind");
    }
}

void layer_engine::on_transfer_done(const npu::dma_target& target,
                                    cycle_t done) {
    const obs::probe::scope host(probe_, obs::subsystem::layer);
    const task_id slot = static_cast<task_id>(target.a);
    layer_run& run = run_of(slot);
    if (target.b & store_bit) {
        run.final_end = std::max(run.final_end, done);
        if (run.pending_stores == 0)
            throw std::logic_error(
                "layer_engine: store completion with no pending store");
        --run.pending_stores;
        maybe_finish(slot);
        return;
    }
    run.load_latest = std::max(run.load_latest, done);
    if (run.load_remaining == 0)
        throw std::logic_error(
            "layer_engine: load completion with no pending load");
    if (--run.load_remaining == 0)
        loads_complete(run, run.load_tile, run.load_latest);
}

// ---- pipeline -------------------------------------------------------------

void layer_engine::next_tile(layer_run& run) {
    if (run.idx >= run.total) {
        run.all_issued = true;
        maybe_finish(run.t->id);
        return;
    }
    // Double buffering: tile idx may load only once tile idx-2 has
    // finished computing (its buffer is free).
    const cycle_t gate = run.compute_end_prev2;
    if (machine_.eq().now() < gate) {
        machine_.eq().schedule_event(
            gate,
            typed_event{static_cast<std::uint8_t>(event_channel::layer),
                        kind_tile_gate, static_cast<std::uint64_t>(run.t->id),
                        0});
        return;
    }

    const std::uint64_t tile = run.idx++;
    const std::uint64_t mi = tile / run.tiles_n;
    const std::uint64_t ni = tile % run.tiles_n;
    const auto reqs = run.build_loads(mi, ni);
    if (reqs.empty()) {
        loads_complete(run, tile, machine_.eq().now());
        return;
    }
    // A tile's tensor transfers run concurrently (independent DMA
    // queues); the tile is loaded when the last of them retires.
    run.load_tile = tile;
    run.load_remaining = static_cast<std::uint32_t>(reqs.size());
    run.load_latest = machine_.eq().now();
    const std::uint64_t slot = static_cast<std::uint64_t>(run.t->id);
    for (const auto& r : reqs)
        machine_.dma().submit_tracked(r, npu::dma_target{slot, tile});
}

void layer_engine::loads_complete(layer_run& run, std::uint64_t tile,
                                  cycle_t load_done) {
    const std::uint64_t tile_cycles =
        run.compute_total / run.total +
        (tile + 1 == run.total ? run.compute_total % run.total : 0);
    const cycle_t compute_start = std::max(load_done, run.compute_end_prev);
    const cycle_t compute_end = compute_start + tile_cycles;
    run.compute_end_prev2 = run.compute_end_prev;
    run.compute_end_prev = compute_end;
    run.final_end = std::max(run.final_end, compute_end);

    // Store fires when the tile's compute retires.
    ++run.pending_stores;
    machine_.eq().schedule_event(
        compute_end,
        typed_event{static_cast<std::uint8_t>(event_channel::layer),
                    kind_store_due, static_cast<std::uint64_t>(run.t->id),
                    tile});

    next_tile(run);
}

void layer_engine::issue_store(layer_run& run, std::uint64_t tile) {
    const transfer_request store = run.build_store(tile);
    machine_.dma().submit_tracked(
        store, npu::dma_target{static_cast<std::uint64_t>(run.t->id),
                               tile | store_bit});
}

void layer_engine::maybe_finish(task_id slot) {
    if (!slot_active(slot)) return;
    layer_run& run = runs_[slot];
    if (!run.all_issued || run.pending_stores > 0) return;
    const cycle_t end = std::max(run.final_end, machine_.eq().now());
    const runtime::task* t = run.t;
    if (probe_ != nullptr)
        probe_->layer_retired(t->id, t->mdl->abbr, t->current_layer,
                              run.issue_cycle, end, run.compute_total,
                              run.cand->is_lbm);
    // Detach before the callback: the completion may start the next layer
    // on this slot.
    run.active = false;
    --active_count_;
    if (on_done_) on_done_(t->id, end);
}

// ---- checkpoint -----------------------------------------------------------

void layer_engine::save_state(snapshot_writer& w) const {
    w.u64(active_count_);
    for (const layer_run& run : runs_) {
        if (!run.active) continue;
        w.i32(run.slot);
        w.i32(run.cand_index);
        w.u64(run.idx);
        w.u64(run.load_tile);
        w.u32(run.load_remaining);
        w.u64(run.load_latest);
        w.u64(run.pending_stores);
        w.b(run.all_issued);
        w.u64(run.final_end);
        w.u64(run.issue_cycle);
        w.u64(run.compute_end_prev);
        w.u64(run.compute_end_prev2);
    }
}

std::vector<layer_engine::run_record> layer_engine::read_runs(
    snapshot_reader& r) {
    // Per record: slot + cand_index (i32 each), 8 u64 cursor fields,
    // load_remaining (u32), all_issued (u8).
    std::vector<run_record> runs(r.count(4 + 4 + 8 * 8 + 4 + 1));
    for (run_record& run : runs) {
        run.slot = r.i32();
        run.cand_index = r.i32();
        run.idx = r.u64();
        run.load_tile = r.u64();
        run.load_remaining = r.u32();
        run.load_latest = r.u64();
        run.pending_stores = r.u64();
        run.all_issued = r.b();
        run.final_end = r.u64();
        run.issue_cycle = r.u64();
        run.compute_end_prev = r.u64();
        run.compute_end_prev2 = r.u64();
    }
    return runs;
}

void layer_engine::restore_state(snapshot_reader& r,
                                 std::vector<runtime::task>& tasks,
                                 const std::vector<address_map>& addrs) {
    if (active_count_ != 0)
        throw std::logic_error(
            "layer_engine::restore_state requires an idle engine");
    for (const run_record& rec : read_runs(r)) {
        const task_id slot = rec.slot;
        if (slot < 0 || static_cast<std::size_t>(slot) >= tasks.size())
            throw snapshot_error("snapshot layer run slot out of range");
        runtime::task& t = tasks[slot];
        if (t.mdl == nullptr || t.mapping == nullptr || !t.running())
            throw snapshot_error(
                "snapshot layer run references a slot that is not running");
        const mapping::mapping_candidate* cand =
            mapping::candidate_at(t.current_mct(), rec.cand_index);
        if (cand == nullptr)
            throw snapshot_error(
                "snapshot layer run candidate is not in the layer's MCT");
        if (slot_active(slot))
            throw snapshot_error("snapshot layer run slot appears twice");

        layer_run run;
        static_cast<run_record&>(run) = rec;
        bind(run, t, *cand, addrs[slot]);
        if (run.idx > run.total || run.pending_stores > run.total)
            throw snapshot_error("snapshot layer run cursor is inconsistent");
        if (static_cast<std::size_t>(slot) >= runs_.size())
            runs_.resize(slot + 1);
        run.active = true;
        runs_[slot] = std::move(run);
        ++active_count_;
    }
}

}  // namespace camdn::sim
