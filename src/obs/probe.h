// The per-SoC instrumentation probe: the one plane every component
// reports to.
//
// sim::soc owns one probe. The shared cache, DRAM, DMA engine and layer
// engine each hold one `probe*` and report typed facts to it; the
// scheduler reports its own (dispatch, start, page wait and timeout,
// completion, epoch cut) through the SoC. Each fact is one call, which the
// probe fans out to whatever is attached: the adapt::telemetry_bus, whose
// per-slot counters (the control input of the adaptive controller and the
// fleet feedback) the probe adds to itself, and the run observer's sinks —
// latency attributor, trace recorder, metrics registry and JSONL sink
// (obs/observer.h).
//
// This module owns the attribution holder tables: the last user of every
// DRAM bank, DRAM channel bus and cache slice, which a contended wait is
// charged against. A new attributor starts them afresh; re-attaching the
// current one keeps them.
//
// Zero-overhead-off: while nothing is attached the SoC hands its
// components a null probe, so every hook site is one null check. The
// sinks only observe — the probe schedules no event, touches no simulated
// state and enters no fingerprint or snapshot — so an attached run is
// bit-identical to a bare one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adapt/telemetry.h"
#include "common/types.h"
#include "obs/attribution.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace camdn {
class event_queue;
class p2_quantiles;
}  // namespace camdn

namespace camdn::obs {

class probe {
public:
    /// Sizes the holder tables: banks over all channels, buses, slices.
    probe(std::size_t dram_banks, std::size_t dram_channels,
          std::size_t cache_slices);

    /// Takes the observer's sinks and the telemetry bus (nullptr: none).
    void attach(const run_observer& o, adapt::telemetry_bus* bus);
    bool attached() const { return bus_ != nullptr || o_.enabled(); }
    bool attributing() const { return o_.attr != nullptr; }

    // ---- hardware facts (per burst or chunk: inline) ----

    /// One transparent burst's outcome, counted once.
    void cache_accesses(task_id t, std::uint64_t hits, std::uint64_t misses) {
        if (auto* c = counters(t)) {
            c->cache_hits += hits;
            c->cache_misses += misses;
        }
    }
    void region_lines(task_id t, std::uint64_t lines) {
        if (auto* c = counters(t)) c->region_lines += lines;
    }
    void fill_lines(task_id t, std::uint64_t lines) {
        if (auto* c = counters(t)) c->fill_lines += lines;
    }
    /// A tracked transfer, at submission.
    void dma_bytes(task_id t, std::uint64_t bytes) {
        if (auto* c = counters(t)) c->dma_bytes += bytes;
    }
    /// One chunk's service window, recorded when the trace samples chunks.
    void dma_chunk(task_id t, cycle_t issue, cycle_t done,
                   std::uint64_t bytes) {
        trace_recorder* tr = o_.trace;
        if (tr != nullptr && tr->chunk_events() && tr->sample_chunk())
            tr->complete_arg("dma_chunk", "dma", tid(t), issue, done, bytes);
    }
    /// A retired flight of kind `op`, issue to final chunk.
    void dma_flight(const char* op, task_id t, cycle_t issue, cycle_t done,
                    std::uint64_t bytes) {
        trace_recorder* tr = o_.trace;
        if (tr != nullptr && tr->sample_flight())
            tr->complete_arg(op, "dma", tid(t), issue, done, bytes);
    }
    /// Cycles a flight's issue loop waited on a full chunk window.
    void dma_window_wait(task_id t, std::uint64_t cycles) {
        if (o_.attr != nullptr) o_.attr->on_dma_window_wait(t, cycles);
    }
    /// DRAM and cache waits `victim` suffered behind `holder` (attributing
    /// probes only).
    void dram_wait(task_id victim, task_id holder, std::uint64_t cycles) {
        o_.attr->on_dram_wait(victim, holder, cycles);
    }
    void cache_wait(task_id victim, task_id holder, std::uint64_t cycles) {
        o_.attr->on_cache_wait(victim, holder, cycles);
    }
    /// Holder tables: `t` takes the resource; returns the previous holder.
    task_id take_bank(std::size_t bank, task_id t) {
        return std::exchange(bank_holder_[bank], t);
    }
    task_id take_bus(std::size_t channel, task_id t) {
        return std::exchange(bus_holder_[channel], t);
    }
    task_id take_slice(std::size_t slice, task_id t) {
        return std::exchange(slice_holder_[slice], t);
    }
    void layer_retired(task_id t, const std::string& abbr, std::uint32_t layer,
                       cycle_t issue, cycle_t end, std::uint64_t compute,
                       bool lbm);

    // ---- scheduler facts ----

    /// An inference of `abbr`, dispatched to `slot`, issues its first layer.
    void inference_start(task_id slot, const std::string& abbr,
                         cycle_t arrival, cycle_t started);
    /// A negotiation waits from `now` to `retry`; `held(s)` is slot s's
    /// page count, read only when attributing.
    template <typename Held>
    void page_wait(task_id slot, cycle_t now, cycle_t retry,
                   std::uint32_t slots, Held&& held) {
        if (auto* c = counters(slot)) c->page_wait_cycles += retry - now;
        if (o_.trace != nullptr)
            o_.trace->complete("page_wait", "sched", tid(slot), now, retry);
        if (o_.attr == nullptr) return;
        held_pages_.resize(slots);
        for (std::uint32_t s = 0; s < slots; ++s) held_pages_[s] = held(s);
        o_.attr->on_page_wait(slot, retry - now, held_pages_.data(), slots);
    }
    void page_timeout(task_id slot, cycle_t now, bool was_lbm);
    void completion(task_id slot, const std::string& abbr, std::uint32_t cores,
                    cycle_t arrival, cycle_t started, cycle_t end,
                    cycle_t deadline);
    void epoch_cut(const adapt::epoch_snapshot& snap, cycle_t now);
    /// Segment totals: event counts and attribution into the metrics.
    void run_totals(const event_queue& eq);

    /// Charges host time to `s` on the probe's profiler, if any.
    struct scope : profile_scope {
        scope(const probe* p, subsystem s)
            : profile_scope(p != nullptr ? p->o_.prof : nullptr, s) {}
    };

    /// Folds one burst's waits into few calls of `Hook`. The attributor
    /// keeps commutative sums keyed by (victim, holder tenant), so adding
    /// equal-key charges first is bit-identical to charging them one by
    /// one. Self-charges (every wait after a resource's first use in the
    /// burst) fold into one sum; foreign waits fold per run of equal
    /// holders — adjacent bursts sweep the same resources, so one prior
    /// user typically holds all of them.
    template <void (probe::*Hook)(task_id, task_id, std::uint64_t)>
    struct wait_fold {
        probe* p;
        task_id task;
        std::uint64_t self = 0;
        task_id fh = no_task;
        std::uint64_t fw = 0;

        void charge(task_id holder, std::uint64_t w) {
            if (holder == task) {
                self += w;
            } else if (holder == fh) {
                fw += w;
            } else {
                if (fw > 0) (p->*Hook)(task, fh, fw);
                fh = holder;
                fw = w;
            }
        }
        void flush() const {
            if (fw > 0) (p->*Hook)(task, fh, fw);
            if (self > 0) (p->*Hook)(task, task, self);
        }
    };

private:
    /// Slot t's open-epoch telemetry counters; nullptr without a bus or
    /// for a slot outside it.
    adapt::task_counters* counters(task_id t) {
        return bus_ != nullptr ? bus_->slot(t) : nullptr;
    }
    static std::uint32_t tid(task_id t) {
        return t < 0 ? trace_tid_untracked : static_cast<std::uint32_t>(t);
    }
    /// Resolves the metric handles once per attach, so each update is a
    /// pointer bump rather than a string-keyed map walk.
    void bind_metric_slots();

    run_observer o_;
    adapt::telemetry_bus* bus_ = nullptr;
    std::vector<task_id> bank_holder_;   // channel * banks + bank
    std::vector<task_id> bus_holder_;    // per channel
    std::vector<task_id> slice_holder_;  // per slice
    std::vector<std::uint32_t> held_pages_;  // page_wait scratch

    struct {
        std::uint64_t* epochs_cut = nullptr;  // null until bound
        std::uint64_t* dram_bytes = nullptr;
        std::uint64_t* dram_throttled = nullptr;
        std::uint64_t* page_wait_cycles = nullptr;
        std::uint64_t* page_timeouts = nullptr;
        std::uint64_t* layers_retired = nullptr;
        std::uint64_t* cache_hits = nullptr;
        std::uint64_t* cache_misses = nullptr;
        std::uint64_t* dma_bytes = nullptr;
        std::uint64_t* completions = nullptr;
        std::uint64_t* deadline_misses = nullptr;
        p2_quantiles* bw_utilization = nullptr;
        p2_quantiles* latency_ms = nullptr;
        p2_quantiles* queue_delay_ms = nullptr;
        double* idle_pages = nullptr;
        double* active_slots = nullptr;
    } mslots_;
};

/// `p` when it attributes waits, else nullptr (hoisted once per burst).
inline probe* attribution_of(probe* p) {
    return p != nullptr && p->attributing() ? p : nullptr;
}

/// Samples the attributor's six cumulative component totals as counter
/// tracks at `at`: the scheduler at epoch cuts, fleets at round barriers.
void trace_attribution(trace_recorder& trace, cycle_t at,
                       const latency_attributor& attr);

}  // namespace camdn::obs
