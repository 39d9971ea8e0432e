#include "obs/probe.h"

#include <algorithm>

#include "common/event_queue.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"

namespace camdn::obs {

probe::probe(std::size_t dram_banks, std::size_t dram_channels,
             std::size_t cache_slices)
    : bank_holder_(dram_banks, no_task),
      bus_holder_(dram_channels, no_task),
      slice_holder_(cache_slices, no_task) {}

void probe::attach(const run_observer& o, adapt::telemetry_bus* bus) {
    if (o.attr != o_.attr && o.attr != nullptr)
        for (auto* table : {&bank_holder_, &bus_holder_, &slice_holder_})
            std::fill(table->begin(), table->end(), no_task);
    o_ = o;
    bus_ = bus;
    mslots_ = {};
}

void probe::bind_metric_slots() {
    if (mslots_.epochs_cut != nullptr) return;
    metrics_registry& m = *o_.metrics;
    mslots_.epochs_cut = m.counter_slot("sim.epochs_cut");
    mslots_.dram_bytes = m.counter_slot("sim.dram_bytes");
    mslots_.dram_throttled = m.counter_slot("sim.dram_throttled");
    mslots_.page_wait_cycles = m.counter_slot("sim.page_wait_cycles");
    mslots_.page_timeouts = m.counter_slot("sim.page_timeouts");
    mslots_.layers_retired = m.counter_slot("sim.layers_retired");
    mslots_.cache_hits = m.counter_slot("sim.cache_hits");
    mslots_.cache_misses = m.counter_slot("sim.cache_misses");
    mslots_.dma_bytes = m.counter_slot("sim.dma_bytes");
    mslots_.completions = m.counter_slot("sched.completions");
    mslots_.deadline_misses = m.counter_slot("sched.deadline_misses");
    mslots_.bw_utilization = &m.histogram("sim.epoch_bw_utilization");
    mslots_.latency_ms = &m.histogram("sched.latency_ms");
    mslots_.queue_delay_ms = &m.histogram("sched.queue_delay_ms");
    mslots_.idle_pages = m.gauge_slot("sim.idle_pages");
    mslots_.active_slots = m.gauge_slot("sim.active_slots");
}

void probe::layer_retired(task_id t, const std::string& abbr,
                          std::uint32_t layer, cycle_t issue, cycle_t end,
                          std::uint64_t compute, bool lbm) {
    const std::uint64_t span = end > issue ? end - issue : 0;
    if (auto* c = counters(t)) {
        c->layers_retired += 1;
        if (lbm) c->lbm_layers += 1;
    }
    if (o_.attr != nullptr) o_.attr->on_layer_retired(t, span, compute);
    if (o_.trace != nullptr)
        o_.trace->complete_arg(o_.trace->intern(abbr),
                               lbm ? "layer.lbm" : "layer", tid(t), issue, end,
                               layer);
}

void probe::inference_start(task_id slot, const std::string& abbr,
                            cycle_t arrival, cycle_t started) {
    if (o_.attr == nullptr) return;
    o_.attr->on_dispatch(slot, abbr);
    o_.attr->on_inference_start(slot, arrival, started);
}

void probe::page_timeout(task_id slot, cycle_t now, bool was_lbm) {
    if (auto* c = counters(slot)) {
        c->page_timeouts += 1;
        if (was_lbm) c->lbm_downgrades += 1;
    }
    if (o_.trace != nullptr)
        o_.trace->instant("page_timeout", "sched", tid(slot), now);
}

void probe::completion(task_id slot, const std::string& abbr,
                       std::uint32_t cores, cycle_t arrival, cycle_t started,
                       cycle_t end, cycle_t deadline) {
    if (auto* c = counters(slot)) {
        c->completions += 1;
        if (deadline != never) {
            c->deadline_completions += 1;
            c->slack_cycles += static_cast<std::int64_t>(deadline) -
                               static_cast<std::int64_t>(end);
            if (end > deadline) c->deadline_misses += 1;
        }
    }
    if (o_.trace != nullptr)
        o_.trace->complete_arg(o_.trace->intern(abbr), "inference", tid(slot),
                               started, end, cores);
    if (o_.metrics != nullptr) {
        bind_metric_slots();
        *mslots_.completions += 1;
        mslots_.latency_ms->add(cycles_to_ms(end - arrival));
        mslots_.queue_delay_ms->add(cycles_to_ms(started - arrival));
        if (deadline != never && end > deadline) *mslots_.deadline_misses += 1;
    }
    if (o_.attr != nullptr) o_.attr->on_inference_end(slot, end);
}

void probe::epoch_cut(const adapt::epoch_snapshot& snap, cycle_t now) {
    if (o_.epochs != nullptr) o_.epochs->epoch_row(o_.soc_index, snap);
    if (o_.metrics != nullptr) {
        bind_metric_slots();
        *mslots_.epochs_cut += 1;
        *mslots_.dram_bytes += snap.dram_bytes;
        *mslots_.dram_throttled += snap.dram_throttled;
        *mslots_.page_wait_cycles += snap.total_page_wait();
        *mslots_.page_timeouts += snap.total_timeouts();
        for (const auto& t : snap.tasks) {
            *mslots_.layers_retired += t.layers_retired;
            *mslots_.cache_hits += t.cache_hits;
            *mslots_.cache_misses += t.cache_misses;
            *mslots_.dma_bytes += t.dma_bytes;
        }
        mslots_.bw_utilization->add(snap.bw_utilization);
        *mslots_.idle_pages = snap.idle_pages;
        *mslots_.active_slots = snap.active_slots;
    }
    if (o_.attr != nullptr) {
        if (o_.epochs != nullptr)
            o_.epochs->row(o_.attr->jsonl_row(o_.soc_index, snap.index));
        if (o_.trace != nullptr) trace_attribution(*o_.trace, now, *o_.attr);
    }
}

void probe::run_totals(const event_queue& eq) {
    metrics_registry* m = o_.metrics;
    if (m == nullptr) return;
    // set(), not add(): a segment may report more than once, and these
    // are run totals, not deltas.
    m->set("eq.events_executed", eq.executed_events());
    m->set("eq.dispatch.dma", eq.typed_dispatched(event_channel::dma));
    m->set("eq.dispatch.layer", eq.typed_dispatched(event_channel::layer));
    m->set("eq.dispatch.sched", eq.typed_dispatched(event_channel::sched));
    if (o_.attr != nullptr) o_.attr->export_metrics(*m);
}

void trace_attribution(trace_recorder& trace, cycle_t at,
                       const latency_attributor& attr) {
    // Literals: the recorder keeps the name pointers.
    static constexpr const char* tracks[6] = {
        "attr.queue_wait",      "attr.page_wait",     "attr.dma_stall",
        "attr.dram_contention", "attr.cache_penalty", "attr.compute"};
    const attribution_components tot = attr.totals();
    for (std::size_t c = 0; c < 6; ++c)
        trace.counter(tracks[c], 0, at, attribution_component(tot, c));
}

}  // namespace camdn::obs
