// Per-request critical-path attribution and cross-tenant interference
// accounting.
//
// A latency_attributor decomposes every completed inference's end-to-end
// latency into six exclusive simulated-cycle components that sum
// *bit-exactly* to (end - arrival):
//
//   queue_wait       admission queue + free-slot wait (arrival -> started)
//   page_wait        Algorithm-1 page-negotiation retry wait
//   compute          pure MAC-array cycles (sum of per-tile compute)
//   dram_contention  DRAM bank/bus/regulation delay beyond isolated service
//   cache_penalty    shared-cache slice contention + transparent-miss fills
//   dma_stall        residual transfer time the double buffer failed to
//                    hide (the DMA gate between load_done and compute)
//
// The decomposition is a timeline partition: [started, end] tiles exactly
// into layer spans plus negotiation waits (the typed-event engine fires
// every layer's completion sink at the final transfer/compute instant), and
// each layer span splits into compute plus stall. The stall is then
// attributed by a deterministic waterfall: raw DRAM waits first (capped by
// the stall), raw cache waits next (capped by the remainder), and whatever
// is left is the DMA double-buffer gate. The caps matter: raw waits are
// measured per memory access and can overlap inside one double-buffered
// span, so they bound — never exceed — the observed stall.
//
// Interference matrix: M[i][j] = cycles tenant i lost while tenant j held
// the contended resource (cache pages during negotiation, DRAM bank/bus
// slots, cache slices and victim lines). Row i sums bit-exactly to tenant
// i's page_wait + dram_contention + cache_penalty + dma_stall: exact raw
// charges (page waits) are apportioned over the current page holders, and
// capped components are scaled from the per-holder raws by a
// difference-of-prefixes integer rule (sum-preserving, deterministic,
// order-stable). The dma_stall residual lands on the diagonal — it is the
// tenant's own transfer volume, not another tenant's fault.
//
// Same zero-overhead-off contract as the rest of obs/: the attributor is a
// nullable borrowed pointer on obs::run_observer, fed by the SoC's probe
// (obs/probe.h, which also owns the holder tables naming who held a
// contended DRAM bank, bus or cache slice); nothing it touches enters
// fingerprints or snapshot bytes, and an attached run's results are
// bit-identical to a bare run. Attribution state is intentionally *not*
// serialized: an inference carried across a snapshot boundary re-anchors
// and is simply not attributed (its completion record is unaffected).
// Fleet rounds continue each SoC in place with one attributor for its
// lifetime, so inferences that straddle a round barrier are attributed.
//
// Depends only on common/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace camdn::obs {

class metrics_registry;

/// The six exclusive latency components, simulated cycles.
struct attribution_components {
    std::uint64_t queue_wait = 0;
    std::uint64_t page_wait = 0;
    std::uint64_t dma_stall = 0;
    std::uint64_t dram_contention = 0;
    std::uint64_t cache_penalty = 0;
    std::uint64_t compute = 0;

    std::uint64_t sum() const {
        return queue_wait + page_wait + dma_stall + dram_contention +
               cache_penalty + compute;
    }
    /// The four components that can be charged to resource holders (the
    /// interference-matrix row total excludes queue_wait and compute).
    std::uint64_t stall_sum() const {
        return page_wait + dma_stall + dram_contention + cache_penalty;
    }
    void accumulate(const attribution_components& o) {
        queue_wait += o.queue_wait;
        page_wait += o.page_wait;
        dma_stall += o.dma_stall;
        dram_contention += o.dram_contention;
        cache_penalty += o.cache_penalty;
        compute += o.compute;
    }
};

/// Component names in struct order — shared by every exporter (metrics
/// keys, JSONL rows, trace counter tracks, camdn_report columns).
inline constexpr const char* attribution_component_names[6] = {
    "queue_wait", "page_wait", "dma_stall",
    "dram_contention", "cache_penalty", "compute"};

inline std::uint64_t attribution_component(const attribution_components& c,
                                           std::size_t i) {
    switch (i) {
        case 0: return c.queue_wait;
        case 1: return c.page_wait;
        case 2: return c.dma_stall;
        case 3: return c.dram_contention;
        case 4: return c.cache_penalty;
        default: return c.compute;
    }
}

/// Of the four blameable stall components, the name of the largest
/// ("none" when the request never stalled).
const char* top_stall_component(const attribution_components& c);

/// One fully attributed inference. comp.sum() == end - arrival, enforced
/// by tests/test_attribution.cpp across every covered scenario.
struct inference_attribution {
    task_id slot = no_task;
    std::uint32_t tenant = 0;  ///< index into tenant_names()
    cycle_t arrival = 0;
    cycle_t end = 0;
    attribution_components comp;
};

/// Per-tenant rollup across completed inferences.
struct tenant_attribution {
    std::uint64_t completed = 0;
    /// Sum of (end - arrival) over attributed inferences; equals
    /// comp.sum() bit-exactly.
    std::uint64_t latency_cycles = 0;
    attribution_components comp;
};

class latency_attributor {
public:
    // ---- wiring (scheduler / engine / DMA / DRAM / cache hooks) ----

    /// Interns a tenant (model abbreviation) and returns its index.
    std::uint32_t intern_tenant(const std::string& abbr);

    /// A slot was dispatched an inference of `abbr`. Resets the slot's
    /// accumulators; charges before the matching on_inference_start are
    /// dropped.
    void on_dispatch(task_id slot, const std::string& abbr);
    /// The dispatched inference left the queue and issued its first layer.
    void on_inference_start(task_id slot, cycle_t arrival, cycle_t started);
    /// One Algorithm-1 negotiation wait interval of `cycles`.
    /// `held_pages[s]` is the page count slot s currently holds; the wait
    /// is apportioned over the other slots' holdings (all to self when no
    /// other slot holds pages).
    void on_page_wait(task_id victim, std::uint64_t cycles,
                      const std::uint32_t* held_pages, std::size_t nslots);
    /// A layer retired on `slot`: wall span and pure-compute cycles.
    void on_layer_retired(task_id slot, std::uint64_t span,
                          std::uint64_t compute);
    /// Raw DRAM wait (bank busy, bus busy or regulation throttle) of
    /// `cycles` suffered by `victim` behind `holder` (no_task / self =
    /// self-inflicted).
    void on_dram_wait(task_id victim, task_id holder, std::uint64_t cycles);
    /// Raw shared-cache wait (slice occupancy or transparent-miss fill)
    /// suffered by `victim` behind `holder`.
    void on_cache_wait(task_id victim, task_id holder, std::uint64_t cycles);
    /// Diagnostic only (not one of the six components): cycles a DMA
    /// flight spent gated on its in-flight window.
    void on_dma_window_wait(task_id slot, std::uint64_t cycles);
    /// The inference on `slot` completed at `end`: finalize the waterfall
    /// split, fold into tenant totals and the interference matrix.
    void on_inference_end(task_id slot, cycle_t end);

    // ---- results ----

    /// Keep per-inference records (default on; fleets folding many SoCs
    /// may turn it off to bound memory).
    void set_keep_records(bool on) { keep_records_ = on; }

    const std::vector<inference_attribution>& records() const {
        return records_;
    }
    const std::vector<std::string>& tenant_names() const { return names_; }
    const std::vector<tenant_attribution>& tenants() const { return tenants_; }
    /// Interference cycles tenant i lost to tenant j (0 when untracked).
    std::uint64_t interference(std::uint32_t i, std::uint32_t j) const;
    /// Row sum of the interference matrix for tenant i — bit-equal to
    /// tenants()[i].comp.stall_sum().
    std::uint64_t interference_row_sum(std::uint32_t i) const;
    /// Fleet-wide totals across all tenants.
    attribution_components totals() const;

    /// Merges another attributor's completed totals (tenants matched by
    /// name). Fleet runs fold each live SoC's attributor into a master at
    /// round barriers, in fleet order — deterministic across sweep-pool
    /// widths.
    void absorb(const latency_attributor& src);
    /// Zeroes the completed totals: tenant rollups, the interference
    /// matrix, records and the window-wait diagnostic. Tenant names and
    /// every slot's in-flight state stay, so an inference that started
    /// before the clear is still attributed when it ends. A fleet clears
    /// each SoC's attributor once its round is absorbed.
    void clear_completed();

    /// Writes `attr.<tenant>.<component>` counters, per-tenant
    /// `attr.<tenant>.{completed,latency_cycles}` and the non-zero matrix
    /// entries `attr.interference.<victim>.<holder>` into `m` (set
    /// semantics: totals, idempotent).
    void export_metrics(metrics_registry& m) const;

    /// One JSONL row (`{"type":"attribution",...}`) with cumulative
    /// component totals — emitted by the scheduler at epoch cuts and by
    /// fleet runs at round barriers.
    std::string jsonl_row(std::uint32_t soc, std::uint64_t epoch) const;

private:
    struct slot_state {
        bool active = false;
        std::uint32_t tenant = 0;
        cycle_t arrival = 0;
        cycle_t started = 0;
        std::uint64_t page_wait = 0;
        std::uint64_t span = 0;
        std::uint64_t compute = 0;
        std::uint64_t dram_raw = 0;
        std::uint64_t cache_raw = 0;
        // Per-holder-tenant raw charges; each sums to the matching total.
        std::vector<std::uint64_t> page_by;
        std::vector<std::uint64_t> dram_by;
        std::vector<std::uint64_t> cache_by;
    };

    slot_state* state_of(task_id slot);
    std::uint32_t holder_tenant(const slot_state& victim, task_id holder);
    void charge(std::vector<std::uint64_t>& by, std::uint32_t tenant,
                std::uint64_t cycles);
    std::uint64_t& matrix_at(std::uint32_t i, std::uint32_t j);

    bool keep_records_ = true;
    std::vector<slot_state> slots_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> by_name_;
    std::vector<tenant_attribution> tenants_;
    /// Row-major tenant-pair matrix, grown on demand.
    std::vector<std::vector<std::uint64_t>> matrix_;
    std::vector<inference_attribution> records_;
    std::uint64_t dma_window_wait_ = 0;
};

}  // namespace camdn::obs
