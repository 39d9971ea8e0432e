// The simulated SoC: event queue, DRAM, sliced shared cache, the DMA
// engine and the typed-event layer engine, wired per soc_config and
// configured for a policy. The NPU cores are soc_config::npu.cores ids
// the scheduler hands out; no per-core state lives here.
// It owns the probe every component reports to (obs/probe.h), and with it
// the attribution holder tables, which live in obs::probe alone.
#pragma once

#include <memory>

#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "dram/dram_system.h"
#include "npu/dma_engine.h"
#include "obs/probe.h"
#include "sim/layer_engine.h"
#include "sim/soc_config.h"

namespace camdn::sim {

class soc {
public:
    explicit soc(const soc_config& config, policy pol);

    event_queue& eq() { return eq_; }
    const event_queue& eq() const { return eq_; }
    dram::dram_system& dram() { return *dram_; }
    const dram::dram_system& dram() const { return *dram_; }
    cache::shared_cache& cache() { return *cache_; }
    const cache::shared_cache& cache() const { return *cache_; }
    npu::dma_engine& dma() { return *dma_; }
    const npu::dma_engine& dma() const { return *dma_; }
    layer_engine& layers() { return *layers_; }
    const layer_engine& layers() const { return *layers_; }

    const soc_config& config() const { return config_; }
    policy active_policy() const { return policy_; }

    /// Attaches the observer's sinks and the telemetry bus (nullptr: none)
    /// to the probe and points every component at it — or at nothing
    /// while nothing is attached. Never changes simulated behavior.
    void attach(const obs::run_observer& o, adapt::telemetry_bus* bus);
    /// The probe while anything is attached to it, else nullptr.
    obs::probe* probe() { return probe_.attached() ? &probe_ : nullptr; }

private:
    soc_config config_;
    policy policy_;
    event_queue eq_;
    std::unique_ptr<dram::dram_system> dram_;
    std::unique_ptr<cache::shared_cache> cache_;
    std::unique_ptr<npu::dma_engine> dma_;
    std::unique_ptr<layer_engine> layers_;
    obs::probe probe_;
};

}  // namespace camdn::sim
