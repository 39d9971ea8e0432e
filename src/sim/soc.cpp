#include "sim/soc.h"

namespace camdn::sim {

const char* policy_name(policy p) {
    switch (p) {
        case policy::shared_baseline: return "Shared-Baseline";
        case policy::moca: return "MoCA";
        case policy::aurora: return "AuRORA";
        case policy::camdn_hw_only: return "CaMDN(HW-only)";
        case policy::camdn_full: return "CaMDN(Full)";
        case policy::camdn_adaptive: return "CaMDN(Adaptive)";
    }
    return "?";
}

soc::soc(const soc_config& config, policy pol)
    : config_(config),
      policy_(pol),
      probe_(std::size_t{config.dram.channels} * config.dram.banks_per_channel,
             config.dram.channels, config.cache.slices) {
    dram_ = std::make_unique<dram::dram_system>(config_.dram);
    // Way-mask register: CaMDN partitions the transparent path down to the
    // CPU ways; baselines run the whole cache transparently.
    cache_ = std::make_unique<cache::shared_cache>(
        config_.cache, *dram_,
        is_camdn(pol) ? config_.cache.cpu_ways() : config_.cache.ways);
    dma_ = std::make_unique<npu::dma_engine>(eq_, *cache_);
    layers_ = std::make_unique<layer_engine>(*this);
}

void soc::attach(const obs::run_observer& o, adapt::telemetry_bus* bus) {
    probe_.attach(o, bus);
    obs::probe* const p = probe();
    dram_->set_probe(p);
    cache_->set_probe(p);
    dma_->set_probe(p);
    layers_->set_probe(p);
}

}  // namespace camdn::sim
