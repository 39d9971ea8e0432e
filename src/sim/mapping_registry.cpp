#include "sim/mapping_registry.h"

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapping/layer_mapper.h"

namespace camdn::sim {

namespace {

/// The fields that define a registry key on the config side: every field
/// the mapper reads (tiling, cost model, segmentation and the latency
/// estimate's bandwidths), so configs differing only in the core count
/// share one entry.
bool same_key_fields(const mapping::mapper_config& a,
                     const mapping::mapper_config& b) {
    return a.npu.pe_rows == b.npu.pe_rows && a.npu.pe_cols == b.npu.pe_cols &&
           a.npu.scratchpad_bytes == b.npu.scratchpad_bytes &&
           a.npu.pipeline_fill == b.npu.pipeline_fill &&
           a.npu.simd_lanes == b.npu.simd_lanes &&
           a.page_bytes == b.page_bytes &&
           a.lbm_block_budget == b.lbm_block_budget &&
           a.lbm_max_layers == b.lbm_max_layers &&
           a.est_dram_bytes_per_cycle == b.est_dram_bytes_per_cycle &&
           a.est_cache_bytes_per_cycle == b.est_cache_bytes_per_cycle &&
           a.usage_levels == b.usage_levels;
}

/// Interning tables + entry store. Everything behind registry_mutex.
struct registry_state {
    /// Accelerator: model object -> name id (models are long-lived
    /// statics; distinct objects sharing a name collapse to one id).
    std::unordered_map<const void*, std::uint32_t> model_ids;
    std::unordered_map<std::string, std::uint32_t> name_ids;
    std::vector<mapping::mapper_config> configs;
    /// (name id << 32 | config id) -> mapping. Values live in a deque so
    /// references stay stable for the process lifetime.
    std::unordered_map<std::uint64_t, mapping::model_mapping*> entries;
    std::deque<mapping::model_mapping> store;
};

std::mutex registry_mutex;

registry_state& registry() {
    static registry_state instance;
    return instance;
}

std::uint32_t intern_name(registry_state& reg, const model::model& m) {
    const auto hit = reg.model_ids.find(&m);
    if (hit != reg.model_ids.end()) return hit->second;
    const auto [it, fresh] = reg.name_ids.emplace(
        m.name, static_cast<std::uint32_t>(reg.name_ids.size()));
    reg.model_ids.emplace(&m, it->second);
    return it->second;
}

std::uint32_t intern_config(registry_state& reg,
                            const mapping::mapper_config& cfg) {
    for (std::uint32_t i = 0; i < reg.configs.size(); ++i)
        if (same_key_fields(reg.configs[i], cfg)) return i;
    reg.configs.push_back(cfg);
    return static_cast<std::uint32_t>(reg.configs.size() - 1);
}

std::uint64_t entry_key(std::uint32_t name_id, std::uint32_t config_id) {
    return (static_cast<std::uint64_t>(name_id) << 32) | config_id;
}

}  // namespace

const mapping::model_mapping& mapping_for(const model::model& m,
                                          const mapping::mapper_config& cfg) {
    // Sweep threads share the registry. Mapping runs outside the lock so
    // concurrent first uses of *different* models proceed in parallel; a
    // race on the same key wastes one mapping and keeps the first entry
    // (store references stay stable either way).
    auto& reg = registry();
    std::uint64_t key;
    {
        std::lock_guard<std::mutex> lock(registry_mutex);
        key = entry_key(intern_name(reg, m), intern_config(reg, cfg));
        const auto it = reg.entries.find(key);
        if (it != reg.entries.end()) return *it->second;
    }
    auto mapped = mapping::map_model(m, cfg);
    std::lock_guard<std::mutex> lock(registry_mutex);
    const auto it = reg.entries.find(key);
    if (it != reg.entries.end()) return *it->second;
    reg.store.push_back(std::move(mapped));
    reg.entries.emplace(key, &reg.store.back());
    return reg.store.back();
}

void clear_mapping_registry() {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(registry_mutex);
    reg.model_ids.clear();
    reg.name_ids.clear();
    reg.configs.clear();
    reg.entries.clear();
    reg.store.clear();
}

}  // namespace camdn::sim
