#include "obs/attribution.h"

#include <cstdio>

#include "obs/metrics.h"

namespace camdn::obs {

const char* top_stall_component(const attribution_components& c) {
    const char* name = "none";
    std::uint64_t best = 0;
    // Struct order breaks ties deterministically (page_wait first).
    const std::uint64_t vals[4] = {c.page_wait, c.dma_stall,
                                   c.dram_contention, c.cache_penalty};
    const char* names[4] = {"page_wait", "dma_stall", "dram_contention",
                            "cache_penalty"};
    for (int i = 0; i < 4; ++i)
        if (vals[i] > best) {
            best = vals[i];
            name = names[i];
        }
    return name;
}

std::uint32_t latency_attributor::intern_tenant(const std::string& abbr) {
    const auto it = by_name_.find(abbr);
    if (it != by_name_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(names_.size());
    names_.push_back(abbr);
    by_name_.emplace(abbr, idx);
    tenants_.emplace_back();
    return idx;
}

latency_attributor::slot_state* latency_attributor::state_of(task_id slot) {
    if (slot < 0) return nullptr;
    const auto s = static_cast<std::size_t>(slot);
    if (s >= slots_.size()) return nullptr;
    return &slots_[s];
}

std::uint32_t latency_attributor::holder_tenant(const slot_state& victim,
                                                task_id holder) {
    const slot_state* h = state_of(holder);
    return (h != nullptr && h->active) ? h->tenant : victim.tenant;
}

void latency_attributor::charge(std::vector<std::uint64_t>& by,
                                std::uint32_t tenant, std::uint64_t cycles) {
    if (by.size() <= tenant) by.resize(names_.size(), 0);
    by[tenant] += cycles;
}

std::uint64_t& latency_attributor::matrix_at(std::uint32_t i,
                                             std::uint32_t j) {
    if (matrix_.size() < names_.size()) matrix_.resize(names_.size());
    auto& row = matrix_[i];
    if (row.size() < names_.size()) row.resize(names_.size(), 0);
    return row[j];
}

void latency_attributor::on_dispatch(task_id slot, const std::string& abbr) {
    if (slot < 0) return;
    const auto s = static_cast<std::size_t>(slot);
    if (s >= slots_.size()) slots_.resize(s + 1);
    slot_state& st = slots_[s];
    st = slot_state{};  // drops vectors back to empty — resized on charge
    st.tenant = intern_tenant(abbr);
}

void latency_attributor::on_inference_start(task_id slot, cycle_t arrival,
                                            cycle_t started) {
    slot_state* st = state_of(slot);
    if (st == nullptr) return;
    st->active = true;
    st->arrival = arrival;
    st->started = started;
}

void latency_attributor::on_page_wait(task_id victim, std::uint64_t cycles,
                                      const std::uint32_t* held_pages,
                                      std::size_t nslots) {
    slot_state* st = state_of(victim);
    if (st == nullptr || !st->active || cycles == 0) return;
    st->page_wait += cycles;

    // Apportion the wait over the *other* slots' current page holdings by
    // the difference-of-prefixes rule: holder k gets
    //   cycles*prefix(k)/total - cycles*prefix(k-1)/total,
    // which sums to `cycles` exactly and is deterministic in slot order.
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < nslots; ++s)
        if (static_cast<task_id>(s) != victim) total += held_pages[s];
    if (total == 0) {
        charge(st->page_by, st->tenant, cycles);
        return;
    }
    std::uint64_t prefix = 0, prev_cut = 0;
    for (std::size_t s = 0; s < nslots; ++s) {
        if (static_cast<task_id>(s) == victim || held_pages[s] == 0) continue;
        prefix += held_pages[s];
        const std::uint64_t cut = cycles * prefix / total;
        const std::uint64_t share = cut - prev_cut;
        prev_cut = cut;
        if (share == 0) continue;
        charge(st->page_by, holder_tenant(*st, static_cast<task_id>(s)),
               share);
    }
}

void latency_attributor::on_layer_retired(task_id slot, std::uint64_t span,
                                          std::uint64_t compute) {
    slot_state* st = state_of(slot);
    if (st == nullptr || !st->active) return;
    st->span += span;
    st->compute += compute < span ? compute : span;
}

void latency_attributor::on_dram_wait(task_id victim, task_id holder,
                                      std::uint64_t cycles) {
    slot_state* st = state_of(victim);
    if (st == nullptr || !st->active || cycles == 0) return;
    st->dram_raw += cycles;
    charge(st->dram_by, holder_tenant(*st, holder), cycles);
}

void latency_attributor::on_cache_wait(task_id victim, task_id holder,
                                       std::uint64_t cycles) {
    slot_state* st = state_of(victim);
    if (st == nullptr || !st->active || cycles == 0) return;
    st->cache_raw += cycles;
    charge(st->cache_by, holder_tenant(*st, holder), cycles);
}

void latency_attributor::on_dma_window_wait(task_id slot,
                                            std::uint64_t cycles) {
    if (state_of(slot) != nullptr) dma_window_wait_ += cycles;
}

namespace {

/// Scales per-holder raw charges (summing to `raw_total`) down to the
/// capped component total by the same sum-preserving prefix rule used for
/// page waits. No-op when raw_total == 0.
void scale_into_row(const std::vector<std::uint64_t>& by,
                    std::uint64_t raw_total, std::uint64_t capped,
                    std::vector<std::uint64_t>& row) {
    if (raw_total == 0 || capped == 0) return;
    std::uint64_t prefix = 0, prev_cut = 0;
    for (std::size_t j = 0; j < by.size(); ++j) {
        if (by[j] == 0) continue;
        prefix += by[j];
        const std::uint64_t cut = capped * prefix / raw_total;
        row[j] += cut - prev_cut;
        prev_cut = cut;
    }
}

}  // namespace

void latency_attributor::on_inference_end(task_id slot, cycle_t end) {
    slot_state* st = state_of(slot);
    if (st == nullptr || !st->active) return;

    attribution_components comp;
    comp.queue_wait = st->started - st->arrival;
    comp.page_wait = st->page_wait;
    comp.compute = st->compute;
    const std::uint64_t stall = st->span - st->compute;
    // Waterfall: raw DRAM waits first, raw cache waits on the remainder,
    // residual = the DMA double-buffer gate. The caps keep components
    // exclusive even though raw waits overlap inside double-buffered spans.
    comp.dram_contention = st->dram_raw < stall ? st->dram_raw : stall;
    const std::uint64_t after_dram = stall - comp.dram_contention;
    comp.cache_penalty =
        st->cache_raw < after_dram ? st->cache_raw : after_dram;
    comp.dma_stall = after_dram - comp.cache_penalty;

    const std::uint32_t i = st->tenant;
    // Interference row: exact page-wait charges, scaled DRAM/cache charges,
    // residual dma_stall on the diagonal. Row sum == comp.stall_sum().
    if (matrix_.size() < names_.size()) matrix_.resize(names_.size());
    auto& row_store = matrix_[i];
    if (row_store.size() < names_.size()) row_store.resize(names_.size(), 0);
    for (std::size_t j = 0; j < st->page_by.size(); ++j)
        row_store[j] += st->page_by[j];
    scale_into_row(st->dram_by, st->dram_raw, comp.dram_contention,
                   row_store);
    scale_into_row(st->cache_by, st->cache_raw, comp.cache_penalty,
                   row_store);
    row_store[i] += comp.dma_stall;

    tenant_attribution& t = tenants_[i];
    t.completed += 1;
    t.latency_cycles += end - st->arrival;
    t.comp.accumulate(comp);

    if (keep_records_)
        records_.push_back({slot, i, st->arrival, end, comp});

    *st = slot_state{};
}

std::uint64_t latency_attributor::interference(std::uint32_t i,
                                               std::uint32_t j) const {
    if (i >= matrix_.size()) return 0;
    const auto& row = matrix_[i];
    return j < row.size() ? row[j] : 0;
}

std::uint64_t latency_attributor::interference_row_sum(
    std::uint32_t i) const {
    if (i >= matrix_.size()) return 0;
    std::uint64_t sum = 0;
    for (const auto v : matrix_[i]) sum += v;
    return sum;
}

attribution_components latency_attributor::totals() const {
    attribution_components total;
    for (const auto& t : tenants_) total.accumulate(t.comp);
    return total;
}

void latency_attributor::absorb(const latency_attributor& src) {
    std::vector<std::uint32_t> remap(src.names_.size());
    for (std::size_t i = 0; i < src.names_.size(); ++i)
        remap[i] = intern_tenant(src.names_[i]);
    for (std::size_t i = 0; i < src.tenants_.size(); ++i) {
        tenant_attribution& t = tenants_[remap[i]];
        t.completed += src.tenants_[i].completed;
        t.latency_cycles += src.tenants_[i].latency_cycles;
        t.comp.accumulate(src.tenants_[i].comp);
    }
    for (std::size_t i = 0; i < src.matrix_.size(); ++i)
        for (std::size_t j = 0; j < src.matrix_[i].size(); ++j)
            if (src.matrix_[i][j] != 0)
                matrix_at(remap[i], remap[j]) += src.matrix_[i][j];
    if (keep_records_)
        for (inference_attribution rec : src.records_) {
            rec.tenant = remap[rec.tenant];
            records_.push_back(rec);
        }
    dma_window_wait_ += src.dma_window_wait_;
}

void latency_attributor::clear_completed() {
    for (auto& t : tenants_) t = tenant_attribution{};
    matrix_.clear();
    records_.clear();
    dma_window_wait_ = 0;
}

void latency_attributor::export_metrics(metrics_registry& m) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        const std::string prefix = "attr." + names_[i] + ".";
        m.set(prefix + "completed", tenants_[i].completed);
        m.set(prefix + "latency_cycles", tenants_[i].latency_cycles);
        for (std::size_t c = 0; c < 6; ++c)
            m.set(prefix + attribution_component_names[c] + "_cycles",
                  attribution_component(tenants_[i].comp, c));
    }
    for (std::size_t i = 0; i < matrix_.size(); ++i)
        for (std::size_t j = 0; j < matrix_[i].size(); ++j)
            if (matrix_[i][j] != 0)
                m.set("attr.interference." + names_[i] + "." + names_[j],
                      matrix_[i][j]);
    const attribution_components total = totals();
    for (std::size_t c = 0; c < 6; ++c)
        m.set(std::string("attr.total.") + attribution_component_names[c] +
                  "_cycles",
              attribution_component(total, c));
    m.set("attr.total.dma_window_wait_cycles", dma_window_wait_);
}

std::string latency_attributor::jsonl_row(std::uint32_t soc,
                                          std::uint64_t epoch) const {
    const attribution_components t = totals();
    std::uint64_t completed = 0;
    for (const auto& ten : tenants_) completed += ten.completed;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"type\":\"attribution\",\"soc\":%u,\"epoch\":%llu,"
        "\"completed\":%llu,\"queue_wait\":%llu,\"page_wait\":%llu,"
        "\"dma_stall\":%llu,\"dram_contention\":%llu,"
        "\"cache_penalty\":%llu,\"compute\":%llu}",
        soc, static_cast<unsigned long long>(epoch),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(t.queue_wait),
        static_cast<unsigned long long>(t.page_wait),
        static_cast<unsigned long long>(t.dma_stall),
        static_cast<unsigned long long>(t.dram_contention),
        static_cast<unsigned long long>(t.cache_penalty),
        static_cast<unsigned long long>(t.compute));
    return buf;
}

}  // namespace camdn::obs
