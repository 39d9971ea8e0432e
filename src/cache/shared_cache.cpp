#include "cache/shared_cache.h"

#include <algorithm>
#include <cassert>

#include "obs/attribution.h"

namespace camdn::cache {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_of(std::uint64_t v) {
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v) ++s;
    return s;
}
}  // namespace

shared_cache::shared_cache(const cache_config& config, dram::dram_system& dram)
    : config_(config),
      dram_(dram),
      sets_(config.sets_per_slice()),
      transparent_ways_(config.ways),
      lines_(static_cast<std::size_t>(config.slices) * sets_ * config.ways),
      slice_free_(config.slices, 0),
      pages_(config) {
    pow2_geometry_ = is_pow2(config_.slices) && is_pow2(sets_);
    if (pow2_geometry_) {
        slice_shift_ = log2_of(config_.slices);
        slice_mask_ = config_.slices - 1;
        set_mask_ = sets_ - 1;
    }
}

void shared_cache::set_transparent_ways(std::uint32_t ways) {
    assert(ways >= 1 && ways <= config_.ways);
    transparent_ways_ = ways;
}

cycle_t shared_cache::occupy_slice(std::uint32_t slice, cycle_t arrival,
                                   task_id task) {
    cycle_t start = std::max(arrival, slice_free_[slice]);
    if (attr_ != nullptr) {
        if (start > arrival)
            attr_->on_cache_wait(task, slice_user_[slice], start - arrival);
        slice_user_[slice] = task;
    }
    slice_free_[slice] = start + 1;
    ++stats_.slice_busy_cycles;
    return start + 1;
}

cycle_t shared_cache::occupy_striped(std::uint32_t start_slice,
                                     std::uint64_t nlines, cycle_t arrival,
                                     task_id task) {
    // Consecutive lines visit slices round-robin beginning at start_slice,
    // so slice s serves floor(n/slices) lines plus one if its offset from
    // start_slice is below n mod slices.
    const std::uint32_t slices = config_.slices;
    const std::uint64_t base = nlines / slices;
    const std::uint64_t rem = nlines % slices;
    const std::uint32_t start_mod = start_slice % slices;
    cycle_t done = arrival;
    for (std::uint32_t s = 0; s < slices; ++s) {
        // s + slices - start_mod is in [1, 2*slices), so one conditional
        // subtract replaces the modulo.
        std::uint32_t offset = s + slices - start_mod;
        if (offset >= slices) offset -= slices;
        const std::uint64_t n = base + (offset < rem ? 1 : 0);
        if (n == 0) continue;
        const cycle_t start = std::max(arrival, slice_free_[s]);
        if (attr_ != nullptr) {
            if (start > arrival)
                attr_->on_cache_wait(task, slice_user_[s], start - arrival);
            slice_user_[s] = task;
        }
        slice_free_[s] = start + n;
        stats_.slice_busy_cycles += n;
        done = std::max(done, slice_free_[s]);
    }
    return done;
}

void shared_cache::set_attribution(obs::latency_attributor* attr) {
    if (attr == attr_) return;  // re-attach: the holders stay current
    attr_ = attr;
    if (attr_ != nullptr) {
        slice_user_.assign(config_.slices, no_task);
        // Raw penalty of a transparent read miss over the hit it displaced:
        // the isolated DRAM line service plus fill/NoC hops. DRAM *waits*
        // inside the miss are charged by the DRAM hooks — this constant
        // deliberately excludes them to avoid double counting.
        miss_penalty_cycles_ = dram_.isolated_line_service_cycles() +
                               config_.fill_latency + config_.noc_latency;
    }
}

void shared_cache::bump_task(std::vector<std::uint64_t>& v, task_id task) {
    if (task < 0) return;
    if (static_cast<std::size_t>(task) >= v.size()) v.resize(task + 1, 0);
    ++v[task];
}

access_result shared_cache::transparent_access(addr_t paddr, bool is_write,
                                               cycle_t arrival, task_id task) {
    const std::uint64_t line_id = paddr / line_bytes;
    std::uint32_t slice, set;
    if (pow2_geometry_) {
        slice = static_cast<std::uint32_t>(line_id & slice_mask_);
        set = static_cast<std::uint32_t>((line_id >> slice_shift_) & set_mask_);
    } else {
        slice = static_cast<std::uint32_t>(line_id % config_.slices);
        set = static_cast<std::uint32_t>((line_id / config_.slices) % sets_);
    }

    line_entry* chosen = nullptr;
    line_entry* invalid_way = nullptr;
    line_entry* lru_way = nullptr;
    for (std::uint32_t w = 0; w < transparent_ways_; ++w) {
        line_entry& e = lines_[entry_index(slice, set, w)];
        if (e.valid && e.tag == line_id) {
            chosen = &e;
            break;
        }
        if (!e.valid) {
            if (invalid_way == nullptr) invalid_way = &e;
        } else if (lru_way == nullptr || e.lru < lru_way->lru) {
            lru_way = &e;
        }
    }

    const cycle_t service = occupy_slice(slice, arrival, task);

    if (chosen != nullptr) {  // hit
        ++stats_.hits;
        bump_task(task_hits_, task);
        if (telemetry_) telemetry_->on_cache_access(task, true);
        chosen->lru = ++lru_tick_;
        if (is_write) chosen->dirty = true;
        return access_result{true, service + config_.hit_latency};
    }

    // Miss.
    ++stats_.misses;
    bump_task(task_misses_, task);
    if (telemetry_) telemetry_->on_cache_access(task, false);
    line_entry& victim = invalid_way != nullptr ? *invalid_way : *lru_way;
    if (attr_ != nullptr && !is_write) {
        // Blame the fill on whoever's line the requester lost: with an
        // invalid way free the miss is cold (self-inflicted); otherwise the
        // victim's owner displaced the requester's working set.
        const task_id holder =
            victim.valid && victim.owner != task ? victim.owner : task;
        attr_->on_cache_wait(task, holder, miss_penalty_cycles_);
    }
    if (victim.valid) {
        ++stats_.evictions;
        if (victim.owner != task) ++stats_.inter_task_evictions;
        if (victim.dirty) {
            ++stats_.writebacks;
            // Fire-and-forget writeback: occupies the DRAM bus but nobody
            // waits on it. Attributed to the data's owner.
            dram_.access(victim.tag * line_bytes, /*is_write=*/true, service,
                         victim.owner);
        }
    }
    victim.valid = true;
    victim.tag = line_id;
    victim.owner = task;
    victim.lru = ++lru_tick_;
    victim.dirty = is_write;

    if (is_write) {
        // NPU DMA writes full lines: write-validate, no fetch-on-write.
        return access_result{false, service + config_.hit_latency};
    }

    ++stats_.read_miss_fills;
    const cycle_t dram_done = dram_.access(paddr, /*is_write=*/false, service, task);
    return access_result{false,
                         dram_done + config_.fill_latency + config_.noc_latency};
}

cycle_t shared_cache::transparent_burst(addr_t paddr, std::uint64_t nlines,
                                        bool is_write, cycle_t arrival,
                                        task_id task) {
    cycle_t done = arrival;
    for (std::uint64_t i = 0; i < nlines; ++i) {
        done = std::max(
            done,
            transparent_access(paddr + i * line_bytes, is_write, arrival, task)
                .done);
    }
    return done;
}

std::uint64_t shared_cache::task_hits(task_id task) const {
    return (task >= 0 && static_cast<std::size_t>(task) < task_hits_.size())
               ? task_hits_[task]
               : 0;
}

std::uint64_t shared_cache::task_misses(task_id task) const {
    return (task >= 0 && static_cast<std::size_t>(task) < task_misses_.size())
               ? task_misses_[task]
               : 0;
}

cache_page_table& shared_cache::cpt(task_id task) {
    assert(task >= 0 && "CPTs belong to real tasks");
    const auto idx = static_cast<std::size_t>(task);
    if (idx >= cpts_.size()) cpts_.resize(idx + 1);
    if (!cpts_[idx]) cpts_[idx] = std::make_unique<cache_page_table>(config_);
    return *cpts_[idx];
}

void shared_cache::destroy_cpt(task_id task) {
    if (task >= 0 && static_cast<std::size_t>(task) < cpts_.size())
        cpts_[task].reset();
}

cycle_t shared_cache::region_read(task_id task, addr_t vcaddr, cycle_t arrival) {
    ++stats_.region_reads;
    const pcaddr p = cpt(task).translate(vcaddr);
    return occupy_slice(p.slice, arrival, task) + config_.hit_latency;
}

cycle_t shared_cache::region_write(task_id task, addr_t vcaddr, cycle_t arrival) {
    ++stats_.region_writes;
    const pcaddr p = cpt(task).translate(vcaddr);
    return occupy_slice(p.slice, arrival, task) + config_.noc_latency;
}

cycle_t shared_cache::region_fill(task_id task, addr_t vcaddr, addr_t dram_addr,
                                  cycle_t arrival) {
    ++stats_.region_fills;
    const pcaddr p = cpt(task).translate(vcaddr);
    const cycle_t dram_done = dram_.access(dram_addr, false, arrival, task);
    const cycle_t slot = occupy_slice(p.slice, dram_done, task);
    return slot + config_.fill_latency;
}

cycle_t shared_cache::region_writeback(task_id task, addr_t vcaddr,
                                       addr_t dram_addr, cycle_t arrival) {
    ++stats_.region_writebacks;
    const pcaddr p = cpt(task).translate(vcaddr);
    const cycle_t slot = occupy_slice(p.slice, arrival, task);
    return dram_.access(dram_addr, true, slot, task);
}

cycle_t shared_cache::bypass_read(addr_t dram_addr, cycle_t arrival,
                                  task_id task) {
    ++stats_.bypass_reads;
    return dram_.access(dram_addr, false, arrival, task) + config_.noc_latency;
}

cycle_t shared_cache::bypass_write(addr_t dram_addr, cycle_t arrival,
                                   task_id task) {
    ++stats_.bypass_writes;
    return dram_.access(dram_addr, true, arrival + config_.noc_latency, task);
}

cycle_t shared_cache::multicast_read(task_id task, addr_t vcaddr,
                                     cycle_t arrival, std::uint32_t group_size) {
    ++stats_.multicast_reads;
    if (group_size > 1) stats_.multicast_combined += group_size - 1;
    const pcaddr p = cpt(task).translate(vcaddr);
    return occupy_slice(p.slice, arrival, task) + config_.hit_latency;
}

cycle_t shared_cache::multicast_bypass_read(addr_t dram_addr, cycle_t arrival,
                                            task_id task,
                                            std::uint32_t group_size) {
    ++stats_.bypass_reads;
    if (group_size > 1) stats_.multicast_combined += group_size - 1;
    return dram_.access(dram_addr, false, arrival, task) + config_.noc_latency;
}

cycle_t shared_cache::region_read_burst(task_id task, addr_t vcaddr,
                                        std::uint64_t nlines, cycle_t arrival,
                                        std::uint32_t group_size) {
    if (nlines == 0) return arrival;
    stats_.region_reads += nlines;
    if (group_size > 1) stats_.multicast_combined += (group_size - 1) * nlines;
    if (telemetry_) telemetry_->on_region_lines(task, nlines);
    const pcaddr first = cpt(task).translate(vcaddr);
    return occupy_striped(first.slice, nlines, arrival, task) +
           config_.hit_latency;
}

cycle_t shared_cache::region_write_burst(task_id task, addr_t vcaddr,
                                         std::uint64_t nlines, cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_writes += nlines;
    if (telemetry_) telemetry_->on_region_lines(task, nlines);
    const pcaddr first = cpt(task).translate(vcaddr);
    return occupy_striped(first.slice, nlines, arrival, task) +
           config_.noc_latency;
}

cycle_t shared_cache::region_fill_burst(task_id task, addr_t vcaddr,
                                        addr_t dram_addr, std::uint64_t nlines,
                                        cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_fills += nlines;
    if (telemetry_) telemetry_->on_fill_lines(task, nlines);
    const pcaddr first = cpt(task).translate(vcaddr);
    const cycle_t dram_done =
        dram_.access_burst(dram_addr, nlines, false, arrival, task);
    const cycle_t slices_done =
        occupy_striped(first.slice, nlines, arrival, task);
    return std::max(dram_done, slices_done) + config_.fill_latency;
}

cycle_t shared_cache::region_writeback_burst(task_id task, addr_t vcaddr,
                                             addr_t dram_addr,
                                             std::uint64_t nlines,
                                             cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_writebacks += nlines;
    const pcaddr first = cpt(task).translate(vcaddr);
    const cycle_t slices_done =
        occupy_striped(first.slice, nlines, arrival, task);
    return dram_.access_burst(dram_addr, nlines, true, slices_done, task);
}

cycle_t shared_cache::bypass_read_burst(addr_t dram_addr, std::uint64_t nlines,
                                        cycle_t arrival, task_id task,
                                        std::uint32_t group_size) {
    if (nlines == 0) return arrival;
    stats_.bypass_reads += nlines;
    if (group_size > 1) stats_.multicast_combined += (group_size - 1) * nlines;
    return dram_.access_burst(dram_addr, nlines, false, arrival, task) +
           config_.noc_latency;
}

cycle_t shared_cache::bypass_write_burst(addr_t dram_addr, std::uint64_t nlines,
                                         cycle_t arrival, task_id task) {
    if (nlines == 0) return arrival;
    stats_.bypass_writes += nlines;
    return dram_.access_burst(dram_addr, nlines, true,
                              arrival + config_.noc_latency, task);
}

void shared_cache::reset_stats() {
    stats_ = {};
    task_hits_.clear();
    task_misses_.clear();
}

void shared_cache::invalidate_all() {
    for (auto& e : lines_) e = line_entry{};
    std::fill(slice_free_.begin(), slice_free_.end(), 0);
    lru_tick_ = 0;
}

namespace {

void save_stats(snapshot_writer& w, const cache_stats& s) {
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.read_miss_fills);
    w.u64(s.writebacks);
    w.u64(s.evictions);
    w.u64(s.inter_task_evictions);
    w.u64(s.region_reads);
    w.u64(s.region_writes);
    w.u64(s.region_fills);
    w.u64(s.region_writebacks);
    w.u64(s.bypass_reads);
    w.u64(s.bypass_writes);
    w.u64(s.multicast_reads);
    w.u64(s.multicast_combined);
    w.u64(s.slice_busy_cycles);
}

void restore_stats(snapshot_reader& r, cache_stats& s) {
    s.hits = r.u64();
    s.misses = r.u64();
    s.read_miss_fills = r.u64();
    s.writebacks = r.u64();
    s.evictions = r.u64();
    s.inter_task_evictions = r.u64();
    s.region_reads = r.u64();
    s.region_writes = r.u64();
    s.region_fills = r.u64();
    s.region_writebacks = r.u64();
    s.bypass_reads = r.u64();
    s.bypass_writes = r.u64();
    s.multicast_reads = r.u64();
    s.multicast_combined = r.u64();
    s.slice_busy_cycles = r.u64();
}

constexpr std::size_t stats_bytes = 15 * 8;

void save_counter_vec(snapshot_writer& w, const std::vector<std::uint64_t>& v) {
    w.u64(v.size());
    for (const std::uint64_t x : v) w.u64(x);
}

void restore_counter_vec(snapshot_reader& r, std::vector<std::uint64_t>& v) {
    const std::uint64_t n = r.count(8);
    v.assign(n, 0);
    for (auto& x : v) x = r.u64();
}

std::size_t counter_vec_bytes(const std::vector<std::uint64_t>& v) {
    return 8 + 8 * v.size();
}

/// One transparent line on disk: tag, lru, owner, valid, dirty.
constexpr std::size_t line_record_bytes = 8 + 8 + 4 + 1 + 1;

}  // namespace

std::size_t shared_cache::state_bytes() const {
    std::size_t n = 4 + 4 + 8 + lines_.size() * line_record_bytes + 8 +
                    8 * slice_free_.size() + stats_bytes +
                    counter_vec_bytes(task_hits_) +
                    counter_vec_bytes(task_misses_) + pages_.state_bytes() + 8;
    for (const auto& table : cpts_)
        if (table) n += 4 + table->state_bytes();
    return n;
}

void shared_cache::save_state(snapshot_writer& w) const {
    w.u32(static_cast<std::uint32_t>(lines_.size()));
    w.u32(transparent_ways_);
    w.u64(lru_tick_);
    auto out = w.span(lines_.size() * line_record_bytes);
    for (const auto& e : lines_) {
        out.u64(e.tag);
        out.u64(e.lru);
        out.i32(e.owner);
        out.b(e.valid);
        out.b(e.dirty);
    }
    w.u64(slice_free_.size());
    for (const cycle_t c : slice_free_) w.u64(c);
    save_stats(w, stats_);
    save_counter_vec(w, task_hits_);
    save_counter_vec(w, task_misses_);
    pages_.save_state(w);

    // Live tables in ascending task order — the same bytes the old sorted
    // owner walk produced.
    std::uint64_t live = 0;
    for (const auto& table : cpts_)
        if (table) ++live;
    w.u64(live);
    for (std::size_t t = 0; t < cpts_.size(); ++t) {
        if (!cpts_[t]) continue;
        w.i32(static_cast<task_id>(t));
        cpts_[t]->save_state(w);
    }
}

void shared_cache::restore_state(snapshot_reader& r, std::size_t task_slots) {
    const std::uint32_t nlines = r.u32();
    if (nlines != lines_.size())
        throw snapshot_error("snapshot cache geometry mismatch: saved " +
                             std::to_string(nlines) + " lines, configured " +
                             std::to_string(lines_.size()));
    transparent_ways_ = r.u32();
    if (transparent_ways_ < 1 || transparent_ways_ > config_.ways)
        throw snapshot_error("snapshot transparent-way count out of range");
    lru_tick_ = r.u64();
    auto in = r.span(static_cast<std::uint64_t>(nlines) * line_record_bytes);
    for (auto& e : lines_) {
        e.tag = in.u64();
        e.lru = in.u64();
        e.owner = in.i32();
        e.valid = in.b();
        e.dirty = in.b();
    }
    const std::uint64_t nslices = r.count(8);
    if (nslices != slice_free_.size())
        throw snapshot_error("snapshot cache slice-count mismatch");
    for (auto& c : slice_free_) c = r.u64();
    restore_stats(r, stats_);
    restore_counter_vec(r, task_hits_);
    restore_counter_vec(r, task_misses_);
    pages_.restore_state(r);

    // Tables were saved in strictly ascending task order, one per slot at
    // most; cpts_ grows to each accepted id, so an id below its size is a
    // repeat or out of order.
    cpts_.clear();
    const std::uint64_t ncpts = r.count(12);
    for (std::uint64_t i = 0; i < ncpts; ++i) {
        const task_id t = r.i32();
        if (t < 0 || static_cast<std::size_t>(t) >= task_slots ||
            static_cast<std::size_t>(t) < cpts_.size())
            throw snapshot_error(
                "snapshot CPT task id " + std::to_string(t) +
                " is repeated, out of order or outside the " +
                std::to_string(task_slots) + " task slots");
        auto table = std::make_unique<cache_page_table>(config_);
        table->restore_state(r);
        cpts_.resize(static_cast<std::size_t>(t) + 1);
        cpts_[t] = std::move(table);
    }
}

}  // namespace camdn::cache
