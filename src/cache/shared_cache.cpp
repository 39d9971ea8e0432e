#include "cache/shared_cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cache/tag_match.h"
#include "obs/probe.h"

namespace camdn::cache {

namespace {
std::uint32_t lowest_bit(std::uint32_t mask) {
    return static_cast<std::uint32_t>(__builtin_ctz(mask));
}

/// Moves way `w` to position 0 of a recency order word, shifting the ways
/// ahead of it back one position.
std::uint64_t to_front(std::uint64_t order, std::uint32_t w) {
    constexpr std::uint64_t ones = 0x1111111111111111ull;
    // Nibbles equal to w become 0 in x. The borrow trick flags the lowest
    // zero nibble exactly (false flags only sit above a true zero), and
    // `shift` is 4 x its position.
    const std::uint64_t x = order ^ (ones * w);
    const std::uint64_t zeros = (x - ones) & ~x & (ones << 3);
    const unsigned shift = static_cast<unsigned>(__builtin_ctzll(zeros)) - 3;
    const std::uint64_t ahead = order & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t behind = order >> shift >> 4 << shift << 4;
    return behind | (ahead << 4) | w;
}

/// Packs sixteen 0/1 bytes into a mask, byte w to bit w. Multiplying by
/// 0x0102040810204080 moves byte i's bit to bit 56 + i; no two partial
/// products collide, so nothing carries into the top byte.
std::uint16_t pack_flags(const std::uint8_t* bytes) {
    constexpr std::uint64_t gather = 0x0102040810204080ull;
    const std::uint64_t lo = snapshot_detail::load_le64(bytes) * gather >> 56;
    const std::uint64_t hi =
        snapshot_detail::load_le64(bytes + 8) * gather >> 56;
    return static_cast<std::uint16_t>(lo | hi << 8);
}

/// The config, once its ways fit the recency order and every count the
/// bit-field decode divides by is a power of two.
const cache_config& checked(const cache_config& config) {
    if (config.ways > shared_cache::max_ways)
        throw std::invalid_argument(
            "shared_cache: " + std::to_string(config.ways) +
            " ways exceed the " + std::to_string(shared_cache::max_ways) +
            " the transparent recency order holds");
    if (config.npu_ways > config.ways)
        throw std::invalid_argument(
            "shared_cache: " + std::to_string(config.npu_ways) +
            " NPU ways exceed the cache's " + std::to_string(config.ways));
    checked_page_geometry(config);
    if (!is_pow2(config.sets_per_slice()))
        throw std::invalid_argument(
            "shared_cache: " + std::to_string(config.sets_per_slice()) +
            " sets per slice, not a power of two");
    return config;
}

/// Sets the burst loop prefetches ahead of the one it looks up. The cold
/// parts (5 MiB in the stock cache) come from the host's L3; on a
/// recorded AuRORA burst trace, distances 4, 8 and 16 timed the same,
/// and 8 wastes few prefetches past the end of a 128-line burst.
constexpr std::size_t prefetch_sets = 8;
}  // namespace

shared_cache::shared_cache(const cache_config& config, dram::dram_system& dram)
    : config_(checked(config)),
      dram_(dram),
      sets_(config.sets_per_slice()),
      transparent_ways_(config.ways),
      slice_free_(config.slices, 0),
      slice_start_(config.slices, 0),
      pages_(config),
      translation_(config),
      miss_penalty_cycles_(dram.isolated_line_service_cycles() +
                           config.fill_latency + config.noc_latency) {
    const std::size_t nsets = static_cast<std::size_t>(config_.slices) * sets_;
    slice_mask_ = config_.slices - 1;
    index_mask_ = nsets - 1;
    sig_shift_ = log2_of(nsets);
    // Every set empty: no valid line, owners no_task, the ways in index
    // order.
    hot_set hot;
    for (std::uint32_t w = 0; w < config_.ways; ++w)
        hot.order |= std::uint64_t{w} << (4 * w);  // any order suits
    cold_set cold;
    std::fill(std::begin(cold.owner), std::end(cold.owner), no_task);
    hot_.assign(nsets, hot);
    cold_.assign(nsets, cold);
}

void shared_cache::derive_set(hot_set& hot, const cold_set& cold) const {
    // Insertion sort, most recent first. Way w enters after the lower
    // ways, so it sorts ahead of any with a stamp <= its own: the tail is
    // the smallest stamp, lowest way on ties — the victim rule.
    std::uint32_t by_recency[max_ways];
    for (std::uint32_t w = 0; w < transparent_ways_; ++w) {
        std::uint32_t p = w;
        for (; p > 0 &&
               cold.slot[by_recency[p - 1]].lru <= cold.slot[w].lru;
             --p)
            by_recency[p] = by_recency[p - 1];
        by_recency[p] = w;
    }
    std::uint64_t order = 0;
    for (std::uint32_t p = 0; p < config_.ways; ++p) {
        order |= std::uint64_t{p < transparent_ways_ ? by_recency[p] : p}
                 << (4 * p);
        hot.sig[p] = static_cast<std::uint16_t>(cold.slot[p].tag >> sig_shift_);
    }
    hot.order = order;
}

void shared_cache::set_transparent_ways(std::uint32_t ways) {
    if (ways < 1 || ways > config_.ways)
        throw std::invalid_argument(
            "shared_cache::set_transparent_ways: " + std::to_string(ways) +
            " ways, the cache has " + std::to_string(config_.ways) +
            " and the transparent path needs at least one");
    if (ways == transparent_ways_) return;
    transparent_ways_ = ways;
    // Stale orders: each set re-derives its own at its next access.
    for (hot_set& hot : hot_) hot.order = 0;
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
    obs::probe* const attr = obs::attribution_of(probe_);
    cycle_t done = arrival;
    for (std::uint32_t s = 0; s < slices; ++s) {
        // s + slices - start_mod is in [1, 2*slices), so one conditional
        // subtract replaces the modulo.
        std::uint32_t offset = s + slices - start_mod;
        if (offset >= slices) offset -= slices;
        const std::uint64_t n = base + (offset < rem ? 1 : 0);
        if (n == 0) continue;
        const cycle_t start = std::max(arrival, slice_free_[s]);
        if (attr != nullptr) {
            const task_id holder = attr->take_slice(s, task);
            if (start > arrival)
                attr->cache_wait(task, holder, start - arrival);
        }
        slice_free_[s] = start + n;
        stats_.slice_busy_cycles += n;
        done = std::max(done, slice_free_[s]);
    }
    return done;
}

void shared_cache::bump_task(std::vector<std::uint64_t>& v, task_id task,
                             std::uint64_t n) {
    if (task < 0 || n == 0) return;
    if (static_cast<std::size_t>(task) >= v.size()) v.resize(task + 1, 0);
    v[task] += n;
}

access_result shared_cache::transparent_lines(addr_t paddr,
                                              std::uint64_t nlines,
                                              bool is_write, cycle_t arrival,
                                              task_id task) {
    if (nlines == 0) return access_result{true, arrival};
    const std::uint32_t slices = config_.slices;
    const std::size_t nsets = hot_.size();
    const std::uint64_t line0 = paddr / line_bytes;
    const auto slice0 = static_cast<std::uint32_t>(line0 & slice_mask_);
    auto idx = static_cast<std::size_t>(line0 & index_mask_);
    obs::probe* const attr = obs::attribution_of(probe_);
    obs::probe::wait_fold<&obs::probe::cache_wait> waits{attr, task};

    // Slice service in closed form. Line i is visit i / slices of slice
    // (slice0 + i) mod slices, so a per-line chain of one-slot
    // reservations puts its slot's end at start_s + i / slices + 1,
    // start_s = max(arrival, slice_free_[s]). Only a slice's first visit
    // can wait on another user; visit v >= 1 waits start_s + v - arrival
    // behind the requester itself. slice_start_[k] is start_s of the k-th
    // slice the burst touches.
    const std::uint64_t base = nlines / slices;
    const std::uint64_t rem = nlines % slices;
    const std::uint64_t touched = std::min<std::uint64_t>(nlines, slices);
    cycle_t last_slot = arrival;
    for (std::uint32_t k = 0, s = slice0; k < touched; ++k) {
        const std::uint64_t n = base + (k < rem ? 1 : 0);
        const cycle_t start = std::max(arrival, slice_free_[s]);
        slice_start_[k] = start;
        slice_free_[s] = start + n;
        last_slot = std::max(last_slot, start + n);
        if (attr != nullptr) {
            const task_id holder = attr->take_slice(s, task);
            if (start > arrival) waits.charge(holder, start - arrival);
            waits.self += (n - 1) * (start - arrival) + n * (n - 1) / 2;
        }
        if (++s == slices) s = 0;
    }
    stats_.slice_busy_cycles += nlines;

    // Cache state, line by line (a long burst revisits sets). Hits and
    // write misses complete at their slot + hit latency — for a write
    // burst that is every line, so its completion is the last slot's —
    // and read misses wait for the DRAM run below, which takes each miss's
    // writeback and fill (two lines at most).
    const std::uint32_t tw = transparent_ways_;
    const std::uint32_t tw_mask = (1u << tw) - 1;
    const unsigned tail_shift = 4 * (tw - 1);
    const std::uint32_t sig_shift = sig_shift_;
    const cycle_t hit_latency = config_.hit_latency;
    hot_set* const hots = hot_.data();
    cold_set* const colds = cold_.data();
    const cycle_t* const slice_start = slice_start_.data();
    if (dram_run_.size() < 2 * nlines) dram_run_.resize(2 * nlines);
    dram::line_request* const run = dram_run_.data();
    std::size_t run_lines = 0;
    std::uint64_t tick = lru_tick_;
    std::uint64_t hits = 0, evictions = 0, inter_task = 0, writebacks = 0;
    cycle_t done = is_write ? last_slot + hit_latency : arrival;
    std::size_t ahead = (idx + prefetch_sets) & index_mask_;
    std::uint64_t i = 0;
    for (std::uint64_t visit = 1; i < nlines; ++visit) {
        const std::uint64_t round = std::min<std::uint64_t>(nlines - i, slices);
        for (std::uint32_t k = 0; k < round; ++k, ++i) {
            // The set `prefetch_sets` lines ahead: its hot part and every
            // line of its cold part, since the way is not known yet.
            __builtin_prefetch(&hots[ahead], 1);
            const char* const pc = reinterpret_cast<const char*>(&colds[ahead]);
            for (std::size_t off = 0; off < sizeof(cold_set); off += 64)
                __builtin_prefetch(pc + off, 1);
            if (++ahead == nsets) ahead = 0;

            const std::uint64_t line_id = line0 + i;
            const cycle_t service = slice_start[k] + visit;
            const auto sig = static_cast<std::uint16_t>(line_id >> sig_shift);
            hot_set& hot = hots[idx];
            cold_set& cold = colds[idx];
            if (++idx == nsets) idx = 0;
            line_slot* const slot = cold.slot;
            if (hot.order == 0) derive_set(hot, cold);
            const std::uint64_t order = hot.order;
            const std::uint32_t valid = hot.valid;

            // The lowest valid way below the mask holding the line.
            std::uint32_t cand =
                match_signatures(hot.sig, sig) & valid & tw_mask;
            std::uint32_t way = max_ways;
            for (; cand != 0; cand &= cand - 1) {
                const std::uint32_t w = lowest_bit(cand);
                if (slot[w].tag == line_id) {
                    way = w;
                    break;
                }
            }

            if (way != max_ways) {
                ++hits;
                if (is_write) hot.dirty |= 1u << way;
                done = std::max(done, service + hit_latency);
            } else {
                const std::uint32_t invalid = ~valid & tw_mask;
                way = invalid != 0 ? lowest_bit(invalid)
                                   : static_cast<std::uint32_t>(
                                         order >> tail_shift) & 0xf;
                const std::uint32_t bit = 1u << way;
                task_id& owner = cold.owner[way];
                // A cold miss (invalid way) is self-inflicted; otherwise
                // the victim's owner displaced the requester's working set.
                task_id holder = task;
                if (valid & bit) {
                    ++evictions;
                    if (owner != task) {
                        ++inter_task;
                        holder = owner;
                    }
                    // Fire-and-forget writeback, attributed to the data's
                    // owner.
                    if (hot.dirty & bit) {
                        ++writebacks;
                        run[run_lines++] = {slot[way].tag * line_bytes,
                                            service, owner, true};
                    }
                }
                slot[way].tag = line_id;
                owner = task;
                hot.sig[way] = sig;
                hot.valid = static_cast<std::uint16_t>(valid | bit);
                if (is_write) {
                    // NPU DMA writes full lines: write-validate, no fetch.
                    hot.dirty |= bit;
                } else {
                    hot.dirty &= ~bit;
                    if (attr != nullptr)
                        waits.charge(holder, miss_penalty_cycles_);
                    run[run_lines++] = {paddr + i * line_bytes, service, task,
                                        false};
                }
            }
            slot[way].lru = ++tick;
            hot.order = to_front(order, way);
        }
    }
    lru_tick_ = tick;

    const std::uint64_t misses = nlines - hits;
    stats_.hits += hits;
    stats_.misses += misses;
    stats_.evictions += evictions;
    stats_.inter_task_evictions += inter_task;
    stats_.writebacks += writebacks;
    if (!is_write) stats_.read_miss_fills += misses;
    bump_task(task_hits_, task, hits);
    bump_task(task_misses_, task, misses);
    if (probe_ != nullptr) probe_->cache_accesses(task, hits, misses);
    if (attr != nullptr) waits.flush();

    if (run_lines != 0) {
        const cycle_t read_done = dram_.access_lines(run, run_lines);
        if (!is_write && misses > 0)
            done = std::max(done, read_done + config_.fill_latency +
                                      config_.noc_latency);
    }
    return access_result{misses == 0, done};
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

namespace {
/// region_slice's error path, out of line so the bursts stay small.
[[noreturn]] void unheld_page(task_id task, std::uint32_t vcpn,
                              std::size_t held) {
    throw std::logic_error("NEC access to virtual cache page " +
                           std::to_string(vcpn) + " of task " +
                           std::to_string(task) + ", which holds " +
                           std::to_string(held) + " pages");
}
}  // namespace

std::uint32_t shared_cache::region_slice(task_id task, addr_t vcaddr) const {
    const std::uint32_t vcpn = translation_.page_of(vcaddr);
    const std::vector<std::uint32_t>& held = pages_.pages_of(task);
    if (vcpn >= held.size()) unheld_page(task, vcpn, held.size());
    return translation_
        .translate(held[vcpn], translation_.offset_in_page(vcaddr))
        .slice;
}

cycle_t shared_cache::region_read_burst(task_id task, addr_t vcaddr,
                                        std::uint64_t nlines, cycle_t arrival,
                                        std::uint32_t group_size) {
    if (nlines == 0) return arrival;
    stats_.region_reads += nlines;
    if (group_size > 1) stats_.multicast_combined += (group_size - 1) * nlines;
    if (probe_ != nullptr) probe_->region_lines(task, nlines);
    return occupy_striped(region_slice(task, vcaddr), nlines, arrival, task) +
           config_.hit_latency;
}

cycle_t shared_cache::region_write_burst(task_id task, addr_t vcaddr,
                                         std::uint64_t nlines, cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_writes += nlines;
    if (probe_ != nullptr) probe_->region_lines(task, nlines);
    return occupy_striped(region_slice(task, vcaddr), nlines, arrival, task) +
           config_.noc_latency;
}

cycle_t shared_cache::region_fill_burst(task_id task, addr_t vcaddr,
                                        addr_t dram_addr, std::uint64_t nlines,
                                        cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_fills += nlines;
    if (probe_ != nullptr) probe_->fill_lines(task, nlines);
    const std::uint32_t slice = region_slice(task, vcaddr);
    const cycle_t dram_done =
        dram_.access_burst(dram_addr, nlines, false, arrival, task);
    const cycle_t slices_done = occupy_striped(slice, nlines, arrival, task);
    return std::max(dram_done, slices_done) + config_.fill_latency;
}

cycle_t shared_cache::region_writeback_burst(task_id task, addr_t vcaddr,
                                             addr_t dram_addr,
                                             std::uint64_t nlines,
                                             cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_writebacks += nlines;
    const cycle_t slices_done =
        occupy_striped(region_slice(task, vcaddr), nlines, arrival, task);
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
    s.multicast_combined = r.u64();
    s.slice_busy_cycles = r.u64();
}

void save_counter_vec(snapshot_writer& w, const std::vector<std::uint64_t>& v) {
    w.u64(v.size());
    for (const std::uint64_t x : v) w.u64(x);
}

void restore_counter_vec(snapshot_reader& r, std::vector<std::uint64_t>& v) {
    const std::uint64_t n = r.count(8);
    v.assign(n, 0);
    for (auto& x : v) x = r.u64();
}

/// One transparent line on disk: tag, lru, owner, valid, dirty.
constexpr std::size_t line_record_bytes = 8 + 8 + 4 + 1 + 1;

}  // namespace

void shared_cache::save_state(snapshot_writer& w) const {
    w.u32(static_cast<std::uint32_t>(lines()));
    w.u32(transparent_ways_);
    w.u64(lru_tick_);
    auto out = w.span(lines() * line_record_bytes);
    const std::uint32_t ways = config_.ways;
    const std::uint32_t slices = config_.slices;
    // Records in slice-major order: (slice, set) lives at set index
    // slice + slices * set.
    for (std::uint32_t slice = 0; slice < slices; ++slice) {
        for (std::size_t idx = slice; idx < hot_.size(); idx += slices) {
            const hot_set& hot = hot_[idx];
            const cold_set& cold = cold_[idx];
            for (std::uint32_t w = 0, bit = 1; w < ways; ++w, bit <<= 1) {
                out.u64(cold.slot[w].tag);
                out.u64(cold.slot[w].lru);
                out.i32(cold.owner[w]);
                out.b((hot.valid & bit) != 0);
                out.b((hot.dirty & bit) != 0);
            }
        }
    }
    w.u64(slice_free_.size());
    for (const cycle_t c : slice_free_) w.u64(c);
    save_stats(w, stats_);
    save_counter_vec(w, task_hits_);
    save_counter_vec(w, task_misses_);
    pages_.save_state(w);
}

void shared_cache::restore_state(snapshot_reader& r, std::size_t task_slots) {
    const std::uint32_t nlines = r.u32();
    if (nlines != lines())
        throw snapshot_error("snapshot cache geometry mismatch: saved " +
                             std::to_string(nlines) + " lines, configured " +
                             std::to_string(lines()));
    transparent_ways_ = r.u32();
    if (transparent_ways_ < 1 || transparent_ways_ > config_.ways)
        throw snapshot_error("snapshot transparent-way count out of range");
    lru_tick_ = r.u64();
    auto in = r.span(static_cast<std::uint64_t>(nlines) * line_record_bytes);
    const std::uint32_t ways = config_.ways;
    const std::uint64_t tick = lru_tick_;
    const std::uint32_t slices = config_.slices;
    std::uint32_t stamped_late = 0;
    // save_state's slice-major record order.
    for (std::uint32_t slice = 0; slice < slices; ++slice) {
        for (std::size_t idx = slice; idx < hot_.size(); idx += slices) {
            hot_set& hot = hot_[idx];
            cold_set& cold = cold_[idx];
            // Per-way flags go to byte arrays and are packed once per set:
            // no per-line shifts or branches.
            std::uint8_t valid[max_ways] = {}, dirty[max_ways] = {},
                         late[max_ways] = {};
            for (std::uint32_t w = 0; w < ways; ++w) {
                const std::uint64_t tag = in.u64();
                const std::uint64_t lru = in.u64();
                cold.slot[w] = line_slot{tag, lru};
                cold.owner[w] = in.i32();
                valid[w] = in.b();
                dirty[w] = in.b();
                late[w] = lru > tick;
            }
            // Order and signatures are derived at the set's next access.
            hot.order = 0;
            hot.valid = pack_flags(valid);
            hot.dirty = pack_flags(dirty);
            stamped_late |= hot.valid & pack_flags(late);
        }
    }
    if (stamped_late != 0)
        throw snapshot_error(
            "snapshot transparent line stamped after the LRU tick");
    const std::uint64_t nslices = r.count(8);
    if (nslices != slice_free_.size())
        throw snapshot_error("snapshot cache slice-count mismatch");
    for (auto& c : slice_free_) c = r.u64();
    restore_stats(r, stats_);
    restore_counter_vec(r, task_hits_);
    restore_counter_vec(r, task_misses_);
    pages_.restore_state(r, task_slots);
}

}  // namespace camdn::cache
