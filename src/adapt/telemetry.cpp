#include "adapt/telemetry.h"

namespace camdn::adapt {

const epoch_snapshot& telemetry_bus::cut(cycle_t now, const cut_sample& s) {
    epoch_snapshot snap;
    snap.index = history_.size();
    snap.start = epoch_start_;
    snap.end = now;
    snap.tasks = cur_;
    snap.dram_bytes = s.dram_bytes;
    snap.dram_throttled = s.dram_throttled;
    snap.idle_pages = s.idle_pages;
    for (const auto& c : snap.tasks)
        if (c.active()) snap.active_slots += 1;
    if (snap.span() && s.peak_bytes_per_cycle > 0.0)
        snap.bw_utilization =
            static_cast<double>(s.dram_bytes) /
            (s.peak_bytes_per_cycle * static_cast<double>(snap.span()));
    history_.push_back(std::move(snap));
    cur_.assign(cur_.size(), task_counters{});
    epoch_start_ = now;
    return history_.back();
}

bool telemetry_bus::open_epoch_active() const {
    for (const auto& c : cur_)
        if (c.active() || c.cache_hits || c.cache_misses) return true;
    return false;
}

namespace {

void save_counters(snapshot_writer& w, const task_counters& c) {
    w.u64(c.cache_hits);
    w.u64(c.cache_misses);
    w.u64(c.dma_bytes);
    w.u64(c.layers_retired);
    w.u64(c.lbm_layers);
    w.u64(c.page_wait_cycles);
    w.u64(c.page_timeouts);
    w.u64(c.lbm_downgrades);
    w.u64(c.completions);
    w.u64(c.deadline_completions);
    w.u64(c.deadline_misses);
    w.i64(c.slack_cycles);
}

void restore_counters(snapshot_reader& r, task_counters& c) {
    c.cache_hits = r.u64();
    c.cache_misses = r.u64();
    c.dma_bytes = r.u64();
    c.layers_retired = r.u64();
    c.lbm_layers = r.u64();
    c.page_wait_cycles = r.u64();
    c.page_timeouts = r.u64();
    c.lbm_downgrades = r.u64();
    c.completions = r.u64();
    c.deadline_completions = r.u64();
    c.deadline_misses = r.u64();
    c.slack_cycles = r.i64();
}

/// One slot's counters on disk: eleven u64 and the i64 slack.
constexpr std::size_t counters_bytes = 12 * 8;

}  // namespace

void telemetry_bus::save_state(snapshot_writer& w) const {
    w.u64(epoch_start_);
    w.u64(cur_.size());
    for (const auto& c : cur_) save_counters(w, c);
    w.u64(history_.size());
    for (const auto& e : history_) {
        w.u64(e.index);
        w.u64(e.start);
        w.u64(e.end);
        w.u64(e.tasks.size());
        for (const auto& c : e.tasks) save_counters(w, c);
        w.u64(e.dram_bytes);
        w.u64(e.dram_throttled);
        w.d(e.bw_utilization);
        w.u32(e.idle_pages);
        w.u32(e.active_slots);
    }
}

void telemetry_bus::restore_state(snapshot_reader& r, bool keep_history) {
    epoch_start_ = r.u64();
    const std::uint64_t slots = r.count(counters_bytes);
    if (slots != cur_.size())
        throw snapshot_error("snapshot telemetry slot-count mismatch: saved " +
                             std::to_string(slots) + ", configured " +
                             std::to_string(cur_.size()));
    for (auto& c : cur_) restore_counters(r, c);
    history_.clear();
    const std::uint64_t epochs = r.count(8);
    for (std::uint64_t i = 0; i < epochs; ++i) {
        epoch_snapshot e;
        e.index = r.u64();
        e.start = r.u64();
        e.end = r.u64();
        const std::uint64_t n = r.count(counters_bytes);
        e.tasks.resize(n);
        for (auto& c : e.tasks) restore_counters(r, c);
        e.dram_bytes = r.u64();
        e.dram_throttled = r.u64();
        e.bw_utilization = r.d();
        e.idle_pages = r.u32();
        e.active_slots = r.u32();
        if (keep_history) history_.push_back(std::move(e));
    }
}

telemetry_bus telemetry_bus::read_state(snapshot_reader& r) {
    snapshot_reader peek = r;
    peek.u64();  // the open epoch's start
    telemetry_bus bus(static_cast<std::uint32_t>(peek.count(counters_bytes)));
    bus.restore_state(r, /*keep_history=*/true);
    return bus;
}

}  // namespace camdn::adapt
