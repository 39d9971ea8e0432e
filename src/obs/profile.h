// Host wall-time profiling scopes, attributed per subsystem.
//
// Answers "where does the simulator's own CPU time go" — the data the
// raw-speed program (bench/sim_throughput) needs to pick its next
// optimization target without an external profiler. Attribution is
// exclusive and stack-shaped: profile_scope(p, subsystem::dma) charges
// elapsed host time to `dma` until the scope ends or a nested scope
// switches to another subsystem (a DRAM burst inside a DMA chunk charges
// `dram`, not both). Scopes sit at burst/chunk/event granularity, not per
// line, so the overhead when profiling is on stays modest; when off every
// hook is a single null check.
//
// Timestamps come from the TSC on x86 (one `rdtsc` per scope boundary,
// several times cheaper than a steady_clock read) and fall back to
// steady_clock elsewhere; tick counts convert to seconds once at report
// time using a ratio calibrated against steady_clock at first use.
//
// Wall-clock readings are inherently nondeterministic, so profiler output
// must never flow into deterministic artifacts (traces, JSONL telemetry,
// snapshots) — it is reported separately (sim_throughput's obs_on phase,
// ad-hoc dumps).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define CAMDN_PROFILE_TSC 1
#endif

namespace camdn::obs {

/// The simulator subsystems host time is attributed to.
enum class subsystem : std::uint8_t {
    sched = 0,  ///< runtime::scheduler dispatch / negotiation / epochs
    dma = 1,    ///< npu::dma_engine chunk pump
    cache = 2,  ///< cache::shared_cache bursts (via dma transfer paths)
    dram = 3,   ///< dram::dram_system burst timing
    layer = 4,  ///< sim::layer_engine tile pipeline
    other = 5,  ///< everything outside an explicit scope
};
inline constexpr std::size_t n_subsystems = 6;

const char* subsystem_name(subsystem s);

/// Raw timestamp source: TSC ticks on x86 (invariant-TSC assumed, as on
/// every post-2008 part), steady_clock nanoseconds elsewhere.
/// seconds_per_tick() calibrates the tick period against steady_clock once
/// per process (first call; ~2 ms spin) and returns the cached ratio.
struct profile_clock {
    static std::uint64_t now() {
#ifdef CAMDN_PROFILE_TSC
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
#endif
    }
    static double seconds_per_tick();
};

class profiler {
public:
    profiler() : mark_(profile_clock::now()) { ticks_.fill(0); }

    /// Charges the clock only at every Nth scope transition (1 = exact,
    /// the default). The subsystem bookkeeping stays exact either way —
    /// sampling just widens the interval each TSC read attributes to the
    /// subsystem that was active when it ends, trading per-transition
    /// cost (two TSC reads per scope) for statistical attribution. The
    /// raw-speed bench uses this on its obs_on runs: scopes sit on
    /// per-burst/per-chunk paths that fire tens of millions of times, and
    /// approximate shares are all the "what do I optimize next" question
    /// needs.
    void set_sample_every(std::uint32_t n) { sample_every_ = n == 0 ? 1 : n; }

    /// Switches attribution to `s`, charging the elapsed interval to the
    /// previously active subsystem. Returns the previous subsystem so a
    /// scope can restore it (stack discipline).
    subsystem enter(subsystem s) {
        const subsystem prev = current_;
        maybe_charge();
        current_ = s;
        return prev;
    }
    void leave(subsystem prev) {
        maybe_charge();
        current_ = prev;
    }

    double seconds(subsystem s) const {
        return static_cast<double>(ticks_[static_cast<std::size_t>(s)]) *
               profile_clock::seconds_per_tick();
    }
    double total_seconds() const {
        double t = 0.0;
        for (const auto n : ticks_) t += static_cast<double>(n);
        return t * profile_clock::seconds_per_tick();
    }

    /// {"sched":seconds,...} — every subsystem, fixed order.
    void write_json(std::ostream& out) const;

private:
    void maybe_charge() {
        if (++pending_ < sample_every_) return;
        pending_ = 0;
        charge();
    }
    void charge() {
        const std::uint64_t now = profile_clock::now();
        ticks_[static_cast<std::size_t>(current_)] +=
            static_cast<std::int64_t>(now - mark_);
        mark_ = now;
    }

    std::array<std::int64_t, n_subsystems> ticks_{};
    subsystem current_ = subsystem::other;
    std::uint32_t sample_every_ = 1;
    std::uint32_t pending_ = 0;
    std::uint64_t mark_;
};

/// RAII attribution scope; a null profiler makes it a no-op.
class profile_scope {
public:
    profile_scope(profiler* p, subsystem s) : p_(p) {
        if (p_ != nullptr) prev_ = p_->enter(s);
    }
    ~profile_scope() {
        if (p_ != nullptr) p_->leave(prev_);
    }
    profile_scope(const profile_scope&) = delete;
    profile_scope& operator=(const profile_scope&) = delete;

private:
    profiler* p_;
    subsystem prev_ = subsystem::other;
};

}  // namespace camdn::obs
