// Repository benchmark runner: one workload, one seed, one JSON result.
//
//   camdn_bench --workload colocate16|mmpp_adaptive|fleet_elastic
//               --seed N --seconds S --trace 0|1 [--tiny] [--commit SHA]
//
// The runner drives the simulator only through its public entry points
// (sim::mapping_for, sim::run_experiment, serve::run_cluster,
// serve::plan_placement, serve::stream_source + serve::request_router and
// runtime::scheduler_snapshot::encode/decode), in one thread: every
// simulation call runs inline and fleets use a sweep-pool width of 1.
//
// Every input comes from --seed. A workload is a fixed number of sub-runs,
// each simulated from its own seed derived from --seed, and the simulated
// metrics pool over all of them, so they repeat exactly for a given seed.
// With --trace 0 the sub-runs cycle for --seconds of host time (at least
// one full pass), every repeat must reproduce the first run's simulated
// facts, and the end-to-end metrics are reported. With --trace 1 one
// untraced pass times the calls into each layer, a second pass runs with
// the host profiler and the latency attributor attached, and the
// per-layer metrics are reported.
//
// Host times are scaled to a reference machine speed: a timer samples a
// fixed kernel on the runner's own core throughout the simulation calls
// and each call's wall time is divided by the kernel's slowdown over it
// (see speed_probe), so co-tenants of a shared host do not move the
// host metrics.
//
// The last line of stdout is the JSON result
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// where `attempted` counts simulated requests resolved and `failed`
// counts failed correctness checks (each also printed to stderr).
// Requests the simulated system refuses are a modelled outcome, reported
// as sim_drop_rate, not failed benchmark operations.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "model/model_zoo.h"
#include "obs/attribution.h"
#include "obs/profile.h"
#include "runtime/qos.h"
#include "runtime/scheduler_snapshot.h"
#include "serve/cluster.h"
#include "serve/placement.h"
#include "serve/router.h"
#include "serve/stream_source.h"
#include "sim/experiment.h"
#include "sim/mapping_registry.h"
#include "sim/sweep.h"

#ifndef CAMDN_BENCH_BUILD_TYPE
#define CAMDN_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define CAMDN_BENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define CAMDN_BENCH_COMPILER "gcc " __VERSION__
#else
#define CAMDN_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace camdn;
using steady = std::chrono::steady_clock;

// The paper's Fig 7 averages (CaMDN(Full) over AuRORA), printed beside the
// reproduction's numbers as information, not as a gate.
constexpr double paper_speedup = 1.88;
constexpr double paper_mem_reduction_pct = 33.4;

// Cold set-ups per invocation; setup_s is their median. Each is bracketed
// by this many machine-speed probe samples on either side.
constexpr int setup_repeats = 15;
constexpr int setup_probes = 20;

// SLA: a completion meets it within this multiple of its model's Table I
// target (QoS-M).
constexpr double qos_scale = 1.0;

double seconds_since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

constexpr double bytes_per_mib = 1024.0 * 1024.0;

/// Seed of sub-run k (splitmix64 of the pair), so one --seed fixes every
/// sub-run's inputs and neighbouring seeds share none.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<const model::model*> zoo() {
    std::vector<const model::model*> out;
    for (const auto& m : model::benchmark_models()) out.push_back(&m);
    return out;
}

// ---- machine-speed probe ---------------------------------------------------

/// Measures how fast the benchmark's own core runs a fixed piece of work
/// while the simulator runs, so host times can be stated at a reference
/// speed. On a shared host other tenants slow this core by factors that
/// drift over minutes (up to ~2x) and that no in-run median removes. The
/// kernel feels the same slowdown, so dividing a host interval by the
/// kernel's mean slowdown over it cancels most of the drift.
///
/// The kernel shares no code with the simulator: push/pop pairs on a full
/// 1024-entry binary min-heap, the access pattern of the simulator's event
/// queue. Of the kernels tried (ALU chains, random reads over L2- and
/// LLC-sized tables, heaps of 8 KiB to 1 MiB), this one tracked the
/// simulator best: over 366 quarter-second mmpp_adaptive runs whose host
/// time varied by 24% (coefficient of variation), log host time against
/// log kernel time correlated at 0.97 with slope 1.2, and the ratio of the
/// two varied by 7%.
///
/// While armed, a timer interrupts the calling thread every `period` and
/// runs the kernel in the signal handler, on the same core as the
/// simulation, recording when each sample started and how long it took.
/// The handler touches only static memory and the clock, so it is
/// async-signal-safe; the samples' own time is subtracted from the
/// intervals they interrupt.
class speed_probe {
public:
    /// Kernel seconds on an unloaded core of the machine the benchmark was
    /// defined on (a 4-vCPU Intel Xeon VM); scaled host times are seconds
    /// at that speed.
    static constexpr double reference_s = 35e-6;

    speed_probe() = default;
    ~speed_probe() { disarm(); }
    speed_probe(const speed_probe&) = delete;
    speed_probe& operator=(const speed_probe&) = delete;

    /// Runs the kernel once on the calling thread; returns its seconds.
    /// Call it only while the timer is disarmed.
    static double measure() {
        kernel(heap_inline_, size_inline_);  // warms the heap
        const std::int64_t t0 = now_ns();
        kernel(heap_inline_, size_inline_);
        return 1e-9 * static_cast<double>(now_ns() - t0);
    }

    /// Starts sampling on the calling thread. Returns false, sampling
    /// nothing, when the timer cannot be set up.
    bool arm() {
        struct sigaction sa {};
        sa.sa_handler = &on_tick;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGRTMIN, &sa, nullptr) != 0) return false;
        sigevent sev {};
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = SIGRTMIN;
        sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
        if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) return false;
        itimerspec its {};
        its.it_value.tv_nsec = period_ns;
        its.it_interval.tv_nsec = period_ns;
        armed_ = timer_settime(timer_, 0, &its, nullptr) == 0;
        if (!armed_) timer_delete(timer_);
        return armed_;
    }

    /// Stops sampling; no tick is delivered after it returns.
    void disarm() {
        if (!armed_) return;
        timer_delete(timer_);
        armed_ = false;
        signal(SIGRTMIN, SIG_IGN);
    }

    /// Seconds of `wall_s` (host time over [a, b]) at the reference speed:
    /// the samples' own time inside the interval is removed, and the rest
    /// divided by the kernel's mean slowdown over it. Unchanged when no
    /// sample started in the interval.
    double scale(double wall_s, steady::time_point a,
                 steady::time_point b) const {
        const auto lo = a.time_since_epoch().count();
        const auto hi = b.time_since_epoch().count();
        const std::size_t n = std::min(count_.load(), max_samples);
        double kernel_s = 0.0, handler_s = 0.0;
        std::size_t in = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (samples_[i].start_ns < lo || samples_[i].start_ns > hi) continue;
            kernel_s += 1e-9 * static_cast<double>(samples_[i].kernel_ns);
            handler_s += 1e-9 * static_cast<double>(samples_[i].handler_ns);
            ++in;
        }
        if (in == 0) return wall_s;
        const double slowdown =
            kernel_s / static_cast<double>(in) / reference_s;
        return std::max(wall_s - handler_s, 0.0) / slowdown;
    }

    static std::size_t samples() { return std::min(count_.load(), max_samples); }

private:
    static constexpr std::size_t heap_cap = 1024;
    static constexpr int kernel_steps = 1500;
    static constexpr long period_ns = 5'000'000;
    static constexpr std::size_t max_samples = std::size_t{1} << 16;

    struct sample {
        std::int64_t start_ns;
        std::int64_t kernel_ns;   ///< the timed, cache-warm kernel run
        std::int64_t handler_ns;  ///< the whole handler, warm-up included
    };

    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   steady::now().time_since_epoch())
            .count();
    }

    static std::uint64_t next(std::uint64_t x) {
        x ^= x << 13;
        x ^= x >> 7;
        return x ^ (x << 17);
    }

    /// The fixed work: push/pop pairs on a min-heap kept full between
    /// calls.
    static void kernel(std::uint64_t* heap, std::size_t& size) {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(size);
        std::uint64_t acc = 0;
        for (int i = 0; i < kernel_steps; ++i) {
            x = next(x);
            heap[size++] = x >> 20;
            std::push_heap(heap, heap + size, std::greater<>{});
            if (size > heap_cap) {
                std::pop_heap(heap, heap + size, std::greater<>{});
                acc += heap[--size];
            }
        }
        sink_ = acc;
    }

    static void on_tick(int) {
        const int saved = errno;
        const std::int64_t t0 = now_ns();
        kernel(heap_tick_, size_tick_);  // warms the heap in this core's caches
        const std::int64_t t1 = now_ns();
        kernel(heap_tick_, size_tick_);
        const std::int64_t t2 = now_ns();
        const std::size_t i = count_.load(std::memory_order_relaxed);
        if (i < max_samples) {
            samples_[i] = {t0, t2 - t1, t2 - t0};
            std::atomic_signal_fence(std::memory_order_release);
            count_.store(i + 1, std::memory_order_relaxed);
        }
        errno = saved;
    }

    static inline std::uint64_t heap_inline_[heap_cap + 1];
    static inline std::uint64_t heap_tick_[heap_cap + 1];
    static inline std::size_t size_inline_ = 0, size_tick_ = 0;
    static inline volatile std::uint64_t sink_ = 0;  ///< keeps the work live
    static inline sample samples_[max_samples];
    static inline std::atomic<std::size_t> count_{0};

    timer_t timer_ {};
    bool armed_ = false;
};

// ---- correctness checks ---------------------------------------------------

class checks {
public:
    void expect(bool ok, const std::string& what) {
        ++run_;
        if (ok) return;
        ++failed_;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    std::uint64_t run() const { return run_; }
    std::uint64_t failed() const { return failed_; }

private:
    std::uint64_t run_ = 0;
    std::uint64_t failed_ = 0;
};

// ---- what the runs accumulate ---------------------------------------------

/// Latency and DRAM sums of one model under one policy (colocate16).
struct model_side {
    double latency_ms = 0.0;
    double dram_mib = 0.0;
    std::uint64_t n = 0;
};

/// The simulated outcome of a workload's subject system (CaMDN(Full) in
/// colocate16, the workload's own policy elsewhere), pooled over sub-runs.
/// Deterministic for a given seed.
struct sim_pool {
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sla_met = 0;
    cycle_t sim_cycles = 0;  ///< summed makespans
    double dram_mib = 0.0;   ///< summed per-inference DRAM traffic
    std::vector<double> latency_ms;
    std::map<std::string, std::vector<double>> latency_by_model;
    /// colocate16: per-model sums under AuRORA and CaMDN(Full), over the
    /// sub-runs that ran both.
    std::map<std::string, model_side> aurora, full;

    void add_completion(const sim::inference_record& rec) {
        completed += 1;
        latency_ms.push_back(cycles_to_ms(rec.latency()));
        latency_by_model[rec.abbr].push_back(latency_ms.back());
        dram_mib += static_cast<double>(rec.dram_bytes) / bytes_per_mib;
        if (runtime::meets_qos_target(rec.abbr, rec.latency(), qos_scale))
            sla_met += 1;
    }
};

/// colocate16: mean over models of AuRORA mean latency / CaMDN(Full) mean
/// latency (Fig 7); 0 when the pool holds no AuRORA runs.
double speedup_vs_aurora(const sim_pool& pool) {
    double sum = 0.0;
    int n = 0;
    for (const auto& [abbr, f] : pool.full) {
        const auto it = pool.aurora.find(abbr);
        if (it == pool.aurora.end() || f.n == 0 || it->second.n == 0) continue;
        sum += ratio(it->second.latency_ms / it->second.n, f.latency_ms / f.n);
        ++n;
    }
    return n ? sum / n : 0.0;
}

/// colocate16: mean over models of CaMDN(Full)'s DRAM-per-inference
/// reduction against AuRORA, percent (Fig 7).
double mem_reduction_pct(const sim_pool& pool) {
    double sum = 0.0;
    int n = 0;
    for (const auto& [abbr, f] : pool.full) {
        const auto it = pool.aurora.find(abbr);
        if (it == pool.aurora.end() || f.n == 0 || it->second.n == 0) continue;
        sum += 100.0 * (1.0 - ratio(f.dram_mib / f.n,
                                    it->second.dram_mib / it->second.n));
        ++n;
    }
    return n ? sum / n : 0.0;
}

/// Simulated-system metrics of a pool, in report order. Exact functions of
/// the seed: the traced pass must reproduce them bit for bit.
struct sim_summary {
    double dram_mib_per_inf = 0.0;
    double inf_per_sim_s = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    std::uint64_t beyond_p95 = 0;  ///< samples strictly above the p95
    double sla_rate = 0.0;
    double drop_rate = 0.0;
    double speedup_vs_aurora = 0.0;
    double mem_reduction_pct = 0.0;

    bool operator==(const sim_summary& o) const {
        return dram_mib_per_inf == o.dram_mib_per_inf &&
               inf_per_sim_s == o.inf_per_sim_s &&
               latency_p50_ms == o.latency_p50_ms &&
               latency_p95_ms == o.latency_p95_ms &&
               sla_rate == o.sla_rate && drop_rate == o.drop_rate &&
               speedup_vs_aurora == o.speedup_vs_aurora &&
               mem_reduction_pct == o.mem_reduction_pct;
    }
};

sim_summary summarize(const sim_pool& pool) {
    sim_summary s;
    const auto n = static_cast<double>(pool.completed);
    s.dram_mib_per_inf = ratio(pool.dram_mib, n);
    s.inf_per_sim_s = ratio(n, cycles_to_ms(pool.sim_cycles) * 1e-3);
    // The median is taken per tenant (model) and averaged over tenants: the
    // request-pooled median of an even, uniform model mix sits between two
    // model latency clusters and flips with the draw. The tail pools every
    // request.
    double p50_sum = 0.0;
    for (const auto& [abbr, v] : pool.latency_by_model) {
        percentile_tracker t;
        for (const double x : v) t.add(x);
        p50_sum += t.p50();
    }
    s.latency_p50_ms =
        ratio(p50_sum, static_cast<double>(pool.latency_by_model.size()));
    percentile_tracker lat;
    lat.reserve(pool.latency_ms.size());
    for (const double v : pool.latency_ms) lat.add(v);
    s.latency_p95_ms = lat.p95();
    for (const double v : pool.latency_ms)
        if (v > s.latency_p95_ms) ++s.beyond_p95;
    s.sla_rate = ratio(static_cast<double>(pool.sla_met),
                       static_cast<double>(pool.arrivals));
    s.drop_rate = ratio(static_cast<double>(pool.dropped),
                        static_cast<double>(pool.arrivals));
    s.speedup_vs_aurora = speedup_vs_aurora(pool);
    s.mem_reduction_pct = mem_reduction_pct(pool);
    return s;
}

/// Simulated counters of the layers, summed over every simulation call of a
/// pass (fleet runs keep no per-SoC machine stats under bounded history,
/// so their cache/DRAM-rate/telemetry counters stay zero).
struct layer_counters {
    std::uint64_t events = 0;
    std::uint64_t cache_hits = 0, cache_misses = 0;
    std::uint64_t inter_task_evictions = 0, region_fills = 0;
    std::uint64_t bypass_reads = 0, multicast_combined = 0;
    std::uint64_t slice_busy_cycles = 0;
    double dram_mib = 0.0;  ///< DRAM traffic of completed inferences
    std::uint64_t dram_accesses = 0, dram_row_hits = 0, dram_throttled = 0;
    double dram_bytes = 0.0, dram_peak_bytes = 0.0;  ///< bus_util terms
    std::uint64_t epochs = 0, page_wait_cycles = 0, page_timeouts = 0;
    std::uint64_t lbm_downgrades = 0;
    percentile_tracker queue_delay_ms;
    std::uint64_t rounds = 0, scale_events = 0, migrated = 0;
    obs::attribution_components attr;
    std::uint64_t attr_latency = 0;

    void add_experiment(const sim::experiment_result& r,
                        const sim::soc_config& soc) {
        events += r.events_executed;
        const auto& c = r.cache_stats;
        cache_hits += c.hits;
        cache_misses += c.misses;
        inter_task_evictions += c.inter_task_evictions;
        region_fills += c.region_fills;
        bypass_reads += c.bypass_reads;
        multicast_combined += c.multicast_combined;
        slice_busy_cycles += c.slice_busy_cycles;
        const auto& d = r.dram_stats;
        dram_accesses += d.accesses();
        dram_row_hits += d.row_hits;
        dram_throttled += d.throttled;
        dram_bytes += static_cast<double>(d.bytes());
        dram_peak_bytes += soc.dram.peak_bytes_per_cycle() *
                           static_cast<double>(r.makespan);
        epochs += r.telemetry.size();
        for (const auto& e : r.telemetry) {
            page_wait_cycles += e.total_page_wait();
            page_timeouts += e.total_timeouts();
            for (const auto& t : e.tasks) lbm_downgrades += t.lbm_downgrades;
        }
        add_records(r.completions);
    }

    void add_records(const std::vector<sim::inference_record>& recs) {
        for (const auto& rec : recs) {
            dram_mib += static_cast<double>(rec.dram_bytes) / bytes_per_mib;
            queue_delay_ms.add(cycles_to_ms(rec.queue_delay()));
        }
    }
};

/// Host seconds per named layer call, recorded by the runner around its
/// calls into the library (spans of the benchmark's own code).
using spans = std::map<std::string, double>;

/// Facts of one sub-run: what it resolved, what must repeat exactly, and
/// its host time inside simulation calls.
struct sub_run {
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    std::vector<std::uint64_t> fingerprint;
    double sim_call_s = 0.0;
};

/// Folds a single-SoC run's attribution into the pass totals and checks that
/// the six components sum to the summed end-arrival latency.
void fold_attribution(const obs::latency_attributor& attr,
                      const sim::experiment_result& res, layer_counters& lc,
                      checks& chk, const std::string& what) {
    std::uint64_t latency = 0;
    for (const auto& rec : res.completions) latency += rec.latency();
    const auto tot = attr.totals();
    chk.expect(tot.sum() == latency,
               what + ": attribution components sum to the summed latency");
    chk.expect(attr.records().size() == res.completions.size(),
               what + ": every completion is attributed");
    lc.attr.accumulate(tot);
    lc.attr_latency += latency;
}

/// Times encode + decode round trips of a snapshot paused mid-flight and
/// checks that a round trip re-encodes to the same bytes. Records the mean
/// seconds per round trip as runtime.snapshot_codec_s; returns the encoded
/// size.
std::size_t snapshot_codec(const runtime::scheduler_snapshot& snap,
                           spans& sp, checks& chk) {
    const auto encoded = snap.encode();
    chk.expect(runtime::scheduler_snapshot::decode(encoded).encode() == encoded,
               "snapshot decode(encode(s)) re-encodes byte-identically");
    std::uint32_t trips = 0;
    bool same = true;
    const auto t0 = steady::now();
    double elapsed = 0.0;
    do {
        const auto d = runtime::scheduler_snapshot::decode(snap.encode());
        same = same && d.now == snap.now;
        ++trips;
        elapsed = seconds_since(t0);
    } while (elapsed < 0.2 && trips < 1000);
    chk.expect(same, "snapshot round trips restore the paused clock");
    sp["runtime.snapshot_codec_s"] = elapsed / trips;
    return encoded.size();
}

// ---- workloads --------------------------------------------------------------

class workload {
public:
    virtual ~workload() = default;

    /// Cold set-up: builds every sub-run's config, maps each catalog model
    /// (mapping_for) and memoizes the isolated latencies. Returns the seconds
    /// spent mapping.
    virtual double setup() = 0;
    virtual std::uint32_t sub_runs() const = 0;
    /// Simulates sub-run k, pooling its subject outcome into `pool` and its
    /// layer counters into `lc`. A traced pass passes the host profiler; the
    /// run then also attaches a latency attributor.
    virtual sub_run run(std::uint32_t k, obs::profiler* prof, sim_pool& pool,
                        layer_counters& lc, spans& sp, checks& chk) = 0;
    /// Traced-mode calls into layers the runs do not time on their own
    /// (placement, routing, the snapshot codec). Returns the snapshot size.
    virtual std::size_t probe(spans& sp, checks& chk) = 0;
    /// Extra report lines (colocate16: the paper reference).
    virtual void report(const sim_pool&) const {}

protected:
    /// Maps every catalog model and memoizes isolated latencies; returns the
    /// mapping seconds.
    static double warm(const sim::soc_config& soc,
                       const std::vector<const model::model*>& catalog) {
        const auto t0 = steady::now();
        for (const auto* m : catalog) sim::mapping_for(*m, soc.mapper());
        const double map_s = seconds_since(t0);
        sim::cached_isolated_latencies(soc, catalog);
        return map_s;
    }

    /// Snapshot of `cfg` paused mid-flight at `pause_at`, timed through the
    /// codec.
    static std::size_t paused_snapshot(const sim::experiment_config& cfg,
                                       cycle_t pause_at, spans& sp,
                                       checks& chk) {
        runtime::scheduler_snapshot snap;
        sim::run_experiment_segment(cfg, nullptr, &snap, never, pause_at);
        chk.expect(snap.now >= pause_at && !snap.running.empty(),
                   "snapshot probe paused mid-flight");
        return snapshot_codec(snap, sp, chk);
    }
};

/// colocate16 — the paper's Fig 7 set-up: 16 closed-loop slots keep every
/// NPU busy over the full Table I zoo; AuRORA, then CaMDN(Full), on the
/// same per-slot model sequences. Maximum contention: the cache/DRAM/NPU
/// machine model does nearly all the work, the transparent cache path
/// (AuRORA) costs ~10x the NEC path (CaMDN) per inference. AuRORA runs in
/// the first `paired_` sub-runs only; the CaMDN(Full) runs of the rest
/// widen the sample behind the end-to-end metrics at a tenth of the cost.
class colocate16 final : public workload {
public:
    colocate16(std::uint64_t seed, bool tiny)
        : seed_(seed),
          subs_(tiny ? 1 : 12),
          paired_(tiny ? 1 : 2),
          per_slot_(tiny ? 1 : 4) {}

    double setup() override {
        cfgs_.clear();
        for (std::uint32_t k = 0; k < subs_; ++k) {
            sim::experiment_config cfg;
            cfg.co_located = 16;
            cfg.inferences_per_slot = per_slot_;
            cfg.workload = zoo();
            cfg.seed = sub_seed(seed_, k);
            cfgs_.push_back(cfg);
        }
        return warm(cfgs_[0].soc, cfgs_[0].workload);
    }

    std::uint32_t sub_runs() const override { return subs_; }

    sub_run run(std::uint32_t k, obs::profiler* prof, sim_pool& pool,
                layer_counters& lc, spans& sp, checks& chk) override {
        sub_run out;
        for (const auto pol : {sim::policy::aurora, sim::policy::camdn_full}) {
            if (pol == sim::policy::aurora && k >= paired_) continue;
            auto cfg = cfgs_[k];
            cfg.pol = pol;
            obs::latency_attributor attr;
            if (prof != nullptr) {
                cfg.telemetry = true;
                cfg.obs.prof = prof;
                cfg.obs.attr = &attr;
            }
            const auto t0 = steady::now();
            const auto res = sim::run_experiment(cfg);
            const double dt = seconds_since(t0);
            const bool is_full = pol == sim::policy::camdn_full;
            sp[is_full ? "sim.run_s.camdn_full" : "sim.run_s.aurora"] += dt;
            out.sim_call_s += dt;
            out.requests += res.completions.size();
            out.events += res.events_executed;
            out.fingerprint.insert(
                out.fingerprint.end(),
                {res.makespan, res.events_executed, res.completions.size(),
                 res.dram_total_bytes});
            chk.expect(res.completions.size() == 16ull * per_slot_,
                       "colocate16: every slot completes its inferences");
            lc.add_experiment(res, cfg.soc);
            if (prof != nullptr)
                fold_attribution(attr, res, lc, chk,
                                 std::string("colocate16 ") +
                                     sim::policy_name(pol));

            if (k < paired_) {
                auto& side = is_full ? pool.full : pool.aurora;
                for (const auto& rec : res.completions) {
                    auto& s = side[rec.abbr];
                    s.latency_ms += cycles_to_ms(rec.latency());
                    s.dram_mib +=
                        static_cast<double>(rec.dram_bytes) / bytes_per_mib;
                    s.n += 1;
                }
            }
            if (is_full) {
                pool.arrivals += res.completions.size();
                pool.sim_cycles += res.makespan;
                for (const auto& rec : res.completions)
                    pool.add_completion(rec);
                if (k == 0) probe_makespan_ = res.makespan;
            }
        }
        return out;
    }

    std::size_t probe(spans& sp, checks& chk) override {
        auto cfg = cfgs_[0];
        cfg.pol = sim::policy::camdn_full;
        return paused_snapshot(cfg, probe_makespan_ / 2, sp, chk);
    }

    void report(const sim_pool& pool) const override {
        const double sp = speedup_vs_aurora(pool);
        const double mr = mem_reduction_pct(pool);
        std::printf("fig7  sim_speedup_vs_aurora  %.4fx   paper %.2fx   gap %+.4fx\n",
                    sp, paper_speedup, sp - paper_speedup);
        std::printf("fig7  sim_mem_reduction_pct  %.3f%%   paper %.1f%%   gap %+.3f pp\n",
                    mr, paper_mem_reduction_pct, mr - paper_mem_reduction_pct);
    }

private:
    std::uint64_t seed_;
    std::uint32_t subs_, paired_, per_slot_;
    std::vector<sim::experiment_config> cfgs_;
    cycle_t probe_makespan_ = 0;
};

/// mmpp_adaptive — one 8-slot SoC under camdn_adaptive with open-loop MMPP
/// arrivals: below capacity on average, above it in bursts, with a bounded
/// admission queue and QoS deadlines. Exercises runtime admission, page
/// negotiation and queueing plus the adapt telemetry bus and controller;
/// the most events per inference of the three, so the event queue and DMA
/// pump dominate host time.
class mmpp_adaptive final : public workload {
public:
    mmpp_adaptive(std::uint64_t seed, bool tiny)
        : seed_(seed), subs_(tiny ? 1 : 4), arrivals_(tiny ? 24 : 400) {}

    double setup() override {
        cfgs_.clear();
        for (std::uint32_t k = 0; k < subs_; ++k) {
            sim::experiment_config cfg;
            cfg.pol = sim::policy::camdn_adaptive;
            cfg.kind = runtime::workload_kind::open_loop_mmpp;
            cfg.co_located = 8;
            cfg.workload = zoo();
            // Mean load ~0.53/ms against ~0.65/ms of capacity; the 4x state
            // bursts to ~1.0/ms and overflows the short queue.
            cfg.arrival_rate_per_ms = 0.25;
            cfg.total_arrivals = arrivals_;
            cfg.admission_queue_limit = 8;
            cfg.qos_mode = true;
            cfg.qos_scale = qos_scale;
            cfg.seed = sub_seed(seed_, k);
            cfgs_.push_back(cfg);
        }
        return warm(cfgs_[0].soc, cfgs_[0].workload);
    }

    std::uint32_t sub_runs() const override { return subs_; }

    sub_run run(std::uint32_t k, obs::profiler* prof, sim_pool& pool,
                layer_counters& lc, spans&, checks& chk) override {
        auto cfg = cfgs_[k];
        obs::latency_attributor attr;
        if (prof != nullptr) {
            cfg.obs.prof = prof;
            cfg.obs.attr = &attr;
        }
        const auto t0 = steady::now();
        const auto res = sim::run_experiment(cfg);
        sub_run out;
        out.sim_call_s = seconds_since(t0);
        out.requests = cfg.total_arrivals;
        out.events = res.events_executed;
        out.fingerprint = {res.makespan, res.events_executed,
                           res.completions.size(), res.rejected_arrivals,
                           res.dram_total_bytes};
        chk.expect(cfg.total_arrivals ==
                       res.completions.size() + res.rejected_arrivals,
                   "mmpp_adaptive: arrivals == completed + dropped");
        lc.add_experiment(res, cfg.soc);
        if (prof != nullptr)
            fold_attribution(attr, res, lc, chk, "mmpp_adaptive");

        pool.arrivals += cfg.total_arrivals;
        pool.dropped += res.rejected_arrivals;
        pool.sim_cycles += res.makespan;
        for (const auto& rec : res.completions)
            pool.add_completion(rec);
        if (k == 0) probe_makespan_ = res.makespan;
        return out;
    }

    std::size_t probe(spans& sp, checks& chk) override {
        return paused_snapshot(cfgs_[0], probe_makespan_ / 2, sp, chk);
    }

private:
    std::uint64_t seed_;
    std::uint32_t subs_, arrivals_;
    std::vector<sim::experiment_config> cfgs_;
    cycle_t probe_makespan_ = 0;
};

/// fleet_elastic — a 4-SoC camdn_full fleet serving an MMPP stream over a
/// light catalog (ResNet-50, MobileNet-v2, EfficientNet-b0) with
/// cache_affinity routing, many short time-sliced feedback rounds,
/// autoscaling and bounded history. The only workload that runs the serve
/// layer (stream, router, placement, autoscale/migration) and the
/// scheduler-snapshot carry at every round barrier. The light catalog and
/// short rounds keep the barrier work a visible share of host time.
class fleet_elastic final : public workload {
public:
    fleet_elastic(std::uint64_t seed, bool tiny)
        : seed_(seed), subs_(tiny ? 1 : 4), arrivals_(tiny ? 60 : 1000) {}

    double setup() override {
        cfgs_.clear();
        for (std::uint32_t k = 0; k < subs_; ++k) {
            serve::soc_instance_config inst;
            inst.slots = 4;
            inst.admission_queue_limit = 8;
            auto cfg = serve::uniform_cluster(4, inst);
            cfg.models = {&model::model_by_abbr("RS."),
                          &model::model_by_abbr("MB."),
                          &model::model_by_abbr("EF.")};
            cfg.process = serve::arrival_process::mmpp;
            cfg.arrival_rate_per_ms = 5.0;
            cfg.mmpp_sojourn_ms = 1.0;
            cfg.total_arrivals = arrivals_;
            cfg.router = serve::route_policy::cache_affinity;
            cfg.feedback_rounds = 32;
            cfg.round_cycles = ms_to_cycles(3.0);
            cfg.qos_scale = qos_scale;
            cfg.autoscale.enabled = true;
            cfg.autoscale.min_socs = 2;
            cfg.autoscale.max_socs = 6;
            cfg.autoscale.backlog_high = 4.0;
            cfg.autoscale.backlog_low = 0.5;
            cfg.autoscale.cooldown_rounds = 1;
            cfg.bounded_history = true;
            // The completion ring holds every record, so latency
            // percentiles and DRAM traffic stay exact over the pooled runs.
            cfg.history_records = arrivals_;
            cfg.threads = 1;
            cfg.seed = sub_seed(seed_, k);
            cfgs_.push_back(cfg);
        }
        return warm(cfgs_[0].socs[0].soc, cfgs_[0].models);
    }

    std::uint32_t sub_runs() const override { return subs_; }

    sub_run run(std::uint32_t k, obs::profiler* prof, sim_pool& pool,
                layer_counters& lc, spans& sp, checks& chk) override {
        auto cfg = cfgs_[k];
        cfg.attribution = prof != nullptr;  // run_cluster takes no profiler
        const auto t0 = steady::now();
        const auto res = serve::run_cluster(cfg);
        sub_run out;
        out.sim_call_s = seconds_since(t0);
        sp["serve.run_s"] += out.sim_call_s;
        out.requests = res.arrivals;
        out.events = res.events_executed;
        out.fingerprint = {res.makespan,      res.events_executed,
                           res.completed,     res.dropped_queue,
                           res.dropped_unroutable, res.deadline_met,
                           res.migrated_requests,  res.scale_events.size()};
        chk.expect(res.arrivals == cfg.total_arrivals,
                   "fleet_elastic: every stream arrival is counted");
        chk.expect(res.arrivals == res.completed + res.dropped_queue +
                                       res.dropped_unroutable,
                   "fleet_elastic: arrivals == completed + dropped_queue + "
                   "dropped_unroutable");
        chk.expect(res.recent_completions.size() == res.completed,
                   "fleet_elastic: the completion ring holds every record");

        lc.events += res.events_executed;
        lc.add_records(res.recent_completions);
        std::uint32_t rounds = 0;
        for (const auto& s : res.round_summaries)
            rounds = std::max(rounds, s.round + 1);
        lc.rounds += rounds;
        lc.scale_events += res.scale_events.size();
        lc.migrated += res.migrated_requests;
        if (prof != nullptr) {
            for (const auto& [abbr, t] : res.tenants) {
                chk.expect(t.attribution.sum() == t.attribution_latency_cycles,
                           "fleet_elastic " + abbr +
                               ": attribution components sum to the "
                               "attributed latency");
                lc.attr.accumulate(t.attribution);
                lc.attr_latency += t.attribution_latency_cycles;
            }
        }

        pool.arrivals += res.arrivals;
        pool.dropped += res.dropped_queue + res.dropped_unroutable;
        pool.sim_cycles += res.makespan;
        const std::uint64_t met_before = pool.sla_met;
        for (const auto& rec : res.recent_completions)
            pool.add_completion(rec);
        chk.expect(pool.sla_met - met_before == res.deadline_met,
                   "fleet_elastic: SLA hits from the records match the "
                   "fleet's deadline count");
        return out;
    }

    std::size_t probe(spans& sp, checks& chk) override {
        std::size_t bytes = 0;
        for (std::uint32_t k = 0; k < subs_; ++k) {
            const auto& cfg = cfgs_[k];
            auto t0 = steady::now();
            const auto place = serve::plan_placement(cfg);
            sp["serve.placement_s"] += seconds_since(t0);

            // Stream + router replay of the sub-run's seed: the same lazy
            // arrival stream run_cluster pulls, routed without feedback.
            t0 = steady::now();
            const auto w = serve::traffic_weights(cfg);
            std::vector<double> cum(w.size());
            double total = 0.0;
            for (std::size_t m = 0; m < w.size(); ++m) cum[m] = total += w[m];
            for (auto& c : cum) c /= total;
            serve::stream_source stream(cfg, cum);
            serve::request_router router(cfg, place);
            std::vector<std::vector<runtime::trace_arrival>> traces(
                cfg.socs.size());
            std::uint64_t unroutable = 0;
            while (!stream.exhausted()) {
                const auto a = stream.pop();
                const auto s =
                    router.route(a.at, static_cast<std::uint32_t>(a.model));
                if (s < 0)
                    ++unroutable;
                else
                    traces[static_cast<std::size_t>(s)].push_back(
                        {a.at, cfg.models[a.model]});
            }
            sp["serve.route_s"] += seconds_since(t0);
            std::uint64_t routed = unroutable;
            for (const auto& t : traces) routed += t.size();
            chk.expect(routed == cfg.total_arrivals,
                       "fleet_elastic: route replay accounts for every "
                       "arrival");

            // What a round barrier carries: SoC 0's state paused mid-stream.
            if (k == 0) {
                sim::experiment_config ec;
                ec.soc = cfg.socs[0].soc;
                ec.pol = cfg.socs[0].pol;
                ec.kind = runtime::workload_kind::trace_replay;
                ec.trace = traces[0];
                ec.co_located = cfg.socs[0].slots;
                ec.admission_queue_limit = cfg.socs[0].admission_queue_limit;
                ec.workload = cfg.models;
                ec.seed = cfg.seed;
                ec.telemetry = true;
                const cycle_t pause =
                    traces[0].empty() ? 1 : traces[0][traces[0].size() / 2].at;
                bytes = paused_snapshot(ec, pause, sp, chk);
            }
        }
        return bytes;
    }

private:
    std::uint64_t seed_;
    std::uint32_t subs_, arrivals_;
    std::vector<serve::cluster_config> cfgs_;
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
    if (name == "colocate16") return std::make_unique<colocate16>(seed, tiny);
    if (name == "mmpp_adaptive")
        return std::make_unique<mmpp_adaptive>(seed, tiny);
    if (name == "fleet_elastic")
        return std::make_unique<fleet_elastic>(seed, tiny);
    return nullptr;
}

// ---- command line, stamp and result ----------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;  ///< smoke-test sizes: one small sub-run
    std::string commit = "unknown";
};

bool parse(int argc, char** argv, options& o) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            o.tiny = true;
        } else if (!has_value) {
            return false;
        } else if (a == "--workload") {
            o.workload = argv[++i];
        } else if (a == "--seed") {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            o.trace = std::strcmp(argv[++i], "1") == 0;
        } else if (a == "--commit") {
            o.commit = argv[++i];
        } else {
            return false;
        }
    }
    return !o.workload.empty() && o.seconds > 0.0;
}

unsigned nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

struct metric {
    std::string name;
    double value;
    std::string unit;
};

/// Prints the human-readable metric lines, then the JSON result as the last
/// line of stdout. A non-finite value fails a check and is reported as 0.
void print_result(std::vector<metric> metrics, std::uint64_t attempted,
                  checks& chk) {
    for (auto& m : metrics) {
        chk.expect(std::isfinite(m.value), m.name + " is finite");
        if (!std::isfinite(m.value)) m.value = 0.0;
        std::printf("metric %-28s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("checks run=%llu failed=%llu\n",
                static_cast<unsigned long long>(chk.run()),
                static_cast<unsigned long long>(chk.failed()));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                chk.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    attempted, 1)),
                static_cast<unsigned long long>(chk.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

void print_sim(const sim_summary& s, std::uint64_t samples) {
    std::printf("sim   latency samples=%llu beyond_p95=%llu\n",
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(s.beyond_p95));
    std::printf("sim   sim_drop_rate %.6f fraction  sim_speedup_vs_aurora "
                "%.4f x  sim_mem_reduction_pct %.3f %%\n",
                s.drop_rate, s.speedup_vs_aurora, s.mem_reduction_pct);
}

double span(const spans& sp, const char* name) {
    const auto it = sp.find(name);
    return it == sp.end() ? 0.0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload colocate16|mmpp_adaptive|"
                     "fleet_elastic --seed N --seconds S --trace 0|1 "
                     "[--tiny] [--commit SHA]\n",
                     argv[0]);
        return 2;
    }
    auto w = make_workload(opt.workload, opt.seed, opt.tiny);
    if (!w) {
        std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
        return 2;
    }

    std::printf("stamp nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
                "commit=%s\n",
                nproc(), cpu_model().c_str(), CAMDN_BENCH_COMPILER,
                CAMDN_BENCH_BUILD_TYPE, opt.commit.c_str());
    std::printf("run   workload=%s seed=%llu seconds=%g trace=%d "
                "sub_runs=%u%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, w->sub_runs(), opt.tiny ? " tiny" : "");
    std::fflush(stdout);

    checks chk;

    // Cold set-up, repeated: every repeat starts from empty mapping and
    // isolated-latency memos, so each pays what a fresh process pays. Set-up
    // runs the isolated-latency memo on the library's sweep pool, so the
    // probe samples inline, just before and after each repeat.
    speed_probe probe;
    std::vector<double> setup_s, setup_wall_s, map_s;
    for (int i = 0; i < setup_repeats; ++i) {
        sim::clear_mapping_registry();
        sim::clear_isolated_latency_cache();
        double kernel_s = 0.0;
        for (int j = 0; j < setup_probes; ++j) kernel_s += speed_probe::measure();
        const auto t0 = steady::now();
        map_s.push_back(w->setup());
        setup_wall_s.push_back(seconds_since(t0));
        for (int j = 0; j < setup_probes; ++j) kernel_s += speed_probe::measure();
        setup_s.push_back(setup_wall_s.back() * 2.0 * setup_probes *
                          speed_probe::reference_s / kernel_s);
    }

    // First pass, untraced: the simulated metrics and every sub-run's
    // reference facts. From here on the probe samples in the background;
    // every simulation call's host time is divided by the probe's mean
    // slowdown over the call.
    chk.expect(probe.arm(), "the machine-speed probe's timer is set up");
    const std::uint32_t subs = w->sub_runs();
    std::uint64_t attempted = 0;
    sim_pool pool;
    layer_counters lc;
    spans sp;
    std::vector<sub_run> first(subs);
    std::vector<std::vector<double>> times(subs), wall_times(subs);
    auto timed_run = [&](std::uint32_t k, sim_pool& p, layer_counters& l,
                         spans& s) {
        const auto a = steady::now();
        auto r = w->run(k, nullptr, p, l, s, chk);
        const auto b = steady::now();
        wall_times[k].push_back(r.sim_call_s);
        times[k].push_back(probe.scale(r.sim_call_s, a, b));
        return r;
    };
    const auto t_measure = steady::now();
    for (std::uint32_t k = 0; k < subs; ++k) {
        first[k] = timed_run(k, pool, lc, sp);
        attempted += first[k].requests;
    }
    const sim_summary sim = summarize(pool);
    print_sim(sim, pool.latency_ms.size());
    w->report(pool);

    if (!opt.trace) {
        // Cycle through the sub-runs until --seconds of host time are
        // measured; each repeat must reproduce its first run exactly.
        for (std::uint64_t i = subs;; ++i) {
            const auto k = static_cast<std::uint32_t>(i % subs);
            if (seconds_since(t_measure) + median(wall_times[k]) > opt.seconds)
                break;
            sim_pool scratch_pool;
            layer_counters scratch_lc;
            spans scratch_sp;
            const auto r = timed_run(k, scratch_pool, scratch_lc, scratch_sp);
            chk.expect(r.fingerprint == first[k].fingerprint,
                       "repeat of sub-run " + std::to_string(k) +
                           " reproduces its simulated facts");
            attempted += r.requests;
        }
        probe.disarm();
        std::uint64_t requests = 0;
        double host_s = 0.0, wall_s = 0.0;
        std::size_t timed = 0;
        for (std::uint32_t k = 0; k < subs; ++k) {
            requests += first[k].requests;
            host_s += median(times[k]);
            wall_s += median(wall_times[k]);
            timed += times[k].size();
            std::printf("host  sub_run=%u requests=%llu events=%llu runs=%zu "
                        "median_s=%.4f wall_median_s=%.4f\n",
                        k, static_cast<unsigned long long>(first[k].requests),
                        static_cast<unsigned long long>(first[k].events),
                        times[k].size(), median(times[k]),
                        median(wall_times[k]));
        }
        std::printf("host  timed_sub_runs=%zu measured_s=%.3f probe_samples=%zu "
                    "wall_requests_per_s=%.4f wall_setup_s=%.4f\n",
                    timed, seconds_since(t_measure), speed_probe::samples(),
                    ratio(static_cast<double>(requests), wall_s),
                    median(setup_wall_s));
        print_result(
            {{"setup_s", median(setup_s), "s"},
             {"requests_per_host_s", ratio(static_cast<double>(requests), host_s),
              "req/s"},
             {"peak_rss_mib", peak_rss_mib(), "MiB"},
             {"sim_dram_mib_per_inf", sim.dram_mib_per_inf, "MiB"},
             {"sim_inf_per_sim_s", sim.inf_per_sim_s, "inf/s"},
             {"sim_latency_p50_ms", sim.latency_p50_ms, "ms"},
             {"sim_latency_p95_ms", sim.latency_p95_ms, "ms"},
             {"sim_sla_rate", sim.sla_rate, "fraction"}},
            attempted, chk);
        return 0;
    }

    // Traced pass: the same sub-runs with the host profiler (sampled
    // charging) and the latency attributor attached. Observation only — the
    // simulated facts must match the untraced pass exactly. The probe stays
    // armed, so both passes' host times are scaled alike.
    obs::profiler prof;
    prof.set_sample_every(64);
    sim_pool tpool;
    layer_counters tlc;
    spans tsp;
    std::uint64_t requests = 0;
    double untraced_s = 0.0, traced_s = 0.0, wall_s = 0.0;
    for (std::uint32_t k = 0; k < subs; ++k) {
        const auto a = steady::now();
        const auto r = w->run(k, &prof, tpool, tlc, tsp, chk);
        traced_s += probe.scale(r.sim_call_s, a, steady::now());
        chk.expect(r.fingerprint == first[k].fingerprint,
                   "traced sub-run " + std::to_string(k) +
                       " reproduces the untraced simulated facts");
        untraced_s += times[k].front();
        wall_s += wall_times[k].front();
        requests += first[k].requests;
        attempted += r.requests;
    }
    probe.disarm();
    chk.expect(summarize(tpool) == sim,
               "traced sim_* metrics equal the untraced ones");
    chk.expect(tlc.events == lc.events,
               "traced event count equals the untraced one");
    const std::size_t snap_bytes = w->probe(sp, chk);

    const double attr_total = static_cast<double>(tlc.attr_latency);
    auto attr_share = [&](std::uint64_t cycles) {
        return ratio(static_cast<double>(cycles), attr_total);
    };
    const auto host = [&](obs::subsystem s) {
        return prof.seconds(s);
    };
    print_result(
        {{"mapping.map_s", median(map_s), "s"},
         {"sim.run_s.aurora", span(sp, "sim.run_s.aurora"), "s"},
         {"sim.run_s.camdn_full", span(sp, "sim.run_s.camdn_full"), "s"},
         {"eq.events", static_cast<double>(lc.events), "count"},
         {"eq.events_per_host_s",
          ratio(static_cast<double>(lc.events), untraced_s), "events/s"},
         {"cache.transparent_hit_rate",
          ratio(static_cast<double>(tlc.cache_hits),
                static_cast<double>(tlc.cache_hits + tlc.cache_misses)),
          "fraction"},
         {"cache.inter_task_evictions",
          static_cast<double>(tlc.inter_task_evictions), "count"},
         {"cache.region_fills", static_cast<double>(tlc.region_fills),
          "count"},
         {"cache.bypass_reads", static_cast<double>(tlc.bypass_reads),
          "count"},
         {"cache.multicast_combined",
          static_cast<double>(tlc.multicast_combined), "count"},
         {"cache.slice_busy_cycles",
          static_cast<double>(tlc.slice_busy_cycles), "cycles"},
         {"dram.mib", tlc.dram_mib, "MiB"},
         {"dram.row_hit_rate",
          ratio(static_cast<double>(tlc.dram_row_hits),
                static_cast<double>(tlc.dram_accesses)),
          "fraction"},
         {"dram.bus_util", ratio(tlc.dram_bytes, tlc.dram_peak_bytes),
          "fraction"},
         {"dram.throttled", static_cast<double>(tlc.dram_throttled), "count"},
         {"runtime.page_wait_cycles",
          static_cast<double>(tlc.page_wait_cycles), "cycles"},
         {"runtime.page_timeouts", static_cast<double>(tlc.page_timeouts),
          "count"},
         {"runtime.lbm_downgrades", static_cast<double>(tlc.lbm_downgrades),
          "count"},
         {"runtime.queue_delay_p95_ms", tlc.queue_delay_ms.p95(), "ms"},
         {"runtime.snapshot_bytes", static_cast<double>(snap_bytes), "bytes"},
         {"runtime.snapshot_codec_s", span(sp, "runtime.snapshot_codec_s"),
          "s"},
         {"adapt.epochs", static_cast<double>(tlc.epochs), "count"},
         {"serve.placement_s", span(sp, "serve.placement_s"), "s"},
         {"serve.route_s", span(sp, "serve.route_s"), "s"},
         {"serve.run_s", span(sp, "serve.run_s"), "s"},
         {"serve.rounds", static_cast<double>(tlc.rounds), "count"},
         {"serve.scale_events", static_cast<double>(tlc.scale_events),
          "count"},
         {"serve.migrated_requests", static_cast<double>(tlc.migrated),
          "count"},
         {"host.sched_s", host(obs::subsystem::sched), "s"},
         {"host.dma_s", host(obs::subsystem::dma), "s"},
         {"host.cache_s", host(obs::subsystem::cache), "s"},
         {"host.dram_s", host(obs::subsystem::dram), "s"},
         {"host.layer_s", host(obs::subsystem::layer), "s"},
         {"host.other_s", host(obs::subsystem::other), "s"},
         {"attr.queue_wait", attr_share(tlc.attr.queue_wait), "fraction"},
         {"attr.page_wait", attr_share(tlc.attr.page_wait), "fraction"},
         {"attr.dma_stall", attr_share(tlc.attr.dma_stall), "fraction"},
         {"attr.dram_contention", attr_share(tlc.attr.dram_contention),
          "fraction"},
         {"attr.cache_penalty", attr_share(tlc.attr.cache_penalty),
          "fraction"},
         {"attr.compute", attr_share(tlc.attr.compute), "fraction"},
         {"obs.overhead_pct", 100.0 * (ratio(traced_s, untraced_s) - 1.0),
          "%"},
         {"host.wall_requests_per_s",
          ratio(static_cast<double>(requests), wall_s), "req/s"},
         {"sim_speedup_vs_aurora", sim.speedup_vs_aurora, "x"},
         {"sim_mem_reduction_pct", sim.mem_reduction_pct, "%"},
         {"sim_drop_rate", sim.drop_rate, "fraction"}},
        attempted, chk);
    return 0;
}
