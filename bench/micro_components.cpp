// Google-benchmark micro-benchmarks of the core components: DRAM timing,
// transparent/NEC cache paths, CPT translation, page allocation, the layer
// mapper and Algorithm 1. These gauge simulator throughput, not modelled
// hardware performance.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench/harness.h"
#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "dram/dram_system.h"
#include "mapping/layer_mapper.h"
#include "runtime/cache_allocation.h"
#include "sim/sweep.h"

using namespace camdn;

static void bm_event_queue(benchmark::State& state) {
    for (auto _ : state) {
        event_queue eq;
        eq.set_handler(event_channel::dma, [](const typed_event&) {});
        for (std::uint64_t i = 0; i < 1024; ++i)
            eq.schedule_event(i, typed_event{0, 0, i, 0});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(bm_event_queue);

// Hold model: `pending` events in steady state; each iteration pops the
// next one and schedules one at now + delta, delta drawn from a fixed
// seeded exponential table (mean 1,000 cycles). The second argument first
// arms a 400-event far backlog, the arrival list an open-loop generator
// arms up front. bm_event_queue's fill-then-drain sees neither the steady
// churn nor the backlog.
static void bm_event_queue_hold(benchmark::State& state) {
    const auto pending = static_cast<std::uint64_t>(state.range(0));
    const bool backlog = state.range(1) != 0;
    std::vector<cycle_t> delta(4096);
    std::uint64_t x = 12345;
    for (auto& d : delta) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const double u = static_cast<double>((x >> 11) + 1) * 0x1p-53;
        d = 1 + static_cast<cycle_t>(-1000.0 * std::log(u));
    }
    event_queue eq;
    eq.set_handler(event_channel::dma, [](const typed_event&) {});
    eq.set_handler(event_channel::sched, [](const typed_event&) {});
    if (backlog)
        for (std::uint64_t i = 0; i < 400; ++i)
            eq.schedule_event(1'000'000'000'000 + 1'000'000 * i,
                              typed_event{2, 1, i, 0});
    for (std::uint64_t i = 0; i < pending; ++i)
        eq.schedule_event(delta[i % delta.size()], typed_event{0, 0, i, 0});
    std::uint64_t k = 0;
    for (auto _ : state) {
        eq.step();
        eq.schedule_event(eq.now() + delta[k % delta.size()],
                          typed_event{0, 0, k, 0});
        ++k;
    }
    benchmark::DoNotOptimize(eq.now());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_event_queue_hold)
    ->ArgNames({"pending", "backlog"})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({256, 0})
    ->Args({256, 1});

static void bm_dram_access(benchmark::State& state) {
    dram::dram_system d{dram::dram_config{}};
    addr_t addr = 0;
    cycle_t now = 0;
    for (auto _ : state) {
        now = d.access(addr, false, now);
        addr += line_bytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_dram_access);

// The CaMDN chunk shape: 128-line NEC bursts from eight interleaved
// streams, each issuing its next chunk when the previous one completes,
// as co-located tenants' DMA flights do. Streams sit 64 MiB apart, so
// they share banks on different rows and the bursts mix row hits,
// empties and conflicts.
static void bm_dram_burst(benchmark::State& state) {
    constexpr std::uint64_t streams = 8;
    constexpr std::uint64_t chunk_lines = 128;
    dram::dram_system d{dram::dram_config{}};
    std::vector<addr_t> next(streams);
    std::vector<cycle_t> ready(streams, 0);
    for (std::uint64_t s = 0; s < streams; ++s) next[s] = s * mib(64);
    std::uint64_t s = 0;
    for (auto _ : state) {
        ready[s] = d.access_burst(next[s], chunk_lines, false, ready[s],
                                  static_cast<task_id>(s));
        benchmark::DoNotOptimize(ready[s]);
        next[s] += chunk_lines * line_bytes;
        s = (s + 1) % streams;
    }
    state.SetItemsProcessed(state.iterations() * chunk_lines);
}
BENCHMARK(bm_dram_burst);

// Single-visit bursts (at most one line per channel): small fills,
// writebacks and tile tails. A fixed seeded table of 1-4-line bursts at
// random line addresses, spread over three unregulated tasks, three with
// ample DRAM shares and two whose shares throttle; each burst arrives when
// its task's previous one completed.
static void bm_dram_tiny_burst(benchmark::State& state) {
    constexpr std::uint64_t tasks = 8;
    struct burst {
        addr_t addr;
        std::uint64_t lines;
        task_id task;
        bool is_write;
    };
    std::vector<burst> table(4096);
    std::uint64_t x = 12345;
    for (auto& b : table) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b.addr = ((x >> 20) % (mib(256) / line_bytes)) * line_bytes;
        b.lines = 1 + (x >> 8) % 4;
        b.task = static_cast<task_id>((x >> 12) % tasks);
        b.is_write = (x >> 16) % 4 == 0;
    }
    dram::dram_system d{dram::dram_config{}};
    for (std::uint64_t t = 3; t < 6; ++t)
        d.set_task_share(static_cast<task_id>(t), 0.5);
    for (std::uint64_t t = 6; t < tasks; ++t)
        d.set_task_share(static_cast<task_id>(t), 0.002);
    std::vector<cycle_t> ready(tasks, 0);
    std::uint64_t k = 0, lines = 0;
    for (auto _ : state) {
        const burst& b = table[k++ % table.size()];
        const auto t = static_cast<std::size_t>(b.task);
        ready[t] =
            d.access_burst(b.addr, b.lines, b.is_write, ready[t], b.task);
        benchmark::DoNotOptimize(ready[t]);
        lines += b.lines;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lines));
}
BENCHMARK(bm_dram_tiny_burst);

static void bm_transparent_access(benchmark::State& state) {
    dram::dram_system d{dram::dram_config{}};
    cache::shared_cache c{cache::cache_config{}, d};
    addr_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.transparent_access(addr, false, 0, 0));
        addr += line_bytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_transparent_access);

// The AuRORA shape: 128-line transparent bursts from 16 interleaved tenant
// streams over twice the cache, so the cache is warm and over-subscribed
// and most lines miss, evict and write back. Each stream sweeps its own
// 2 MiB region and issues its next burst when the previous one completes;
// every fourth burst of a stream is a write. DRAM shares are AuRORA's for
// 16 tenants of equal demand: min(1, headroom 2 / 16).
static void bm_transparent_burst(benchmark::State& state) {
    constexpr std::uint64_t streams = 16;
    constexpr std::uint64_t burst_lines = 128;
    dram::dram_system d{dram::dram_config{}};
    cache::shared_cache c{cache::cache_config{}, d};
    const std::uint64_t region = 2 * c.config().total_bytes / streams;
    for (std::uint64_t s = 0; s < streams; ++s)
        d.set_task_share(static_cast<task_id>(s), 2.0 / streams);
    std::vector<std::uint64_t> offset(streams, 0), bursts(streams, 0);
    std::vector<cycle_t> ready(streams, 0);
    std::uint64_t s = 0;
    const auto step = [&] {
        const auto task = static_cast<task_id>(s);
        ready[s] = c.transparent_burst(s * region + offset[s], burst_lines,
                                       bursts[s]++ % 4 == 3, ready[s], task);
        offset[s] = (offset[s] + burst_lines * line_bytes) % region;
        s = (s + 1) % streams;
    };
    // Warm-up: two sweeps of every region, untimed.
    for (std::uint64_t i = 0; i < 2 * streams * region /
                                      (burst_lines * line_bytes);
         ++i)
        step();
    for (auto _ : state) {
        step();
        benchmark::DoNotOptimize(ready.data());
    }
    state.SetItemsProcessed(state.iterations() * burst_lines);
}
BENCHMARK(bm_transparent_burst);

static void bm_region_read_burst(benchmark::State& state) {
    dram::dram_system d{dram::dram_config{}};
    cache::shared_cache c{cache::cache_config{}, d};
    auto pages = c.pages().try_allocate(0, 8).value();
    auto& cpt = c.cpt(0);
    for (std::uint32_t v = 0; v < pages.size(); ++v) cpt.map(v, pages[v]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.region_read_burst(0, 0, 512, 0));
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(bm_region_read_burst);

static void bm_cpt_translate(benchmark::State& state) {
    cache::cache_page_table cpt{cache::cache_config{}};
    for (std::uint32_t v = 0; v < 384; ++v) cpt.map(v, 128 + v);
    addr_t vcaddr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cpt.translate(vcaddr));
        vcaddr = (vcaddr + line_bytes) % (384 * kib(32));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cpt_translate);

static void bm_page_alloc_release(benchmark::State& state) {
    cache::page_allocator pool{cache::cache_config{}};
    for (auto _ : state) {
        auto got = pool.try_allocate(0, 32);
        benchmark::DoNotOptimize(got);
        pool.release(0, 32);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_page_alloc_release);

// Machine-section codec of a default 16 MiB cache + DRAM: what a snapshot
// save and a resume pay for the machine (nearly all of a snapshot's
// bytes). The cache is warmed so every transparent line is valid.
struct warm_machine {
    dram::dram_system dram{dram::dram_config{}};
    cache::shared_cache cache{cache::cache_config{}, dram};

    warm_machine() {
        const std::uint64_t lines = cache.config().lines_total();
        for (std::uint64_t i = 0; i < lines; ++i)
            cache.transparent_access(i * line_bytes, i % 4 == 0, i,
                                     static_cast<task_id>(i % 2));
        const auto pages = cache.pages().try_allocate(0, 16).value();
        for (std::uint32_t v = 0; v < pages.size(); ++v)
            cache.cpt(0).map(v, pages[v]);
    }
    // `cache` holds a reference to `dram`.
    warm_machine(const warm_machine&) = delete;
    warm_machine& operator=(const warm_machine&) = delete;
};

static void bm_machine_section_save(benchmark::State& state) {
    const warm_machine m;
    std::vector<std::uint8_t> section;
    for (auto _ : state) {
        // A fresh writer, as scheduler::save uses: the buffer grows as the
        // section is written.
        snapshot_writer w;
        m.cache.save_state(w);
        m.dram.save_state(w);
        section = w.take();
        benchmark::DoNotOptimize(section.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(section.size()));
}
BENCHMARK(bm_machine_section_save)->Unit(benchmark::kMillisecond);

static void bm_machine_section_restore(benchmark::State& state) {
    const warm_machine m;
    snapshot_writer w;
    m.cache.save_state(w);
    m.dram.save_state(w);
    const std::vector<std::uint8_t> section = w.take();
    dram::dram_system dram{dram::dram_config{}};
    cache::shared_cache cache{cache::cache_config{}, dram};
    for (auto _ : state) {
        snapshot_reader r(section);
        cache.restore_state(r, /*task_slots=*/2);
        dram.restore_state(r);
        benchmark::DoNotOptimize(cache.stats().hits);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(section.size()));
}
BENCHMARK(bm_machine_section_restore)->Unit(benchmark::kMillisecond);

static void bm_map_layer(benchmark::State& state) {
    const auto& m = model::model_by_abbr("RS.");
    mapping::mapper_config cfg;
    const auto blocks = model::segment_layer_blocks(m, cfg.lbm_block_budget,
                                                    cfg.lbm_max_layers);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapping::map_layer(m, 10, blocks[2], cfg));
    }
}
BENCHMARK(bm_map_layer);

static void bm_map_whole_model(benchmark::State& state) {
    const auto& m = model::model_by_abbr("MB.");
    mapping::mapper_config cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapping::map_model(m, cfg));
    }
}
BENCHMARK(bm_map_whole_model);

static void bm_algorithm1_select(benchmark::State& state) {
    const auto& m = model::model_by_abbr("RS.");
    mapping::mapper_config mcfg;
    static const auto mapping = mapping::map_model(m, mcfg);
    cache::page_allocator pool{cache::cache_config{}};
    runtime::cache_allocation_algorithm alg;

    std::vector<runtime::task> tasks(8);
    std::vector<const runtime::task*> running;
    for (int i = 0; i < 8; ++i) {
        tasks[i].id = i;
        tasks[i].mdl = &m;
        tasks[i].mapping = &mapping;
        tasks[i].current_layer = static_cast<std::uint32_t>(i * 7 % 60);
        tasks[i].p_alloc = 24;
        tasks[i].p_next = 12;
        tasks[i].t_next = 1000 * i;
        running.push_back(&tasks[i]);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(alg.select(tasks[0], running, pool, 5000));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_algorithm1_select);

static void bm_end_to_end_small_experiment(benchmark::State& state) {
    for (auto _ : state) {
        sim::experiment_config cfg;
        cfg.pol = sim::policy::camdn_full;
        cfg.workload = {&model::model_by_abbr("MB.")};
        cfg.co_located = 2;
        cfg.inferences_per_slot = 1;
        benchmark::DoNotOptimize(sim::run_experiment(cfg));
    }
}
BENCHMARK(bm_end_to_end_small_experiment)->Unit(benchmark::kMillisecond);

// Sweep-engine throughput: the Fig-7 policy triple on a small workload,
// serial (threads=1) vs the machine's thread pool (threads=0). The ratio
// approaches the core count on multi-core hosts.
static void bm_sweep_policies(benchmark::State& state) {
    sim::experiment_config base;
    base.workload = {&model::model_by_abbr("MB.")};
    base.co_located = 2;
    base.inferences_per_slot = 1;
    std::vector<sim::experiment_config> cfgs;
    for (auto pol : {sim::policy::aurora, sim::policy::camdn_hw_only,
                     sim::policy::camdn_full}) {
        cfgs.push_back(base);
        cfgs.back().pol = pol;
    }
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_sweep(cfgs, threads));
    }
    state.SetItemsProcessed(state.iterations() * cfgs.size());
}
BENCHMARK(bm_sweep_policies)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

static void bm_open_loop_experiment(benchmark::State& state) {
    for (auto _ : state) {
        sim::experiment_config cfg;
        cfg.pol = sim::policy::camdn_full;
        cfg.kind = runtime::workload_kind::open_loop_poisson;
        cfg.workload = {&model::model_by_abbr("MB.")};
        cfg.co_located = 2;
        cfg.arrival_rate_per_ms = 4.0;
        cfg.total_arrivals = 8;
        benchmark::DoNotOptimize(sim::run_experiment(cfg));
    }
}
BENCHMARK(bm_open_loop_experiment)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
