// Regenerates Figure 2 (motivation): cache hit rate, memory access per
// model and average latency of the transparent shared-cache baseline while
// sweeping the number of co-located DNNs and the cache capacity.
//
// Paper reference points (16 MiB): hit rate falls 18.9%..59.7% and memory
// access rises 32.7%..64.1% from 1 to 32 DNNs; latency grows 3.46x..5.65x.
// Set REPRO_FAST=1 for a reduced grid.
#include <iostream>
#include <map>

#include "bench/harness.h"

using namespace camdn;

int main() {
    const auto dnn_counts =
        bench::pick(std::vector<std::uint32_t>{1, 4, 16},
                    std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32});
    const auto cache_sizes = bench::pick(
        std::vector<std::uint64_t>{mib(4), mib(16), mib(64)},
        std::vector<std::uint64_t>{mib(4), mib(8), mib(16), mib(32), mib(64)});

    bench::banner(
        "Figure 2: cache inefficiency with multi-tenant DNNs\n"
        "(transparent shared cache, random dispatch on 16 NPUs)");

    // One sweep over the whole (cache size x DNN count) grid.
    std::vector<sim::experiment_config> cfgs;
    for (auto cache_bytes : cache_sizes) {
        for (auto dnns : dnn_counts) {
            sim::experiment_config cfg;
            cfg.pol = sim::policy::shared_baseline;
            cfg.soc.cache.total_bytes = cache_bytes;
            cfg.co_located = dnns;
            // One NPU per task (paper §II-C methodology) and a roughly
            // constant completion count per grid point for stable stats.
            cfg.spread_idle_cores = false;
            cfg.inferences_per_slot = std::max<std::uint32_t>(2, 32 / dnns);
            cfg.seed = 42;
            cfgs.push_back(std::move(cfg));
        }
    }
    const auto results = sim::run_sweep(cfgs);

    struct point {
        double hit_rate, mem_mb, latency_ms;
    };
    std::map<std::pair<std::uint64_t, std::uint32_t>, point> grid;
    std::size_t idx = 0;
    for (auto cache_bytes : cache_sizes) {
        for (auto dnns : dnn_counts) {
            const auto& res = results[idx++];
            grid[{cache_bytes, dnns}] = point{res.cache_stats.hit_rate(),
                                              res.mem_mb_per_inference(),
                                              res.avg_latency_ms()};
        }
    }

    auto print_metric = [&](const std::string& title, auto getter, int digits) {
        std::cout << title << '\n';
        std::vector<std::string> headers{"num DNNs"};
        for (auto c : cache_sizes)
            headers.push_back(std::to_string(c / mib(1)) + "MB");
        table_printer t(headers);
        for (auto dnns : dnn_counts) {
            std::vector<std::string> row{std::to_string(dnns)};
            for (auto c : cache_sizes)
                row.push_back(fmt_fixed(getter(grid[{c, dnns}]), digits));
            t.add_row(row);
        }
        t.print(std::cout);
        std::cout << '\n';
    };

    print_metric("(a) Cache hit rate",
                 [](const point& p) { return p.hit_rate; }, 3);
    print_metric("(b) Memory access (MB/model)",
                 [](const point& p) { return p.mem_mb; }, 1);
    print_metric("(c) Average latency (ms)",
                 [](const point& p) { return p.latency_ms; }, 2);

    // Paper-style summary at the largest co-location.
    const auto lo = dnn_counts.front();
    const auto hi = dnn_counts.back();
    std::cout << "Summary (" << lo << " -> " << hi << " DNNs):\n";
    for (auto c : cache_sizes) {
        const auto& a = grid[{c, lo}];
        const auto& b = grid[{c, hi}];
        std::cout << "  " << c / mib(1) << "MB: hit rate "
                  << fmt_fixed(100.0 * (a.hit_rate - b.hit_rate) /
                                   std::max(a.hit_rate, 1e-9),
                               1)
                  << "% lower, memory access "
                  << fmt_fixed(100.0 * (b.mem_mb / a.mem_mb - 1.0), 1)
                  << "% higher, latency " << fmt_fixed(b.latency_ms / a.latency_ms, 2)
                  << "x\n";
    }
    return 0;
}
