// Ablation study of the design choices DESIGN.md calls out: the NEC's
// bypass and multicast semantics, layer-block mapping (LBM), and the cache
// page size. Each row disables one feature of CaMDN(Full) (or changes the
// page geometry) under the Fig 7 workload.
#include <iostream>
#include <string>

#include "bench/harness.h"

using namespace camdn;

namespace {

sim::experiment_config row_cfg(sim::camdn_features features,
                               std::uint64_t page_bytes,
                               std::uint32_t inferences) {
    sim::experiment_config cfg;
    cfg.pol = sim::policy::camdn_full;
    cfg.features = features;
    cfg.soc.cache.page_bytes = page_bytes;
    cfg.co_located = 16;
    cfg.inferences_per_slot = inferences;
    cfg.seed = 42;
    return cfg;
}

}  // namespace

int main() {
    const std::uint32_t inferences = bench::fast_mode() ? 1 : 2;

    bench::banner(
        "Ablation: CaMDN(Full) feature and page-size study\n"
        "(16 co-located DNNs, Table II otherwise)");

    const sim::camdn_features all{};
    sim::camdn_features no_bypass = all;
    no_bypass.bypass = false;
    sim::camdn_features no_multicast = all;
    no_multicast.multicast = false;
    sim::camdn_features no_lbm = all;
    no_lbm.lbm = false;

    const std::vector<std::string> labels{
        "Full (32KB pages)", "- bypass", "- multicast", "- LBM",
        "8KB pages", "16KB pages", "64KB pages", "128KB pages"};
    const std::vector<sim::experiment_config> cfgs{
        row_cfg(all, kib(32), inferences),
        row_cfg(no_bypass, kib(32), inferences),
        row_cfg(no_multicast, kib(32), inferences),
        row_cfg(no_lbm, kib(32), inferences),
        row_cfg(all, kib(8), inferences),
        row_cfg(all, kib(16), inferences),
        row_cfg(all, kib(64), inferences),
        row_cfg(all, kib(128), inferences)};
    const auto results = sim::run_sweep(cfgs);

    table_printer t({"Configuration", "avg latency (ms)", "vs Full",
                     "mem (MB/inf)", "vs Full"});
    const double base_lat = results[0].avg_latency_ms();
    const double base_mem = results[0].mem_mb_per_inference();
    for (std::size_t i = 0; i < results.size(); ++i) {
        t.add_row({labels[i], fmt_fixed(results[i].avg_latency_ms(), 2),
                   fmt_fixed(results[i].avg_latency_ms() / base_lat, 2) + "x",
                   fmt_fixed(results[i].mem_mb_per_inference(), 1),
                   fmt_fixed(results[i].mem_mb_per_inference() / base_mem, 2) +
                       "x"});
    }
    t.print(std::cout);

    // What each feature does for memory traffic at this load, read off
    // its "- feature" row (within 1% of Full counts as no difference).
    std::string saves, costs, same;
    for (std::size_t i = 1; i <= 3; ++i) {
        const double ratio = results[i].mem_mb_per_inference() / base_mem;
        const std::string name =
            labels[i].substr(2) + " (" + fmt_fixed(ratio, 2) + "x)";
        std::string& group = ratio > 1.01 ? saves : ratio < 0.99 ? costs : same;
        group += (group.empty() ? "" : ", ") + name;
    }
    std::cout << "\nFeatures whose removal raises memory traffic: "
              << (saves.empty() ? "none" : saves)
              << "\nFeatures whose removal lowers memory traffic: "
              << (costs.empty() ? "none" : costs)
              << "\nFeatures with no memory effect at this load: "
              << (same.empty() ? "none" : same) << "\n";
    return 0;
}
