// Quickstart: co-locate eight DNNs on a 16-NPU SoC (Table II defaults) and
// compare the shared-cache baseline against CaMDN(Full). The three policy
// runs execute in parallel on the sweep engine.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart
#include <iostream>

#include "bench/harness.h"

int main() {
    using namespace camdn;

    // Table II SoC: 16 NPUs (32x32 PEs, 256 KiB scratchpads), 16 MiB shared
    // cache in 8 slices with 12/16 ways for the NPU subspace, 102.4 GB/s
    // DRAM over 4 channels.
    sim::experiment_config cfg;
    cfg.co_located = 8;
    cfg.inferences_per_slot = 1;
    cfg.seed = 7;

    bench::banner("CaMDN quickstart: 8 co-located DNNs, " +
                  bench::soc_summary(cfg.soc));

    const std::vector<sim::policy> pols{sim::policy::shared_baseline,
                                        sim::policy::camdn_hw_only,
                                        sim::policy::camdn_full};
    const auto results = bench::run_policies(cfg, pols);

    table_printer table({"policy", "avg latency (ms)", "DRAM per inference (MiB)",
                         "cache hit rate"});
    for (std::size_t i = 0; i < pols.size(); ++i) {
        table.add_row({sim::policy_name(pols[i]),
                       fmt_fixed(results[i].avg_latency_ms(), 2),
                       fmt_fixed(results[i].mem_mb_per_inference(), 1),
                       fmt_fixed(results[i].cache_stats.hit_rate(), 3)});
    }
    table.print(std::cout);

    std::cout << "\nCaMDN eliminates inter-model cache contention with\n"
                 "model-exclusive regions and cuts DRAM traffic via\n"
                 "cache-aware mapping + dynamic allocation (LBM).\n";
    return 0;
}
