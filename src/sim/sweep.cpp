#include "sim/sweep.h"

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>

namespace camdn::sim {

void pool_for_each(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& run_one) {
    if (count == 0) return;
    unsigned n = threads != 0 ? threads
                              : std::max(1u, std::thread::hardware_concurrency());
    n = std::min<unsigned>(n, static_cast<unsigned>(count));
    if (n <= 1) {
        for (std::size_t i = 0; i < count; ++i) run_one(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&]() {
        for (std::size_t i; !stop.load(std::memory_order_relaxed) &&
                            (i = next.fetch_add(1)) < count;) {
            try {
                run_one(i);
            } catch (...) {
                stop.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

std::vector<experiment_result> run_sweep(
    const std::vector<experiment_config>& cfgs, unsigned threads) {
    std::vector<experiment_result> results(cfgs.size());
    pool_for_each(cfgs.size(), threads,
                  [&](std::size_t i) { results[i] = run_experiment(cfgs[i]); });
    return results;
}

namespace {

std::string iso_key(const soc_config& soc,
                    const std::vector<const model::model*>& models) {
    std::ostringstream key;
    const auto& n = soc.npu;
    const auto& c = soc.cache;
    const auto& d = soc.dram;
    key << n.pe_rows << 'x' << n.pe_cols << '|' << n.scratchpad_bytes << '|'
        << n.cores << '|' << n.pipeline_fill << '|' << n.simd_lanes << '#'
        << c.total_bytes << '|' << c.ways << '|' << c.npu_ways << '|'
        << c.slices << '|' << c.page_bytes << '|' << c.hit_latency << '|'
        << c.fill_latency << '|' << c.noc_latency << '#' << d.channels << '|'
        << d.banks_per_channel << '|' << d.row_bytes << '|'
        << d.bytes_per_cycle_x10 << '|' << d.t_cl << '|' << d.t_rcd << '|'
        << d.t_rp << '|' << d.t_ccd << '|' << d.t_burst_gap << '|'
        << d.t_controller << '|' << d.regulation_epoch;
    for (const auto* m : models) key << '#' << m->name;
    return key.str();
}

std::mutex iso_mutex;

std::map<std::string, std::map<std::string, cycle_t>>& iso_cache() {
    static std::map<std::string, std::map<std::string, cycle_t>> instance;
    return instance;
}

}  // namespace

const std::map<std::string, cycle_t>& cached_isolated_latencies(
    const soc_config& soc, const std::vector<const model::model*>& models) {
    const std::string key = iso_key(soc, models);
    {
        std::lock_guard<std::mutex> lock(iso_mutex);
        auto it = iso_cache().find(key);
        if (it != iso_cache().end()) return it->second;
    }

    // Compute outside the lock (isolated_latencies already parallelizes
    // over the sweep pool). A racing thread may duplicate the work; the
    // loser's emplace is a no-op and both see the winner's entry.
    auto latencies = isolated_latencies(soc, models);

    std::lock_guard<std::mutex> lock(iso_mutex);
    return iso_cache().emplace(key, std::move(latencies)).first->second;
}

void clear_isolated_latency_cache() {
    std::lock_guard<std::mutex> lock(iso_mutex);
    iso_cache().clear();
}

}  // namespace camdn::sim
