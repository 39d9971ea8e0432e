// Parallel sweep engine: runs independent experiment_configs across a
// std::thread pool. Every simulation is self-contained and deterministic,
// so a parallel sweep returns results bit-identical to running the same
// configs sequentially — figure reproductions scale with cores. The pool
// itself (pool_for_each) also serves callers that own their simulations:
// fleet rounds step each live SoC's scheduler through it.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace camdn::sim {

/// The sweep thread pool: runs `run_one(i)` for every index in [0, count),
/// inline when the effective width is 1, else across a std::thread pool.
/// `threads` == 0 picks std::thread::hardware_concurrency(). The first
/// exception stops the sweep and rethrows on the caller's thread.
void pool_for_each(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& run_one);

/// Runs every config and returns results in input order. `threads` == 0
/// picks std::thread::hardware_concurrency(); 1 runs inline. Shared
/// process state (mapping registry, latency cache) is mutex-protected, so
/// concurrent sweeps are safe.
std::vector<experiment_result> run_sweep(
    const std::vector<experiment_config>& cfgs, unsigned threads = 0);

/// isolated_latencies() memoized per (soc_config, model set): QoS sweeps
/// stop recomputing the single-tenant reference for every policy point.
/// The returned reference stays valid until clear_isolated_latency_cache()
/// is called (tests only) or the process exits. Thread-safe.
const std::map<std::string, cycle_t>& cached_isolated_latencies(
    const soc_config& soc, const std::vector<const model::model*>& models);

/// Drops all cached isolated latencies (test isolation).
void clear_isolated_latency_cache();

}  // namespace camdn::sim
