// Per-request cycle-level DRAM timing model in the spirit of DRAMsim3.
//
// Instead of ticking every cycle, each request's completion time is computed
// from the current state of its bank (open row, ready time) and its
// channel's data bus (busy-until). This reproduces the first-order effects
// that matter for the paper's experiments — row-hit vs row-miss latency,
// bank conflicts, per-channel bus serialization, and the global bandwidth
// ceiling — while remaining fast enough for full parameter sweeps.
//
// The model additionally implements the per-task bandwidth regulation hook
// that the MoCA baseline (and AuRORA's bandwidth component) relies on:
// a task with share `f` may move at most `f * peak` bytes per epoch; excess
// requests are pushed to the next epoch boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "common/snapshot_io.h"
#include "common/types.h"
#include "dram/dram_config.h"

namespace camdn::obs {
class probe;
}

namespace camdn::dram {

struct dram_stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;   // row conflict: precharge + activate
    std::uint64_t row_empties = 0;  // bank idle: activate only
    std::uint64_t throttled = 0;    // requests delayed by regulation
    std::uint64_t bus_busy_deci = 0;  // total data-bus occupancy, deci-cycles

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t bytes() const { return accesses() * line_bytes; }
    double row_hit_rate() const {
        const auto total = accesses();
        return total ? static_cast<double>(row_hits) / total : 0.0;
    }
};

/// One line of an access_lines() run.
struct line_request {
    addr_t addr = 0;
    cycle_t arrival = 0;
    task_id task = no_task;
    bool is_write = false;
};

class dram_system {
public:
    /// Throws std::invalid_argument as dram_config documents.
    explicit dram_system(const dram_config& config = {});

    /// Times one 64 B line transfer arriving at `arrival`. Returns the
    /// completion cycle. `task` attributes traffic for stats/regulation
    /// (no_task = unattributed, never throttled).
    cycle_t access(addr_t line_addr, bool is_write, cycle_t arrival,
                   task_id task = no_task);

    /// Times `nlines` consecutive lines starting at `line_addr`, all
    /// arriving at `arrival`. Returns the completion of the burst's slowest
    /// line, and leaves the same state and stats as `nlines` access()
    /// calls in address order.
    cycle_t access_burst(addr_t line_addr, std::uint64_t nlines, bool is_write,
                         cycle_t arrival, task_id task = no_task);

    /// Times `n` independent lines, each exactly as one access() call, in
    /// array order: one pass of the per-line body that access() runs,
    /// with the run's stats, read/write counts and per-task bytes added
    /// once at its end. Writes are posted: the return value is the latest
    /// completion among the reads, or 0 when the run holds none. The
    /// transparent cache path issues one run per burst (its misses' dirty
    /// writebacks and fills, in line order).
    cycle_t access_lines(const line_request* reqs, std::size_t n);

    /// Sets a task's bandwidth share, clamped to [0,1]; 0 disables
    /// regulation for it. Throws std::invalid_argument on NaN.
    void set_task_share(task_id task, double fraction);

    const dram_stats& stats() const { return stats_; }

    /// Cumulative bytes moved on behalf of `task`.
    std::uint64_t task_bytes(task_id task) const;

    const dram_config& config() const { return config_; }

    /// Checkpoint support: serializes / restores bank timing (open rows,
    /// ready horizons), channel bus horizons, regulator windows, per-task
    /// byte counters and cumulative stats. Horizons are absolute
    /// deci-cycles — the resumed run continues the same clock.
    /// restore_state throws snapshot_error on a geometry mismatch or a
    /// regulator share that is NaN or outside [0,1].
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r);

    /// The SoC's probe (nullptr: nothing attached). Bursts and line runs
    /// charge host time to `dram`; a lone access() stays in its caller's
    /// scope (a scope per line would dominate the cost it measures). Bank,
    /// bus and regulation waits charge the resource's previous user.
    void set_probe(obs::probe* p) { probe_ = p; }

    /// Contention-free service cycles of one line (row-hit CAS + data slot
    /// + controller) — the cache's transparent-miss penalty constant.
    cycle_t isolated_line_service_cycles() const {
        return (config_.t_cl * 10 + data_slot_deci_ + controller_deci_ + 9) /
               10;
    }

private:
    struct bank_state {
        std::int64_t open_row = -1;   // -1: no open row (precharged)
        std::uint64_t ready_deci = 0; // earliest next command, deci-cycles
    };
    struct regulator_state {
        double share = 0.0;           // 0 = unregulated
        cycle_t epoch_start = 0;
        std::uint64_t bytes_used = 0;
    };

    /// The one per-line timing body (regulation, decode, bank/bus update)
    /// behind access(), access_lines() and access_burst()'s per-line
    /// walk. It copies what it reads into locals and keeps what it
    /// counts — row outcomes, throttles, bus slots, reads and writes,
    /// per-task bytes — in locals until commit(), so a run of lines pays
    /// no member reload or stats store per line. Lines decode to channel,
    /// bank and row by shifts and masks.
    class line_timer;

    /// Precomputes the shift/mask decode and the batched kernels' gate.
    void precompute_decode();

    /// Burst-wide regulation: when the whole burst fits in the task's
    /// current epoch budget (or the task is unregulated), commits the
    /// byte usage in one update — bit-equivalent to regulating the nlines
    /// one by one, none of which would have throttled — and returns
    /// true. Returns false *without mutating* when any line would throttle;
    /// the caller falls back to the per-line path, which re-runs the exact
    /// scalar sequence (window advances, throttle counts, attribution).
    bool regulate_bulk(task_id task, cycle_t arrival, std::uint64_t nlines);

    /// Batched burst timing (the gated geometry of access_burst). Splits
    /// each channel's line subsequence into row-chain segments and times
    /// each segment in closed form: per visited bank, the ready/CAS chain
    /// is linear in the visit index, so the channel's bus-serialization
    /// prefix-max settles within each bank's first two visits — O(banks)
    /// per segment instead of O(lines). Bit-identical results and state
    /// updates to the per-line walk. `Attr` adds the attribution hooks:
    /// within a burst every resource's holder is `task` itself after its
    /// first use, so per-line waits fold into per-channel sums (see
    /// obs::probe::wait_fold). Bank-chain waits are arithmetic
    /// progressions with step tCCD; bus waits walk the first two visit
    /// rounds explicitly and sum each bank's linear tail. The plain
    /// instantiation tracks only each bank's first-visit G0: the second
    /// visit has G1 = G0 + D - nbanks*S (D = tCCD, S = one line's bus
    /// slot, in deci-cycles), which the batched gate keeps <= G0, so G1
    /// can never raise the segment's max. Only the attributed wait sums
    /// need G1.
    template <bool Attr>
    cycle_t burst_segments(addr_t line_addr, std::uint64_t nlines,
                           cycle_t arrival, task_id task);

    dram_config config_;
    std::vector<bank_state> banks_;        // channel * banks + bank
    std::vector<std::uint64_t> bus_free_;  // per channel, deci-cycles
    /// burst_segments<true> per-segment scratch (one slot per bank of the
    /// channel being processed): each bank's second-visit G value and its
    /// visit count. Members so steady-state bursts allocate nothing.
    std::vector<std::int64_t> attr_g1_;
    std::vector<std::uint64_t> attr_visits_;
    std::vector<regulator_state> regulators_;     // indexed by task id
    std::vector<std::uint64_t> per_task_bytes_;   // indexed by task id
    dram_stats stats_;
    obs::probe* probe_ = nullptr;

    // Constants derived from config_ at construction (hot-path hoists).
    /// t_ccd*10 <= banks*S: access_burst may take the batched kernels.
    /// Command-bound geometries walk per line.
    bool batched_geometry_ = false;
    std::uint32_t channel_shift_ = 0;
    std::uint64_t channel_mask_ = 0;
    std::uint32_t bank_shift_ = 0;
    std::uint64_t bank_mask_ = 0;
    std::uint32_t row_shift_ = 0;
    std::uint64_t data_slot_deci_ = 0;  // burst occupancy + burst gap
    std::uint64_t controller_deci_ = 0;
    double peak_bytes_per_cycle_ = 0.0;
};

}  // namespace camdn::dram
