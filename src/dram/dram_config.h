// Configuration of the cycle-level DRAM model (Table II: 102.4 GB/s over
// four channels at a 1 GHz SoC clock).
#pragma once

#include <cstdint>

#include "common/types.h"

namespace camdn::dram {

/// dram_system's constructor throws std::invalid_argument on a zero
/// divisor (count, bandwidth or epoch), a row below one line, or a
/// channel, bank-per-channel or line-per-row count that is not a power of
/// two: lines decode to channel, bank and row by bit fields.
struct dram_config {
    /// Independent channels; consecutive cache lines interleave across them.
    std::uint32_t channels = 4;

    /// Banks per channel; lines interleave across banks within a channel.
    std::uint32_t banks_per_channel = 16;

    /// Row-buffer size per bank in bytes.
    std::uint64_t row_bytes = 2048;

    /// Peak per-channel data-bus bandwidth in bytes per SoC cycle, stored
    /// in tenths (deci-bytes) so 25.6 B/cycle (=25.6 GB/s at 1 GHz) is
    /// representable exactly: 256 deci-bytes/cycle. A 64 B line therefore
    /// occupies the bus for 2.5 cycles (25 deci-cycles).
    std::uint32_t bytes_per_cycle_x10 = 256;

    // Core timing parameters in cycles of the 1 GHz clock (i.e. ns).
    std::uint32_t t_cl = 14;    ///< column access (CAS) latency
    std::uint32_t t_rcd = 14;   ///< activate -> column command
    std::uint32_t t_rp = 14;    ///< precharge
    std::uint32_t t_ccd = 4;    ///< column-to-column (CAS pipelining) gap
    std::uint32_t t_burst_gap = 0;  ///< extra gap between bursts (rank switch)

    /// Fixed controller + PHY overhead added to every access, cycles.
    std::uint32_t t_controller = 20;

    /// Length of a bandwidth-regulation epoch in cycles (MoCA-style
    /// per-task throttling operates at this granularity).
    cycle_t regulation_epoch = 10'000;  // 10 us

    /// Total peak bandwidth in bytes/cycle (== GB/s at 1 GHz).
    double peak_bytes_per_cycle() const {
        return channels * (bytes_per_cycle_x10 / 10.0);
    }

    /// Data-bus occupancy of one 64 B line, in deci-cycles.
    std::uint64_t burst_deci_cycles() const {
        // 64 bytes * 10 deci / (deci-bytes-per-cycle) = deci-cycles.
        return (line_bytes * 100) / bytes_per_cycle_x10;
    }
};

}  // namespace camdn::dram
