// Streaming JSONL sinks for per-epoch and per-round telemetry.
//
// A sink accepts one JSON object per row. In streaming mode (constructed
// on an ostream) rows hit the stream as they are produced — the probe
// emits an epoch row at every telemetry cut, so telemetry leaves the
// process *during* the run instead of as an end-of-run rollup. In buffered
// mode (default) rows accumulate in memory; fleet runs give every SoC of a
// round its own buffered sink and drain them in round-major fleet order at
// the round barrier, so the merged stream is deterministic across
// sweep-pool widths even though the SoC simulations ran concurrently.
//
// Row schema (all fields simulation facts, bit-identical across runs):
//   {"type":"epoch","soc":S,"epoch":I,"start_ms":..,"end_ms":..,
//    "active_slots":..,"completions":..,"layers":..,"dma_bytes":..,
//    "cache_hits":..,"cache_misses":..,"page_wait_cycles":..,
//    "page_timeouts":..,"dram_bytes":..,"bw_utilization":..,
//    "idle_pages":..}
//   {"type":"fleet_round","round":R,...}   (serve/cluster.cpp)
//   {"type":"metrics",...}                 (final registry dump)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "adapt/telemetry.h"

namespace camdn::obs {

/// One epoch row captured as plain data: the per-slot counters already
/// aggregated, no strings. A buffered sink records these into a slab and
/// formats them only when drained, so the simulation hot path never pays
/// for snprintf or string allocation per epoch cut.
struct epoch_record {
    std::uint32_t soc = 0;
    std::uint64_t index = 0;
    cycle_t start = 0;
    cycle_t end = 0;
    std::uint32_t active_slots = 0;
    std::uint64_t completions = 0;
    std::uint64_t layers = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t page_wait_cycles = 0;
    std::uint64_t page_timeouts = 0;
    std::uint64_t dram_bytes = 0;
    double bw_utilization = 0.0;
    std::uint32_t idle_pages = 0;
};

/// Aggregates a telemetry snapshot's per-slot counters into the POD row.
epoch_record make_epoch_record(std::uint32_t soc,
                               const adapt::epoch_snapshot& e);

class jsonl_sink {
public:
    /// Buffered sink: rows accumulate until drained.
    jsonl_sink() = default;
    /// Streaming sink: rows are written (with trailing newline) and
    /// flushed immediately. `out` is borrowed, not owned.
    explicit jsonl_sink(std::ostream* out) : out_(out) {}

    /// Appends one row (a complete JSON object, no trailing newline).
    void row(const std::string& json);

    /// Appends one epoch row. Streaming sinks format and write it now;
    /// buffered sinks record the POD epoch_record and defer the JSON
    /// formatting to drain time (the row keeps its position relative to
    /// interleaved row() strings). Byte-identical output either way.
    void epoch_row(std::uint32_t soc, const adapt::epoch_snapshot& e);

    std::uint64_t rows() const { return rows_; }
    /// The buffered rows. Formats any deferred epoch rows in place first
    /// (hence non-const; drains do the same).
    const std::vector<std::string>& buffered() {
        materialize();
        return buffered_;
    }

    /// Moves every buffered row into `dst` in order (deterministic fleet
    /// merge), leaving this sink empty. Row counts transfer.
    void drain_to(jsonl_sink& dst);
    /// Writes every buffered row to `out` and clears the buffer.
    void drain_to(std::ostream& out);

private:
    /// Formats deferred epoch records into their reserved buffer slots.
    void materialize();

    std::ostream* out_ = nullptr;
    std::uint64_t rows_ = 0;
    std::vector<std::string> buffered_;
    /// Deferred epoch rows: (index of the placeholder in buffered_, data).
    std::vector<std::pair<std::size_t, epoch_record>> deferred_;
};

/// Formats one telemetry epoch snapshot as an "epoch" JSONL row
/// (per-slot counters aggregated to epoch totals). Deterministic bytes.
std::string epoch_row_json(std::uint32_t soc, const adapt::epoch_snapshot& e);
/// Formats an already-aggregated epoch record (same bytes).
std::string epoch_row_json(const epoch_record& r);

}  // namespace camdn::obs
