// Chunked, windowed DMA engine.
//
// A tile's tensor traffic is described as a transfer_request and processed
// in fixed-size chunks of cache lines through the event queue, so that
// concurrently running NPU cores interleave their traffic in simulated time
// and observe each other's contention in the DRAM banks, channel buses and
// cache slices. A window of chunks stays in flight (a real DMA engine keeps
// multiple outstanding requests), so the memory pipe does not drain between
// chunks: chunk j issues once chunk j-W has completed.
//
// In-flight transfers are explicit `flight` records — plain structs keyed
// by flight id and advanced by typed `chunk_done` events (event_channel::
// dma) — so a simulation can checkpoint with chunks mid-air: save_state()
// serializes every live flight and restore_state() rebuilds them, with the
// pending chunk_done events riding the event queue's typed-event section.
// Completions route to a single registered sink carrying the submitter's
// opaque (a, b) token.
//
// Flights live in a flat vector ordered by id: ids are handed out
// monotonically, so appends keep the order and save_state() walks it
// front-to-back — byte-identical to the std::map encoding it replaces,
// with binary-search lookups and no node allocation per transfer. Each
// flight's outstanding-chunk ring recycles through a small buffer pool, so
// steady-state submission allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn::obs {
class probe;
}

namespace camdn::npu {

/// One logical tensor transfer of a tile.
struct transfer_request {
    enum class kind : std::uint8_t {
        transparent_read,   ///< baseline path: DMA read through shared cache
        transparent_write,  ///< baseline path: DMA write through shared cache
        region_read,        ///< NEC: cache region -> NPU (multicast-aware)
        region_write,       ///< NEC: NPU -> cache region
        region_fill,        ///< NEC: DRAM -> cache region
        region_writeback,   ///< NEC: cache region -> DRAM
        bypass_read,        ///< NEC: DRAM -> NPU around the cache
        bypass_write,       ///< NEC: NPU -> DRAM around the cache
    };

    kind op = kind::transparent_read;
    task_id task = no_task;
    addr_t addr = 0;       ///< vcaddr for region ops, DRAM address otherwise
    addr_t dram_addr = 0;  ///< DRAM side of fill/writeback pairs
    std::uint64_t nlines = 0;
    std::uint32_t group_size = 1;  ///< multicast group width (reads)
};

/// Opaque completion token a tracked transfer carries back to the sink
/// (the layer engine packs its slot, tile and purpose in here).
struct dma_target {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

class dma_engine {
public:
    /// `chunk_lines` trades fidelity (finer interleaving) for event count;
    /// `window` chunks stay outstanding to keep the pipe full.
    dma_engine(event_queue& eq, cache::shared_cache& cache,
               std::uint64_t chunk_lines = 128, std::uint32_t window = 4);

    /// Receives the completion of every tracked transfer: the submitted
    /// token plus the completion cycle of the final chunk. Registered once
    /// at wiring time (static plumbing, never serialized).
    using sink_fn = std::function<void(const dma_target&, cycle_t)>;
    void set_sink(sink_fn sink) { sink_ = std::move(sink); }

    /// Starts a checkpointable transfer; the sink fires with `target` when
    /// the final chunk retires (synchronously when nlines == 0). Multiple
    /// transfers may be in flight.
    void submit_tracked(const transfer_request& req, const dma_target& target);

    /// Performs the whole transfer at `arrival` in one shot and returns its
    /// completion, with no chunking of its own. This is the body of every
    /// chunk pump() issues; unit tests also call it directly.
    cycle_t transfer_now(const transfer_request& req, cycle_t arrival);

    std::uint64_t chunk_lines() const { return chunk_lines_; }
    std::uint32_t window() const { return window_; }

    bool idle() const { return flights_.empty(); }
    std::size_t live_flights() const { return flights_.size(); }

    /// One live flight as a snapshot stores it: the request, the chunk
    /// cursor, the outstanding chunks' completion cycles (oldest first)
    /// and the completion token.
    struct flight_record {
        std::uint64_t id = 0;
        transfer_request req;
        std::uint64_t issued_lines = 0;  // lines handed to the memory system
        std::uint64_t total_chunks = 0;
        std::uint64_t issued_chunks = 0;
        std::uint64_t retired_chunks = 0;
        std::vector<cycle_t> out;
        cycle_t last_done = 0;
        dma_target target{};
    };
    /// The flight table as a snapshot stores it.
    struct flight_table {
        std::uint64_t next_id = 0;  ///< id the next submission takes
        std::vector<flight_record> flights;  ///< ascending id
    };

    /// Serializes every live flight. The pending chunk_done events are
    /// saved separately with the event queue's typed section.
    void save_state(snapshot_writer& w) const;
    /// Decodes the table save_state wrote. restore_state rebuilds the
    /// engine from it; snapshot inspectors read it as it is. Throws
    /// snapshot_error on truncation, an unknown op, an inconsistent
    /// cursor, or ids that are not ascending and below the counter.
    static flight_table read_flights(snapshot_reader& r);
    /// Rebuilds the flight table; throws snapshot_error on malformed
    /// input. Requires an idle engine.
    void restore_state(snapshot_reader& r);

    /// The SoC's probe (nullptr: nothing attached). The pump charges host
    /// time to `dma`, the transfer body to `cache`. Live flights re-anchor
    /// their spans at now(), as restore_state does: a recorder attached
    /// now saw none of their issue.
    void set_probe(obs::probe* p) {
        probe_ = p;
        for (auto& f : flights_) f.issue = eq_.now();
    }

private:
    /// In-flight bookkeeping of one submitted transfer: its record (plain
    /// data, so every flight serializes) plus a ring cursor. Outstanding
    /// chunk completions live in `out[out_head..]`, a vector consumed
    /// front-to-back whose buffer returns to the engine's ring pool when
    /// the flight retires.
    struct flight : flight_record {
        std::uint32_t out_head = 0;
        /// Submission cycle — trace-event bookkeeping only, NOT serialized
        /// (snapshot bytes are unchanged; a restored flight re-anchors at
        /// the restore clock, a live one at every set_probe).
        cycle_t issue = 0;

        std::size_t outstanding() const { return out.size() - out_head; }
    };

    /// Issues chunks while the window has room, then sleeps until the
    /// oldest outstanding chunk retires (typed chunk_done event) or
    /// completes the flight. `allow_inline` (event-dispatched pumps only)
    /// lets retirement wake-ups that would be the queue's next dispatch
    /// anyway coalesce inline via event_queue::try_inline — the clock and
    /// the dispatch counters advance exactly as the scheduled path would.
    void pump(std::uint64_t id, bool allow_inline = false);
    std::size_t find_flight(std::uint64_t id) const;
    void recycle_ring(std::vector<cycle_t>&& ring);

    event_queue& eq_;
    cache::shared_cache& cache_;
    std::uint64_t chunk_lines_;
    std::uint32_t window_;
    sink_fn sink_;
    std::vector<flight> flights_;  // ascending id
    std::vector<std::vector<cycle_t>> ring_pool_;
    std::uint64_t next_flight_ = 0;
    obs::probe* probe_ = nullptr;
};

}  // namespace camdn::npu
