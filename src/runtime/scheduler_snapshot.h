// Serializable warm state of a paused (or finished) runtime::scheduler.
//
// Since the typed-event refactor a snapshot can be taken at an *arbitrary*
// cycle — mid-layer, with DMA chunks in flight and stores pending — not
// only at quiescent instants. Everything the simulation's future depends
// on is captured:
//   * the clock and the event-queue tie-break counter;
//   * the full machine state — transparent cache lines with LRU order,
//     slice/DRAM timing horizons, the shared page pool (exact free-list
//     order) and live CPTs, per-core busy counters, regulator windows;
//   * scheduler bookkeeping — per-slot inference counts, the NPU free-core
//     stack (release order matters for future dispatch), the admission
//     queue, telemetry epoch marks, the adaptive controller's loop state;
//   * the in-flight execution state — one `running_slot` per busy task
//     (model, layer cursor, core group, QoS deadline, Algorithm-1
//     globals, pending page negotiation), the layer engine's tile
//     cursors and the DMA engine's flight records (the `engine` section);
//   * every pending event of the queue (the `typed_events` section) under
//     its saved sequence number — DMA chunks, layer tile gates and stores,
//     page-negotiation retries, generator arrivals and think-time
//     re-dispatches, the bandwidth-epoch timer — so same-cycle ordering
//     replays bit for bit and the section holds the run's whole future;
//   * opaque cursor sections for the workload generator and the
//     completions recorded so far (exact resume only).
//
// encode()/decode() round-trip through a versioned little-endian byte
// format; decode throws camdn::snapshot_error on truncation, bad magic or
// version mismatch (version-1 snapshots from the pre-typed-event engine
// are rejected with an explicit legacy message, version 2 with the
// generic mismatch), and scheduler resume
// additionally validates the fingerprints against the resuming
// configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn::runtime {

struct scheduler_snapshot {
    static constexpr std::uint32_t magic = 0x43534e50;  // "PNSC" on disk
    /// Version 2: typed-event engine — adds the running-slot, engine and
    /// typed-event sections and drops the quiescent-boundary requirement.
    /// Version 3: typed-event-only engine — generator events and the
    /// bandwidth-epoch timer move into the typed-event section, so the
    /// header's timer fields and the generators' event ids go.
    static constexpr std::uint32_t version = 3;

    // ---- identity / compatibility ----
    /// Hash of everything the machine state depends on (SoC geometry,
    /// policy, slot count, feature toggles). Any resume requires a match.
    std::uint64_t machine_fingerprint = 0;
    /// Hash of the arrival side (workload kind, seed, rates/counts, QoS
    /// mode). Exact resume — continuing the same run — requires a match;
    /// warm resume (a new trace segment on the warm machine) does not.
    std::uint64_t run_fingerprint = 0;
    std::uint32_t slots = 0;

    // ---- clock ----
    cycle_t now = 0;
    /// Event-queue tie-break counter at the boundary.
    std::uint64_t event_seq = 0;
    /// Next telemetry epoch cut (absolute; `never` when telemetry is off).
    cycle_t epoch_deadline = never;

    // ---- scheduler bookkeeping ----
    std::uint64_t dram_bytes_mark = 0;
    std::uint64_t dram_throttled_mark = 0;
    double ahead_ratio = 0.2;
    /// Per-slot completed-inference counters.
    std::vector<std::uint32_t> slot_completed;
    /// Controller-published per-slot page shares (adaptive policy only).
    std::vector<std::uint32_t> page_share;
    /// Free-core stack in pop order (history-dependent: cores return in
    /// release order, and future dispatches pop from the back).
    std::vector<npu_id> free_cores;
    /// Per-core cumulative busy cycles.
    std::vector<std::uint64_t> core_busy_cycles;

    /// Admitted-but-undispatched requests, with true arrival stamps.
    struct queued_request {
        std::string model;  ///< model name, resolved against the catalog
        cycle_t arrival = 0;
        task_id slot = no_task;
    };
    std::vector<queued_request> admission_queue;

    /// One busy slot's mid-inference state. Empty at quiescent saves
    /// (drained runs, hold-dispatch pauses); populated by mid-layer
    /// pauses. The layer-engine tile cursor and DMA flights of these
    /// slots live in the `engine` section.
    struct running_slot {
        task_id slot = no_task;
        std::string model;  ///< resolved against the catalog on resume
        std::uint32_t current_layer = 0;
        /// Core group plus each core's assignment cycle (busy accounting).
        std::vector<npu_id> cores;
        std::vector<cycle_t> core_busy_since;
        cycle_t arrival = 0;
        cycle_t started = 0;
        cycle_t deadline = never;
        // Algorithm-1 globals (Tnext/Pnext; Palloc rebuilds from the pool).
        cycle_t t_next = 0;
        std::uint32_t p_next = 0;
        bool lbm_enabled = false;
        std::uint32_t lbm_block = 0;
        std::uint64_t dram_bytes_mark = 0;
        /// Pending Algorithm-1 page negotiation: when armed, a sched-channel
        /// page_retry event is queued and these rebuild its decision
        /// (candidate index in the layer's MCT, requested pages, absolute
        /// timeout).
        bool neg_armed = false;
        std::int32_t neg_cand = 0;
        std::uint32_t neg_pages = 0;
        cycle_t neg_timeout = never;
    };
    std::vector<running_slot> running;

    // ---- opaque subsystem sections ----
    std::vector<std::uint8_t> machine;    ///< cache + pool + CPTs + DRAM + cores
    std::vector<std::uint8_t> engine;     ///< layer-run cursors + DMA flights
    std::vector<std::uint8_t> typed_events;  ///< every pending queue entry
    std::vector<std::uint8_t> telemetry;  ///< bus counters + epoch history
    std::vector<std::uint8_t> controller; ///< feedback-controller loop state
    std::vector<std::uint8_t> workload;   ///< generator cursor (exact resume)
    std::vector<std::uint8_t> results;    ///< completions so far (exact resume)

    std::vector<std::uint8_t> encode() const;
    /// Throws snapshot_error on bad magic, version mismatch, truncation,
    /// trailing garbage, or a slot count its per-slot counters disagree
    /// with.
    static scheduler_snapshot decode(const std::uint8_t* data,
                                     std::size_t size);
    static scheduler_snapshot decode(const std::vector<std::uint8_t>& bytes) {
        return decode(bytes.data(), bytes.size());
    }
};

}  // namespace camdn::runtime
