// Serializable warm state of a paused (or finished) runtime::scheduler.
//
// Since the typed-event refactor a snapshot can be taken at an *arbitrary*
// cycle — mid-layer, with DMA chunks in flight and stores pending — not
// only at quiescent instants. Everything the simulation's future depends
// on is captured:
//   * the clock and the event-queue tie-break counter;
//   * the full machine state — transparent cache sets (recency order and
//     lines), slice/DRAM timing horizons, the shared page pool (exact
//     free-list order and each slot's pages, which are its CPT), regulator
//     windows;
//   * scheduler bookkeeping — the NPU free-core stack (release order
//     matters for future dispatch), the admission queue, telemetry epoch
//     marks, the adaptive controller's loop state;
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
// are rejected with an explicit legacy message, versions 2 to 4 with the
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
    /// Version 4: the page pool is the one record of each slot's pages —
    /// the machine section's per-task CPT block goes, with the cache's
    /// unused multicast-read counter.
    /// Version 5: one record per machine fact — each transparent set's
    /// recency order replaces the per-line LRU stamps and the LRU tick,
    /// and the counters nothing reads go: per-core busy cycles and
    /// assignment cycles, per-slot completed inferences, the cache's
    /// per-task hit/miss counts, DMA flights' retired-chunk count (issued
    /// minus outstanding) and four telemetry counters per slot.
    static constexpr std::uint32_t version = 5;

    // ---- identity / compatibility ----
    /// Hash of everything the machine state depends on (SoC geometry,
    /// policy, slot count, feature toggles). Any resume requires a match.
    std::uint64_t machine_fingerprint = 0;
    /// Hash of the arrival side (workload kind, seed, rates/counts, QoS
    /// mode). Exact resume — continuing the same run — requires a match;
    /// warm resume (a new trace segment on the warm machine) does not.
    std::uint64_t run_fingerprint = 0;
    /// Slot count of the saving run. Resume requires the resuming
    /// configuration's; nothing is sized by it.
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
    /// Controller-published per-slot page shares (adaptive policy only).
    std::vector<std::uint32_t> page_share;
    /// Free-core stack in pop order (history-dependent: cores return in
    /// release order, and future dispatches pop from the back).
    std::vector<npu_id> free_cores;

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
        std::vector<npu_id> cores;  ///< core group
        cycle_t arrival = 0;
        cycle_t started = 0;
        cycle_t deadline = never;
        // Algorithm-1 globals (Tnext/Pnext; Palloc is the pool's).
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
    std::vector<std::uint8_t> machine;    ///< cache + pool + DRAM
    std::vector<std::uint8_t> engine;     ///< layer-run cursors + DMA flights
    std::vector<std::uint8_t> typed_events;  ///< every pending queue entry
    std::vector<std::uint8_t> telemetry;  ///< bus counters + epoch history
    std::vector<std::uint8_t> controller; ///< feedback-controller loop state
    std::vector<std::uint8_t> workload;   ///< generator cursor (exact resume)
    std::vector<std::uint8_t> results;    ///< completions so far (exact resume)

    std::vector<std::uint8_t> encode() const;
    /// Throws snapshot_error on bad magic, version mismatch, truncation or
    /// trailing garbage.
    static scheduler_snapshot decode(const std::uint8_t* data,
                                     std::size_t size);
    static scheduler_snapshot decode(const std::vector<std::uint8_t>& bytes) {
        return decode(bytes.data(), bytes.size());
    }
};

}  // namespace camdn::runtime
