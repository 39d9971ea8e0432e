// Discrete-event simulation engine.
//
// Every timed component of the SoC model (DMA chunk completions, layer tile
// gates and stores, Algorithm 1 retries, workload arrivals, the
// bandwidth-epoch timer) schedules work on one global queue. Events at
// equal timestamps run in scheduling order so a fixed seed yields a
// bit-identical simulation.
//
// Every event is a typed record — (channel, kind, payload) — dispatched to
// the component registered on the channel. A record captures no state, so
// the whole pending set round-trips through save_typed() / restore_typed()
// byte for byte: a checkpoint holds the run's entire future, which is what
// lets the simulator pause at an arbitrary cycle with DMA chunks and layer
// tiles still in flight (the structure ONNXim-style cycle-level NPU models
// use for their event records).
//
// The pending set is the simulator's hottest data structure: every DMA
// chunk retire, layer gate and arrival passes through it, tens of millions
// of push/pop pairs per run. Entries are therefore POD with the whole
// payload inline, so moves never touch an allocator, and the set is split
// in two by where a new event lands:
//   * a short *near run* kept sorted descending by (when, seq), so the
//     next event pops off its back in O(1). A push with fewer than
//     near_reach run entries due before it (or into a run no longer than
//     that) finds its slot by a scan from the back;
//   * a binary min-heap for the events that would land deeper: the
//     open-loop arrival backlog (a generator arms every arrival up front)
//     and far timers.
// The traffic is what makes this pay. On an MMPP camdn_adaptive run the
// queue holds ~223 events at each push, mostly the arrival backlog, yet a
// new event is due within the next few pending ones: the mean insertion
// depth from the back of the run is 3.2, and 668 of 11.0M pushes go to the
// heap. step() takes the smaller of the run's back and the heap's top;
// since (when, seq) is a strict total order, the split changes no dispatch
// order, clock value, counter or snapshot byte.
//
// Three facilities support the resumable scheduler (runtime/scheduler.h):
//   * cancellation — cancel(channel, kind) removes every pending event of
//     one kind (periodic chains like the MoCA bandwidth epoch); a removed
//     event never runs, never advances now() and is never counted, so a
//     drained run's makespan is not inflated by a pending no-op epoch tick;
//   * explicit-sequence restore — restore_event() re-arms an event under
//     the sequence number it held when a checkpoint was taken, and
//     restore_now()/restore_next_seq() re-establish the clock and the
//     tie-break counter, so a resumed run replays same-cycle event order
//     bit for bit;
//   * serialization — save_typed() walks the pending entries (sorted by
//     time and sequence, so snapshots are byte-stable) and restore_typed()
//     re-arms them under their saved sequences, rejecting a section whose
//     events repeat a sequence or fall due before the clock.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn {

/// Components that receive events. One handler per channel, registered at
/// wiring time (the handler is static plumbing, not serialized state).
enum class event_channel : std::uint8_t {
    dma = 0,    ///< npu::dma_engine chunk completions
    layer = 1,  ///< sim::layer_engine tile gates and store issues
    /// runtime::scheduler page-negotiation retries, workload-generator
    /// events and the bandwidth-epoch timer
    sched = 2,
};
inline constexpr std::size_t n_event_channels = 3;

/// One serializable event record: which component (channel), which of its
/// transitions (kind, component-defined) and two payload words whose
/// meaning the component owns (flight ids, slot ids, tile indices, arrival
/// indices).
struct typed_event {
    std::uint8_t channel = 0;
    std::uint8_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

class event_queue {
public:
    using typed_handler = std::function<void(const typed_event&)>;

    /// How deep into the near run a push may land: when the run is longer
    /// than near_reach, an event with near_reach or more run entries due
    /// before it goes to the heap instead.
    static constexpr std::size_t near_reach = 32;

    event_queue() {
        near_.reserve(2 * near_reach);
        heap_.reserve(256);
    }

    /// Current simulation time. Advances only inside step()/run*.
    cycle_t now() const { return now_; }

    /// Registers (or replaces) the handler of `ch`. Events reaching an
    /// unregistered channel throw std::logic_error at dispatch.
    void set_handler(event_channel ch, typed_handler fn);

    /// Schedules `ev` at absolute time `when` (>= now()). Scheduling in the
    /// past is clamped to now() rather than rejected, so zero-latency
    /// completions stay legal. Returns the event's sequence number (the
    /// same-cycle tie-breaker).
    std::uint64_t schedule_event(cycle_t when, const typed_event& ev);

    /// Re-arms an event under an explicit saved sequence number (does not
    /// consume next_seq()). The caller must keep restored sequences unique
    /// and below the restored next_seq().
    void restore_event(cycle_t when, std::uint64_t seq, const typed_event& ev);

    /// Removes every pending event of (`ch`, `kind`) and returns how many
    /// went. O(pending). Removed events never run, never advance now() and
    /// are never counted.
    std::size_t cancel(event_channel ch, std::uint8_t kind);

    /// Pending events of (`ch`, `kind`). O(pending).
    std::size_t pending(event_channel ch, std::uint8_t kind) const;
    /// Pending events of `ch`, any kind. O(pending).
    std::size_t pending(event_channel ch) const;
    /// Earliest due cycle among the pending events of (`ch`, `kind`);
    /// `never` when none is pending. O(pending).
    cycle_t next_time(event_channel ch, std::uint8_t kind) const;

    /// Serializes every pending event (when, seq, record), sorted by
    /// (when, seq) so equal states produce equal bytes.
    void save_typed(snapshot_writer& w) const;

    /// Re-arms a saved pending set. The caller restores now() first and
    /// next_seq() after. Throws snapshot_error on an unknown channel, an
    /// event due before now(), or a sequence number some pending event
    /// already holds (two events equal in (when, seq) have no defined pop
    /// order).
    void restore_typed(snapshot_reader& r);

    // ---- checkpoint/restore support ----

    /// Tie-break counter the next schedule_event() call will use.
    std::uint64_t next_seq() const { return next_seq_; }

    /// Restores the tie-break counter after a resume. Throws
    /// snapshot_error when `seq` would rewind the counter or is not above
    /// every pending event's sequence (the next schedule_event() would
    /// reuse one).
    void restore_next_seq(std::uint64_t seq);

    /// Sets the clock of an empty queue (resume from a snapshot).
    void restore_now(cycle_t now);

    /// Earliest pending event time; `never` when nothing is pending.
    cycle_t next_time() const {
        const cycle_t near = near_.empty() ? never : near_.back().when;
        const cycle_t far = heap_.empty() ? never : heap_.front().when;
        return near < far ? near : far;
    }

    // ---- inline continuations (chunk-event coalescing) ----

    /// Asks to process, inline, work that would otherwise be scheduled as
    /// an event on `ch` at `when`. Grants the request — advancing now() to
    /// `when` and crediting the executed/dispatch counters as if the event
    /// had been scheduled, popped and dispatched — only when the outcome is
    /// provably identical to the scheduled path: `when` must be at or
    /// after now(), strictly before every pending event (a pending event
    /// at the same cycle holds a smaller sequence number and would run
    /// first), and strictly below the inline horizon. Returns whether the
    /// caller now owns the continuation; on false the caller schedules the
    /// event as usual. Only legal from within a dispatched handler (the run
    /// loops' pause checks see the advanced clock next).
    bool try_inline(cycle_t when, event_channel ch);

    /// Sets the first cycle at which inline continuations are refused
    /// (exclusive horizon). The run loops own this: run_segment-style
    /// drivers must refuse continuations at or past their pause boundary
    /// so pause points land exactly where the scheduled path would pause.
    /// 0 (the default) disables inlining — unit tests driving step() by
    /// hand keep strict one-event-per-step semantics.
    void set_inline_horizon(cycle_t horizon) { inline_horizon_ = horizon; }
    cycle_t inline_horizon() const { return inline_horizon_; }

    bool empty() const { return near_.empty() && heap_.empty(); }
    std::size_t pending() const { return near_.size() + heap_.size(); }

    /// Events executed by step()/run*() over the queue's lifetime.
    /// Monotonic; not serialized — a resumed queue restarts at zero, so
    /// throughput harnesses measure the work of *this* process.
    std::uint64_t executed_events() const { return executed_; }

    /// Dispatch breakdown of executed_events() per channel. Always counted
    /// (one array increment per event); the observability layer exports
    /// them as metrics counters.
    std::uint64_t typed_dispatched(event_channel ch) const {
        return typed_dispatched_[static_cast<std::size_t>(ch)];
    }
    /// Zeroes executed_events() and its dispatch breakdown, where a queue
    /// restored from a snapshot starts: a segment continued in place then
    /// counts only its own events.
    void restart_counters() {
        executed_ = 0;
        typed_dispatched_ = {};
    }

    /// Runs the earliest event. Returns false when none is pending.
    bool step();

    /// Runs events until the queue drains or `max_events` have run.
    /// Returns the number of events executed.
    std::size_t run(std::size_t max_events = SIZE_MAX);

    /// Runs all events with time <= `until` (the queue may retain later
    /// events). now() ends at max(now, until).
    void run_until(cycle_t until);

private:
    /// Pending entry: trivially copyable, 40 bytes, payload inline.
    struct entry {
        cycle_t when;
        std::uint64_t seq;  // tie-breaker: FIFO among same-cycle events
        std::uint64_t a;
        std::uint64_t b;
        std::uint8_t channel;
        std::uint8_t kind;
    };
    struct later {
        bool operator()(const entry& a, const entry& b) const {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void push(const entry& e);

    /// The pending set, split in two (see the file comment). near_ is
    /// sorted descending by (when, seq), so its back is its earliest entry;
    /// heap_ is a min-heap on (when, seq) managed with the std heap
    /// algorithms. Every pending event is in exactly one of them.
    std::vector<entry> near_;
    std::vector<entry> heap_;
    std::array<typed_handler, n_event_channels> handlers_{};
    cycle_t now_ = 0;
    cycle_t inline_horizon_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::array<std::uint64_t, n_event_channels> typed_dispatched_{};
};

}  // namespace camdn
