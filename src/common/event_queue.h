// Discrete-event simulation engine.
//
// Every timed component of the SoC model (NPU state machines, DMA chunk
// completions, Algorithm 1 timeouts, task arrivals) schedules work on one
// global queue. Events at equal timestamps run in scheduling order so a
// fixed seed yields a bit-identical simulation.
//
// Events come in two forms:
//   * closures — arbitrary std::function callbacks. Opaque: a pending
//     closure cannot be serialized, so checkpoints may only contain
//     closure events whose owner can re-arm them from its own cursor
//     (workload-generator arrivals, the bandwidth-epoch timer);
//   * typed events — a (channel, kind, payload) record dispatched to the
//     component registered on the channel. Typed events carry no captured
//     state, so the pending set round-trips through save_typed() /
//     restore_typed() byte for byte — this is what lets the simulator
//     checkpoint at an arbitrary cycle with DMA chunks and layer tiles
//     still in flight (the structure ONNXim-style cycle-level NPU models
//     use for their event records).
//
// The heap itself is the simulator's hottest data structure: tens of
// millions of sift operations per run. Entries are therefore POD — the
// typed-event fast lane carries its whole payload inline, and closures
// park their std::function / timer token in a side pool (free-listed,
// reused) so heap moves never touch an allocator or an atomic refcount.
//
// Three facilities support the resumable scheduler (runtime/scheduler.h):
//   * cancellable timers — periodic chains like the MoCA bandwidth epoch
//     arm through schedule_cancellable(); a cancelled entry is skipped
//     without running and, crucially, without advancing now(), so a drained
//     run's makespan is no longer inflated by a pending no-op epoch tick;
//   * explicit-sequence restore — schedule_restored() re-arms an event
//     under the sequence number it held when a checkpoint was taken, and
//     restore_now()/restore_next_seq() re-establish the clock and the
//     tie-break counter, so a resumed run replays same-cycle event order
//     bit for bit;
//   * typed-event serialization — save_typed() walks the pending typed
//     entries (sorted by time and sequence, so snapshots are byte-stable)
//     and restore_typed() re-arms them under their saved sequences.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn {

/// Components that receive typed events. One handler per channel,
/// registered at wiring time (the handler is static plumbing, not
/// serialized state).
enum class event_channel : std::uint8_t {
    dma = 0,    ///< npu::dma_engine chunk completions
    layer = 1,  ///< sim::layer_engine tile gates and store issues
    sched = 2,  ///< runtime::scheduler page-negotiation retries
};
inline constexpr std::size_t n_event_channels = 3;

/// One serializable event record: which component (channel), which of its
/// transitions (kind, component-defined) and two payload words whose
/// meaning the component owns (flight ids, slot ids, tile indices).
struct typed_event {
    std::uint8_t channel = 0;
    std::uint8_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

class event_queue {
public:
    using callback = std::function<void()>;
    using typed_handler = std::function<void(const typed_event&)>;

    /// Handle to a cancellable event. Default-constructed handles are
    /// detached (armed() == false, cancel() is a no-op), so holders need no
    /// null checks. Copies share the underlying state.
    class timer {
    public:
        timer() = default;

        /// True while the event is pending (not yet fired, not cancelled).
        bool armed() const { return s_ && !s_->cancelled && !s_->fired; }
        cycle_t when() const { return s_ ? s_->when : 0; }
        std::uint64_t seq() const { return s_ ? s_->seq : 0; }

        /// Prevents the pending event from running. The queue entry is
        /// discarded when reached without advancing now().
        void cancel() {
            if (s_ && !s_->cancelled) {
                s_->cancelled = true;
                // A still-pending closure leaves the live count the moment
                // it is cancelled, not when the dead entry surfaces.
                if (!s_->fired && s_->live) --*s_->live;
            }
        }

    private:
        friend class event_queue;
        struct state {
            cycle_t when = 0;
            std::uint64_t seq = 0;
            bool cancelled = false;
            bool fired = false;
            /// Owning queue's live-closure counter (shared so a timer held
            /// past the queue's lifetime stays safe to cancel).
            std::shared_ptr<std::int64_t> live;
        };
        explicit timer(std::shared_ptr<state> s) : s_(std::move(s)) {}
        std::shared_ptr<state> s_;
    };

    event_queue();

    /// Current simulation time. Advances only inside step()/run*.
    cycle_t now() const { return now_; }

    /// Schedules `fn` to run at absolute time `when` (>= now()).
    /// Scheduling in the past is clamped to now() rather than rejected, so
    /// zero-latency completions stay legal. Returns the event's sequence
    /// number (the same-cycle tie-breaker; checkpoint bookkeeping).
    std::uint64_t schedule(cycle_t when, callback fn);

    /// Schedules `fn` to run `delay` cycles from now.
    std::uint64_t schedule_after(cycle_t delay, callback fn) {
        return schedule(now_ + delay, std::move(fn));
    }

    /// Schedules a cancellable event and returns its handle.
    timer schedule_cancellable(cycle_t when, callback fn);

    // ---- typed events ----

    /// Registers (or replaces) the handler of `ch`. Typed events reaching
    /// an unregistered channel throw std::logic_error at dispatch.
    void set_handler(event_channel ch, typed_handler fn);

    /// Schedules a typed event; same clamping and sequence rules as
    /// schedule().
    std::uint64_t schedule_event(cycle_t when, const typed_event& ev);

    /// Re-arms a typed event under an explicit saved sequence number.
    void restore_event(cycle_t when, std::uint64_t seq, const typed_event& ev);

    /// Serializes every pending typed event (when, seq, record), sorted by
    /// (when, seq) so equal states produce equal bytes.
    void save_typed(snapshot_writer& w) const;

    /// Re-arms a saved pending set. The caller restores now()/next_seq()
    /// separately; restored sequences must stay below the restored
    /// next_seq().
    void restore_typed(snapshot_reader& r);

    /// Pending typed events (O(1): tracked incrementally).
    std::size_t pending_typed() const { return typed_count_; }
    /// Live (uncancelled) closure events still pending — at a checkpoint
    /// every one of these must be owned by a component that re-arms it.
    /// O(1): cancel() maintains the count instead of scanning the heap.
    std::size_t pending_closures() const {
        return static_cast<std::size_t>(*live_closures_);
    }

    // ---- checkpoint/restore support ----

    /// Re-arms an event under an explicit sequence number saved at
    /// checkpoint time (does not consume next_seq()). The caller must keep
    /// restored sequences unique and below the restored next_seq().
    void schedule_restored(cycle_t when, std::uint64_t seq, callback fn);

    /// Cancellable variant of schedule_restored (re-armed periodic chains).
    timer restore_cancellable(cycle_t when, std::uint64_t seq, callback fn);

    /// Tie-break counter the next schedule() call will use.
    std::uint64_t next_seq() const { return next_seq_; }

    /// Restores the tie-break counter after a resume; must not go
    /// backwards past sequences already scheduled.
    void restore_next_seq(std::uint64_t seq);

    /// Sets the clock of an empty queue (resume from a snapshot).
    void restore_now(cycle_t now);

    /// Earliest pending live event time; `never` when nothing is pending.
    /// Discards cancelled entries encountered at the head.
    cycle_t next_time();

    // ---- inline continuations (chunk-event coalescing) ----

    /// Asks to process, inline, work that would otherwise be scheduled as
    /// a typed event on `ch` at `when`. Grants the request — advancing
    /// now() to `when` and crediting the executed/dispatch counters as if
    /// the event had been scheduled, popped and dispatched — only when the
    /// outcome is provably identical to the scheduled path: `when` must be
    /// at or after now(), strictly before every pending event (a pending
    /// event at the same cycle holds a smaller sequence number and would
    /// run first), and strictly below the inline horizon. Returns whether
    /// the caller now owns the continuation; on false the caller schedules
    /// the event as usual. Only legal from within a dispatched handler
    /// (the run loops' pause checks see the advanced clock next).
    bool try_inline(cycle_t when, event_channel ch);

    /// Sets the first cycle at which inline continuations are refused
    /// (exclusive horizon). The run loops own this: run_segment-style
    /// drivers must refuse continuations at or past their pause boundary
    /// so pause points land exactly where the scheduled path would pause.
    /// 0 (the default) disables inlining — unit tests driving step() by
    /// hand keep strict one-event-per-step semantics.
    void set_inline_horizon(cycle_t horizon) { inline_horizon_ = horizon; }
    cycle_t inline_horizon() const { return inline_horizon_; }

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }

    /// Events executed by step()/run*() over the queue's lifetime
    /// (cancelled entries discarded without running are not counted).
    /// Monotonic; not serialized — a resumed queue restarts at zero, so
    /// throughput harnesses measure the work of *this* process.
    std::uint64_t executed_events() const { return executed_; }

    /// Dispatch breakdown of executed_events(): typed events per channel
    /// and closure callbacks. Always counted (one array increment per
    /// event); the observability layer exports them as metrics counters.
    std::uint64_t typed_dispatched(event_channel ch) const {
        return typed_dispatched_[static_cast<std::size_t>(ch)];
    }
    std::uint64_t closures_dispatched() const { return closures_dispatched_; }
    /// Zeroes executed_events() and its dispatch breakdown, where a queue
    /// restored from a snapshot starts: a segment continued in place then
    /// counts only its own events.
    void restart_counters() {
        executed_ = 0;
        typed_dispatched_ = {};
        closures_dispatched_ = 0;
    }

    /// Runs the earliest live event. Returns false when no live event
    /// remains. Cancelled entries are discarded without advancing now().
    bool step();

    /// Runs events until the queue drains or `max_events` have run.
    /// Returns the number of events executed.
    std::size_t run(std::size_t max_events = SIZE_MAX);

    /// Runs all events with time <= `until` (the queue may retain later
    /// events). now() ends at max(now, until).
    void run_until(cycle_t until);

private:
    static constexpr std::uint32_t no_slot = UINT32_MAX;

    /// Heap node: trivially copyable, 40 bytes. Typed events ride fully
    /// inline; closures reference a side-pool slot holding the
    /// std::function and the optional timer token.
    struct entry {
        cycle_t when;
        std::uint64_t seq;  // tie-breaker: FIFO among same-cycle events
        std::uint64_t a;    // typed payload (unused for closures)
        std::uint64_t b;
        std::uint32_t slot;  // closure-pool index; no_slot for typed
        std::uint8_t channel;
        std::uint8_t kind;
        bool is_typed;
    };
    struct later {
        bool operator()(const entry& a, const entry& b) const {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /// Side-pool slot for one pending closure. Slots recycle through a
    /// free list, so a steady-state run stops allocating entirely.
    struct closure_slot {
        callback fn;
        std::shared_ptr<timer::state> tok;
        std::uint32_t next_free = no_slot;
    };

    std::uint32_t alloc_slot(callback fn, std::shared_ptr<timer::state> tok);
    void release_slot(std::uint32_t slot);

    void push(const entry& e);
    entry pop();

    /// Pops cancelled entries off the head (they neither run nor advance
    /// the clock).
    void discard_cancelled_head();
    bool head_cancelled() const {
        const entry& e = heap_.front();
        if (e.is_typed) return false;
        const auto& tok = pool_[e.slot].tok;
        return tok && tok->cancelled;
    }

    /// Min-heap on (when, seq) — a plain vector managed with the std heap
    /// algorithms so checkpointing can walk the pending entries.
    std::vector<entry> heap_;
    std::vector<closure_slot> pool_;
    std::uint32_t free_head_ = no_slot;
    std::array<typed_handler, n_event_channels> handlers_{};
    cycle_t now_ = 0;
    cycle_t inline_horizon_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::array<std::uint64_t, n_event_channels> typed_dispatched_{};
    std::uint64_t closures_dispatched_ = 0;
    std::size_t typed_count_ = 0;
    /// Live pending closures; shared with timer tokens so cancel() can
    /// decrement without holding a queue pointer.
    std::shared_ptr<std::int64_t> live_closures_;
};

}  // namespace camdn
