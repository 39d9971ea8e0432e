#include "common/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace camdn {

void event_queue::push(const entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later{});
}

void event_queue::set_handler(event_channel ch, typed_handler fn) {
    handlers_[static_cast<std::size_t>(ch)] = std::move(fn);
}

std::uint64_t event_queue::schedule_event(cycle_t when,
                                          const typed_event& ev) {
    const std::uint64_t seq = next_seq_++;
    restore_event(when, seq, ev);
    return seq;
}

void event_queue::restore_event(cycle_t when, std::uint64_t seq,
                                const typed_event& ev) {
    if (when < now_) when = now_;
    push(entry{when, seq, ev.a, ev.b, ev.channel, ev.kind});
}

std::size_t event_queue::cancel(event_channel ch, std::uint8_t kind) {
    const auto c = static_cast<std::uint8_t>(ch);
    const auto kept =
        std::remove_if(heap_.begin(), heap_.end(), [&](const entry& e) {
            return e.channel == c && e.kind == kind;
        });
    const auto removed = static_cast<std::size_t>(heap_.end() - kept);
    if (removed == 0) return 0;
    heap_.erase(kept, heap_.end());
    // (when, seq) is a total order, so the rebuilt heap pops in exactly
    // the order the original would have.
    std::make_heap(heap_.begin(), heap_.end(), later{});
    return removed;
}

std::size_t event_queue::pending(event_channel ch, std::uint8_t kind) const {
    const auto c = static_cast<std::uint8_t>(ch);
    return static_cast<std::size_t>(
        std::count_if(heap_.begin(), heap_.end(), [&](const entry& e) {
            return e.channel == c && e.kind == kind;
        }));
}

void event_queue::save_typed(snapshot_writer& w) const {
    std::vector<const entry*> sorted;
    sorted.reserve(heap_.size());
    for (const auto& e : heap_) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const entry* a, const entry* b) { return later{}(*b, *a); });
    w.u64(sorted.size());
    for (const entry* e : sorted) {
        w.u64(e->when);
        w.u64(e->seq);
        w.u8(e->channel);
        w.u8(e->kind);
        w.u64(e->a);
        w.u64(e->b);
    }
}

void event_queue::restore_typed(snapshot_reader& r) {
    const std::uint64_t n = r.count(8 + 8 + 1 + 1 + 8 + 8);
    for (std::uint64_t i = 0; i < n; ++i) {
        const cycle_t when = r.u64();
        const std::uint64_t seq = r.u64();
        typed_event ev;
        ev.channel = r.u8();
        ev.kind = r.u8();
        if (ev.channel >= n_event_channels)
            throw snapshot_error("snapshot typed event on unknown channel " +
                                 std::to_string(ev.channel));
        ev.a = r.u64();
        ev.b = r.u64();
        restore_event(when, seq, ev);
    }
}

void event_queue::restore_next_seq(std::uint64_t seq) {
    assert(seq >= next_seq_ && "tie-break counter must not rewind");
    next_seq_ = seq;
}

void event_queue::restore_now(cycle_t now) {
    assert(heap_.empty() && "clock restore requires an empty queue");
    now_ = now;
}

bool event_queue::try_inline(cycle_t when, event_channel ch) {
    if (when >= inline_horizon_ || when < now_) return false;
    if (next_time() <= when) return false;
    // The event would be the very next dispatch: the heap round-trip is
    // pure overhead, but the counters must read as if it happened.
    now_ = when;
    ++executed_;
    ++typed_dispatched_[static_cast<std::size_t>(ch)];
    return true;
}

bool event_queue::step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later{});
    const entry e = heap_.back();
    heap_.pop_back();
    now_ = e.when;
    ++executed_;
    ++typed_dispatched_[e.channel];
    const auto& h = handlers_[e.channel];
    if (!h)
        throw std::logic_error(
            "typed event dispatched to unregistered channel " +
            std::to_string(e.channel));
    h(typed_event{e.channel, e.kind, e.a, e.b});
    return true;
}

std::size_t event_queue::run(std::size_t max_events) {
    // An unbounded drain may coalesce freely; a budgeted run counts
    // individual step() dispatches, which inlining would undercount.
    const cycle_t saved = inline_horizon_;
    if (max_events == SIZE_MAX) inline_horizon_ = never;
    std::size_t executed = 0;
    while (executed < max_events && step()) ++executed;
    inline_horizon_ = saved;
    return executed;
}

void event_queue::run_until(cycle_t until) {
    // Events at exactly `until` run, so the exclusive horizon sits one
    // past it (saturating: run_until(never) may coalesce everything).
    const cycle_t saved = inline_horizon_;
    inline_horizon_ = until == never ? never : until + 1;
    while (next_time() <= until && !heap_.empty()) step();
    inline_horizon_ = saved;
    if (now_ < until) now_ = until;
}

}  // namespace camdn
