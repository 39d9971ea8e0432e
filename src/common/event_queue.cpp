#include "common/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace camdn {

void event_queue::push(const entry& e) {
    // An event due after the near_reach-th entry from the back of the run
    // goes to the heap; one comparison settles that, since the run is
    // sorted. Otherwise e's slot is at most near_reach entries from the
    // back (or the run is shorter), and a scan from the back finds it.
    const std::size_t n = near_.size();
    if (n > near_reach && later{}(e, near_[n - near_reach])) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), later{});
        return;
    }
    std::size_t i = n;
    while (i > 0 && later{}(e, near_[i - 1])) --i;
    near_.insert(near_.begin() + static_cast<std::ptrdiff_t>(i), e);
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
    const auto doomed = [&](const entry& e) {
        return e.channel == c && e.kind == kind;
    };
    // remove_if keeps the survivors' order, so the run stays sorted.
    const auto near_kept = std::remove_if(near_.begin(), near_.end(), doomed);
    const auto heap_kept = std::remove_if(heap_.begin(), heap_.end(), doomed);
    const auto removed = static_cast<std::size_t>(
        (near_.end() - near_kept) + (heap_.end() - heap_kept));
    near_.erase(near_kept, near_.end());
    if (heap_kept != heap_.end()) {
        heap_.erase(heap_kept, heap_.end());
        // (when, seq) is a total order, so the rebuilt heap pops in exactly
        // the order the original would have.
        std::make_heap(heap_.begin(), heap_.end(), later{});
    }
    return removed;
}

std::size_t event_queue::pending(event_channel ch, std::uint8_t kind) const {
    const auto c = static_cast<std::uint8_t>(ch);
    const auto match = [&](const entry& e) {
        return e.channel == c && e.kind == kind;
    };
    return static_cast<std::size_t>(
        std::count_if(near_.begin(), near_.end(), match) +
        std::count_if(heap_.begin(), heap_.end(), match));
}

std::size_t event_queue::pending(event_channel ch) const {
    const auto c = static_cast<std::uint8_t>(ch);
    const auto match = [&](const entry& e) { return e.channel == c; };
    return static_cast<std::size_t>(
        std::count_if(near_.begin(), near_.end(), match) +
        std::count_if(heap_.begin(), heap_.end(), match));
}

cycle_t event_queue::next_time(event_channel ch, std::uint8_t kind) const {
    const auto c = static_cast<std::uint8_t>(ch);
    cycle_t due = never;
    for (const auto* part : {&near_, &heap_})
        for (const auto& e : *part)
            if (e.channel == c && e.kind == kind) due = std::min(due, e.when);
    return due;
}

void event_queue::save_typed(snapshot_writer& w) const {
    std::vector<const entry*> sorted;
    sorted.reserve(pending());
    for (const auto& e : near_) sorted.push_back(&e);
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
        if (ev.kind >=
            event_kind_count(static_cast<event_channel>(ev.channel)))
            throw snapshot_error("snapshot typed event of unknown kind " +
                                 std::to_string(ev.kind) + " on channel " +
                                 std::to_string(ev.channel));
        ev.a = r.u64();
        ev.b = r.u64();
        // restore_event() would clamp a past event to now(), moving it.
        if (when < now_)
            throw snapshot_error("snapshot typed event (seq " +
                                 std::to_string(seq) + ") due at cycle " +
                                 std::to_string(when) +
                                 ", before the clock " + std::to_string(now_));
        restore_event(when, seq, ev);
    }
    std::vector<std::uint64_t> seqs;
    seqs.reserve(pending());
    for (const auto& e : near_) seqs.push_back(e.seq);
    for (const auto& e : heap_) seqs.push_back(e.seq);
    std::sort(seqs.begin(), seqs.end());
    const auto dup = std::adjacent_find(seqs.begin(), seqs.end());
    if (dup != seqs.end())
        throw snapshot_error("snapshot typed events repeat sequence number " +
                             std::to_string(*dup));
}

void event_queue::restore_next_seq(std::uint64_t seq) {
    if (seq < next_seq_)
        throw snapshot_error("snapshot tie-break counter " +
                             std::to_string(seq) + " rewinds the queue's " +
                             std::to_string(next_seq_));
    for (const auto* part : {&near_, &heap_})
        for (const auto& e : *part)
            if (e.seq >= seq)
                throw snapshot_error(
                    "pending event sequence " + std::to_string(e.seq) +
                    " is not below the snapshot tie-break counter " +
                    std::to_string(seq));
    next_seq_ = seq;
}

void event_queue::restore_now(cycle_t now) {
    assert(empty() && "clock restore requires an empty queue");
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
    if (empty()) return false;
    entry e{};
    if (near_.empty() ||
        (!heap_.empty() && later{}(near_.back(), heap_.front()))) {
        std::pop_heap(heap_.begin(), heap_.end(), later{});
        e = heap_.back();
        heap_.pop_back();
    } else {
        e = near_.back();
        near_.pop_back();
    }
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
    while (next_time() <= until && !empty()) step();
    inline_horizon_ = saved;
    if (now_ < until) now_ = until;
}

}  // namespace camdn
