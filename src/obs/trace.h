// Chrome trace-event recorder.
//
// The observability layer's timeline view: the SoC's probe records
// duration events (layer executions, DMA flights and chunks, page-wait
// retries, whole inferences) and instants (negotiation timeouts) against
// the simulation clock, and write_chrome_trace() exports them as Chrome
// trace-event format JSON — loadable in chrome://tracing and Perfetto.
// pid maps to the SoC index (fleet runs use one pid per SoC plus a "fleet"
// pid for round barriers) and tid to the task slot, so a multi-tenant run
// renders as one swim-lane per tenant per SoC.
//
// Recording is observation-only: no component behaviour depends on the
// recorder, no event is scheduled for it, and every hook is a null check —
// a run with tracing attached is bit-identical to a bare run. Events carry
// interned name pointers (string literals or recorder-owned copies), so a
// record is two stores and a push_back. Determinism: the event sequence is
// a pure function of the simulation, and write_chrome_trace sorts stably
// by (pid, tid, ts), so the exported bytes are identical across repeated
// runs and sweep-pool widths.
//
// Depends only on common/.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace camdn::obs {

/// One recorded event. `name`/`cat` point at string literals or at strings
/// interned in (and owned by) the recorder that produced the event.
struct trace_event {
    const char* name = "";
    const char* cat = "";
    cycle_t ts = 0;   ///< start, simulation cycles
    cycle_t dur = 0;  ///< span, simulation cycles (complete events)
    std::uint64_t arg = 0;  ///< optional payload (bytes, layer index, ...)
    std::uint32_t pid = 0;  ///< SoC index (or the fleet lane)
    std::uint32_t tid = 0;  ///< task slot
    char phase = 'X';       ///< 'X' complete, 'i' instant
    bool has_arg = false;
};

/// Thread id used for events not attributable to a task slot (warm-up
/// probes, no_task traffic).
inline constexpr std::uint32_t trace_tid_untracked = 0xFFFFu;

class trace_recorder {
public:
    /// `pid` tags every event this recorder produces (the SoC index in
    /// fleet runs). `max_events` caps memory; events beyond it are counted
    /// in dropped() rather than silently lost.
    explicit trace_recorder(std::uint32_t pid = 0,
                            std::size_t max_events = 1u << 20);

    std::uint32_t pid() const { return pid_; }

    /// Per-DMA-chunk duration events are the highest-volume category; off
    /// by default keeps flight-level granularity cheap.
    void set_chunk_events(bool on) { chunk_events_ = on; }
    bool chunk_events() const { return chunk_events_; }

    /// Samples the chunk lane: record every Nth chunk event (count-based,
    /// deterministic — the chunk issue order is a simulation fact). 1
    /// records every chunk.
    void set_chunk_sample_every(std::uint32_t n) {
        chunk_sample_every_ = n == 0 ? 1 : n;
    }
    /// Advances the chunk sampling counter; true when this chunk's event
    /// should be recorded. Called once per issued chunk by the SoC's probe
    /// while chunk_events() is on.
    bool sample_chunk() {
        if (++chunk_counter_ < chunk_sample_every_) return false;
        chunk_counter_ = 0;
        return true;
    }
    /// Samples the flight lane (one completion event per DMA flight — the
    /// highest-volume category after chunks): record every Nth. Same
    /// count-based determinism as the chunk lane. 1 (the default) records
    /// every flight.
    void set_flight_sample_every(std::uint32_t n) {
        flight_sample_every_ = n == 0 ? 1 : n;
    }
    /// Advances the flight sampling counter; true when this flight's
    /// completion event should be recorded. Called once per retired
    /// flight by the SoC's probe while a recorder is attached.
    bool sample_flight() {
        if (++flight_counter_ < flight_sample_every_) return false;
        flight_counter_ = 0;
        return true;
    }

    /// Records a complete ('X') event spanning [start, end] cycles.
    void complete(const char* name, const char* cat, std::uint32_t tid,
                  cycle_t start, cycle_t end) {
        push(trace_event{name, cat, start, end > start ? end - start : 0, 0,
                         pid_, tid, 'X', false});
    }
    void complete_arg(const char* name, const char* cat, std::uint32_t tid,
                      cycle_t start, cycle_t end, std::uint64_t arg) {
        push(trace_event{name, cat, start, end > start ? end - start : 0, arg,
                         pid_, tid, 'X', true});
    }
    /// Records an instant ('i') event at `at` cycles.
    void instant(const char* name, const char* cat, std::uint32_t tid,
                 cycle_t at) {
        push(trace_event{name, cat, at, 0, 0, pid_, tid, 'i', false});
    }
    /// Records a counter ('C') sample: the cumulative value of `name` at
    /// `at` cycles. Chrome/Perfetto render these as per-pid counter tracks
    /// (the attribution layer emits one track per latency component).
    void counter(const char* name, std::uint32_t tid, cycle_t at,
                 std::uint64_t value) {
        push(trace_event{name, "counter", at, 0, value, pid_, tid, 'C', true});
    }

    /// Interns a dynamic name (model abbreviation) and returns a pointer
    /// that stays valid for the recorder's lifetime.
    const char* intern(const std::string& name);

    const std::vector<trace_event>& events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /// Copies every event of `src` into this recorder (re-interning the
    /// name/cat strings so the result outlives `src`). Fleet runs use this
    /// to fold per-round per-SoC recorders into one deterministic master.
    void absorb(const trace_recorder& src);

private:
    void push(const trace_event& e) {
        if (events_.size() >= max_events_) {
            ++dropped_;
            return;
        }
        events_.push_back(e);
    }

    std::uint32_t pid_;
    std::size_t max_events_;
    bool chunk_events_ = false;
    std::uint32_t chunk_sample_every_ = 1;
    std::uint32_t chunk_counter_ = 0;
    std::uint32_t flight_sample_every_ = 1;
    std::uint32_t flight_counter_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<trace_event> events_;
    std::deque<std::string> strings_;  ///< stable storage for interned names
    std::map<std::string, const char*> interned_;
};

/// Returns the events sorted for export: stable on (pid, tid, ts), so
/// per-thread timestamps are non-decreasing and equal-ts events keep their
/// recording order. Pure function — the export order tests use it too.
std::vector<trace_event> sorted_for_export(std::vector<trace_event> events);

/// Writes `{"traceEvents": [...]}` Chrome trace JSON: process/thread name
/// metadata first (process names from `process_names`, defaulting to
/// "soc<pid>"; threads named "slot <tid>"), then the sorted events with
/// ts/dur converted to microseconds of the 1 GHz simulation clock.
/// Deterministic: same events, same bytes.
void write_chrome_trace(
    std::ostream& out, const std::vector<trace_event>& events,
    const std::vector<std::pair<std::uint32_t, std::string>>& process_names =
        {});

}  // namespace camdn::obs
