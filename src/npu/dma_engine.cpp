#include "npu/dma_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/probe.h"

namespace camdn::npu {

namespace {

/// Trace name of a flight's kind, in enum order.
const char* op_name(transfer_request::kind op) {
    static constexpr const char* names[] = {
        "transparent_read", "transparent_write", "region_read",
        "region_write",     "region_fill",       "region_writeback",
        "bypass_read",      "bypass_write"};
    return names[static_cast<std::size_t>(op)];
}

}  // namespace

dma_engine::dma_engine(event_queue& eq, cache::shared_cache& cache,
                       std::uint64_t chunk_lines, std::uint32_t window)
    : eq_(eq),
      cache_(cache),
      chunk_lines_(chunk_lines == 0 ? 1 : chunk_lines),
      window_(window == 0 ? 1 : window) {
    flights_.reserve(16);
    // A dispatched chunk_done event is the tail call of its step(): pump
    // may coalesce the flight's next wakes inline (advancing the clock)
    // because nothing else runs in this dispatch afterwards.
    eq_.set_handler(event_channel::dma, [this](const typed_event& ev) {
        pump(ev.a, /*allow_inline=*/true);
    });
}

cycle_t dma_engine::transfer_now(const transfer_request& req, cycle_t arrival) {
    // Host-time attribution: the synchronous transfer body is cache work
    // (the DRAM portions re-attribute inside dram_system's bursts and
    // line runs).
    const obs::probe::scope host(probe_, obs::subsystem::cache);
    using kind = transfer_request::kind;
    switch (req.op) {
        case kind::transparent_read:
            return cache_.transparent_burst(req.addr, req.nlines, false, arrival,
                                            req.task);
        case kind::transparent_write:
            return cache_.transparent_burst(req.addr, req.nlines, true, arrival,
                                            req.task);
        case kind::region_read:
            return cache_.region_read_burst(req.task, req.addr, req.nlines,
                                            arrival, req.group_size);
        case kind::region_write:
            return cache_.region_write_burst(req.task, req.addr, req.nlines,
                                             arrival);
        case kind::region_fill:
            return cache_.region_fill_burst(req.task, req.addr, req.dram_addr,
                                            req.nlines, arrival);
        case kind::region_writeback:
            return cache_.region_writeback_burst(req.task, req.addr,
                                                 req.dram_addr, req.nlines,
                                                 arrival);
        case kind::bypass_read:
            return cache_.bypass_read_burst(req.addr, req.nlines, arrival,
                                            req.task, req.group_size);
        case kind::bypass_write:
            return cache_.bypass_write_burst(req.addr, req.nlines, arrival,
                                             req.task);
    }
    return arrival;
}

std::size_t dma_engine::find_flight(std::uint64_t id) const {
    const auto it = std::lower_bound(
        flights_.begin(), flights_.end(), id,
        [](const flight& f, std::uint64_t want) { return f.id < want; });
    if (it == flights_.end() || it->id != id)
        throw std::logic_error("dma_engine: chunk_done for unknown flight");
    return static_cast<std::size_t>(it - flights_.begin());
}

void dma_engine::recycle_ring(std::vector<cycle_t>&& ring) {
    if (ring.capacity() == 0 || ring_pool_.size() >= 64) return;
    ring.clear();
    ring_pool_.push_back(std::move(ring));
}

void dma_engine::submit_tracked(const transfer_request& req,
                                const dma_target& target) {
    if (req.nlines == 0) {
        if (sink_) sink_(target, eq_.now());
        return;
    }
    if (probe_ != nullptr) probe_->dma_bytes(req.task, req.nlines * line_bytes);
    flight f;
    f.target = target;
    f.req = req;
    f.total_chunks = ceil_div(req.nlines, chunk_lines_);
    f.last_done = eq_.now();
    f.issue = eq_.now();
    if (!ring_pool_.empty()) {
        f.out = std::move(ring_pool_.back());
        ring_pool_.pop_back();
    }
    const std::uint64_t id = next_flight_++;
    f.id = id;
    flights_.push_back(std::move(f));  // monotonic id: append keeps order
    pump(id);
}

void dma_engine::pump(std::uint64_t id, bool allow_inline) {
    const obs::probe::scope host(probe_, obs::subsystem::dma);
    const std::size_t at = find_flight(id);
    for (;;) {
        flight& f = flights_[at];

        // Issue as long as the window has room and lines remain.
        while (f.issued_chunks < f.total_chunks && f.outstanding() < window_) {
            const std::uint64_t lines = std::min<std::uint64_t>(
                chunk_lines_, f.req.nlines - f.issued_lines);
            transfer_request chunk = f.req;
            chunk.addr = f.req.addr + f.issued_lines * line_bytes;
            chunk.dram_addr = f.req.dram_addr + f.issued_lines * line_bytes;
            chunk.nlines = lines;
            const cycle_t done = transfer_now(chunk, eq_.now());
            // The chunk's service window is known synchronously, so it is
            // reported at issue.
            if (probe_ != nullptr)
                probe_->dma_chunk(f.req.task, eq_.now(), done,
                                  lines * line_bytes);
            f.issued_lines += lines;
            ++f.issued_chunks;
            f.out.push_back(done);
            f.last_done = std::max(f.last_done, done);
        }
        if (f.outstanding() == 0) {
            // Everything issued and retired. Detach the flight before the
            // completion runs: the sink may submit a follow-up transfer.
            const cycle_t done = f.last_done;
            const dma_target target = f.target;
            if (probe_ != nullptr)
                probe_->dma_flight(op_name(f.req.op), f.req.task, f.issue,
                                   done, f.req.nlines * line_bytes);
            recycle_ring(std::move(f.out));
            flights_.erase(flights_.begin() +
                           static_cast<std::ptrdiff_t>(at));
            if (sink_) sink_(target, done);
            return;
        }
        // Wake when the oldest chunk retires; that frees a window slot.
        const cycle_t next = f.out[f.out_head];
        if (probe_ != nullptr && f.issued_chunks < f.total_chunks &&
            next > eq_.now())
            probe_->dma_window_wait(f.req.task, next - eq_.now());
        if (++f.out_head == f.out.size()) {
            f.out.clear();
            f.out_head = 0;
        }
        // Coalescing: when the wake-up would be the queue's very next
        // dispatch anyway, keep pumping this flight inline instead of
        // round-tripping a chunk_done event through the heap. Only the
        // event-dispatched pump may do this — a pump called synchronously
        // from a submit must not advance the clock under its caller.
        if (allow_inline && eq_.try_inline(next, event_channel::dma))
            continue;
        eq_.schedule_event(
            next, typed_event{static_cast<std::uint8_t>(event_channel::dma),
                              kind_chunk_done, id, 0});
        return;
    }
}

void dma_engine::save_state(snapshot_writer& w) const {
    w.u64(next_flight_);
    w.u64(flights_.size());
    for (const flight& f : flights_) {
        w.u64(f.id);
        w.u8(static_cast<std::uint8_t>(f.req.op));
        w.i32(f.req.task);
        w.u64(f.req.addr);
        w.u64(f.req.dram_addr);
        w.u64(f.req.nlines);
        w.u32(f.req.group_size);
        w.u64(f.issued_lines);
        w.u64(f.total_chunks);
        w.u64(f.issued_chunks);
        w.u64(f.outstanding());
        for (std::size_t i = f.out_head; i < f.out.size(); ++i) w.u64(f.out[i]);
        w.u64(f.last_done);
        w.u64(f.target.a);
        w.u64(f.target.b);
    }
}

dma_engine::flight_table dma_engine::read_flights(snapshot_reader& r) {
    flight_table t;
    t.next_id = r.u64();
    // Per flight: id, the request (u8 op, i32 task, three u64, u32 group),
    // three u64 cursor fields, the outstanding count, last_done, the token.
    t.flights.resize(r.count(8 + 1 + 4 + 3 * 8 + 4 + 3 * 8 + 8 + 8 + 2 * 8));
    for (std::size_t i = 0; i < t.flights.size(); ++i) {
        flight_record& f = t.flights[i];
        f.id = r.u64();
        if (f.id >= t.next_id)
            throw snapshot_error("snapshot DMA flight id beyond the counter");
        if (i > 0 && f.id <= t.flights[i - 1].id)
            throw snapshot_error("snapshot DMA flight ids are not ascending");
        const std::uint8_t op = r.u8();
        if (op > static_cast<std::uint8_t>(transfer_request::kind::bypass_write))
            throw snapshot_error("snapshot DMA flight has unknown op");
        f.req.op = static_cast<transfer_request::kind>(op);
        f.req.task = r.i32();
        f.req.addr = r.u64();
        f.req.dram_addr = r.u64();
        f.req.nlines = r.u64();
        f.req.group_size = r.u32();
        f.issued_lines = r.u64();
        f.total_chunks = r.u64();
        f.issued_chunks = r.u64();
        f.out.resize(r.count(8));
        for (cycle_t& done : f.out) done = r.u64();
        f.last_done = r.u64();
        f.target.a = r.u64();
        f.target.b = r.u64();
        if (f.issued_chunks > f.total_chunks ||
            f.out.size() > f.issued_chunks || f.issued_lines > f.req.nlines)
            throw snapshot_error("snapshot DMA flight cursor is inconsistent");
    }
    return t;
}

void dma_engine::restore_state(snapshot_reader& r) {
    if (!flights_.empty())
        throw std::logic_error(
            "dma_engine::restore_state requires an idle engine");
    flight_table saved = read_flights(r);
    next_flight_ = saved.next_id;
    flights_.reserve(saved.flights.size());
    for (flight_record& rec : saved.flights) {
        flight f;
        static_cast<flight_record&>(f) = std::move(rec);
        // Not serialized: a restored flight's trace span re-anchors at the
        // restore clock (the pre-pause portion belongs to the old process).
        f.issue = eq_.now();
        flights_.push_back(std::move(f));
    }
}

}  // namespace camdn::npu
