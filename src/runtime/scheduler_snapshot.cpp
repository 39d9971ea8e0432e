#include "runtime/scheduler_snapshot.h"

namespace camdn::runtime {

std::vector<std::uint8_t> scheduler_snapshot::encode() const {
    snapshot_writer w;
    w.u32(magic);
    w.u32(version);
    w.u64(machine_fingerprint);
    w.u64(run_fingerprint);
    w.u32(slots);

    w.u64(now);
    w.u64(event_seq);
    w.u64(epoch_deadline);

    w.u64(dram_bytes_mark);
    w.u64(dram_throttled_mark);
    w.d(ahead_ratio);
    w.u64(slot_completed.size());
    for (const std::uint32_t c : slot_completed) w.u32(c);
    w.u64(page_share.size());
    for (const std::uint32_t p : page_share) w.u32(p);
    w.u64(free_cores.size());
    for (const npu_id c : free_cores) w.i32(c);
    w.u64(core_busy_cycles.size());
    for (const std::uint64_t c : core_busy_cycles) w.u64(c);

    w.u64(admission_queue.size());
    for (const auto& q : admission_queue) {
        w.str(q.model);
        w.u64(q.arrival);
        w.i32(q.slot);
    }

    w.u64(running.size());
    for (const auto& rs : running) {
        w.i32(rs.slot);
        w.str(rs.model);
        w.u32(rs.current_layer);
        w.u64(rs.cores.size());
        for (const npu_id c : rs.cores) w.i32(c);
        w.u64(rs.core_busy_since.size());
        for (const cycle_t c : rs.core_busy_since) w.u64(c);
        w.u64(rs.arrival);
        w.u64(rs.started);
        w.u64(rs.deadline);
        w.u64(rs.t_next);
        w.u32(rs.p_next);
        w.b(rs.lbm_enabled);
        w.u32(rs.lbm_block);
        w.u64(rs.dram_bytes_mark);
        w.b(rs.neg_armed);
        w.i32(rs.neg_cand);
        w.u32(rs.neg_pages);
        w.u64(rs.neg_timeout);
    }

    w.blob(machine);
    w.blob(engine);
    w.blob(typed_events);
    w.blob(telemetry);
    w.blob(controller);
    w.blob(workload);
    w.blob(results);
    return w.take();
}

scheduler_snapshot scheduler_snapshot::decode(const std::uint8_t* data,
                                              std::size_t size) {
    snapshot_reader r(data, size);
    if (r.u32() != magic)
        throw snapshot_error("not a scheduler snapshot (bad magic)");
    const std::uint32_t v = r.u32();
    if (v == 1)
        throw snapshot_error(
            "snapshot version 1 is the legacy quiescent-boundary format "
            "(pre-typed-event engine) and cannot be resumed; re-create the "
            "snapshot with this build");
    if (v != version)
        throw snapshot_error("snapshot version mismatch: have " +
                             std::to_string(v) + ", expected " +
                             std::to_string(version));

    scheduler_snapshot s;
    s.machine_fingerprint = r.u64();
    s.run_fingerprint = r.u64();
    s.slots = r.u32();

    s.now = r.u64();
    s.event_seq = r.u64();
    s.epoch_deadline = r.u64();

    s.dram_bytes_mark = r.u64();
    s.dram_throttled_mark = r.u64();
    s.ahead_ratio = r.d();
    const std::uint64_t nslot = r.count(4);
    if (nslot != s.slots)
        throw snapshot_error("snapshot holds " + std::to_string(nslot) +
                             " per-slot counters for " +
                             std::to_string(s.slots) + " slots");
    s.slot_completed.resize(nslot);
    for (auto& c : s.slot_completed) c = r.u32();
    const std::uint64_t nshare = r.count(4);
    s.page_share.resize(nshare);
    for (auto& p : s.page_share) p = r.u32();
    const std::uint64_t ncores = r.count(4);
    s.free_cores.resize(ncores);
    for (auto& c : s.free_cores) c = r.i32();
    const std::uint64_t nbusy = r.count(8);
    s.core_busy_cycles.resize(nbusy);
    for (auto& c : s.core_busy_cycles) c = r.u64();

    const std::uint64_t nqueue = r.count(8 + 8 + 4);
    s.admission_queue.resize(nqueue);
    for (auto& q : s.admission_queue) {
        q.model = r.str();
        q.arrival = r.u64();
        q.slot = r.i32();
    }

    const std::uint64_t nrunning = r.count(4 + 8 + 4 + 8 * 2 + 8 * 6 + 4 * 3 +
                                           1 * 2 + 8 * 2 + 4);
    s.running.resize(nrunning);
    for (auto& rs : s.running) {
        rs.slot = r.i32();
        rs.model = r.str();
        rs.current_layer = r.u32();
        const std::uint64_t nc = r.count(4);
        rs.cores.resize(nc);
        for (auto& c : rs.cores) c = r.i32();
        const std::uint64_t nb = r.count(8);
        rs.core_busy_since.resize(nb);
        for (auto& c : rs.core_busy_since) c = r.u64();
        rs.arrival = r.u64();
        rs.started = r.u64();
        rs.deadline = r.u64();
        rs.t_next = r.u64();
        rs.p_next = r.u32();
        rs.lbm_enabled = r.b();
        rs.lbm_block = r.u32();
        rs.dram_bytes_mark = r.u64();
        rs.neg_armed = r.b();
        rs.neg_cand = r.i32();
        rs.neg_pages = r.u32();
        rs.neg_timeout = r.u64();
    }

    s.machine = r.blob();
    s.engine = r.blob();
    s.typed_events = r.blob();
    s.telemetry = r.blob();
    s.controller = r.blob();
    s.workload = r.blob();
    s.results = r.blob();
    if (!r.done())
        throw snapshot_error("snapshot has " + std::to_string(r.remaining()) +
                             " trailing bytes");
    return s;
}

}  // namespace camdn::runtime
