#include "runtime/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "sim/mapping_registry.h"

namespace camdn::runtime {

namespace {

/// FNV-1a accumulator for the snapshot compatibility fingerprints.
struct fingerprint {
    std::uint64_t h = 1469598103934665603ull;

    template <typename T,
              typename std::enable_if<std::is_integral<T>::value, int>::type = 0>
    void add(T v) {
        const std::uint64_t u = static_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (u >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void add(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const std::string& s) {
        add(static_cast<std::uint64_t>(s.size()));
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
};

constexpr std::uint8_t kind(sched_event k) {
    return static_cast<std::uint8_t>(k);
}
static_assert(kind(sched_event::bw_epoch) + 1 ==
                  event_kind_count(event_channel::sched),
              "event_kind_count(sched) counts every sched_event");

/// A typed event on the scheduler's channel.
typed_event sched_ev(sched_event k, std::uint64_t a = 0) {
    return typed_event{static_cast<std::uint8_t>(event_channel::sched),
                       kind(k), a, 0};
}

/// Address-map salt of a model name (FNV-1a). Dispatch and mid-layer
/// restore must derive the identical salt or a resumed run's parameter
/// addresses silently diverge — keep this the single definition.
std::uint64_t model_salt(const std::string& name) {
    std::uint64_t salt = 1469598103934665603ull;
    for (const char ch : name)
        salt = (salt ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    return salt;
}

}  // namespace

scheduler::scheduler(const sim::experiment_config& cfg, workload_generator& gen)
    : cfg_(cfg),
      gen_(&gen),
      machine_(cfg.soc, cfg.pol),
      bw_(machine_.dram()) {
    // The observer's epoch consumers ride the telemetry bus; turning it on
    // for them is observation only (epoch cuts are lazy — see
    // maybe_cut_epoch), so results stay bit-identical to a bare run.
    telemetry_on_ = cfg_.telemetry || adaptive() || cfg_.obs.wants_epochs();
    if (telemetry_on_) bus_.reset(cfg_.co_located);
    machine_.attach(cfg_.obs, telemetry_on_ ? &bus_ : nullptr);
    if (adaptive()) {
        page_share_.assign(cfg_.co_located,
                           machine_.cache().pages().total_pages() /
                               std::max<std::uint32_t>(cfg_.co_located, 1));
        alg_.set_fair_pages(&page_share_);
        ctl_ = std::make_unique<adapt::feedback_controller>(
            cfg_.co_located, machine_.cache().pages().total_pages(),
            alg_.ahead_ratio());
    }

    const std::uint32_t slots = cfg_.co_located;
    tasks_.resize(slots);
    neg_.assign(slots, {});
    addrs_.reserve(slots);
    for (std::uint32_t s = 0; s < slots; ++s) {
        tasks_[s].id = static_cast<task_id>(s);
        addrs_.emplace_back(static_cast<task_id>(s));
    }
    for (std::uint32_t c = cfg_.soc.npu.cores; c > 0; --c)
        free_cores_.push_back(static_cast<npu_id>(c - 1));

    // Typed-event wiring: layer completions route back per slot, and
    // page-negotiation retries, generator events and the bandwidth epoch
    // arrive on the scheduler's channel.
    machine_.layers().set_features(cfg_.features);
    machine_.layers().set_on_done(
        [this](task_id slot, cycle_t end) { end_layer(tasks_[slot], end); });
    machine_.eq().set_handler(
        event_channel::sched,
        [this](const typed_event& ev) { on_sched_event(ev); });
}

scheduler::scheduler(const sim::experiment_config& cfg, workload_generator& gen,
                     const scheduler_snapshot& snap, resume_mode mode)
    : scheduler(cfg, gen) {
    restore(snap, mode);
}

std::uint64_t scheduler::machine_fingerprint() const {
    fingerprint f;
    f.add(static_cast<std::uint64_t>(cfg_.pol));
    f.add(cfg_.co_located);
    f.add((cfg_.features.bypass ? 1u : 0u) | (cfg_.features.multicast ? 2u : 0u) |
          (cfg_.features.lbm ? 4u : 0u));
    const auto& c = cfg_.soc.cache;
    f.add(c.total_bytes);
    f.add(c.ways);
    f.add(c.npu_ways);
    f.add(c.slices);
    f.add(c.page_bytes);
    f.add(c.hit_latency);
    f.add(c.fill_latency);
    f.add(c.noc_latency);
    const auto& d = cfg_.soc.dram;
    f.add(d.channels);
    f.add(d.banks_per_channel);
    f.add(d.row_bytes);
    f.add(d.bytes_per_cycle_x10);
    f.add(d.t_cl);
    f.add(d.t_rcd);
    f.add(d.t_rp);
    f.add(d.t_ccd);
    f.add(d.t_burst_gap);
    f.add(d.t_controller);
    f.add(d.regulation_epoch);
    const auto& n = cfg_.soc.npu;
    f.add(n.pe_rows);
    f.add(n.pe_cols);
    f.add(n.scratchpad_bytes);
    f.add(n.cores);
    f.add(n.pipeline_fill);
    f.add(n.simd_lanes);
    f.add(cfg_.qos_mode ? 1u : 0u);
    f.add(cfg_.qos_scale);
    f.add(cfg_.spread_idle_cores ? 1u : 0u);
    // Hashed although fixed: existing snapshots' fingerprints must still
    // match.
    f.add(page_retry_cycles);
    f.add(bw_epoch_cycles);
    f.add(adapt::epoch_cycles);
    return f.h;
}

std::uint64_t scheduler::run_fingerprint() const {
    fingerprint f;
    f.add(static_cast<std::uint64_t>(cfg_.kind));
    f.add(cfg_.seed);
    f.add(cfg_.inferences_per_slot);
    f.add(cfg_.think_time_ms);
    f.add(cfg_.arrival_rate_per_ms);
    f.add(cfg_.total_arrivals);
    f.add(cfg_.admission_queue_limit);
    f.add(static_cast<std::uint64_t>(cfg_.mmpp_rate_scale.size()));
    for (const double s : cfg_.mmpp_rate_scale) f.add(s);
    f.add(cfg_.mmpp_sojourn_ms);
    f.add(cfg_.churn_interval_ms);
    f.add(cfg_.churn_active_models);
    f.add(cfg_.telemetry ? 1u : 0u);
    f.add(static_cast<std::uint64_t>(cfg_.workload.size()));
    for (const auto* m : cfg_.workload) f.add(m->name);
    f.add(static_cast<std::uint64_t>(cfg_.trace.size()));
    for (const auto& a : cfg_.trace) {
        f.add(a.at);
        if (a.mdl) f.add(a.mdl->name);
    }
    return f.h;
}

void scheduler::restore(const scheduler_snapshot& snap, resume_mode mode) {
    if (snap.machine_fingerprint != machine_fingerprint())
        throw snapshot_error(
            "snapshot machine fingerprint does not match the resuming "
            "configuration (SoC geometry, policy or slot count differ)");
    if (mode == resume_mode::exact) {
        if (snap.run_fingerprint != run_fingerprint())
            throw snapshot_error(
                "exact resume requires the identical workload configuration "
                "(run fingerprint mismatch)");
        if (!gen_->checkpointable() || snap.workload.empty())
            throw snapshot_error(
                "exact resume requires a generator with a saved cursor");
    }
    if (snap.slots != cfg_.co_located)
        throw snapshot_error("snapshot slot count mismatch");

    machine_.eq().restore_now(snap.now);

    {
        snapshot_reader r(snap.machine);
        machine_.cache().restore_state(r, tasks_.size());
        machine_.dram().restore_state(r);
        if (!r.done())
            throw snapshot_error("snapshot machine section has trailing bytes");
    }

    const std::size_t ncores = cfg_.soc.npu.cores;
    if (snap.free_cores.size() + [&] {
            std::size_t n = 0;
            for (const auto& rs : snap.running) n += rs.cores.size();
            return n;
        }() != ncores)
        throw snapshot_error("snapshot core count mismatch");
    std::vector<bool> seen(ncores, false);
    for (const npu_id c : snap.free_cores) {
        if (c < 0 || static_cast<std::size_t>(c) >= ncores)
            throw snapshot_error("snapshot free-core id out of range");
        if (seen[static_cast<std::size_t>(c)])
            throw snapshot_error("snapshot free-core stack lists core " +
                                 std::to_string(c) + " twice");
        seen[static_cast<std::size_t>(c)] = true;
    }
    free_cores_ = snap.free_cores;

    // In-flight inferences (mid-layer pauses). Models resolve by name
    // against the catalog and the trace; the mapping registry rebuilds the
    // MCTs deterministically, so candidate indices stay valid.
    auto find_model = [this](const std::string& name) -> const model::model* {
        for (const auto* m : cfg_.workload)
            if (m != nullptr && m->name == name) return m;
        for (const auto& a : cfg_.trace)
            if (a.mdl != nullptr && a.mdl->name == name) return a.mdl;
        return nullptr;
    };
    for (const auto& rs : snap.running) {
        if (rs.slot < 0 || static_cast<std::size_t>(rs.slot) >= tasks_.size())
            throw snapshot_error("snapshot running slot out of range");
        if (tasks_[rs.slot].running())
            throw snapshot_error("snapshot running slot appears twice");
        task& t = tasks_[rs.slot];
        t.mdl = find_model(rs.model);
        if (t.mdl == nullptr)
            throw snapshot_error("snapshot running model '" + rs.model +
                                 "' is not in the workload catalog");
        t.mapping = &sim::mapping_for(*t.mdl, cfg_.soc.mapper());
        if (rs.current_layer >= t.mdl->layers.size())
            throw snapshot_error("snapshot running layer out of range");
        t.current_layer = rs.current_layer;
        if (rs.cores.empty())
            throw snapshot_error(
                "snapshot running slot has a malformed core group");
        t.cores.clear();
        for (const npu_id c : rs.cores) {
            if (c < 0 || static_cast<std::size_t>(c) >= ncores)
                throw snapshot_error("snapshot running core id out of range");
            if (seen[static_cast<std::size_t>(c)])
                throw snapshot_error("snapshot core " + std::to_string(c) +
                                     " is both free and assigned (or "
                                     "assigned twice)");
            seen[static_cast<std::size_t>(c)] = true;
            t.cores.push_back(c);
        }
        t.arrival = rs.arrival;
        t.started = rs.started;
        t.deadline = rs.deadline;
        t.t_next = rs.t_next;
        t.p_next = rs.p_next;
        t.lbm_enabled = rs.lbm_enabled;
        t.lbm_block = rs.lbm_block;
        t.dram_bytes_mark = rs.dram_bytes_mark;
        // Re-key the slot's parameter addresses exactly as dispatch did.
        addrs_[rs.slot] = sim::address_map(rs.slot, model_salt(t.mdl->name));
        auto& neg = neg_[rs.slot];
        neg.armed = rs.neg_armed;
        neg.cand = rs.neg_cand;
        neg.pages = rs.neg_pages;
        neg.timeout = rs.neg_timeout;
        if (neg.armed &&
            mapping::candidate_at(t.current_mct(), neg.cand) == nullptr)
            throw snapshot_error(
                "snapshot pending negotiation candidate out of range");
    }
    // Only a running slot's completion releases its pages: pages held by
    // an idle slot would never return to the pool.
    for (const task& t : tasks_)
        if (!t.running() && machine_.cache().pages().allocated(t.id) > 0)
            throw snapshot_error(
                "snapshot slot " + std::to_string(t.id) + " holds " +
                std::to_string(machine_.cache().pages().allocated(t.id)) +
                " cache pages but is not running");

    if (!snap.engine.empty()) {
        snapshot_reader r(snap.engine);
        machine_.layers().restore_state(r, tasks_, addrs_);
        machine_.dma().restore_state(r);
        if (!r.done())
            throw snapshot_error("snapshot engine section has trailing bytes");
    }
    if (!snap.typed_events.empty()) {
        snapshot_reader r(snap.typed_events);
        machine_.eq().restore_typed(r);
        if (!r.done())
            throw snapshot_error(
                "snapshot typed-event section has trailing bytes");
    }

    alg_.set_ahead_ratio(snap.ahead_ratio);
    if (telemetry_saved()) {
        dram_bytes_mark_ = snap.dram_bytes_mark;
        dram_throttled_mark_ = snap.dram_throttled_mark;
        epoch_deadline_ = snap.epoch_deadline;
        if (!snap.telemetry.empty()) {
            snapshot_reader r(snap.telemetry);
            bus_.restore_state(r, /*keep_history=*/mode == resume_mode::exact);
            if (!r.done())
                throw snapshot_error(
                    "snapshot telemetry section has trailing bytes");
        }
    } else {
        // Nothing of a bus that only feeds observers rides the snapshot:
        // their epochs re-anchor at the resume instant.
        dram_bytes_mark_ = machine_.dram().stats().bytes();
        dram_throttled_mark_ = machine_.dram().stats().throttled;
        if (telemetry_on_) bus_.reset(cfg_.co_located, snap.now);
    }
    if (telemetry_on_ && epoch_deadline_ == never)
        epoch_deadline_ = snap.now + adapt::epoch_cycles;
    if (ctl_) {
        if (snap.controller.empty())
            throw snapshot_error(
                "adaptive resume requires controller state in the snapshot");
        snapshot_reader r(snap.controller);
        ctl_->restore_state(r);
        if (!r.done())
            throw snapshot_error(
                "snapshot controller section has trailing bytes");
        if (snap.page_share.size() != page_share_.size())
            throw snapshot_error("snapshot page-share size mismatch");
        std::copy(snap.page_share.begin(), snap.page_share.end(),
                  page_share_.begin());
    }

    for (const auto& q : snap.admission_queue) {
        const model::model* mdl = find_model(q.model);
        if (mdl == nullptr)
            throw snapshot_error("snapshot queued model '" + q.model +
                                 "' is not in the workload catalog");
        if (q.slot != no_task &&
            (q.slot < 0 || static_cast<std::size_t>(q.slot) >= tasks_.size()))
            throw snapshot_error("snapshot queued slot out of range");
        dispatch_queue_.push_back({mdl, q.arrival, q.slot});
    }

    if (mode == resume_mode::exact) {
        {
            snapshot_reader r(snap.workload);
            gen_->restore_state(r);
            if (!r.done())
                throw snapshot_error(
                    "snapshot workload section has trailing bytes");
        }
        if (!snap.results.empty()) {
            snapshot_reader r(snap.results);
            const std::uint64_t n = r.count(4 + 8 * 4 + 4 + 8);
            result_.completions.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                sim::inference_record rec;
                rec.slot = r.i32();
                rec.abbr = r.str();
                rec.arrival = r.u64();
                rec.start = r.u64();
                rec.end = r.u64();
                rec.dram_bytes = r.u64();
                rec.cores = r.u32();
                result_.completions.push_back(std::move(rec));
            }
            if (!r.done())
                throw snapshot_error(
                    "snapshot results section has trailing bytes");
        }
        resume_exact_ = true;
    } else {
        // The old segment's generator events and epoch chain belong to its
        // workload; the new segment's generator and epoch chain arm their
        // own in start_if_needed.
        machine_.eq().cancel(event_channel::sched, kind(sched_event::workload));
        machine_.eq().cancel(event_channel::sched, kind(sched_event::bw_epoch));
    }
    // The restored events keep their saved sequences, so the tie-break
    // counter must move past them before anything new is scheduled
    // (restored-before-new at equal cycles; relative order among new
    // events is unaffected).
    machine_.eq().restore_next_seq(snap.event_seq);
}

scheduler_snapshot scheduler::save() const {
    if (!paused_ && !finalized_)
        throw std::logic_error(
            "scheduler::save: only valid while paused or after completion");

    scheduler_snapshot s;
    s.machine_fingerprint = machine_fingerprint();
    s.run_fingerprint = run_fingerprint();
    s.slots = cfg_.co_located;
    s.now = machine_.eq().now();
    s.event_seq = machine_.eq().next_seq();
    if (telemetry_saved()) {
        s.epoch_deadline = epoch_deadline_;
        s.dram_bytes_mark = dram_bytes_mark_;
        s.dram_throttled_mark = dram_throttled_mark_;
    }
    s.ahead_ratio = alg_.ahead_ratio();

    s.page_share = page_share_;
    s.free_cores = free_cores_;

    s.admission_queue.reserve(dispatch_queue_.size());
    for (const auto& q : dispatch_queue_)
        s.admission_queue.push_back({q.mdl->name, q.arrival, q.slot});

    for (std::size_t sl = 0; sl < tasks_.size(); ++sl) {
        const task& t = tasks_[sl];
        if (!t.running()) continue;
        scheduler_snapshot::running_slot rs;
        rs.slot = t.id;
        rs.model = t.mdl->name;
        rs.current_layer = t.current_layer;
        rs.cores = t.cores;
        rs.arrival = t.arrival;
        rs.started = t.started;
        rs.deadline = t.deadline;
        rs.t_next = t.t_next;
        rs.p_next = t.p_next;
        rs.lbm_enabled = t.lbm_enabled;
        rs.lbm_block = t.lbm_block;
        rs.dram_bytes_mark = t.dram_bytes_mark;
        rs.neg_armed = neg_[sl].armed;
        rs.neg_cand = neg_[sl].cand;
        rs.neg_pages = neg_[sl].pages;
        rs.neg_timeout = neg_[sl].timeout;
        s.running.push_back(std::move(rs));
    }

    {
        snapshot_writer w;
        machine_.cache().save_state(w);
        machine_.dram().save_state(w);
        s.machine = w.take();
    }
    {
        snapshot_writer w;
        machine_.layers().save_state(w);
        machine_.dma().save_state(w);
        s.engine = w.take();
    }
    {
        snapshot_writer w;
        machine_.eq().save_typed(w);
        s.typed_events = w.take();
    }
    if (telemetry_saved()) {
        snapshot_writer w;
        bus_.save_state(w);
        s.telemetry = w.take();
    }
    if (ctl_) {
        snapshot_writer w;
        ctl_->save_state(w);
        s.controller = w.take();
    }
    if (gen_->checkpointable()) {
        snapshot_writer w;
        gen_->save_state(w);
        s.workload = w.take();
    }
    {
        snapshot_writer w;
        w.u64(result_.completions.size());
        for (const auto& rec : result_.completions) {
            w.i32(rec.slot);
            w.str(rec.abbr);
            w.u64(rec.arrival);
            w.u64(rec.start);
            w.u64(rec.end);
            w.u64(rec.dram_bytes);
            w.u32(rec.cores);
        }
        s.results = w.take();
    }
    return s;
}

void scheduler::start_next_segment(workload_generator& gen) {
    if (!paused_ && !finalized_)
        throw std::logic_error(
            "scheduler::start_next_segment: only valid while paused or after "
            "completion");
    if (!gen_->exhausted())
        throw std::logic_error(
            "scheduler::start_next_segment: the previous generator still "
            "owes arrivals");
    if (telemetry_on_ !=
        (cfg_.telemetry || adaptive() || cfg_.obs.wants_epochs()))
        throw std::logic_error(
            "scheduler::start_next_segment: the telemetry setup changed "
            "between segments");
    // Everything below is what a warm resume's fresh scheduler starts with
    // that the live one does not; the rest of the state is already what
    // restore() would rebuild from save(). The epoch timer is cancelled
    // here and re-armed by start_if_needed, as on a resumed machine; the
    // exhausted generator has no events left.
    machine_.eq().cancel(event_channel::sched, kind(sched_event::bw_epoch));
    machine_.eq().restart_counters();
    machine_.attach(cfg_.obs, telemetry_on_ ? &bus_ : nullptr);
    bus_.clear_history();
    result_ = {};
    gen_ = &gen;
    dispatch_hold_after_ = never;
    resume_exact_ = false;
    started_ = paused_ = finalized_ = done_ = false;
}

std::size_t scheduler::running_count() const {
    return static_cast<std::size_t>(
        std::count_if(tasks_.begin(), tasks_.end(),
                      [](const task& t) { return t.running(); }));
}

bool scheduler::all_slots_idle() const {
    return std::none_of(tasks_.begin(), tasks_.end(),
                        [](const task& t) { return t.running(); });
}

std::vector<trace_arrival> scheduler::lift_admission_queue() {
    if (!paused_ && !finalized_)
        throw std::logic_error(
            "scheduler::lift_admission_queue: only valid while paused or "
            "after completion");
    std::vector<trace_arrival> out;
    out.reserve(dispatch_queue_.size());
    for (const auto& q : dispatch_queue_) out.push_back({q.arrival, q.mdl});
    dispatch_queue_.clear();
    return out;
}

std::vector<const task*> scheduler::running_tasks_const() const {
    std::vector<const task*> out;
    for (const auto& t : tasks_)
        if (t.running()) out.push_back(&t);
    return out;
}

std::vector<task*> scheduler::running_tasks() {
    std::vector<task*> out;
    for (auto& t : tasks_)
        if (t.running()) out.push_back(&t);
    return out;
}

std::uint64_t scheduler::est_total_cycles(const task& t) const {
    std::uint64_t sum = 0;
    for (auto e : t.mapping->layer_est) sum += e;
    return sum;
}

void scheduler::at(cycle_t when, std::uint64_t token) {
    machine_.eq().schedule_event(when, sched_ev(sched_event::workload, token));
}

void scheduler::submit(const model::model* mdl, cycle_t arrival,
                       task_id slot) {
    dispatch_queue_.push_back(
        {mdl, std::min(arrival, machine_.eq().now()), slot});
    try_dispatch();
}

void scheduler::update_done() {
    if (dispatch_queue_.empty() && all_slots_idle() && gen_->exhausted()) {
        done_ = true;
        // A drained run must not let the already-armed bandwidth epoch tick
        // on: cancelling it stops the chain and keeps the pending no-op
        // event from inflating the makespan (a cancelled event never
        // advances the clock).
        machine_.eq().cancel(event_channel::sched, kind(sched_event::bw_epoch));
    }
}

void scheduler::schedule_bw_epoch() {
    if (done_ || !use_bw_alloc()) return;
    auto running = running_tasks();
    bw_.reallocate(running, machine_.eq().now());
    machine_.eq().schedule_event(machine_.eq().now() + bw_epoch_cycles,
                                 sched_ev(sched_event::bw_epoch));
}

void scheduler::cut_epoch() {
    adapt::telemetry_bus::cut_sample s;
    const auto& d = machine_.dram().stats();
    s.dram_bytes = d.bytes() - dram_bytes_mark_;
    s.dram_throttled = d.throttled - dram_throttled_mark_;
    dram_bytes_mark_ = d.bytes();
    dram_throttled_mark_ = d.throttled;
    s.peak_bytes_per_cycle = machine_.dram().config().peak_bytes_per_cycle();
    s.idle_pages = machine_.cache().pages().idle_pages();
    const auto& snap = bus_.cut(machine_.eq().now(), s);
    if (auto* p = machine_.probe()) p->epoch_cut(snap, machine_.eq().now());
    if (ctl_) apply_action(ctl_->on_epoch(snap));
}

void scheduler::maybe_cut_epoch() {
    if (machine_.eq().now() < epoch_deadline_) return;
    cut_epoch();
    epoch_deadline_ = machine_.eq().now() + adapt::epoch_cycles;
}

void scheduler::apply_action(const adapt::control_action& a) {
    alg_.set_ahead_ratio(a.ahead_ratio);
    for (std::size_t s = 0; s < page_share_.size() && s < a.page_share.size();
         ++s)
        page_share_[s] = a.page_share[s];
    // Bandwidth caps apply to currently running slots only; idle slots are
    // left unregulated so a fresh dispatch never inherits a stale cap.
    for (std::size_t s = 0; s < a.bw_share.size() && s < tasks_.size(); ++s)
        machine_.dram().set_task_share(static_cast<task_id>(s),
                                       tasks_[s].running() ? a.bw_share[s]
                                                           : 0.0);
}

task_id scheduler::pick_free_slot() const {
    for (const task& t : tasks_)
        if (!t.running()) return t.id;
    return no_task;
}

void scheduler::try_dispatch() {
    const obs::probe::scope host(machine_.probe(), obs::subsystem::sched);
    if (machine_.eq().now() >= dispatch_hold_after_) return;
    while (!dispatch_queue_.empty() && !free_cores_.empty()) {
        // First dispatchable item in FIFO order: a request pinned to a
        // still-busy slot must not head-of-line block later requests whose
        // slot (or any free slot) is available.
        std::size_t idx = 0;
        task_id slot = no_task;
        for (; idx < dispatch_queue_.size(); ++idx) {
            const work_item& cand = dispatch_queue_[idx];
            slot = cand.slot != no_task
                       ? (tasks_[cand.slot].running() ? no_task : cand.slot)
                       : pick_free_slot();
            if (slot != no_task) break;
        }
        if (slot == no_task) return;  // nothing dispatchable right now

        const model::model* mdl = dispatch_queue_[idx].mdl;
        const cycle_t arrival = dispatch_queue_[idx].arrival;
        dispatch_queue_.erase(dispatch_queue_.begin() + idx);

        task& t = tasks_[slot];
        t.mdl = mdl;
        t.mapping = &sim::mapping_for(*mdl, cfg_.soc.mapper());
        t.current_layer = 0;
        // Re-key the slot's parameter addresses to the dispatched model
        // (FNV-1a of the name keeps runs reproducible across processes).
        addrs_[slot] = sim::address_map(slot, model_salt(mdl->name));
        t.arrival = arrival;
        // The deadline anchors at arrival — the same reference the SLA
        // metrics use — so queue delay consumes slack. Closed-loop slots
        // dispatch the moment they submit, where this equals the old
        // driver's now()-anchored deadline bit for bit; open-loop requests
        // that waited for admission arrive at dispatch already urgent.
        t.deadline = cfg_.qos_mode
                         ? arrival +
                               static_cast<cycle_t>(cfg_.qos_scale *
                                                    ms_to_cycles(mdl->qos_ms))
                         : never;

        // Core-group sizing. QoS mode sizes groups by deadline slack
        // (AuRORA's policy, also adopted by CaMDN in the QoS experiment);
        // throughput mode spreads idle cores evenly across every policy so
        // low co-location points compare systems, not core counts.
        std::uint32_t want = 1;
        if (use_npu_alloc() && t.deadline != never) {
            const double est = static_cast<double>(est_total_cycles(t));
            const double window = static_cast<double>(
                t.deadline > machine_.eq().now()
                    ? t.deadline - machine_.eq().now()
                    : 1);
            want = static_cast<std::uint32_t>(
                std::clamp(est / window + 0.999, 1.0, 4.0));
        } else if (!cfg_.qos_mode && cfg_.spread_idle_cores &&
                   cfg_.co_located < cfg_.soc.npu.cores) {
            want = std::min<std::uint32_t>(
                4, cfg_.soc.npu.cores / cfg_.co_located);
        }
        want = std::min<std::uint32_t>(
            want, static_cast<std::uint32_t>(free_cores_.size()));
        want = std::max<std::uint32_t>(want, 1);

        t.cores.clear();
        for (std::uint32_t i = 0; i < want; ++i) {
            t.cores.push_back(free_cores_.back());
            free_cores_.pop_back();
        }

        begin_inference(t);
    }
}

void scheduler::begin_inference(task& t) {
    t.started = machine_.eq().now();
    if (auto* p = machine_.probe())
        p->inference_start(t.id, t.mdl->abbr, t.arrival, t.started);
    neg_[t.id] = {};
    t.dram_bytes_mark = machine_.dram().task_bytes(t.id);
    t.lbm_enabled = false;
    t.t_next = machine_.eq().now();
    t.p_next = 0;

    if (cfg_.pol == sim::policy::camdn_hw_only) {
        // Equal static split of the NPU subspace, granted once per
        // inference; no dynamic adjustment afterwards.
        const std::uint32_t share =
            machine_.cache().pages().total_pages() / cfg_.co_located;
        const std::uint32_t have = machine_.cache().pages().allocated(t.id);
        if (share > have)
            machine_.cache().pages().try_allocate(t.id, share - have);
    }

    begin_layer(t);
}

void scheduler::begin_layer(task& t) {
    maybe_cut_epoch();

    // Bandwidth-partitioning policies track layer changes: demands shift at
    // layer granularity, so shares are refreshed here as well as at epochs.
    if (use_bw_alloc()) {
        auto running = running_tasks();
        bw_.reallocate(running, machine_.eq().now());
    }

    const mapping::mct& table = t.current_mct();

    switch (cfg_.pol) {
        case sim::policy::shared_baseline:
        case sim::policy::moca:
        case sim::policy::aurora:
            run_layer(t, table.minimal());
            return;

        case sim::policy::camdn_hw_only: {
            // Architecture only: the static share bounds the LWM candidate;
            // LBM and prediction belong to the scheduling method (Full).
            run_layer(t, table.largest_lwm_within(
                             machine_.cache().pages().allocated(t.id)));
            return;
        }

        case sim::policy::camdn_full:
        case sim::policy::camdn_adaptive: {
            auto running = running_tasks_const();
            auto decision = alg_.select(t, running, machine_.cache().pages(),
                                        machine_.eq().now(), cfg_.features.lbm);
            negotiate_pages(t, decision);
            return;
        }
    }
}

void scheduler::negotiate_pages(task& t, allocation_decision d) {
    auto& pool = machine_.cache().pages();
    const std::uint32_t target = d.pages_needed;
    const std::uint32_t have = pool.allocated(t.id);

    // Shrink first: excess pages return to the pool immediately.
    if (have > target) pool.release(t.id, have - target);
    if (have < target) {
        if (!pool.try_allocate(t.id, target - have)) {
            const cycle_t now = machine_.eq().now();
            if (d.timeout != never && now >= d.timeout) {
                // Timeout: fall back to the next-smaller candidate.
                if (auto* p = machine_.probe())
                    p->page_timeout(t.id, now, d.candidate->is_lbm);
                negotiate_pages(
                    t, alg_.downgrade(t, d.candidate->pages_needed, now));
                return;
            }
            const cycle_t retry =
                std::min(d.timeout, now + page_retry_cycles);
            // Who holds the pages this wait is gated on: the co-located
            // slots' current allocations apportion the blame.
            if (auto* p = machine_.probe())
                p->page_wait(t.id, now, retry, cfg_.co_located,
                             [&pool](std::uint32_t s) {
                                 return pool.allocated(static_cast<task_id>(s));
                             });
            // The retry is a typed event: the decision's payload lands in
            // the slot's pending_negotiation record so a mid-wait
            // checkpoint can rebuild it.
            auto& neg = neg_[t.id];
            neg.armed = true;
            neg.cand = mapping::candidate_index(t.current_mct(), d.candidate);
            neg.pages = d.pages_needed;
            neg.timeout = d.timeout;
            machine_.eq().schedule_event(
                retry, sched_ev(sched_event::page_retry,
                                static_cast<std::uint64_t>(t.id)));
            return;
        }
    }
    grant_and_run(t, d);
}

void scheduler::grant_and_run(task& t, const allocation_decision& d) {
    if (d.candidate->is_lbm && !t.lbm_enabled) {
        t.lbm_enabled = true;
        t.lbm_block = t.mapping->block_of[t.current_layer];
    }
    // Publish the Algorithm 1 prediction state: the co-runners see when
    // this task will reallocate next and how many pages it expects to use.
    t.t_next = machine_.eq().now() + d.candidate->est_cycles;
    t.p_next = predict_next_pages(t);
    run_layer(t, *d.candidate);
}

std::uint32_t scheduler::predict_next_pages(const task& t) {
    const std::uint32_t next = t.current_layer + 1;
    if (next >= t.mdl->layers.size()) return 0;
    const mapping::mct& table = t.mapping->tables[next];
    if (t.lbm_enabled && t.mapping->block_of[next] == t.lbm_block && table.lbm)
        return table.lbm->pages_needed;
    // Predicted steady-state demand: the largest candidate within the
    // equal split — co-runners converge to their fair share, so pages held
    // beyond it are expected to come back to the pool. Under adaptive
    // control the split tracks the observed competitor count instead of
    // the configured slot count.
    const std::uint32_t fair =
        adaptive() && t.id >= 0 &&
                static_cast<std::size_t>(t.id) < page_share_.size()
            ? page_share_[t.id]
            : machine_.cache().pages().total_pages() / cfg_.co_located;
    return table.largest_lwm_within(fair).pages_needed;
}

void scheduler::on_sched_event(const typed_event& ev) {
    switch (static_cast<sched_event>(ev.kind)) {
        case sched_event::page_retry:
            if (ev.a >= neg_.size())
                throw std::logic_error("page_retry event for slot " +
                                       std::to_string(ev.a) +
                                       " past the slot table");
            on_page_retry(static_cast<task_id>(ev.a));
            return;
        case sched_event::workload:
            // A generator event can change exhausted(): re-evaluating
            // completion lets a drained open-loop run end its epoch chain.
            gen_->on_event(*this, ev.a);
            update_done();
            return;
        case sched_event::bw_epoch:
            schedule_bw_epoch();
            return;
    }
    throw std::logic_error("unknown sched event kind " +
                           std::to_string(ev.kind));
}

void scheduler::on_page_retry(task_id slot) {
    const obs::probe::scope host(machine_.probe(), obs::subsystem::sched);
    auto& neg = neg_[slot];
    if (!neg.armed) return;  // superseded (defensive; retries arm 1:1)
    neg.armed = false;
    task& t = tasks_[slot];
    allocation_decision d;
    d.candidate = mapping::candidate_at(t.current_mct(), neg.cand);
    d.pages_needed = neg.pages;
    d.timeout = neg.timeout;
    assert(d.candidate != nullptr && "armed negotiation must resolve");
    negotiate_pages(t, d);
}

void scheduler::run_layer(task& t, const mapping::mapping_candidate& cand) {
    machine_.layers().start(t, cand, addrs_[t.id]);
}

void scheduler::end_layer(task& t, cycle_t end) {
    const obs::probe::scope host(machine_.probe(), obs::subsystem::sched);
    maybe_cut_epoch();
    t.t_next = end;  // reallocating right now

    if (sim::is_camdn_dynamic(cfg_.pol) && t.lbm_enabled &&
        t.mapping->is_block_tail(t.current_layer)) {
        // The block's intermediates are dead; return the arena promptly.
        machine_.cache().pages().release_all(t.id);
        t.lbm_enabled = false;
    }

    t.current_layer += 1;
    if (t.current_layer < t.mdl->layers.size()) {
        begin_layer(t);
    } else {
        end_inference(t, end);
    }
}

void scheduler::end_inference(task& t, cycle_t end) {
    if (auto* p = machine_.probe())
        p->completion(t.id, t.mdl->abbr,
                      static_cast<std::uint32_t>(t.cores.size()), t.arrival,
                      t.started, end, t.deadline);
    if (sim::is_camdn(cfg_.pol)) {
        machine_.cache().pages().release_all(t.id);
        t.lbm_enabled = false;
    }
    machine_.dram().set_task_share(t.id, 0.0);

    sim::inference_record rec;
    rec.slot = t.id;
    rec.abbr = t.mdl->abbr;
    rec.arrival = t.arrival;
    rec.start = t.started;
    rec.end = end;
    rec.cores = static_cast<std::uint32_t>(t.cores.size());
    rec.dram_bytes = machine_.dram().task_bytes(t.id) - t.dram_bytes_mark;
    result_.completions.push_back(std::move(rec));

    for (npu_id c : t.cores) free_cores_.push_back(c);
    t.cores.clear();

    completion_info info;
    info.slot = t.id;
    info.mdl = t.mdl;
    info.arrival = t.arrival;
    info.start = t.started;
    info.end = end;
    gen_->on_complete(*this, info);
    update_done();
    try_dispatch();
}

void scheduler::start_if_needed() {
    if (started_) return;
    started_ = true;

    if (resume_exact_) {
        // The pending work came back with the typed section under its
        // saved sequences; nothing is re-armed.
        update_done();
        // A held snapshot (run_segment_hold_dispatch) cancelled the
        // bandwidth-epoch chain before saving; there is no continuous
        // reference to phase-match, so re-arm it fresh like a warm resume.
        if (!done_ &&
            machine_.eq().pending(event_channel::sched,
                                  kind(sched_event::bw_epoch)) == 0)
            schedule_bw_epoch();
        try_dispatch();
        return;
    }

    if (telemetry_on_ && epoch_deadline_ == never)
        epoch_deadline_ = adapt::epoch_cycles;

    gen_->start(*this);
    update_done();
    schedule_bw_epoch();
    try_dispatch();
}

bool scheduler::at_pause_point() {
    if (done_) return false;
    // All same-cycle activity must have drained: the next event has to be
    // strictly in the future. In-flight work is fine — every pending event
    // is a typed record and serializes with the queue.
    return machine_.eq().next_time() > machine_.eq().now();
}

bool scheduler::run_segment(cycle_t boundary) {
    if (finalized_) return false;
    start_if_needed();
    paused_ = false;
    if (dispatch_hold_after_ != never) {
        // Continuing past a held pause lifts the hold: the carried backlog
        // dispatches now.
        dispatch_hold_after_ = never;
        try_dispatch();
    }

    auto& eq = machine_.eq();
    // Chunk-event coalescing may not run past the pause boundary: a
    // coalesced continuation at or beyond it would skip the pause check
    // this loop performs between step()s. Below the boundary no pause can
    // trigger, so the horizon is exactly the boundary (exclusive).
    eq.set_inline_horizon(boundary);
    while (true) {
        if (!done_ && eq.now() >= boundary && at_pause_point()) {
            paused_ = true;
            eq.set_inline_horizon(0);
            return true;
        }
        if (!eq.step()) break;
    }
    eq.set_inline_horizon(0);
    finalize();
    return false;
}

bool scheduler::run_segment_hold_dispatch(cycle_t hold_after) {
    if (finalized_) return false;
    start_if_needed();
    paused_ = false;
    dispatch_hold_after_ = hold_after;
    try_dispatch();  // a backlog held by an earlier segment may now be due

    auto& eq = machine_.eq();
    // The held pause requires no running inference, and a DMA chunk chain
    // only exists under a running layer — a coalesced continuation can
    // never skip this loop's pause check, so the horizon is unbounded.
    eq.set_inline_horizon(never);
    while (true) {
        // Held boundary: every arrival has fired (into the queue or onto
        // the floor), no inference is running, and nothing further is due
        // this cycle. The only pending event can be the bandwidth-epoch
        // timer, which is cancelled — a warm resume re-arms it.
        if (!done_ && all_slots_idle() && gen_->exhausted()) {
            eq.cancel(event_channel::sched, kind(sched_event::bw_epoch));
            if (eq.next_time() > eq.now()) {
                paused_ = true;
                eq.set_inline_horizon(0);
                return true;
            }
        }
        if (!eq.step()) break;
    }
    eq.set_inline_horizon(0);
    dispatch_hold_after_ = never;
    finalize();
    return false;
}

void scheduler::fill_result() {
    result_.makespan = machine_.eq().now();
    result_.cache_stats = machine_.cache().stats();
    result_.dram_stats = machine_.dram().stats();
    result_.dram_total_bytes = machine_.dram().stats().bytes();
    result_.events_executed = machine_.eq().executed_events();
    result_.rejected_arrivals = gen_->rejected();
    if (const percentile_tracker* delays = gen_->queue_delays_ms())
        result_.queue_delay_ms = *delays;
    if (telemetry_on_) {
        // Close the trailing partial epoch so every counted event lands in
        // exactly one exported snapshot.
        if (bus_.open_epoch_active()) cut_epoch();
        result_.telemetry = bus_.history();
    }
    if (auto* p = machine_.probe()) p->run_totals(machine_.eq());
}

void scheduler::finalize() {
    if (finalized_) return;
    assert(dispatch_queue_.empty() && all_slots_idle() &&
           "experiment ended with live inferences");
    assert(gen_->exhausted() && "experiment ended with pending arrivals");
    fill_result();
    finalized_ = true;
}

sim::experiment_result scheduler::segment_result() {
    if (!paused_ && !finalized_)
        throw std::logic_error(
            "scheduler::segment_result: only valid while paused or after "
            "completion");
    if (!finalized_) {
        fill_result();
        // The boundary cut closed an epoch; start the next segment's first
        // epoch at the boundary rather than the stale deadline.
        if (telemetry_on_)
            epoch_deadline_ = machine_.eq().now() + adapt::epoch_cycles;
    }
    return result_;
}

sim::experiment_result scheduler::run() {
    run_segment(never);
    return result_;
}

}  // namespace camdn::runtime
