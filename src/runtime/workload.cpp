#include "runtime/workload.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "sim/experiment.h"

namespace camdn::runtime {

mmpp_clock::mmpp_clock(double base_rate_per_ms, std::vector<double> rate_scale,
                       double sojourn_ms, rng& r)
    : scale_(rate_scale.empty() ? std::vector<double>{1.0}
                                : std::move(rate_scale)),
      base_(std::max(base_rate_per_ms, 1e-9)),
      sojourn_(std::max(sojourn_ms, 1e-6)),
      r_(r),
      state_end_ms_(-std::log(1.0 - r.next_double()) * sojourn_) {}

double mmpp_clock::next_arrival_ms() {
    double rate = base_ * std::max(scale_[state_], 1e-9);
    double gap_ms = -std::log(1.0 - r_.next_double()) / rate;
    while (t_ms_ + gap_ms > state_end_ms_) {
        t_ms_ = state_end_ms_;
        state_ = (state_ + 1) % scale_.size();
        state_end_ms_ += -std::log(1.0 - r_.next_double()) * sojourn_;
        rate = base_ * std::max(scale_[state_], 1e-9);
        gap_ms = -std::log(1.0 - r_.next_double()) / rate;
    }
    t_ms_ += gap_ms;
    return t_ms_;
}

namespace {

// The paper's scenario: co_located slots, each with a pre-generated random
// model sequence, re-dispatching as soon as the previous inference ends.
// An optional think time models interactive users: the re-dispatch is
// delayed by `think_cycles` after each completion (think_cycles == 0
// preserves the immediate-re-dispatch path bit for bit). Thinking slots
// make mid-run checkpoint boundaries reachable — instants where every slot
// is between inferences.
class closed_loop_generator final : public workload_generator {
public:
    closed_loop_generator(const std::vector<const model::model*>& models,
                          std::uint32_t slots,
                          std::uint32_t inferences_per_slot, std::uint64_t seed,
                          cycle_t think_cycles = 0)
        : inferences_per_slot_(inferences_per_slot),
          think_cycles_(think_cycles),
          plan_(slots),
          next_(slots, 0),
          pending_(slots) {
        // Pre-generate the random model sequence per slot so every policy
        // sees the identical workload (paper: random dispatch, fair
        // comparison). The rng call sequence matches the original driver,
        // keeping runs bit-identical under the same seed.
        rng r(seed);
        for (auto& p : plan_) {
            p.reserve(inferences_per_slot);
            for (std::uint32_t j = 0; j < inferences_per_slot; ++j)
                p.push_back(models[r.next_below(models.size())]);
        }
    }

    void start(workload_control& ctl) override {
        ctl_ = &ctl;
        if (inferences_per_slot_ == 0) return;
        live_slots_ = static_cast<std::uint32_t>(plan_.size());
        for (std::size_t s = 0; s < plan_.size(); ++s)
            ctl.submit(plan_[s][0], ctl.now(), static_cast<task_id>(s));
    }

    void on_complete(workload_control& ctl, const completion_info& c) override {
        next_[c.slot] += 1;
        if (next_[c.slot] >= inferences_per_slot_) {
            live_slots_ -= 1;
            return;
        }
        if (think_cycles_ == 0) {
            ctl.submit(plan_[c.slot][next_[c.slot]], ctl.now(), c.slot);
            return;
        }
        auto& p = pending_[c.slot];
        p.armed = true;
        p.when = c.end + think_cycles_;
        p.seq = ctl.at(p.when, [this, slot = c.slot] { fire(slot); });
    }

    bool exhausted() const override { return live_slots_ == 0; }

    // ---- checkpoint support ----

    bool checkpointable() const override { return true; }

    void save_state(snapshot_writer& w) const override {
        w.u32(live_slots_);
        w.u64(next_.size());
        for (const std::uint32_t n : next_) w.u32(n);
        w.u64(pending_.size());
        for (const auto& p : pending_) {
            w.b(p.armed);
            w.u64(p.when);
            w.u64(p.seq);
        }
    }

    void restore_state(snapshot_reader& r) override {
        live_slots_ = r.u32();
        if (r.count(4) != next_.size())
            throw snapshot_error("snapshot closed-loop slot-count mismatch");
        for (auto& n : next_) n = r.u32();
        if (r.count(17) != pending_.size())
            throw snapshot_error("snapshot closed-loop slot-count mismatch");
        for (auto& p : pending_) {
            p.armed = r.b();
            p.when = r.u64();
            p.seq = r.u64();
        }
    }

    void resume(workload_control& ctl) override {
        ctl_ = &ctl;
        for (std::size_t s = 0; s < pending_.size(); ++s)
            if (pending_[s].armed)
                ctl.at_restored(pending_[s].when, pending_[s].seq,
                                [this, slot = static_cast<task_id>(s)] {
                                    fire(slot);
                                });
    }

private:
    void fire(task_id slot) {
        pending_[slot].armed = false;
        ctl_->submit(plan_[slot][next_[slot]], ctl_->now(), slot);
    }

    /// A scheduled think-time re-dispatch (so a checkpoint can re-arm it).
    struct pending_submit {
        bool armed = false;
        cycle_t when = 0;
        std::uint64_t seq = 0;
    };

    std::uint32_t inferences_per_slot_;
    cycle_t think_cycles_;
    std::vector<std::vector<const model::model*>> plan_;
    std::vector<std::uint32_t> next_;
    std::vector<pending_submit> pending_;
    workload_control* ctl_ = nullptr;
    std::uint32_t live_slots_ = 0;
};

// Closed-loop + churn hybrid: the paper's N-slot closed loop (think time
// included) whose model choice rotates with the churn window. The
// within-window pick of slot s's j-th inference is pre-drawn from the
// seed; only the window base depends on the dispatch cycle, so the same
// simulated schedule always serves the same models while a slot's tenant
// still swaps mid-run — each swap tears down the previous model's CPT and
// region state under whatever adaptation is active.
class closed_loop_churn_generator final : public workload_generator {
public:
    closed_loop_churn_generator(const std::vector<const model::model*>& models,
                                std::uint32_t slots,
                                std::uint32_t inferences_per_slot,
                                std::uint64_t seed, cycle_t think_cycles,
                                cycle_t interval_cycles, std::uint32_t active)
        : models_(models),
          inferences_per_slot_(inferences_per_slot),
          think_cycles_(think_cycles),
          interval_cycles_(std::max<cycle_t>(interval_cycles, 1)),
          window_(std::min<std::size_t>(models.size(),
                                        std::max<std::uint32_t>(active, 1))),
          picks_(slots),
          next_(slots, 0),
          pending_(slots) {
        rng r(seed);
        for (auto& p : picks_) {
            p.reserve(inferences_per_slot);
            for (std::uint32_t j = 0; j < inferences_per_slot; ++j)
                p.push_back(static_cast<std::uint32_t>(r.next_below(window_)));
        }
    }

    void start(workload_control& ctl) override {
        ctl_ = &ctl;
        if (inferences_per_slot_ == 0) return;
        live_slots_ = static_cast<std::uint32_t>(picks_.size());
        for (std::size_t s = 0; s < picks_.size(); ++s)
            ctl.submit(model_at(s, 0, ctl.now()), ctl.now(),
                       static_cast<task_id>(s));
    }

    void on_complete(workload_control& ctl, const completion_info& c) override {
        next_[c.slot] += 1;
        if (next_[c.slot] >= inferences_per_slot_) {
            live_slots_ -= 1;
            return;
        }
        if (think_cycles_ == 0) {
            ctl.submit(model_at(c.slot, next_[c.slot], ctl.now()), ctl.now(),
                       c.slot);
            return;
        }
        auto& p = pending_[c.slot];
        p.armed = true;
        p.when = c.end + think_cycles_;
        p.seq = ctl.at(p.when, [this, slot = c.slot] { fire(slot); });
    }

    bool exhausted() const override { return live_slots_ == 0; }

    // ---- checkpoint support (same cursor shape as closed_loop) ----

    bool checkpointable() const override { return true; }

    void save_state(snapshot_writer& w) const override {
        w.u32(live_slots_);
        w.u64(next_.size());
        for (const std::uint32_t n : next_) w.u32(n);
        w.u64(pending_.size());
        for (const auto& p : pending_) {
            w.b(p.armed);
            w.u64(p.when);
            w.u64(p.seq);
        }
    }

    void restore_state(snapshot_reader& r) override {
        live_slots_ = r.u32();
        if (r.count(4) != next_.size())
            throw snapshot_error(
                "snapshot closed-loop-churn slot-count mismatch");
        for (auto& n : next_) n = r.u32();
        if (r.count(17) != pending_.size())
            throw snapshot_error(
                "snapshot closed-loop-churn slot-count mismatch");
        for (auto& p : pending_) {
            p.armed = r.b();
            p.when = r.u64();
            p.seq = r.u64();
        }
    }

    void resume(workload_control& ctl) override {
        ctl_ = &ctl;
        for (std::size_t s = 0; s < pending_.size(); ++s)
            if (pending_[s].armed)
                ctl.at_restored(pending_[s].when, pending_[s].seq,
                                [this, slot = static_cast<task_id>(s)] {
                                    fire(slot);
                                });
    }

private:
    /// The model slot `s` serves for its inference `j` when dispatched at
    /// `now`: the churn phase selects the catalog window, the pre-drawn
    /// pick selects within it.
    const model::model* model_at(std::size_t s, std::uint32_t j,
                                 cycle_t now) const {
        const std::size_t phase =
            static_cast<std::size_t>(now / interval_cycles_);
        const std::size_t base = (phase * window_) % models_.size();
        return models_[(base + picks_[s][j]) % models_.size()];
    }

    void fire(task_id slot) {
        pending_[slot].armed = false;
        ctl_->submit(model_at(slot, next_[slot], ctl_->now()), ctl_->now(),
                     slot);
    }

    /// A scheduled think-time re-dispatch (so a checkpoint can re-arm it).
    struct pending_submit {
        bool armed = false;
        cycle_t when = 0;
        std::uint64_t seq = 0;
    };

    std::vector<const model::model*> models_;
    std::uint32_t inferences_per_slot_;
    cycle_t think_cycles_;
    cycle_t interval_cycles_;
    std::size_t window_;
    std::vector<std::vector<std::uint32_t>> picks_;
    std::vector<std::uint32_t> next_;
    std::vector<pending_submit> pending_;
    workload_control* ctl_ = nullptr;
    std::uint32_t live_slots_ = 0;
};

// Shared arrival-list machinery of the rate-driven generators: fires a
// pre-built (time, model) list against a bounded admission queue and
// tracks queue-delay percentiles of whatever completes.
class arrival_list_generator : public workload_generator {
public:
    explicit arrival_list_generator(std::uint32_t queue_limit)
        : queue_limit_(queue_limit) {}

    void start(workload_control& ctl) override {
        ctl_ = &ctl;
        for (std::size_t i = 0; i < arrivals_.size(); ++i) {
            const std::uint64_t seq =
                ctl.at(arrivals_[i].at, [this, i] { arrive(i); });
            if (i == 0) base_seq_ = seq;
        }
    }

    void on_complete(workload_control&, const completion_info& c) override {
        queue_delays_.add(cycles_to_ms(c.start - c.arrival));
    }

    bool exhausted() const override { return fired_ == arrivals_.size(); }

    std::uint64_t rejected() const override { return rejected_; }

    const percentile_tracker* queue_delays_ms() const override {
        return &queue_delays_;
    }

    // ---- checkpoint support ----
    //
    // The arrival list itself is a pure function of the construction
    // parameters (the derived class rebuilds it from the config), so the
    // cursor is just the fired-arrival count plus the measurement state.
    // Arrival event ids are consecutive from base_seq_ — start() schedules
    // the whole list back to back before any other event exists.

    bool checkpointable() const override { return true; }

    void save_state(snapshot_writer& w) const override {
        w.u64(fired_);
        w.u64(rejected_);
        w.u64(base_seq_);
        const auto& samples = queue_delays_.sorted_samples();
        w.u64(samples.size());
        for (const double s : samples) w.d(s);
    }

    void restore_state(snapshot_reader& r) override {
        fired_ = static_cast<std::size_t>(r.u64());
        if (fired_ > arrivals_.size())
            throw snapshot_error(
                "snapshot arrival cursor beyond the arrival list");
        rejected_ = r.u64();
        base_seq_ = r.u64();
        const std::uint64_t n = r.count(8);
        std::vector<double> samples(n);
        for (auto& s : samples) s = r.d();
        queue_delays_.assign(std::move(samples));
    }

    void resume(workload_control& ctl) override {
        ctl_ = &ctl;
        // Arrivals fire in time order (the list is ascending), so the
        // fired count is a prefix: re-arm exactly the suffix.
        for (std::size_t i = fired_; i < arrivals_.size(); ++i)
            ctl.at_restored(arrivals_[i].at, base_seq_ + i,
                            [this, i] { arrive(i); });
    }

protected:
    std::vector<trace_arrival> arrivals_;

private:
    void arrive(std::size_t i) {
        fired_ += 1;
        if (ctl_->pending() >= queue_limit_) {
            rejected_ += 1;
            return;
        }
        ctl_->submit(arrivals_[i].mdl, arrivals_[i].at);
    }

    std::uint32_t queue_limit_;
    workload_control* ctl_ = nullptr;
    std::size_t fired_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t base_seq_ = 0;
    percentile_tracker queue_delays_;
};

// Open-loop serving: Poisson arrivals at a fixed mean rate, dropped when
// the admission queue is full. Arrival times and model choices are drawn
// up front, so the pattern is a pure function of the seed.
class open_loop_generator final : public arrival_list_generator {
public:
    open_loop_generator(const std::vector<const model::model*>& models,
                        double rate_per_ms, std::uint32_t total,
                        std::uint32_t queue_limit, std::uint64_t seed)
        : arrival_list_generator(queue_limit) {
        rng r(seed);
        const double rate = std::max(rate_per_ms, 1e-9);
        cycle_t t = 0;
        arrivals_.reserve(total);
        for (std::uint32_t i = 0; i < total; ++i) {
            const double gap_ms = -std::log(1.0 - r.next_double()) / rate;
            t += std::max<cycle_t>(1, ms_to_cycles(gap_ms));
            arrivals_.push_back({t, models[r.next_below(models.size())]});
        }
    }
};

// Bursty / diurnal serving: a Markov-modulated Poisson process (see
// mmpp_clock). The whole pattern (state path and arrivals) is drawn up
// front from the seed.
class mmpp_generator final : public arrival_list_generator {
public:
    mmpp_generator(const std::vector<const model::model*>& models,
                   double base_rate_per_ms, std::vector<double> rate_scale,
                   double sojourn_ms, std::uint32_t total,
                   std::uint32_t queue_limit, std::uint64_t seed)
        : arrival_list_generator(queue_limit) {
        rng r(seed);
        mmpp_clock clock(base_rate_per_ms, std::move(rate_scale), sojourn_ms,
                         r);
        cycle_t t = 0;
        arrivals_.reserve(total);
        for (std::uint32_t i = 0; i < total; ++i) {
            t = std::max<cycle_t>(t + 1, ms_to_cycles(clock.next_arrival_ms()));
            arrivals_.push_back({t, models[r.next_below(models.size())]});
        }
    }
};

// Tenant churn: Poisson arrivals whose model population rotates. Phase p
// serves the catalog window starting at p * active (wrapping), so tenants
// continually join and leave — the drifting-mix scenario the adaptive
// controller has to follow.
class churn_generator final : public arrival_list_generator {
public:
    churn_generator(const std::vector<const model::model*>& models,
                    double rate_per_ms, double interval_ms,
                    std::uint32_t active, std::uint32_t total,
                    std::uint32_t queue_limit, std::uint64_t seed)
        : arrival_list_generator(queue_limit) {
        rng r(seed);
        const double rate = std::max(rate_per_ms, 1e-9);
        const double interval = std::max(interval_ms, 1e-6);
        const std::size_t window = std::min<std::size_t>(
            models.size(), std::max<std::uint32_t>(active, 1));
        double t_ms = 0.0;
        cycle_t t = 0;
        arrivals_.reserve(total);
        for (std::uint32_t i = 0; i < total; ++i) {
            t_ms += -std::log(1.0 - r.next_double()) / rate;
            t = std::max<cycle_t>(t + 1, ms_to_cycles(t_ms));
            const std::size_t phase =
                static_cast<std::size_t>(t_ms / interval);
            const std::size_t base = (phase * window) % models.size();
            const std::size_t pick =
                (base + r.next_below(window)) % models.size();
            arrivals_.push_back({t, models[pick]});
        }
    }
};

// Replays an explicit arrival list (e.g. captured from a production log,
// or the per-SoC share a cluster router produced) against the same bounded
// admission queue as the open-loop path.
class trace_generator final : public arrival_list_generator {
public:
    trace_generator(std::vector<trace_arrival> trace, std::uint32_t queue_limit)
        : arrival_list_generator(queue_limit) {
        arrivals_ = std::move(trace);
        arrivals_.erase(std::remove_if(arrivals_.begin(), arrivals_.end(),
                                       [](const trace_arrival& a) {
                                           return a.mdl == nullptr;
                                       }),
                        arrivals_.end());
        std::stable_sort(arrivals_.begin(), arrivals_.end(),
                         [](const trace_arrival& a, const trace_arrival& b) {
                             return a.at < b.at;
                         });
    }
};

}  // namespace

std::unique_ptr<workload_generator> make_workload_generator(
    const sim::experiment_config& cfg) {
    switch (cfg.kind) {
        case workload_kind::closed_loop:
            return std::make_unique<closed_loop_generator>(
                cfg.workload, cfg.co_located, cfg.inferences_per_slot,
                cfg.seed,
                cfg.think_time_ms > 0.0 ? ms_to_cycles(cfg.think_time_ms)
                                        : 0);
        case workload_kind::open_loop_poisson:
            return std::make_unique<open_loop_generator>(
                cfg.workload, cfg.arrival_rate_per_ms, cfg.total_arrivals,
                cfg.admission_queue_limit, cfg.seed);
        case workload_kind::trace_replay:
            return std::make_unique<trace_generator>(cfg.trace,
                                                     cfg.admission_queue_limit);
        case workload_kind::open_loop_mmpp:
            return std::make_unique<mmpp_generator>(
                cfg.workload, cfg.arrival_rate_per_ms, cfg.mmpp_rate_scale,
                cfg.mmpp_sojourn_ms, cfg.total_arrivals,
                cfg.admission_queue_limit, cfg.seed);
        case workload_kind::tenant_churn:
            return std::make_unique<churn_generator>(
                cfg.workload, cfg.arrival_rate_per_ms, cfg.churn_interval_ms,
                cfg.churn_active_models, cfg.total_arrivals,
                cfg.admission_queue_limit, cfg.seed);
        case workload_kind::closed_loop_churn:
            return std::make_unique<closed_loop_churn_generator>(
                cfg.workload, cfg.co_located, cfg.inferences_per_slot,
                cfg.seed,
                cfg.think_time_ms > 0.0 ? ms_to_cycles(cfg.think_time_ms) : 0,
                ms_to_cycles(cfg.churn_interval_ms), cfg.churn_active_models);
    }
    return nullptr;  // unreachable
}

}  // namespace camdn::runtime
