#include "runtime/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
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

// The paper's scenario: co_located slots, each with a pre-drawn random
// model sequence, re-dispatching as soon as the previous inference ends.
// An optional think time models interactive users: the re-dispatch is
// delayed by `think_cycles` after each completion (think_cycles == 0
// re-dispatches inline). Thinking slots make mid-run checkpoint boundaries
// reachable — instants where every slot is between inferences.
//
// Under churn (closed_loop_churn) the model choice rotates with the churn
// window. The within-window pick of slot s's j-th inference is pre-drawn
// from the seed; only the window base depends on the dispatch cycle, so
// the same simulated schedule always serves the same models while a slot's
// tenant still swaps mid-run — each swap tears down the previous model's
// CPT and region state under whatever adaptation is active. The plain
// closed loop is one window over the whole catalog that never rotates: it
// makes the same next_below(models.size()) draws it always made, so runs
// stay bit-identical under the same seed.
class closed_loop_generator final : public workload_generator {
public:
    closed_loop_generator(const std::vector<const model::model*>& models,
                          std::uint32_t slots,
                          std::uint32_t inferences_per_slot, std::uint64_t seed,
                          cycle_t think_cycles, cycle_t interval_cycles,
                          std::size_t active)
        : models_(models),
          inferences_per_slot_(inferences_per_slot),
          think_cycles_(think_cycles),
          interval_cycles_(std::max<cycle_t>(interval_cycles, 1)),
          window_(std::min<std::size_t>(models.size(),
                                        std::max<std::size_t>(active, 1))),
          picks_(slots),
          next_(slots, 0) {
        rng r(seed);
        for (auto& p : picks_) {
            p.reserve(inferences_per_slot);
            for (std::uint32_t j = 0; j < inferences_per_slot; ++j)
                p.push_back(static_cast<std::uint32_t>(r.next_below(window_)));
        }
    }

    void start(workload_control& ctl) override {
        if (inferences_per_slot_ == 0) return;
        live_slots_ = static_cast<std::uint32_t>(picks_.size());
        for (std::size_t s = 0; s < picks_.size(); ++s)
            dispatch(ctl, static_cast<task_id>(s));
    }

    /// A think-time re-dispatch of slot `token` came due.
    void on_event(workload_control& ctl, std::uint64_t token) override {
        if (token >= next_.size() || next_[token] >= inferences_per_slot_)
            throw std::logic_error("closed-loop event for slot " +
                                   std::to_string(token) +
                                   ", which owes no re-dispatch");
        dispatch(ctl, static_cast<task_id>(token));
    }

    void on_complete(workload_control& ctl, const completion_info& c) override {
        next_[c.slot] += 1;
        if (next_[c.slot] >= inferences_per_slot_) {
            live_slots_ -= 1;
            return;
        }
        if (think_cycles_ == 0)
            dispatch(ctl, c.slot);
        else
            ctl.at(c.end + think_cycles_, static_cast<std::uint64_t>(c.slot));
    }

    bool exhausted() const override { return live_slots_ == 0; }

    // ---- checkpoint support ----

    bool checkpointable() const override { return true; }

    void save_state(snapshot_writer& w) const override {
        w.u32(live_slots_);
        w.u64(next_.size());
        for (const std::uint32_t n : next_) w.u32(n);
    }

    void restore_state(snapshot_reader& r) override {
        live_slots_ = r.u32();
        if (r.count(4) != next_.size())
            throw snapshot_error("snapshot closed-loop slot-count mismatch");
        for (auto& n : next_) n = r.u32();
    }

private:
    /// Submits slot `s`'s next inference. The churn phase at the dispatch
    /// cycle selects the catalog window, the pre-drawn pick selects within
    /// it.
    void dispatch(workload_control& ctl, task_id s) {
        const cycle_t now = ctl.now();
        const auto phase = static_cast<std::size_t>(now / interval_cycles_);
        const std::size_t base = (phase * window_) % models_.size();
        ctl.submit(models_[(base + picks_[s][next_[s]]) % models_.size()], now,
                   s);
    }

    std::vector<const model::model*> models_;
    std::uint32_t inferences_per_slot_;
    cycle_t think_cycles_;
    cycle_t interval_cycles_;
    std::size_t window_;
    std::vector<std::vector<std::uint32_t>> picks_;
    std::vector<std::uint32_t> next_;
    std::uint32_t live_slots_ = 0;
};

// Shared arrival-list machinery of the rate-driven generators: fires a
// pre-built (time, model) list against a bounded admission queue and
// tracks queue-delay percentiles of whatever completes. Each arrival is
// one generator event whose token is its list index.
class arrival_list_generator : public workload_generator {
public:
    explicit arrival_list_generator(std::uint32_t queue_limit)
        : queue_limit_(queue_limit) {}

    void start(workload_control& ctl) override {
        for (std::size_t i = 0; i < arrivals_.size(); ++i)
            ctl.at(arrivals_[i].at, i);
    }

    void on_event(workload_control& ctl, std::uint64_t token) override {
        if (token >= arrivals_.size() || fired_ >= arrivals_.size())
            throw std::logic_error("arrival event " + std::to_string(token) +
                                   " past the arrival list");
        fired_ += 1;
        if (ctl.pending() >= queue_limit_) {
            rejected_ += 1;
            return;
        }
        ctl.submit(arrivals_[token].mdl, arrivals_[token].at);
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

    bool checkpointable() const override { return true; }

    void save_state(snapshot_writer& w) const override {
        w.u64(fired_);
        w.u64(rejected_);
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
        const std::uint64_t n = r.count(8);
        std::vector<double> samples(n);
        for (auto& s : samples) s = r.d();
        queue_delays_.assign(std::move(samples));
    }

protected:
    std::vector<trace_arrival> arrivals_;

private:
    std::uint32_t queue_limit_;
    std::size_t fired_ = 0;
    std::uint64_t rejected_ = 0;
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
    const cycle_t think =
        cfg.think_time_ms > 0.0 ? ms_to_cycles(cfg.think_time_ms) : 0;
    switch (cfg.kind) {
        case workload_kind::closed_loop:
            return std::make_unique<closed_loop_generator>(
                cfg.workload, cfg.co_located, cfg.inferences_per_slot,
                cfg.seed, think, never, cfg.workload.size());
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
            return std::make_unique<closed_loop_generator>(
                cfg.workload, cfg.co_located, cfg.inferences_per_slot,
                cfg.seed, think, ms_to_cycles(cfg.churn_interval_ms),
                cfg.churn_active_models);
    }
    return nullptr;  // unreachable
}

}  // namespace camdn::runtime
