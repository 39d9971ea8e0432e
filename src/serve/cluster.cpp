#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "adapt/fleet_feedback.h"
#include "common/rng.h"
#include "model/model_zoo.h"
#include "obs/attribution.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/trace.h"
#include "runtime/qos.h"
#include "runtime/scheduler.h"
#include "runtime/workload.h"
#include "serve/placement.h"
#include "serve/router.h"
#include "serve/stream_source.h"
#include "sim/sweep.h"

namespace camdn::serve {

const char* route_policy_name(route_policy p) {
    switch (p) {
        case route_policy::round_robin: return "round_robin";
        case route_policy::least_outstanding: return "least_outstanding";
        case route_policy::cache_affinity: return "cache_affinity";
    }
    return "?";
}

const char* scale_event_kind_name(scale_event_kind k) {
    switch (k) {
        case scale_event_kind::add: return "add";
        case scale_event_kind::drain: return "drain";
        case scale_event_kind::retire: return "retire";
    }
    return "?";
}

cluster_config uniform_cluster(std::uint32_t n,
                               const soc_instance_config& inst) {
    cluster_config cfg;
    cfg.socs.assign(n, inst);
    return cfg;
}

std::vector<double> traffic_weights(const cluster_config& cfg) {
    std::vector<double> w(cfg.models.size(), 1.0);
    double total = static_cast<double>(cfg.models.size());
    for (std::size_t m = 0; m < w.size() && m < cfg.traffic_share.size();
         ++m) {
        total -= w[m];
        w[m] = std::max(cfg.traffic_share[m], 0.0);
        total += w[m];
    }
    if (!w.empty() && total <= 0.0)
        throw std::invalid_argument("traffic_weights: all-zero traffic mix");
    return w;
}

namespace {

/// Per-SoC RNG stream: splitmix64 of the cluster seed and the SoC's
/// stable id, so no two SoC simulations share a seed (and adding a SoC —
/// statically or via the autoscaler — never perturbs the streams of the
/// others).
std::uint64_t soc_seed(std::uint64_t cluster_seed, std::size_t s) {
    std::uint64_t z = cluster_seed + 0x9e3779b97f4a7c15ULL * (s + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// One live SoC of the elastic fleet. `id` is the stable identity used
/// for RNG seeding and observability lanes; the vector index is only the
/// current round's simulation slot. The SoC's scheduler is built in its
/// first round and continued in place at every later one
/// (scheduler::start_next_segment), so cache warmth, DRAM timing, the
/// clock, in-flight layers and the queued backlog all carry across the
/// barrier. The scheduler references its config, generator and
/// attributor, so all of them live on the heap: the autoscaler appends
/// and erases slots. The attributor lives as long as the SoC, so an
/// inference that straddles a barrier is attributed when it ends.
struct fleet_slot {
    soc_instance_config inst;
    std::uint32_t id = 0;
    bool draining = false;
    std::unique_ptr<sim::experiment_config> cfg;
    std::unique_ptr<runtime::workload_generator> gen;
    std::unique_ptr<runtime::scheduler> sched;
    std::unique_ptr<obs::latency_attributor> attr;
};

/// Fleet-lane trace instant of each scale_event_kind, in enum order
/// (literals: the recorder keeps the name pointers).
constexpr const char* scale_instants[] = {"scale_add", "scale_drain",
                                          "scale_retire"};

/// `in` with the catalog defaulted to the whole zoo; throws
/// std::invalid_argument on an empty fleet and on contradictory knobs,
/// which fail loudly instead of being ignored or rewritten.
cluster_config checked(const cluster_config& in) {
    const auto reject = [](const char* why) {
        throw std::invalid_argument(std::string("run_cluster: ") + why);
    };
    if (in.socs.empty()) reject("empty fleet");
    cluster_config cfg = in;
    if (cfg.models.empty())
        for (const auto& m : model::benchmark_models()) cfg.models.push_back(&m);
    // Bounded history releases per-round results at each barrier; exact
    // trackers would still retain every latency sample, so the streaming
    // backend comes with it.
    if (cfg.bounded_history) cfg.streaming_quantiles = true;
    const bool fb_on = cfg.feedback_rounds > 1;
    const auto& as = cfg.autoscale;
    if (as.enabled && !fb_on)
        reject("autoscaling requires feedback rounds (feedback_rounds > 1)");
    if (cfg.round_cycles > 0 && !fb_on)
        reject("round_cycles requires feedback rounds (feedback_rounds > 1)");
    if (cfg.history_records > 0 && !cfg.bounded_history)
        reject("history_records requires bounded_history");
    if (as.enabled && as.min_socs > as.max_socs)
        reject("autoscale.min_socs exceeds autoscale.max_socs");
    if (as.enabled && as.backlog_low > as.backlog_high)
        reject("autoscale.backlog_low exceeds autoscale.backlog_high");
    if (as.enabled && !(as.sla_low >= 0.0 && as.sla_low <= 1.0))
        reject("autoscale.sla_low must lie in [0, 1]");
    return cfg;
}

/// Normalized cumulative traffic mix, the stream's model picker.
std::vector<double> cumulative(std::vector<double> w) {
    double total = 0.0;
    for (auto& x : w) x = (total += x);
    for (auto& x : w) x /= total;
    return w;
}

/// One cluster run, stepped round by round: route one window of the
/// shared stream (route_round), step every live SoC through it on the
/// sweep pool (simulate_round), fold the barrier (fold_barrier), let the
/// autoscaler edit the fleet (autoscale); finish() rolls up the result.
/// The constructor validates the config and builds the placement, router,
/// feedback and the four fleet sinks (master trace, JSONL stream, metrics
/// registry, master attributor); a null sink is off.
class fleet_runner {
public:
    explicit fleet_runner(const cluster_config& cfg);

    std::uint32_t rounds() const { return rounds_; }
    void route_round(std::uint32_t round);
    void simulate_round();
    void fold_barrier(std::uint32_t round);
    void autoscale(std::uint32_t round);
    cluster_result finish();

private:
    bool feedback() const { return rounds_ > 1; }
    void route(const stream_arrival& a, bool migrated);
    void step_soc(std::size_t k);
    void fold_observability(std::uint32_t round);
    void fold_results();
    void feed_back();
    void retain(std::uint32_t round);
    void replan();
    void replace_plan();
    void record(const scale_event& ev);

    const cluster_config cfg_;
    const std::uint32_t rounds_;
    /// The fleet lane pid: the historical S works for fixed fleets, but
    /// autoscaled ids grow past S, so those runs park the lane on a
    /// sentinel well clear of any SoC id.
    const std::uint32_t fleet_lane_;
    const std::uint32_t min_socs_, max_socs_;
    stream_source stream_;

    /// The live fleet. Fixed-fleet runs keep exactly the configured
    /// slots; the autoscaler appends clones of the first instance (stable
    /// ids keep growing) and erases retired ones.
    std::vector<fleet_slot> fleet_;
    std::uint32_t next_id_ = 0;
    /// The live placement and its router, replaced together. route_cfg_
    /// mirrors cfg_ with socs = the routable instances and traffic_share
    /// = the observed mix after a re-plan; the router references it.
    cluster_config route_cfg_;
    placement place_;
    std::unique_ptr<request_router> router_;
    /// Router-local index -> fleet index (identity until a SoC drains).
    std::vector<std::size_t> route_map_;
    adapt::fleet_feedback fb_;
    std::uint32_t cooldown_ = 0;
    std::size_t ring_pos_ = 0;  // bounded-history completion-ring cursor

    std::vector<std::uint64_t> routed_per_model_;
    /// Queued requests lifted out of draining SoCs, re-routed at the next
    /// round start at their original arrival stamps (the target fires
    /// them at its own clock, and admission keeps the stamp).
    std::vector<stream_arrival> migrate_backlog_;

    // The round: each SoC's trace slice, pause point, observability
    // buffers and result, then the barrier's fleet-wide sums.
    std::vector<std::vector<runtime::trace_arrival>> traces_;
    cycle_t pause_ = never;
    std::vector<std::unique_ptr<obs::trace_recorder>> round_traces_;
    std::vector<obs::jsonl_sink> round_epochs_;
    std::vector<sim::experiment_result> round_res_;
    cycle_t round_end_ = 0;
    std::uint64_t round_completed_ = 0, round_events_ = 0, round_drops_ = 0,
                  round_met_ = 0;

    std::unique_ptr<obs::trace_recorder> master_trace_;
    std::unique_ptr<std::ofstream> jsonl_;
    obs::metrics_registry metrics_;
    std::unique_ptr<obs::latency_attributor> attr_;

    cluster_result out_;
};

fleet_runner::fleet_runner(const cluster_config& cfg)
    : cfg_(checked(cfg)),
      rounds_(std::max<std::uint32_t>(cfg_.feedback_rounds, 1)),
      fleet_lane_(cfg_.autoscale.enabled
                      ? 0xFFFEu
                      : static_cast<std::uint32_t>(cfg_.socs.size())),
      min_socs_(std::max<std::uint32_t>(cfg_.autoscale.min_socs, 1)),
      max_socs_(std::max(cfg_.autoscale.max_socs, min_socs_)),
      stream_(cfg_, cumulative(traffic_weights(cfg_))),
      route_cfg_(cfg_),
      fb_(cfg_.socs.size()),
      routed_per_model_(cfg_.models.size(), 0) {
    fleet_.reserve(cfg_.socs.size());
    for (const auto& inst : cfg_.socs)
        fleet_.push_back({inst, next_id_++, false, {}, {}, {}, {}});
    // Placement also warms the mapping registry for the router.
    replace_plan();

    // Quantile backend selection must precede the first sample; tenant
    // entries are pre-created so the on-demand map lookups never
    // construct an exact-mode tracker in a streaming-mode run.
    if (cfg_.streaming_quantiles) {
        out_.fleet_latency_ms.set_streaming(true);
        out_.fleet_queue_delay_ms.set_streaming(true);
    }
    for (const auto* m : cfg_.models) {
        auto& tenant = out_.tenants[m->abbr];
        if (cfg_.streaming_quantiles) {
            tenant.latency_ms.set_streaming(true);
            tenant.queue_delay_ms.set_streaming(true);
        }
    }

    // The JSONL file streams during the run (rows land at every round
    // barrier); the trace file is written once at the end (valid JSON
    // needs the closing bracket).
    if (!cfg_.trace_path.empty())
        master_trace_ = std::make_unique<obs::trace_recorder>(
            fleet_lane_,
            cfg_.trace_max_events == 0 ? 1 : cfg_.trace_max_events);
    if (!cfg_.metrics_jsonl_path.empty()) {
        jsonl_ = std::make_unique<std::ofstream>(cfg_.metrics_jsonl_path);
        if (!*jsonl_)
            throw std::runtime_error(
                "run_cluster: cannot open metrics JSONL path " +
                cfg_.metrics_jsonl_path);
    }
    // Attribution rides along whenever any exporter wants it; the master
    // folds each SoC's round of completions at every barrier.
    if (cfg_.attribution || master_trace_ || jsonl_) {
        attr_ = std::make_unique<obs::latency_attributor>();
        attr_->set_keep_records(false);
    }
}

/// Routes one arrival into its SoC's trace. A fresh arrival counts in
/// the arrival and routed ledgers; a migrated one was counted when first
/// routed, so if the new placement cannot host its model it is lost and
/// leaves the routed ledger of its tenant.
void fleet_runner::route(const stream_arrival& a, bool migrated) {
    if (!migrated) out_.arrivals += 1;
    const std::int32_t ri =
        router_->route(a.at, static_cast<std::uint32_t>(a.model));
    if (ri < 0) {
        out_.dropped_unroutable += 1;
        if (migrated && routed_per_model_[a.model] > 0)
            routed_per_model_[a.model] -= 1;
        return;
    }
    traces_[route_map_[ri]].push_back({a.at, cfg_.models[a.model]});
    if (migrated) return;
    routed_per_model_[a.model] += 1;
}

void fleet_runner::route_round(std::uint32_t round) {
    traces_.assign(fleet_.size(), {});
    // Migrated backlog first (in drain order), then the round's fresh
    // arrivals — the per-SoC trace generator stable-sorts by stamp, so
    // the interleave is deterministic.
    for (const auto& a : migrate_backlog_) route(a, true);
    migrate_backlog_.clear();

    // Every round but the last routes one window of the stream and
    // pauses each SoC at the window's end; the last routes the rest and
    // runs to drain.
    pause_ = never;
    if (round + 1 == rounds_) {
        while (!stream_.exhausted()) route(stream_.pop(), false);
    } else if (cfg_.round_cycles > 0) {
        pause_ = sat_mul(cfg_.round_cycles, round + 1);
        while (const auto* a = stream_.peek()) {
            if (a->at >= pause_) break;
            route(stream_.pop(), false);
        }
    } else {
        const std::uint64_t hi = stream_.total() * (round + 1) / rounds_;
        while (stream_.consumed() < hi) route(stream_.pop(), false);
        if (const auto* a = stream_.peek()) pause_ = a->at;
    }
}

void fleet_runner::simulate_round() {
    // Per-(round, SoC) observability buffers: each SoC's thread writes
    // only its own recorder/sink, and the barrier folds them in fleet
    // order — deterministic across sweep-pool widths. The next round's
    // start_next_segment attaches fresh ones before the SoC simulates
    // again.
    const std::size_t live = fleet_.size();
    round_traces_.resize(master_trace_ ? live : 0);
    round_epochs_.assign(jsonl_ ? live : 0, obs::jsonl_sink{});
    round_res_.assign(live, {});
    // Every slot touches only its own state, so the sweep pool steps them
    // in parallel.
    sim::pool_for_each(live, cfg_.threads,
                       [this](std::size_t k) { step_soc(k); });
}

/// Continues SoC k's live scheduler with the round's trace slice: round
/// r+1 starts on the state round r actually left behind. Cold slots
/// (round 0, or a SoC the autoscaler just added) build theirs first.
void fleet_runner::step_soc(std::size_t k) {
    auto& slot = fleet_[k];
    if (!slot.cfg) {
        auto ec = std::make_unique<sim::experiment_config>();
        ec->soc = slot.inst.soc;
        ec->pol = slot.inst.pol;
        ec->kind = runtime::workload_kind::trace_replay;
        ec->co_located = std::max<std::uint32_t>(slot.inst.slots, 1);
        ec->admission_queue_limit = slot.inst.admission_queue_limit;
        ec->workload = cfg_.models;
        ec->seed = soc_seed(cfg_.seed, slot.id);
        ec->telemetry = feedback();
        ec->obs.soc_index = slot.id;
        if (attr_) {
            slot.attr = std::make_unique<obs::latency_attributor>();
            slot.attr->set_keep_records(false);
            ec->obs.attr = slot.attr.get();
        }
        slot.cfg = std::move(ec);
    }
    auto& ec = *slot.cfg;
    ec.trace = std::move(traces_[k]);
    if (master_trace_) {
        round_traces_[k] = std::make_unique<obs::trace_recorder>(slot.id);
        round_traces_[k]->set_flight_sample_every(
            cfg_.trace_flight_sample_every);
        ec.obs.trace = round_traces_[k].get();
    }
    if (jsonl_) ec.obs.epochs = &round_epochs_[k];
    auto gen = runtime::make_workload_generator(ec);
    if (slot.sched)
        slot.sched->start_next_segment(*gen);
    else
        slot.sched = std::make_unique<runtime::scheduler>(ec, *gen);
    // The previous round's generator goes only after the swap.
    slot.gen = std::move(gen);
    slot.sched->run_segment(pause_);
    round_res_[k] = slot.sched->segment_result();
}

void fleet_runner::fold_barrier(std::uint32_t round) {
    fold_observability(round);
    fold_results();
    if (feedback() && round + 1 < rounds_) feed_back();
    retain(round);
}

/// Folds the round's observability output in fleet order, then flushes
/// the JSONL stream so telemetry leaves the process while later rounds
/// still run.
void fleet_runner::fold_observability(std::uint32_t round) {
    const cycle_t round_start = round_end_;
    round_completed_ = round_events_ = round_drops_ = 0;
    for (const auto& res : round_res_) {
        round_end_ = std::max(round_end_, res.makespan);
        round_completed_ += res.completions.size();
        round_events_ += res.events_executed;
        round_drops_ += res.rejected_arrivals;
    }
    if (master_trace_) {
        for (const auto& rec : round_traces_) master_trace_->absorb(*rec);
        master_trace_->complete(
            master_trace_->intern("round " + std::to_string(round)), "fleet",
            0, round_start, round_end_);
    }
    if (attr_) {
        // Only completed totals fold; in-flight slots stay with their SoC
        // until the round that ends them.
        for (auto& slot : fleet_) {
            attr_->absorb(*slot.attr);
            slot.attr->clear_completed();
        }
        // Fleet-lane counter tracks: cumulative attribution sampled at
        // every round barrier.
        if (master_trace_)
            obs::trace_attribution(*master_trace_, round_end_, *attr_);
    }
    if (!jsonl_) return;
    for (auto& sink : round_epochs_) sink.drain_to(*jsonl_);
    // Cumulative fleet attribution at the barrier, on the fleet lane,
    // keyed by round.
    *jsonl_ << attr_->jsonl_row(fleet_lane_, round) << '\n';
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "{\"type\":\"fleet_round\",\"round\":%u,\"completions\":%llu,"
        "\"events\":%llu,\"dropped\":%llu,\"active_socs\":%u,"
        "\"end_ms\":%.6f}",
        round, static_cast<unsigned long long>(round_completed_),
        static_cast<unsigned long long>(round_events_),
        static_cast<unsigned long long>(round_drops_),
        static_cast<std::uint32_t>(route_map_.size()),
        cycles_to_ms(round_end_));
    *jsonl_ << buf << '\n';
    jsonl_->flush();
    metrics_.add("fleet.rounds");
    metrics_.add("fleet.completions", round_completed_);
    metrics_.add("fleet.events_executed", round_events_);
    metrics_.add("fleet.dropped_queue", round_drops_);
    metrics_.histogram("fleet.round_end_ms").add(cycles_to_ms(round_end_));
}

/// Folds the round's results into the fleet aggregates — the round-major
/// fleet-order call sequence the end-of-run fold historically produced,
/// so every accumulator sees an identical sample order — and counts the
/// round's deadline hits for the autoscaler's SLA signal.
void fleet_runner::fold_results() {
    round_met_ = 0;
    for (auto& res : round_res_) {
        out_.makespan = std::max(out_.makespan, res.makespan);
        out_.dropped_queue += res.rejected_arrivals;
        out_.events_executed += res.events_executed;
        out_.completed += res.completions.size();
        out_.fleet_queue_delay_ms.merge(res.queue_delay_ms);
        for (const auto& rec : res.completions) {
            const double lat_ms = cycles_to_ms(rec.latency());
            out_.fleet_latency_ms.add(lat_ms);
            if (runtime::meets_qos_target(rec.abbr, rec.latency(),
                                          cfg_.qos_scale)) {
                out_.deadline_met += 1;
                round_met_ += 1;
            }
            auto& tenant = out_.tenants[rec.abbr];
            tenant.completed += 1;
            tenant.latency_ms.add(lat_ms);
            tenant.queue_delay_ms.add(cycles_to_ms(rec.queue_delay()));
        }
    }
}

/// Folds the routable SoCs' rollups into the router weights, then
/// re-plans on a violation streak.
void fleet_runner::feed_back() {
    std::vector<adapt::soc_rollup> rollups;
    rollups.reserve(route_map_.size());
    for (const auto k : route_map_)
        rollups.push_back(adapt::rollup_from(round_res_[k], cfg_.qos_scale));
    fb_.observe(rollups);
    if (fb_.replacement_due()) replan();
}

/// Retains or releases the round's results: a compact rollup per live SoC,
/// then either the full result (per_soc, aligned with the rollups) or, in
/// bounded-history runs, the completion ring.
void fleet_runner::retain(std::uint32_t round) {
    const std::size_t ring = cfg_.history_records;
    for (std::size_t k = 0; k < round_res_.size(); ++k) {
        auto& res = round_res_[k];
        out_.round_summaries.push_back(
            {round, fleet_[k].id, res.completions.size(),
             res.rejected_arrivals, res.events_executed, res.makespan});
        if (!cfg_.bounded_history) {
            out_.per_soc.push_back(std::move(res));
            continue;
        }
        if (ring == 0) continue;
        for (const auto& rec : res.completions) {
            if (out_.recent_completions.size() < ring) {
                out_.recent_completions.push_back(rec);
            } else {
                out_.recent_completions[ring_pos_] = rec;
                ring_pos_ = (ring_pos_ + 1) % ring;
            }
        }
    }
}

/// Re-plans against the observed cumulative mix (+1 smoothing keeps
/// every model placeable and the weights positive); a no-op while
/// nothing has been routed.
void fleet_runner::replan() {
    std::uint64_t total_routed = 0;
    for (const auto n : routed_per_model_) total_routed += n;
    if (total_routed == 0) return;
    route_cfg_.traffic_share.assign(cfg_.models.size(), 1.0);
    for (std::size_t m = 0; m < cfg_.models.size(); ++m)
        route_cfg_.traffic_share[m] +=
            static_cast<double>(routed_per_model_[m]);
    replace_plan();
    out_.replacements += 1;
}

/// Plans placement over the routable SoCs and builds its router (hooked
/// to the feedback weights); fleet edits and re-plans both come here.
void fleet_runner::replace_plan() {
    route_map_.clear();
    route_cfg_.socs.clear();
    for (std::size_t k = 0; k < fleet_.size(); ++k) {
        if (fleet_[k].draining) continue;
        route_map_.push_back(k);
        route_cfg_.socs.push_back(fleet_[k].inst);
    }
    router_.reset();
    place_ = plan_placement(route_cfg_);
    router_ = std::make_unique<request_router>(route_cfg_, place_);
    if (feedback()) router_->set_load_weights(&fb_.weights());
    out_.resident_models = place_.resident;
}

/// The autoscaling decision at the barrier. Signals: mean queued backlog
/// per routable SoC (its live scheduler's admission-queue depth) and the
/// round's completion SLA. Retirements always run; add/drain decisions
/// are cooldown-gated, one per barrier.
void fleet_runner::autoscale(std::uint32_t round) {
    if (!cfg_.autoscale.enabled || round + 1 == rounds_) return;
    const auto& as = cfg_.autoscale;
    const std::size_t routable = route_map_.size();
    double backlog = 0.0;
    for (const auto k : route_map_)
        backlog += static_cast<double>(fleet_[k].sched->pending());
    backlog /= static_cast<double>(std::max<std::size_t>(routable, 1));
    const std::uint64_t offered = round_completed_ + round_drops_;
    scale_event ev;
    ev.round = round;
    ev.backlog = backlog;
    ev.sla = offered ? static_cast<double>(round_met_) /
                           static_cast<double>(offered)
                     : 1.0;
    ev.active_after = static_cast<std::uint32_t>(routable);

    // Retire draining SoCs with no remaining work (running set and
    // admission queue both empty).
    const std::size_t events = out_.scale_events.size();
    for (std::size_t k = 0; k < fleet_.size();) {
        const auto& fs = fleet_[k];
        if (!fs.draining || fs.sched->running_count() != 0 ||
            fs.sched->pending() != 0) {
            ++k;
            continue;
        }
        ev.kind = scale_event_kind::retire;
        ev.soc_id = fs.id;
        fleet_.erase(fleet_.begin() + static_cast<std::ptrdiff_t>(k));
        record(ev);
    }

    if (cooldown_ > 0) {
        --cooldown_;
    } else if ((backlog > as.backlog_high || ev.sla < as.sla_low) &&
               routable < max_socs_) {
        // Scale up: a cold clone of the fleet's first configured instance
        // under the next stable id.
        fleet_.push_back({cfg_.socs.front(), next_id_++, false, {}, {}, {}, {}});
        ev.kind = scale_event_kind::add;
        ev.soc_id = fleet_.back().id;
        ev.active_after += 1;
        cooldown_ = as.cooldown_rounds;
        record(ev);
    } else if (backlog < as.backlog_low && ev.sla >= as.sla_low &&
               routable > min_socs_) {
        // Drain the least-backlogged routable SoC (ties prefer the
        // youngest, so autoscaled additions leave first), lifting its
        // queued work out of its scheduler for re-routing. Each lifted
        // request was counted when first routed, so re-routing it does
        // not count it again.
        std::size_t pick = fleet_.size();
        std::uint64_t best = 0;
        for (std::size_t k = 0; k < fleet_.size(); ++k) {
            if (fleet_[k].draining) continue;
            const std::uint64_t q = fleet_[k].sched->pending();
            if (pick == fleet_.size() || q < best ||
                (q == best && fleet_[k].id > fleet_[pick].id)) {
                pick = k;
                best = q;
            }
        }
        auto& fs = fleet_[pick];
        fs.draining = true;
        const auto& models = cfg_.models;
        for (const auto& q : fs.sched->lift_admission_queue()) {
            const auto it = std::find(models.begin(), models.end(), q.mdl);
            if (it == models.end()) continue;
            migrate_backlog_.push_back(
                {q.at, static_cast<std::size_t>(it - models.begin())});
            ++ev.migrated;
        }
        out_.migrated_requests += ev.migrated;
        ev.kind = scale_event_kind::drain;
        ev.soc_id = fs.id;
        ev.active_after -= 1;
        cooldown_ = as.cooldown_rounds;
        record(ev);
    }
    if (out_.scale_events.size() == events) return;
    // Resize feedback to the new routable set (weights and violation
    // streaks restart; the router is rebuilt against the fresh weights,
    // so stale per-SoC state never leaks across a fleet-shape change).
    fb_ = adapt::fleet_feedback(ev.active_after);
    replace_plan();
}

void fleet_runner::record(const scale_event& ev) {
    out_.scale_events.push_back(ev);
    if (jsonl_) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"type\":\"scale_event\",\"round\":%u,"
                      "\"kind\":\"%s\",\"soc\":%u,\"active\":%u,"
                      "\"migrated\":%llu,\"backlog\":%.3f,\"sla\":%.4f}",
                      ev.round, scale_event_kind_name(ev.kind), ev.soc_id,
                      ev.active_after,
                      static_cast<unsigned long long>(ev.migrated),
                      ev.backlog, ev.sla);
        *jsonl_ << buf << '\n';
        jsonl_->flush();
        metrics_.add(std::string("fleet.scale_") +
                     scale_event_kind_name(ev.kind) + "s");
        if (ev.migrated) metrics_.add("fleet.migrated_requests", ev.migrated);
        metrics_.gauge_set("fleet.active_socs", ev.active_after);
    }
    if (master_trace_)
        master_trace_->instant(
            scale_instants[static_cast<std::size_t>(ev.kind)], "fleet", 0,
            round_end_);
}

cluster_result fleet_runner::finish() {
    for (std::size_t m = 0; m < cfg_.models.size(); ++m)
        out_.tenants[cfg_.models[m]->abbr].routed += routed_per_model_[m];
    for (auto& [abbr, tenant] : out_.tenants)
        tenant.dropped = tenant.routed - tenant.completed;
    if (feedback()) out_.route_weights = fb_.weights();

    if (attr_) {
        // Roll the fleet attribution into the result and the metrics
        // registry (tenant names are model abbreviations, matching
        // out_.tenants' keys).
        const auto& names = attr_->tenant_names();
        const auto& tens = attr_->tenants();
        for (std::size_t i = 0; i < names.size(); ++i) {
            auto& tm = out_.tenants[names[i]];
            tm.attribution_completed = tens[i].completed;
            tm.attribution_latency_cycles = tens[i].latency_cycles;
            tm.attribution = tens[i].comp;
            for (std::size_t j = 0; j < names.size(); ++j) {
                const std::uint64_t v = attr_->interference(
                    static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(j));
                if (v != 0) out_.interference[names[i]][names[j]] = v;
            }
        }
        attr_->export_metrics(metrics_);
    }
    if (jsonl_) {
        std::ostringstream payload;
        metrics_.write_json(payload);
        *jsonl_ << "{\"type\":\"metrics\",\"payload\":" << payload.str()
                << "}\n";
        jsonl_->flush();
    }
    if (master_trace_) {
        std::ofstream tf(cfg_.trace_path);
        if (!tf)
            throw std::runtime_error("run_cluster: cannot open trace path " +
                                     cfg_.trace_path);
        obs::write_chrome_trace(tf, master_trace_->events(),
                                {{fleet_lane_, "fleet"}});
    }
    return std::move(out_);
}

}  // namespace

cluster_result run_cluster(const cluster_config& cfg) {
    fleet_runner fleet(cfg);
    for (std::uint32_t round = 0; round < fleet.rounds(); ++round) {
        fleet.route_round(round);
        fleet.simulate_round();
        fleet.fold_barrier(round);
        fleet.autoscale(round);
    }
    return fleet.finish();
}

}  // namespace camdn::serve
