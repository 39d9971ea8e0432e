#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

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

}  // namespace

cluster_result run_cluster(const cluster_config& cfg_in) {
    if (cfg_in.socs.empty())
        throw std::invalid_argument("run_cluster: empty fleet");

    cluster_config cfg = cfg_in;
    if (cfg.models.empty())
        for (const auto& m : model::benchmark_models()) cfg.models.push_back(&m);
    // Bounded history releases per-round results at each barrier; exact
    // trackers would still retain every latency sample, so the streaming
    // backend comes with it.
    if (cfg.bounded_history) cfg.streaming_quantiles = true;

    const std::size_t S0 = cfg.socs.size();
    const std::size_t M = cfg.models.size();

    const std::uint32_t rounds = std::max<std::uint32_t>(cfg.feedback_rounds, 1);
    const bool fb_on = rounds > 1;
    const bool scaling = cfg.autoscale.enabled;
    // Contradictory knobs fail loudly instead of being ignored or
    // rewritten.
    const auto reject = [](const char* why) {
        throw std::invalid_argument(std::string("run_cluster: ") + why);
    };
    if (scaling && !fb_on)
        reject("autoscaling requires feedback rounds (feedback_rounds > 1)");
    if (cfg.round_cycles > 0 && !fb_on)
        reject("round_cycles requires feedback rounds (feedback_rounds > 1)");
    if (cfg.history_records > 0 && !cfg.bounded_history)
        reject("history_records requires bounded_history");
    const auto& as = cfg.autoscale;
    if (scaling && as.min_socs > as.max_socs)
        reject("autoscale.min_socs exceeds autoscale.max_socs");
    if (scaling && as.backlog_low > as.backlog_high)
        reject("autoscale.backlog_low exceeds autoscale.backlog_high");
    if (scaling && !(as.sla_low >= 0.0 && as.sla_low <= 1.0))
        reject("autoscale.sla_low must lie in [0, 1]");
    const std::uint32_t min_socs = std::max<std::uint32_t>(as.min_socs, 1);
    const std::uint32_t max_socs =
        std::max<std::uint32_t>(as.max_socs, min_socs);

    // Normalized cumulative traffic mix (uniform when unspecified).
    const std::vector<double> weights = traffic_weights(cfg);
    std::vector<double> cum(M, 0.0);
    {
        double total = 0.0;
        for (std::size_t m = 0; m < M; ++m) {
            total += weights[m];
            cum[m] = total;
        }
        for (auto& c : cum) c /= total;
    }

    // The live fleet. Fixed-fleet runs keep exactly the configured slots;
    // the autoscaler appends clones of the first instance (stable ids
    // keep growing) and erases retired ones.
    std::vector<fleet_slot> fleet;
    fleet.reserve(S0);
    for (std::size_t s = 0; s < S0; ++s)
        fleet.push_back({cfg.socs[s], static_cast<std::uint32_t>(s), false,
                         {}, {}, {}, {}});
    std::uint32_t next_id = static_cast<std::uint32_t>(S0);

    // Phase 1: placement (also warms the mapping registry for the
    // router). Placements and the routing config are heap/long-lived: the
    // router holds references into both across feedback rounds. route_cfg
    // mirrors cfg with socs = the current routable instances and
    // traffic_share = the observed mix after a re-plan.
    cluster_config route_cfg = cfg;
    std::vector<std::unique_ptr<placement>> placements;
    placements.push_back(std::make_unique<placement>(plan_placement(route_cfg)));
    auto router = std::make_unique<request_router>(route_cfg,
                                                   *placements.back());
    // Router-local index -> fleet index (identity until a SoC drains).
    std::vector<std::size_t> route_map(S0);
    for (std::size_t s = 0; s < S0; ++s) route_map[s] = s;

    auto fb = std::make_unique<adapt::fleet_feedback>(cfg.feedback, S0);
    if (fb_on) router->set_load_weights(&fb->weights());

    cluster_result out;
    out.resident_models = placements.back()->resident;

    // Quantile backend selection must precede the first sample; tenant
    // entries are pre-created so the on-demand map lookups below never
    // construct an exact-mode tracker in a streaming-mode run.
    if (cfg.streaming_quantiles) {
        out.fleet_latency_ms.set_streaming(true);
        out.fleet_queue_delay_ms.set_streaming(true);
    }
    for (const auto* m : cfg.models) {
        auto& tenant = out.tenants[m->abbr];
        if (cfg.streaming_quantiles) {
            tenant.latency_ms.set_streaming(true);
            tenant.queue_delay_ms.set_streaming(true);
        }
    }

    // Observability outputs. The JSONL file streams during the run (rows
    // land at every round barrier); the trace file is written once at the
    // end (valid JSON needs the closing bracket).
    const bool trace_on = !cfg.trace_path.empty();
    const bool jsonl_on = !cfg.metrics_jsonl_path.empty();
    // The fleet lane pid: the historical S works for fixed fleets, but
    // autoscaled ids grow past S0, so those runs park the lane on a
    // sentinel well clear of any SoC id.
    const std::uint32_t fleet_lane =
        scaling ? 0xFFFEu : static_cast<std::uint32_t>(S0);
    std::unique_ptr<obs::trace_recorder> master_trace;
    if (trace_on)
        master_trace = std::make_unique<obs::trace_recorder>(
            fleet_lane, cfg.trace_max_events == 0 ? 1 : cfg.trace_max_events);
    std::ofstream jsonl_out;
    if (jsonl_on) {
        jsonl_out.open(cfg.metrics_jsonl_path);
        if (!jsonl_out)
            throw std::runtime_error(
                "run_cluster: cannot open metrics JSONL path " +
                cfg.metrics_jsonl_path);
    }
    obs::metrics_registry fleet_metrics;
    // Attribution rides along whenever any exporter wants it; the fleet
    // master folds each SoC's round of completions at every barrier.
    const bool attr_on = cfg.attribution || trace_on || jsonl_on;
    std::unique_ptr<obs::latency_attributor> fleet_attr;
    if (attr_on) {
        fleet_attr = std::make_unique<obs::latency_attributor>();
        fleet_attr->set_keep_records(false);
    }
    cycle_t prev_round_end = 0;

    // Phase 2+3, per round: pull the round's slice of the shared stream
    // from the lazy source, route it, simulate each live SoC's trace on
    // the sweep pool, then (feedback only) fold the round's telemetry
    // rollups into router weights, possibly re-plan placement against the
    // observed traffic mix, and let the autoscaler react to backlog/SLA.
    stream_source stream(cfg, cum);
    std::vector<std::uint64_t> routed_per_model(M, 0);
    std::vector<std::uint64_t> round_routed(M, 0);
    // Mix the current placement was planned against (for the drift
    // trigger); re-plans rebase it onto the observed mix.
    std::vector<double> planned_mix = weights;

    // Queued requests lifted out of draining SoCs, re-routed at the next
    // round start at their original arrival stamps (the target fires them
    // at its own clock, and admission keeps the stamp). Each was counted
    // in out.arrivals / routed_per_model when first routed, so re-routing
    // must not re-count it.
    std::vector<stream_arrival> migrate_backlog;
    std::map<std::string, std::size_t> model_index;
    for (std::size_t m = 0; m < M; ++m) model_index[cfg.models[m]->name] = m;

    std::uint32_t cooldown = 0;
    std::size_t ring_pos = 0;  // bounded-history completion-ring cursor

    // Rebuilds placement + router (+ load-weight hookup) over the current
    // routable set. Fleet changes and re-plans both funnel through here.
    auto rebuild_router = [&]() {
        route_map.clear();
        route_cfg.socs.clear();
        for (std::size_t k = 0; k < fleet.size(); ++k) {
            if (fleet[k].draining) continue;
            route_map.push_back(k);
            route_cfg.socs.push_back(fleet[k].inst);
        }
        placements.push_back(
            std::make_unique<placement>(plan_placement(route_cfg)));
        router = std::make_unique<request_router>(route_cfg,
                                                  *placements.back());
        if (fb_on) router->set_load_weights(&fb->weights());
        out.resident_models = placements.back()->resident;
    };

    for (std::uint32_t round = 0; round < rounds; ++round) {
        const std::size_t A = fleet.size();  // live SoCs this round
        std::fill(round_routed.begin(), round_routed.end(), 0u);
        std::vector<std::vector<runtime::trace_arrival>> traces(A);

        // Migrated backlog first (in drain order), then the round's fresh
        // arrivals — the per-SoC trace generator stable-sorts by stamp,
        // so the interleave is deterministic.
        for (const auto& a : migrate_backlog) {
            const std::int32_t ri = router->route(
                a.at, static_cast<std::uint32_t>(a.model));
            if (ri < 0) {
                // The new placement cannot host the model; the request is
                // lost. Re-balance the tenant ledger it was routed under.
                out.dropped_unroutable += 1;
                if (routed_per_model[a.model] > 0)
                    routed_per_model[a.model] -= 1;
                continue;
            }
            traces[route_map[ri]].push_back({a.at, cfg.models[a.model]});
        }
        migrate_backlog.clear();

        auto route_one = [&](const stream_arrival& a) {
            out.arrivals += 1;
            const std::int32_t ri = router->route(
                a.at, static_cast<std::uint32_t>(a.model));
            if (ri < 0) {
                out.dropped_unroutable += 1;
                return;
            }
            traces[route_map[ri]].push_back({a.at, cfg.models[a.model]});
            routed_per_model[a.model] += 1;
            round_routed[a.model] += 1;
        };
        // Every round but the last routes one window of the stream and
        // pauses each SoC at the window's end; the last routes the rest
        // and runs to drain.
        const bool more_rounds = round + 1 < rounds;
        cycle_t pause = never;
        if (!more_rounds) {
            while (!stream.exhausted()) route_one(stream.pop());
        } else if (cfg.round_cycles > 0) {
            pause = sat_mul(cfg.round_cycles, round + 1);
            while (const auto* a = stream.peek()) {
                if (a->at >= pause) break;
                route_one(stream.pop());
            }
        } else {
            const std::uint64_t hi = stream.total() * (round + 1) / rounds;
            while (stream.consumed() < hi) route_one(stream.pop());
            if (const auto* a = stream.peek()) pause = a->at;
        }

        // Per-(round, SoC) observability buffers: each SoC's thread writes
        // only its own recorder/sink, and the barrier below folds them in
        // fleet order — deterministic across sweep-pool widths. They live
        // for this round only; the next round's start_next_segment
        // attaches fresh ones before the SoC simulates again.
        std::vector<std::unique_ptr<obs::trace_recorder>> round_traces(
            trace_on ? A : 0);
        std::vector<obs::jsonl_sink> round_epochs(jsonl_on ? A : 0);
        std::vector<std::uint32_t> round_ids(A);  // survives fleet edits
        for (std::size_t k = 0; k < A; ++k) round_ids[k] = fleet[k].id;

        // Each SoC continues its live scheduler with the round's trace
        // slice: round r+1 starts on the state round r actually left
        // behind. Cold slots (round 0, or a SoC the autoscaler just added)
        // build theirs first. Every slot touches only its own state, so
        // the sweep pool steps them in parallel.
        std::vector<sim::experiment_result> round_res(A);
        sim::pool_for_each(A, cfg.threads, [&](std::size_t k) {
            auto& slot = fleet[k];
            if (!slot.cfg) {
                auto ec = std::make_unique<sim::experiment_config>();
                ec->soc = slot.inst.soc;
                ec->pol = slot.inst.pol;
                ec->kind = runtime::workload_kind::trace_replay;
                ec->co_located = std::max<std::uint32_t>(slot.inst.slots, 1);
                ec->admission_queue_limit = slot.inst.admission_queue_limit;
                ec->workload = cfg.models;
                ec->seed = soc_seed(cfg.seed, slot.id);
                ec->telemetry = cfg.telemetry || fb_on;
                ec->obs.soc_index = slot.id;
                if (attr_on) {
                    slot.attr = std::make_unique<obs::latency_attributor>();
                    slot.attr->set_keep_records(false);
                    ec->obs.attr = slot.attr.get();
                }
                slot.cfg = std::move(ec);
            }
            auto& ec = *slot.cfg;
            ec.trace = std::move(traces[k]);
            if (trace_on) {
                round_traces[k] =
                    std::make_unique<obs::trace_recorder>(slot.id);
                round_traces[k]->set_flight_sample_every(
                    cfg.trace_flight_sample_every);
                ec.obs.trace = round_traces[k].get();
            }
            if (jsonl_on) ec.obs.epochs = &round_epochs[k];
            auto gen = runtime::make_workload_generator(ec);
            if (slot.sched)
                slot.sched->start_next_segment(*gen);
            else
                slot.sched = std::make_unique<runtime::scheduler>(ec, *gen);
            // The previous round's generator goes only after the swap.
            slot.gen = std::move(gen);
            slot.sched->run_segment(pause);
            round_res[k] = slot.sched->segment_result();
        });

        // Round barrier: fold this round's observability output in fleet
        // order, then flush the JSONL stream so telemetry leaves the
        // process while later rounds still run.
        cycle_t round_end = prev_round_end;
        std::uint64_t round_completed = 0, round_events = 0, round_drops = 0;
        for (const auto& res : round_res) {
            round_end = std::max(round_end, res.makespan);
            round_completed += res.completions.size();
            round_events += res.events_executed;
            round_drops += res.rejected_arrivals;
        }
        if (trace_on) {
            for (const auto& rec : round_traces) master_trace->absorb(*rec);
            std::ostringstream name;
            name << "round " << round;
            master_trace->complete(master_trace->intern(name.str()), "fleet",
                                   0, prev_round_end, round_end);
        }
        if (attr_on) {
            // Only completed totals fold; in-flight slots stay with their
            // SoC until the round that ends them.
            for (std::size_t k = 0; k < A; ++k) {
                fleet_attr->absorb(*fleet[k].attr);
                fleet[k].attr->clear_completed();
            }
            // Fleet-lane counter tracks: cumulative attribution sampled
            // at every round barrier.
            if (trace_on)
                obs::trace_attribution(*master_trace, round_end, *fleet_attr);
        }
        if (jsonl_on) {
            for (auto& sink : round_epochs) sink.drain_to(jsonl_out);
            // Cumulative fleet attribution at the barrier, on the fleet
            // lane, keyed by round.
            jsonl_out << fleet_attr->jsonl_row(fleet_lane, round) << '\n';
            char buf[256];
            std::snprintf(
                buf, sizeof buf,
                "{\"type\":\"fleet_round\",\"round\":%u,\"completions\":%llu,"
                "\"events\":%llu,\"dropped\":%llu,\"active_socs\":%u,"
                "\"end_ms\":%.6f}",
                round,
                static_cast<unsigned long long>(round_completed),
                static_cast<unsigned long long>(round_events),
                static_cast<unsigned long long>(round_drops),
                static_cast<std::uint32_t>(route_map.size()),
                cycles_to_ms(round_end));
            jsonl_out << buf << '\n';
            jsonl_out.flush();
            fleet_metrics.add("fleet.rounds");
            fleet_metrics.add("fleet.completions", round_completed);
            fleet_metrics.add("fleet.events_executed", round_events);
            fleet_metrics.add("fleet.dropped_queue", round_drops);
            fleet_metrics.histogram("fleet.round_end_ms")
                .add(cycles_to_ms(round_end));
        }
        prev_round_end = round_end;

        // Fold the round's results into the fleet aggregates now — the
        // same round-major fleet-order call sequence the end-of-run fold
        // historically produced, so every accumulator sees an identical
        // sample order — and count the round's deadline hits for the
        // autoscaler's SLA signal.
        std::uint64_t round_met = 0;
        for (auto& res : round_res) {
            out.makespan = std::max(out.makespan, res.makespan);
            out.dropped_queue += res.rejected_arrivals;
            out.events_executed += res.events_executed;
            out.completed += res.completions.size();
            out.fleet_queue_delay_ms.merge(res.queue_delay_ms);
            for (const auto& rec : res.completions) {
                const double lat_ms = cycles_to_ms(rec.latency());
                out.fleet_latency_ms.add(lat_ms);
                if (runtime::meets_qos_target(rec.abbr, rec.latency(),
                                              cfg.qos_scale)) {
                    out.deadline_met += 1;
                    round_met += 1;
                }
                auto& tenant = out.tenants[rec.abbr];
                tenant.completed += 1;
                tenant.latency_ms.add(lat_ms);
                tenant.queue_delay_ms.add(cycles_to_ms(rec.queue_delay()));
            }
        }

        if (fb_on && more_rounds) {
            std::vector<adapt::soc_rollup> rollups;
            rollups.reserve(route_map.size());
            for (const auto k : route_map)
                rollups.push_back(
                    adapt::rollup_from(round_res[k], cfg.qos_scale));
            fb->observe(rollups);

            // Re-plan against the observed cumulative mix (+1 smoothing
            // keeps every model placeable and the weights positive).
            auto replan = [&]() {
                std::uint64_t total_routed = 0;
                for (const auto n : routed_per_model) total_routed += n;
                if (total_routed == 0) return false;
                route_cfg.traffic_share.assign(M, 1.0);
                for (std::size_t m = 0; m < M; ++m)
                    route_cfg.traffic_share[m] +=
                        static_cast<double>(routed_per_model[m]);
                rebuild_router();
                out.replacements += 1;
                planned_mix = traffic_weights(route_cfg);
                return true;
            };

            if (fb->replacement_due()) {
                replan();
            } else if (fb->drift_replan_due(planned_mix, round_routed)) {
                // Proactive: the mix drifted from the plan even though no
                // SoC has a violation streak yet.
                if (replan()) out.drift_replacements += 1;
            }
        }

        // Autoscaling decision at the barrier. Signals: mean queued
        // backlog per routable SoC (its live scheduler's admission-queue
        // depth) and the round's completion SLA. Retirements always run;
        // add/drain decisions are cooldown-gated, one per barrier.
        if (scaling && more_rounds) {
            double backlog = 0.0;
            std::uint32_t routable = 0;
            for (const auto& fs : fleet) {
                if (fs.draining) continue;
                ++routable;
                backlog += static_cast<double>(fs.sched->pending());
            }
            backlog /= std::max<std::uint32_t>(routable, 1);
            const std::uint64_t round_offered = round_completed + round_drops;
            const double sla =
                round_offered ? static_cast<double>(round_met) /
                                    static_cast<double>(round_offered)
                              : 1.0;

            bool fleet_changed = false;
            auto record_event = [&](scale_event ev) {
                ev.round = round;
                ev.backlog = backlog;
                ev.sla = sla;
                std::uint32_t active = 0;
                for (const auto& fs : fleet)
                    if (!fs.draining) ++active;
                ev.active_after = active;
                out.scale_events.push_back(ev);
                if (jsonl_on) {
                    char buf[256];
                    std::snprintf(
                        buf, sizeof buf,
                        "{\"type\":\"scale_event\",\"round\":%u,"
                        "\"kind\":\"%s\",\"soc\":%u,\"active\":%u,"
                        "\"migrated\":%llu,\"backlog\":%.3f,\"sla\":%.4f}",
                        ev.round, scale_event_kind_name(ev.kind), ev.soc_id,
                        ev.active_after,
                        static_cast<unsigned long long>(ev.migrated),
                        ev.backlog, ev.sla);
                    jsonl_out << buf << '\n';
                    jsonl_out.flush();
                    fleet_metrics.add(
                        std::string("fleet.scale_") +
                        scale_event_kind_name(ev.kind) + "s");
                    if (ev.migrated)
                        fleet_metrics.add("fleet.migrated_requests",
                                          ev.migrated);
                    fleet_metrics.gauge_set("fleet.active_socs", active);
                }
                if (trace_on) {
                    switch (ev.kind) {
                        case scale_event_kind::add:
                            master_trace->instant("scale_add", "fleet", 0,
                                                  round_end);
                            break;
                        case scale_event_kind::drain:
                            master_trace->instant("scale_drain", "fleet", 0,
                                                  round_end);
                            break;
                        case scale_event_kind::retire:
                            master_trace->instant("scale_retire", "fleet", 0,
                                                  round_end);
                            break;
                    }
                }
            };

            // Retire draining SoCs with no remaining work (running set and
            // admission queue both empty).
            for (std::size_t k = 0; k < fleet.size();) {
                auto& fs = fleet[k];
                if (fs.draining && fs.sched->running_count() == 0 &&
                    fs.sched->pending() == 0) {
                    const std::uint32_t id = fs.id;
                    fleet.erase(fleet.begin() +
                                static_cast<std::ptrdiff_t>(k));
                    fleet_changed = true;
                    scale_event ev;
                    ev.kind = scale_event_kind::retire;
                    ev.soc_id = id;
                    record_event(ev);
                } else {
                    ++k;
                }
            }

            if (cooldown > 0) {
                --cooldown;
            } else if ((backlog > cfg.autoscale.backlog_high ||
                        sla < cfg.autoscale.sla_low) &&
                       routable < max_socs) {
                // Scale up: a cold clone of the fleet's first configured
                // instance under the next stable id.
                fleet.push_back(
                    {cfg.socs.front(), next_id++, false, {}, {}, {}, {}});
                fleet_changed = true;
                cooldown = cfg.autoscale.cooldown_rounds;
                scale_event ev;
                ev.kind = scale_event_kind::add;
                ev.soc_id = fleet.back().id;
                record_event(ev);
            } else if (backlog < cfg.autoscale.backlog_low &&
                       sla >= cfg.autoscale.sla_low && routable > min_socs) {
                // Drain the least-backlogged routable SoC (ties prefer the
                // youngest, so autoscaled additions leave first), lifting
                // its queued work out of its scheduler for re-routing.
                std::size_t pick = fleet.size();
                std::uint64_t best = 0;
                for (std::size_t k = 0; k < fleet.size(); ++k) {
                    if (fleet[k].draining) continue;
                    const std::uint64_t q = fleet[k].sched->pending();
                    if (pick == fleet.size() || q < best ||
                        (q == best && fleet[k].id > fleet[pick].id)) {
                        pick = k;
                        best = q;
                    }
                }
                if (pick < fleet.size()) {
                    auto& fs = fleet[pick];
                    fs.draining = true;
                    std::uint64_t migrated = 0;
                    for (const auto& q : fs.sched->lift_admission_queue()) {
                        const auto it = model_index.find(q.mdl->name);
                        if (it == model_index.end()) continue;
                        migrate_backlog.push_back({q.at, it->second});
                        ++migrated;
                    }
                    out.migrated_requests += migrated;
                    fleet_changed = true;
                    cooldown = cfg.autoscale.cooldown_rounds;
                    scale_event ev;
                    ev.kind = scale_event_kind::drain;
                    ev.soc_id = fs.id;
                    ev.migrated = migrated;
                    record_event(ev);
                }
            }

            if (fleet_changed) {
                // Resize feedback to the new routable set (weights and
                // violation streaks restart; the router is rebuilt against
                // the fresh weights, so stale per-SoC state never leaks
                // across a fleet-shape change).
                std::uint32_t routable_now = 0;
                for (const auto& fs : fleet)
                    if (!fs.draining) ++routable_now;
                fb = std::make_unique<adapt::fleet_feedback>(cfg.feedback,
                                                             routable_now);
                rebuild_router();
            }
        }

        // Retain or release the round's results. Bounded-history runs keep
        // compact rollups plus a completion ring; everything else keeps
        // the historical round-major per_soc layout.
        if (cfg.bounded_history) {
            for (std::size_t k = 0; k < round_res.size(); ++k) {
                const auto& res = round_res[k];
                out.round_summaries.push_back(
                    {round, round_ids[k], res.completions.size(),
                     res.rejected_arrivals, res.events_executed,
                     res.makespan});
                if (cfg.history_records > 0) {
                    for (const auto& rec : res.completions) {
                        if (out.recent_completions.size() <
                            cfg.history_records) {
                            out.recent_completions.push_back(rec);
                        } else {
                            out.recent_completions[ring_pos] = rec;
                            ring_pos = (ring_pos + 1) % cfg.history_records;
                        }
                    }
                }
            }
        } else {
            for (auto& res : round_res) out.per_soc.push_back(std::move(res));
        }
    }

    // Remaining fleet-level aggregation (per-round folds above handled the
    // order-sensitive accumulators).
    for (std::size_t m = 0; m < M; ++m)
        out.tenants[cfg.models[m]->abbr].routed += routed_per_model[m];
    for (auto& [abbr, tenant] : out.tenants)
        tenant.dropped = tenant.routed - tenant.completed;
    if (fb_on) out.route_weights = fb->weights();

    if (attr_on) {
        // Roll the fleet attribution into the result and the metrics
        // registry (tenant names are model abbreviations, matching
        // out.tenants' keys).
        const auto& names = fleet_attr->tenant_names();
        const auto& tens = fleet_attr->tenants();
        for (std::size_t i = 0; i < names.size(); ++i) {
            auto& tm = out.tenants[names[i]];
            tm.attribution_completed = tens[i].completed;
            tm.attribution_latency_cycles = tens[i].latency_cycles;
            tm.attribution = tens[i].comp;
            for (std::size_t j = 0; j < names.size(); ++j) {
                const std::uint64_t v = fleet_attr->interference(
                    static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(j));
                if (v != 0) out.interference[names[i]][names[j]] = v;
            }
        }
        fleet_attr->export_metrics(fleet_metrics);
    }

    if (jsonl_on) {
        std::ostringstream payload;
        fleet_metrics.write_json(payload);
        jsonl_out << "{\"type\":\"metrics\",\"payload\":" << payload.str()
                  << "}\n";
        jsonl_out.flush();
    }
    if (trace_on) {
        std::ofstream tf(cfg.trace_path);
        if (!tf)
            throw std::runtime_error("run_cluster: cannot open trace path " +
                                     cfg.trace_path);
        obs::write_chrome_trace(tf, master_trace->events(),
                                {{fleet_lane, "fleet"}});
    }
    return out;
}

}  // namespace camdn::serve
