// Adaptive vs static: does closing the feedback loop pay?
//
// Three scenarios, each comparing static CaMDN(Full) (and MoCA as the
// bandwidth-only reference) against CaMDN(Adaptive):
//   1. the paper's steady-state closed loop (§IV-A4) — the adaptive
//      controller must not lose what static CaMDN already wins;
//   2. a bursty MMPP open-loop stream on one SoC — lulls and bursts are
//      where the static equal split and fixed look-ahead leave room;
//   3. a bursty fleet served in feedback rounds — adaptive vs static SoCs
//      under the same round model (router weights and re-placement run
//      for both); the single-shot static fleet is printed for reference.
// A determinism pass re-runs scenario 2 across sweep-pool widths and
// asserts bit-identical results and telemetry. The process exits non-zero
// if adaptive regresses on the acceptance metrics (SLA, p99).
#include <cstdint>
#include <iostream>

#include "bench/harness.h"
#include "serve/cluster.h"

using namespace camdn;

namespace {

struct outcome {
    double sla = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
};

/// SLA against the Table-I targets (scale 1.0): completions within target
/// over all offered work — drops count as misses.
outcome score(const sim::experiment_result& res) {
    outcome o;
    o.served = res.completions.size();
    o.dropped = res.rejected_arrivals;
    o.mean_ms = res.avg_latency_ms();
    percentile_tracker lat;
    std::uint64_t met = 0;
    for (const auto& rec : res.completions) {
        lat.add(cycles_to_ms(rec.latency()));
        if (runtime::meets_qos_target(rec.abbr, rec.latency(), 1.0)) ++met;
    }
    o.p99_ms = lat.p99();
    const std::uint64_t offered = o.served + o.dropped;
    o.sla = offered ? static_cast<double>(met) / offered : 1.0;
    return o;
}

bool telemetry_identical(const std::vector<adapt::epoch_snapshot>& a,
                         const std::vector<adapt::epoch_snapshot>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].start != b[i].start || a[i].end != b[i].end ||
            a[i].dram_bytes != b[i].dram_bytes ||
            a[i].active_slots != b[i].active_slots ||
            a[i].tasks.size() != b[i].tasks.size())
            return false;
        for (std::size_t s = 0; s < a[i].tasks.size(); ++s) {
            const auto& x = a[i].tasks[s];
            const auto& y = b[i].tasks[s];
            if (x.cache_hits != y.cache_hits || x.dma_bytes != y.dma_bytes ||
                x.page_wait_cycles != y.page_wait_cycles ||
                x.page_timeouts != y.page_timeouts ||
                x.completions != y.completions)
                return false;
        }
    }
    return true;
}

int verdict(const char* what, bool ok) {
    std::cout << "verdict: " << what << ": " << (ok ? "PASS" : "FAIL") << "\n";
    return ok ? 0 : 1;
}

}  // namespace

int main() {
    bench::banner(
        "Adaptive vs static: telemetry feedback control against static\n"
        "CaMDN(Full) and MoCA, steady-state / bursty / fleet");
    int failures = 0;

    const auto workload = bench::zoo();

    // ---- 1. steady-state closed loop ----------------------------------
    std::cout << "== Steady state: closed loop, " << "8 co-located slots ==\n\n";
    sim::experiment_config steady;
    steady.workload = workload;
    steady.co_located = 8;
    steady.inferences_per_slot = bench::fast_mode() ? 2 : 4;

    const std::vector<sim::policy> pols{sim::policy::moca,
                                        sim::policy::camdn_full,
                                        sim::policy::camdn_adaptive};
    const auto steady_res = bench::run_policies(steady, pols);

    table_printer st({"policy", "SLA", "p99 (ms)", "mean (ms)",
                      "makespan (ms)"});
    std::vector<outcome> steady_out;
    for (std::size_t i = 0; i < pols.size(); ++i) {
        steady_out.push_back(score(steady_res[i]));
        st.add_row({sim::policy_name(pols[i]),
                    fmt_fixed(steady_out[i].sla, 3),
                    fmt_fixed(steady_out[i].p99_ms, 2),
                    fmt_fixed(steady_out[i].mean_ms, 2),
                    fmt_fixed(cycles_to_ms(steady_res[i].makespan), 2)});
        bench::json_report(
            "adaptive_vs_static",
            {bench::jstr("scenario", "steady_closed_loop"),
             bench::jstr("policy", sim::policy_name(pols[i])),
             bench::jnum("sla", steady_out[i].sla),
             bench::jnum("p99_ms", steady_out[i].p99_ms),
             bench::jnum("mean_ms", steady_out[i].mean_ms)});
    }
    st.print(std::cout);
    std::cout << "\n";

    const outcome& s_static = steady_out[1];
    const outcome& s_adapt = steady_out[2];
    failures += verdict("steady: adaptive SLA >= static CaMDN",
                        s_adapt.sla >= s_static.sla - 1e-12);
    failures += verdict("steady: adaptive p99 <= 1.02x static CaMDN",
                        s_adapt.p99_ms <= s_static.p99_ms * 1.02 + 1e-9);

    // ---- 2. bursty MMPP, one SoC --------------------------------------
    std::cout << "\n== Bursty MMPP open loop (x0.25 lull / x4 burst) ==\n\n";
    sim::experiment_config bursty;
    bursty.kind = runtime::workload_kind::open_loop_mmpp;
    bursty.workload = workload;
    bursty.co_located = 8;
    bursty.arrival_rate_per_ms = 2.5;
    bursty.mmpp_rate_scale = {0.25, 4.0};
    bursty.mmpp_sojourn_ms = 4.0;
    bursty.total_arrivals = bench::fast_mode() ? 32 : 96;
    bursty.admission_queue_limit = 24;
    bursty.telemetry = true;

    const auto bursty_res = bench::run_policies(bursty, pols);
    table_printer bt({"policy", "SLA", "p99 (ms)", "served", "dropped",
                      "page-wait (Mcyc)", "timeouts"});
    std::vector<outcome> bursty_out;
    for (std::size_t i = 0; i < pols.size(); ++i) {
        bursty_out.push_back(score(bursty_res[i]));
        std::uint64_t wait = 0, tmo = 0;
        for (const auto& e : bursty_res[i].telemetry) {
            wait += e.total_page_wait();
            tmo += e.total_timeouts();
        }
        bt.add_row({sim::policy_name(pols[i]), fmt_fixed(bursty_out[i].sla, 3),
                    fmt_fixed(bursty_out[i].p99_ms, 2),
                    std::to_string(bursty_out[i].served),
                    std::to_string(bursty_out[i].dropped),
                    fmt_fixed(static_cast<double>(wait) * 1e-6, 2),
                    std::to_string(tmo)});
        std::vector<bench::json_field> fields{
            bench::jstr("scenario", "bursty_mmpp"),
            bench::jstr("policy", sim::policy_name(pols[i])),
            bench::jnum("sla", bursty_out[i].sla),
            bench::jnum("p99_ms", bursty_out[i].p99_ms),
            bench::jint("dropped", bursty_out[i].dropped)};
        for (auto& f : bench::json_telemetry_fields(bursty_res[i]))
            fields.push_back(std::move(f));
        bench::json_report("adaptive_vs_static", fields);
    }
    bt.print(std::cout);
    std::cout << "\n";

    const outcome& b_static = bursty_out[1];
    const outcome& b_adapt = bursty_out[2];
    failures += verdict("bursty: adaptive SLA >= static CaMDN",
                        b_adapt.sla >= b_static.sla - 1e-12);
    failures += verdict("bursty: adaptive p99 <= static CaMDN",
                        b_adapt.p99_ms <= b_static.p99_ms + 1e-9);

    // ---- determinism across sweep widths ------------------------------
    {
        std::vector<sim::experiment_config> cfgs(2, bursty);
        cfgs[0].pol = sim::policy::camdn_adaptive;
        cfgs[1].pol = sim::policy::camdn_adaptive;
        cfgs[1].seed += 1;
        const auto seq = sim::run_sweep(cfgs, 1);
        const auto par = sim::run_sweep(cfgs, 4);
        bool same = true;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            same = same && seq[i].makespan == par[i].makespan &&
                   seq[i].dram_total_bytes == par[i].dram_total_bytes &&
                   seq[i].completions.size() == par[i].completions.size() &&
                   telemetry_identical(seq[i].telemetry, par[i].telemetry);
        }
        failures += verdict("determinism: pool width 1 == 4 (incl telemetry)",
                            same);
    }

    // ---- 3. fleet: static vs adaptive under MMPP ----------------------
    std::cout << "\n== Fleet: 4 SoCs, MMPP stream, static vs adaptive ==\n\n";
    serve::soc_instance_config inst;
    inst.slots = 2;
    inst.admission_queue_limit = 12;
    auto fleet = serve::uniform_cluster(4, inst);
    fleet.models = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB."),
                    &model::model_by_abbr("EF."), &model::model_by_abbr("VT.")};
    fleet.process = serve::arrival_process::mmpp;
    fleet.mmpp_rate_scale = {0.25, 4.0};
    fleet.mmpp_sojourn_ms = 4.0;
    fleet.arrival_rate_per_ms = 6.0;
    fleet.total_arrivals = bench::fast_mode() ? 96 : 256;
    // Both verdict fleets serve the stream in the same feedback rounds, so
    // they compare SoC policies under one round model.
    fleet.feedback_rounds = 4;

    auto static_fleet = fleet;
    for (auto& s : static_fleet.socs) s.pol = sim::policy::camdn_full;
    auto single_shot = static_fleet;  // reference row only, no verdict
    single_shot.feedback_rounds = 1;

    auto adaptive_fleet = fleet;
    for (auto& s : adaptive_fleet.socs) s.pol = sim::policy::camdn_adaptive;

    const auto rs = serve::run_cluster(static_fleet);
    const auto ra = serve::run_cluster(adaptive_fleet);
    const auto ra2 = serve::run_cluster(adaptive_fleet);  // repeatability
    const auto r1 = serve::run_cluster(single_shot);

    table_printer ft({"fleet", "SLA", "p99 (ms)", "served", "dropped",
                      "re-place"});
    const struct {
        const char* label;
        const char* policy;
        const serve::cluster_result* r;
    } rows[] = {{"static CaMDN, 4 rounds", "static_camdn", &rs},
                {"adaptive, 4 rounds", "adaptive_feedback", &ra},
                {"static CaMDN, single-shot (ref)", "static_camdn_single_shot",
                 &r1}};
    for (const auto& row : rows) {
        const auto* r = row.r;
        ft.add_row({row.label, fmt_fixed(r->sla_rate(), 3),
                    fmt_fixed(r->fleet_latency_ms.p99(), 2),
                    std::to_string(r->completed),
                    std::to_string(r->dropped_queue + r->dropped_unroutable),
                    std::to_string(r->replacements)});
        bench::json_report(
            "adaptive_vs_static",
            {bench::jstr("scenario", "fleet_mmpp"),
             bench::jstr("policy", row.policy),
             bench::jnum("sla", r->sla_rate()),
             bench::jnum("p99_ms", r->fleet_latency_ms.p99()),
             bench::jint("served", r->completed),
             bench::jint("dropped",
                         r->dropped_queue + r->dropped_unroutable)});
    }
    ft.print(std::cout);
    std::cout << "\n";

    failures += verdict("fleet: adaptive SLA >= static",
                        ra.sla_rate() >= rs.sla_rate() - 1e-12);
    failures += verdict("fleet: adaptive p99 <= static",
                        ra.fleet_latency_ms.p99() <=
                            rs.fleet_latency_ms.p99() + 1e-9);
    failures += verdict("fleet: adaptive run is repeatable bit-for-bit",
                        ra.completed == ra2.completed &&
                            ra.makespan == ra2.makespan &&
                            ra.fleet_latency_ms.p99() ==
                                ra2.fleet_latency_ms.p99());

    std::cout << "\n"
              << (failures == 0 ? "ALL VERDICTS PASS"
                                : "SOME VERDICTS FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
}
