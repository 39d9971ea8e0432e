// Tests of the observability layer (src/obs) and its common/stats
// backends:
//   * P² streaming quantiles — accuracy against the exact tracker on
//     uniform / lognormal / adversarial streams (with the error bounds
//     the header promises), small-n exactness, determinism;
//   * quantile_accumulator — backend switch rules, merge semantics,
//     exact() access guard;
//   * trace recorder — Chrome trace JSON validity (mini validator),
//     per-(pid, tid) timestamp ordering, interning, absorb, drop cap;
//   * zero-overhead-off — under every policy, a run with all five
//     sinks attached is bit-identical (results AND snapshot bytes) to a
//     bare run;
//   * pinned outputs — size and FNV-1a of every observer output of an
//     adaptive, an AuRORA and a fleet run, and of two elastic
//     bounded-history fleets' files and retained history;
//   * cluster determinism — trace and JSONL files byte-identical across
//     sweep-pool widths;
//   * metrics registry and profiler basics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "model/model_zoo.h"
#include "obs/attribution.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/scheduler.h"
#include "runtime/workload.h"
#include "serve/cluster.h"
#include "sim/experiment.h"

namespace camdn {
namespace {

// ---- mini JSON validator ----------------------------------------------
// Recursive-descent structural check: enough to prove the exported trace
// and registry dumps are well-formed JSON without a third-party parser.

struct json_checker {
    const std::string& s;
    std::size_t i = 0;

    void ws() {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                                s[i] == '\r'))
            ++i;
    }
    bool eat(char c) {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    bool string() {
        ws();
        if (i >= s.size() || s[i] != '"') return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size()) return false;
            }
            ++i;
        }
        return eat('"') || (s[i - 1] == '"' && true);
    }
    bool number() {
        ws();
        const std::size_t start = i;
        if (i < s.size() && s[i] == '-') ++i;
        while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }
    bool literal(const char* lit) {
        ws();
        const std::size_t n = std::string(lit).size();
        if (s.compare(i, n, lit) == 0) {
            i += n;
            return true;
        }
        return false;
    }
    bool value() {
        ws();
        if (i >= s.size()) return false;
        switch (s[i]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        if (!eat('{')) return false;
        if (eat('}')) return true;
        do {
            if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
    }
    bool array() {
        if (!eat('[')) return false;
        if (eat(']')) return true;
        do {
            if (!value()) return false;
        } while (eat(','));
        return eat(']');
    }
};

bool valid_json(const std::string& text) {
    json_checker c{text};
    if (!c.value()) return false;
    c.ws();
    return c.i == text.size();
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---- P² streaming quantiles -------------------------------------------

/// Max |P² - exact| / range over the reporting quantiles.
double worst_rel_err(const p2_quantiles& p2, const percentile_tracker& ex) {
    const double range = ex.max() - ex.min();
    if (range == 0.0) return 0.0;
    double worst = 0.0;
    worst = std::max(worst, std::abs(p2.p50() - ex.p50()) / range);
    worst = std::max(worst, std::abs(p2.p95() - ex.p95()) / range);
    worst = std::max(worst, std::abs(p2.p99() - ex.p99()) / range);
    return worst;
}

TEST(p2, uniform_stream_tracks_exact_quantiles) {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    p2_quantiles p2;
    percentile_tracker exact;
    for (int i = 0; i < 20000; ++i) {
        const double v = u(rng);
        p2.add(v);
        exact.add(v);
    }
    // Uniform is the friendly case: everything lands within 1% of range.
    EXPECT_LT(worst_rel_err(p2, exact), 0.01);
    EXPECT_EQ(p2.count(), exact.count());
    EXPECT_DOUBLE_EQ(p2.min(), exact.min());
    EXPECT_DOUBLE_EQ(p2.max(), exact.max());
}

TEST(p2, lognormal_stream_tracks_exact_quantiles) {
    std::mt19937_64 rng(11);
    std::lognormal_distribution<double> ln(0.0, 1.0);
    p2_quantiles p2;
    percentile_tracker exact;
    for (int i = 0; i < 20000; ++i) {
        const double v = ln(rng);
        p2.add(v);
        exact.add(v);
    }
    // Heavy tail stretches the range; 2% of range still bounds the error,
    // and the body quantiles stay within 5% relative.
    EXPECT_LT(worst_rel_err(p2, exact), 0.02);
    EXPECT_LT(std::abs(p2.p50() - exact.p50()) / exact.p50(), 0.05);
    EXPECT_LT(std::abs(p2.p95() - exact.p95()) / exact.p95(), 0.05);
}

TEST(p2, adversarial_sorted_and_alternating_streams_stay_bounded) {
    // Monotone ascending: the worst case for marker-based estimators.
    {
        p2_quantiles p2;
        percentile_tracker exact;
        for (int i = 0; i < 10000; ++i) {
            p2.add(static_cast<double>(i));
            exact.add(static_cast<double>(i));
        }
        EXPECT_LT(worst_rel_err(p2, exact), 0.12);
    }
    // Alternating extremes (bimodal): P²'s genuine worst case — the
    // parabolic marker update assumes a locally smooth density, so the
    // median marker settles between the modes while the exact median sits
    // on one of them. Observed error is 1/3 of range; estimates still
    // never leave [min, max].
    {
        p2_quantiles p2;
        percentile_tracker exact;
        for (int i = 0; i < 10000; ++i) {
            const double v = (i % 2 == 0) ? 1.0 : 1000.0;
            p2.add(v);
            exact.add(v);
        }
        EXPECT_LT(worst_rel_err(p2, exact), 0.4);
        EXPECT_GE(p2.p50(), exact.min());
        EXPECT_LE(p2.p50(), exact.max());
    }
}

TEST(p2, exact_below_five_samples) {
    // The estimator promises nearest-rank exactness until five samples.
    p2_estimator median(0.5);
    EXPECT_EQ(median.value(), 0.0);  // empty
    const double vals[4] = {9.0, 1.0, 5.0, 3.0};
    percentile_tracker exact;
    for (int n = 0; n < 4; ++n) {
        median.add(vals[n]);
        exact.add(vals[n]);
        EXPECT_DOUBLE_EQ(median.value(), exact.quantile(0.5))
            << "after " << n + 1 << " samples";
    }
}

TEST(p2, exact_at_exactly_five_samples) {
    // Regression: at count == 5 the markers are still the raw sorted
    // sample array — the first P² marker adjustment only happens on the
    // sixth add — so value() must fall back to the nearest-rank sample.
    // The old `count_ < 5` guard read the middle marker h_[2] instead,
    // reporting 3 for q=0.95 over {1..5}.
    p2_estimator q95(0.95);
    percentile_tracker exact;
    for (int v = 1; v <= 5; ++v) {
        q95.add(static_cast<double>(v));
        exact.add(static_cast<double>(v));
        EXPECT_DOUBLE_EQ(q95.value(), exact.quantile(0.95))
            << "after " << v << " samples";
    }
    EXPECT_DOUBLE_EQ(q95.value(), 5.0);
}

TEST(p2, nan_samples_are_rejected_and_counted) {
    p2_quantiles q;
    q.add(1.0);
    q.add(std::numeric_limits<double>::quiet_NaN());
    q.add(2.0);
    EXPECT_EQ(q.count(), 2u);
    EXPECT_EQ(q.nan_count(), 1u);
    EXPECT_DOUBLE_EQ(q.min(), 1.0);
    EXPECT_DOUBLE_EQ(q.max(), 2.0);
}

TEST(p2, deterministic_for_identical_streams) {
    std::mt19937_64 rng_a(3), rng_b(3);
    std::lognormal_distribution<double> ln(0.0, 0.5);
    p2_quantiles a, b;
    for (int i = 0; i < 5000; ++i) a.add(ln(rng_a));
    for (int i = 0; i < 5000; ++i) b.add(ln(rng_b));
    EXPECT_EQ(a.p50(), b.p50());
    EXPECT_EQ(a.p95(), b.p95());
    EXPECT_EQ(a.p99(), b.p99());
}

// ---- quantile_accumulator ---------------------------------------------

TEST(quantile_accumulator, exact_mode_matches_percentile_tracker) {
    quantile_accumulator acc;  // exact by default
    percentile_tracker ref;
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> u(0.0, 10.0);
    for (int i = 0; i < 500; ++i) {
        const double v = u(rng);
        acc.add(v);
        ref.add(v);
    }
    EXPECT_FALSE(acc.streaming());
    EXPECT_DOUBLE_EQ(acc.p50(), ref.p50());
    EXPECT_DOUBLE_EQ(acc.p95(), ref.p95());
    EXPECT_DOUBLE_EQ(acc.p99(), ref.p99());
    EXPECT_EQ(acc.exact().count(), ref.count());
}

TEST(quantile_accumulator, backend_switch_only_while_empty) {
    quantile_accumulator acc;
    acc.set_streaming(true);   // empty: fine
    acc.set_streaming(false);  // back again: fine
    acc.add(1.0);
    EXPECT_NO_THROW(acc.set_streaming(false));  // no-op switch is allowed
    EXPECT_THROW(acc.set_streaming(true), std::logic_error);
}

TEST(quantile_accumulator, exact_access_throws_in_streaming_mode) {
    quantile_accumulator acc;
    acc.set_streaming(true);
    acc.add(1.0);
    EXPECT_THROW(acc.exact(), std::logic_error);
}

TEST(quantile_accumulator, merge_feeds_streaming_backend_in_sorted_order) {
    // Build the same multiset through two differently-ordered trackers;
    // the streaming merge sorts first, so both accumulators agree exactly.
    percentile_tracker fwd, rev;
    for (int i = 0; i < 100; ++i) fwd.add(static_cast<double>(i));
    for (int i = 99; i >= 0; --i) rev.add(static_cast<double>(i));
    quantile_accumulator a, b;
    a.set_streaming(true);
    b.set_streaming(true);
    a.merge(fwd);
    b.merge(rev);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_EQ(a.p50(), b.p50());
    EXPECT_EQ(a.p95(), b.p95());
    EXPECT_EQ(a.p99(), b.p99());
}

TEST(quantile_accumulator, nan_rejected_by_both_backends) {
    quantile_accumulator exact, streaming;
    streaming.set_streaming(true);
    for (quantile_accumulator* acc : {&exact, &streaming}) {
        acc->add(1.0);
        acc->add(std::numeric_limits<double>::quiet_NaN());
        acc->add(3.0);
        EXPECT_EQ(acc->count(), 2u);
        EXPECT_EQ(acc->nan_count(), 1u);
        EXPECT_DOUBLE_EQ(acc->max(), 3.0);
    }
}

TEST(quantile_accumulator, batched_sorted_merges_track_exact_on_bursty_stream) {
    // Mimic the cluster's per-round fold on a long bursty stream: each
    // round's samples land in a per-SoC percentile_tracker, and the fleet
    // accumulator absorbs them batch by batch (merge sorts each batch
    // before feeding P²). The streamed estimates must stay close to the
    // exact quantiles of the full stream.
    std::mt19937_64 rng(23);
    std::lognormal_distribution<double> calm(0.0, 0.4);
    std::lognormal_distribution<double> burst(1.5, 0.6);
    quantile_accumulator st;
    st.set_streaming(true);
    percentile_tracker exact;
    for (int round = 0; round < 64; ++round) {
        percentile_tracker batch;
        const bool bursty = (round / 4) % 2 == 1;  // MMPP-ish regimes
        for (int i = 0; i < 500; ++i) {
            const double v = bursty ? burst(rng) : calm(rng);
            batch.add(v);
            exact.add(v);
        }
        st.merge(batch);
    }
    EXPECT_EQ(st.count(), exact.count());
    const double range = exact.max() - exact.min();
    EXPECT_LT(std::abs(st.p50() - exact.p50()) / range, 0.05);
    EXPECT_LT(std::abs(st.p95() - exact.p95()) / range, 0.05);
    EXPECT_LT(std::abs(st.p99() - exact.p99()) / range, 0.05);
}

// ---- trace recorder ---------------------------------------------------

TEST(trace, export_is_valid_json_and_per_thread_ordered) {
    obs::trace_recorder rec(2);
    // Record deliberately out of timestamp order across two tids.
    rec.complete("conv1", "layer", 1, 500, 900);
    rec.complete("conv0", "layer", 0, 100, 400);
    rec.complete_arg("weights", "dma", 1, 50, 450, 4096);
    rec.instant("page_timeout", "sched", 0, 50);
    rec.complete("conv2", "layer", 0, 450, 800);

    const auto sorted = obs::sorted_for_export(rec.events());
    ASSERT_EQ(sorted.size(), 5u);
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        const auto& p = sorted[i - 1];
        const auto& e = sorted[i];
        const bool same_lane = p.pid == e.pid && p.tid == e.tid;
        if (same_lane) EXPECT_LE(p.ts, e.ts) << "event " << i;
    }

    std::ostringstream out;
    obs::write_chrome_trace(out, rec.events(), {{2u, "test soc"}});
    const std::string text = out.str();
    EXPECT_TRUE(valid_json(text)) << text.substr(0, 200);
    // All five events plus metadata made it out.
    EXPECT_NE(text.find("\"conv1\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("test soc"), std::string::npos);
    // 1 GHz clock: 500 cycles -> 0.5 us.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
}

TEST(trace, intern_returns_stable_pointers_and_absorb_reinterns) {
    obs::trace_recorder rec(0);
    const char* a = rec.intern(std::string("RS."));
    const char* b = rec.intern(std::string("RS."));
    EXPECT_EQ(a, b);  // same string, same pointer
    rec.complete_arg(a, "inference", 3, 0, 100, 1);

    obs::trace_recorder master(7);
    master.absorb(rec);
    ASSERT_EQ(master.size(), 1u);
    // Events keep their recording pid (per-SoC lanes survive the fold)...
    EXPECT_EQ(master.events()[0].pid, 0u);
    // ...and the name was re-interned into the master's storage.
    EXPECT_STREQ(master.events()[0].name, "RS.");
    EXPECT_NE(master.events()[0].name, a);
}

TEST(trace, event_cap_counts_drops_instead_of_growing) {
    obs::trace_recorder rec(0, 3);
    for (int i = 0; i < 10; ++i)
        rec.complete("e", "cat", 0, i, i + 1);
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.dropped(), 7u);
}

// ---- metrics registry -------------------------------------------------

TEST(metrics, registry_roundtrip_and_deterministic_json) {
    obs::metrics_registry m;
    m.add("sched.completions");
    m.add("sched.completions", 4);
    m.set("eq.events_executed", 1234);
    m.gauge_set("sim.idle_pages", 17.0);
    for (int i = 1; i <= 100; ++i)
        m.histogram("sched.latency_ms").add(static_cast<double>(i));

    EXPECT_EQ(m.counter("sched.completions"), 5u);
    EXPECT_EQ(m.counter("eq.events_executed"), 1234u);
    EXPECT_EQ(m.counter("missing"), 0u);
    EXPECT_DOUBLE_EQ(m.gauge("sim.idle_pages"), 17.0);
    ASSERT_NE(m.find_histogram("sched.latency_ms"), nullptr);
    EXPECT_EQ(m.find_histogram("sched.latency_ms")->count(), 100u);
    EXPECT_EQ(m.find_histogram("missing"), nullptr);

    std::ostringstream a, b;
    m.write_json(a);
    m.write_json(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_TRUE(valid_json(a.str())) << a.str().substr(0, 200);
}

// ---- jsonl sink -------------------------------------------------------

TEST(jsonl, buffered_drain_preserves_order_and_streaming_writes_through) {
    obs::jsonl_sink buf;
    buf.row("{\"a\":1}");
    buf.row("{\"a\":2}");
    obs::jsonl_sink dst;
    buf.drain_to(dst);
    EXPECT_EQ(buf.rows(), 0u);
    ASSERT_EQ(dst.buffered().size(), 2u);
    EXPECT_EQ(dst.buffered()[0], "{\"a\":1}");

    std::ostringstream out;
    obs::jsonl_sink stream(&out);
    stream.row("{\"b\":1}");
    EXPECT_EQ(out.str(), "{\"b\":1}\n");
    EXPECT_TRUE(stream.buffered().empty());
}

// ---- profiler ---------------------------------------------------------

TEST(profiler, scopes_are_null_safe_and_attribute_exclusively) {
    { obs::profile_scope null_scope(nullptr, obs::subsystem::dma); }  // no-op

    obs::profiler prof;
    {
        obs::profile_scope outer(&prof, obs::subsystem::dma);
        { obs::profile_scope inner(&prof, obs::subsystem::dram); }
    }
    // Attribution is exclusive: per-subsystem times sum to the total.
    double sum = 0.0;
    for (std::size_t s = 0; s < obs::n_subsystems; ++s)
        sum += prof.seconds(static_cast<obs::subsystem>(s));
    EXPECT_NEAR(sum, prof.total_seconds(), 1e-9);
    EXPECT_GE(prof.seconds(obs::subsystem::dram), 0.0);
}

// ---- zero-overhead-off: observed run == bare run ----------------------

sim::experiment_config observed_cfg() {
    sim::experiment_config cfg;
    cfg.pol = sim::policy::camdn_adaptive;
    cfg.workload = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.co_located = 4;
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.arrival_rate_per_ms = 0.8;
    cfg.total_arrivals = 8;
    cfg.admission_queue_limit = 8;
    cfg.seed = 23;
    return cfg;
}

void expect_identical(const sim::experiment_result& a,
                      const sim::experiment_result& b) {
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.dram_total_bytes, b.dram_total_bytes);
    EXPECT_EQ(a.events_executed, b.events_executed);
    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        EXPECT_EQ(a.completions[i].end, b.completions[i].end);
        EXPECT_EQ(a.completions[i].abbr, b.completions[i].abbr);
        EXPECT_EQ(a.completions[i].dram_bytes, b.completions[i].dram_bytes);
    }
}

/// Every observer attached at once: the five sinks of a run_observer.
struct all_sinks {
    obs::trace_recorder trace{0};
    obs::metrics_registry metrics;
    obs::jsonl_sink epochs;
    obs::profiler prof;
    obs::latency_attributor attr;

    explicit all_sinks(sim::experiment_config& cfg) {
        trace.set_chunk_events(true);  // max granularity, still observation
        cfg.obs.trace = &trace;
        cfg.obs.metrics = &metrics;
        cfg.obs.epochs = &epochs;
        cfg.obs.prof = &prof;
        cfg.obs.attr = &attr;
    }
};

constexpr sim::policy all_policies[] = {
    sim::policy::shared_baseline, sim::policy::moca,
    sim::policy::aurora,          sim::policy::camdn_hw_only,
    sim::policy::camdn_full,      sim::policy::camdn_adaptive};

TEST(zero_overhead_off, observed_run_results_are_bit_identical) {
    for (const sim::policy pol : all_policies) {
        SCOPED_TRACE(sim::policy_name(pol));
        auto cfg = observed_cfg();
        cfg.pol = pol;
        const auto bare = sim::run_experiment(cfg);

        all_sinks sinks(cfg);
        const auto observed = sim::run_experiment(cfg);

        expect_identical(bare, observed);
        // The observers actually saw the run.
        EXPECT_GT(sinks.trace.size(), 0u);
        EXPECT_GT(sinks.metrics.counter("sched.completions"), 0u);
        EXPECT_GT(sinks.metrics.counter("eq.events_executed"), 0u);
        EXPECT_GT(sinks.epochs.rows(), 0u);
        ASSERT_NE(sinks.metrics.find_histogram("sched.latency_ms"), nullptr);
        EXPECT_EQ(sinks.metrics.find_histogram("sched.latency_ms")->count(),
                  bare.completions.size());
        EXPECT_EQ(sinks.attr.records().size(), bare.completions.size());
    }
}

TEST(zero_overhead_off, snapshot_bytes_are_bit_identical) {
    // Pause both runs at the same mid-run boundary: the snapshot of the
    // observed machine must be byte-equal to the bare machine's (observers
    // are never fingerprinted or serialized).
    const cycle_t boundary = ms_to_cycles(2.0);
    for (const sim::policy pol : all_policies) {
        SCOPED_TRACE(sim::policy_name(pol));
        auto cfg = observed_cfg();
        cfg.pol = pol;
        auto gen_bare = runtime::make_workload_generator(cfg);
        runtime::scheduler bare(cfg, *gen_bare);
        ASSERT_TRUE(bare.run_segment(boundary));

        auto ocfg = cfg;
        all_sinks sinks(ocfg);
        auto gen_obs = runtime::make_workload_generator(ocfg);
        runtime::scheduler observed(ocfg, *gen_obs);
        ASSERT_TRUE(observed.run_segment(boundary));

        EXPECT_EQ(bare.save().encode(), observed.save().encode());
    }
}

TEST(zero_overhead_off, observer_epochs_restart_at_a_resume) {
    // A bus that only feeds observers is not saved with the run: an
    // observing exact resume finishes the run bit-identically, and its
    // epochs restart at the resume instant, counting only the DRAM bytes
    // moved after it.
    auto cfg = observed_cfg();
    cfg.pol = sim::policy::camdn_full;
    obs::jsonl_sink rows;
    cfg.obs.epochs = &rows;
    const auto whole = sim::run_experiment(cfg);

    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler first(cfg, *gen);
    ASSERT_TRUE(first.run_segment(ms_to_cycles(2.0)));
    const std::uint64_t paused_bytes = first.segment_result().dram_total_bytes;
    const auto snap = first.save();
    EXPECT_TRUE(snap.telemetry.empty());

    auto gen_resumed = runtime::make_workload_generator(cfg);
    runtime::scheduler resumed(cfg, *gen_resumed, snap,
                               runtime::resume_mode::exact);
    const auto res = resumed.run();
    // events_executed counts the resumed process only; the rest matches.
    EXPECT_EQ(whole.makespan, res.makespan);
    EXPECT_EQ(whole.dram_total_bytes, res.dram_total_bytes);
    ASSERT_EQ(whole.completions.size(), res.completions.size());
    for (std::size_t i = 0; i < res.completions.size(); ++i)
        EXPECT_EQ(whole.completions[i].end, res.completions[i].end);
    ASSERT_FALSE(res.telemetry.empty());
    EXPECT_EQ(res.telemetry.front().start, snap.now);
    std::uint64_t epoch_bytes = 0;
    for (const auto& e : res.telemetry) epoch_bytes += e.dram_bytes;
    EXPECT_EQ(epoch_bytes, res.dram_total_bytes - paused_bytes);
}

// ---- cluster observability --------------------------------------------

serve::cluster_config small_fleet() {
    serve::soc_instance_config inst;
    inst.slots = 2;
    inst.admission_queue_limit = 8;
    serve::cluster_config cfg = serve::uniform_cluster(2, inst);
    cfg.models = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.arrival_rate_per_ms = 2.0;
    cfg.total_arrivals = 24;
    cfg.feedback_rounds = 2;
    return cfg;
}

/// Byte size and FNV-1a hash of one observer output.
struct output_pin {
    std::size_t bytes = 0;
    std::uint64_t fnv = 0;
    bool operator==(const output_pin& o) const {
        return bytes == o.bytes && fnv == o.fnv;
    }
};

std::ostream& operator<<(std::ostream& out, const output_pin& p) {
    return out << "{" << p.bytes << "u, 0x" << std::hex << p.fnv << std::dec
               << "ull}";
}

output_pin pin_of(const std::string& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return {bytes.size(), h};
}

/// A single-SoC run with all five sinks attached, reduced to pins of its
/// Chrome trace, metrics JSON, buffered JSONL rows, and the attributor's
/// records plus its JSONL row.
std::vector<output_pin> observed_pins(sim::experiment_config cfg) {
    all_sinks sinks(cfg);
    sim::run_experiment(cfg);
    std::ostringstream trace, metrics;
    obs::write_chrome_trace(trace, sinks.trace.events());
    sinks.metrics.write_json(metrics);
    std::string rows;
    for (const auto& r : sinks.epochs.buffered()) rows += r + "\n";
    std::ostringstream attr;
    for (const auto& rec : sinks.attr.records()) {
        attr << rec.slot << ' ' << rec.tenant << ' ' << rec.arrival << ' '
             << rec.end;
        for (std::size_t c = 0; c < 6; ++c)
            attr << ' ' << obs::attribution_component(rec.comp, c);
        attr << '\n';
    }
    attr << sinks.attr.jsonl_row(0, 0);
    return {pin_of(trace.str()), pin_of(metrics.str()), pin_of(rows),
            pin_of(attr.str())};
}

// The pins hold every byte the sinks produce, so rewiring the probe's
// hooks must reproduce them; re-pin only for a deliberate output change.
TEST(observer_outputs, are_pinned_for_adaptive_aurora_and_fleet_runs) {
    const std::vector<output_pin> adaptive = observed_pins(observed_cfg());
    EXPECT_EQ(adaptive, (std::vector<output_pin>{
                            {13496959u, 0xb1edc855cc994e00ull},
                            {1641u, 0x9048ead1ad7667fdull},
                            {27981u, 0x7b2e01aa142a6419ull},
                            {498u, 0x51b4d15eaef867b1ull}}));

    auto aurora_cfg = observed_cfg();
    aurora_cfg.pol = sim::policy::aurora;
    const std::vector<output_pin> aurora = observed_pins(aurora_cfg);
    EXPECT_EQ(aurora, (std::vector<output_pin>{
                          {20375549u, 0x14d973d17574a1e6ull},
                          {1732u, 0x8384ae3fcf9cf6abull},
                          {29907u, 0xa8679bdca45753f8ull},
                          {502u, 0xc67ad3de978f0d25ull}}));

    auto fleet = small_fleet();
    fleet.trace_path = "test_obs_pinned_trace.json";
    fleet.metrics_jsonl_path = "test_obs_pinned_epochs.jsonl";
    serve::run_cluster(fleet);
    const std::vector<output_pin> files = {
        pin_of(slurp(fleet.trace_path)),
        pin_of(slurp(fleet.metrics_jsonl_path))};
    EXPECT_EQ(files, (std::vector<output_pin>{
                         {11278642u, 0xf7e6c6aec27d28c1ull},
                         {60300u, 0x43d33316413e0199ull}}));
    std::remove(fleet.trace_path.c_str());
    std::remove(fleet.metrics_jsonl_path.c_str());
}

/// An elastic, bounded-history fleet: four 1 ms rounds of RS. + MB.
/// traffic on unbounded queues, with both exporters on and a completion
/// ring smaller than the run.
serve::cluster_config elastic_fleet(std::uint32_t socs) {
    serve::soc_instance_config inst;
    inst.slots = 2;
    inst.admission_queue_limit = runtime::unbounded_queue;
    serve::cluster_config cfg = serve::uniform_cluster(socs, inst);
    cfg.models = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.seed = 7;
    cfg.feedback_rounds = 5;
    cfg.round_cycles = ms_to_cycles(1.0);
    cfg.autoscale.enabled = true;
    cfg.autoscale.cooldown_rounds = 0;
    cfg.bounded_history = true;
    cfg.history_records = 16;
    cfg.trace_path = "test_obs_elastic_trace.json";
    cfg.metrics_jsonl_path = "test_obs_elastic_epochs.jsonl";
    return cfg;
}

/// Pins of one elastic run: its trace file, its JSONL file, and a digest
/// of the retained history (round summaries, then the completion ring).
std::vector<output_pin> elastic_pins(const serve::cluster_config& cfg,
                                     serve::cluster_result& res) {
    res = serve::run_cluster(cfg);
    std::ostringstream history;
    for (const auto& rs : res.round_summaries)
        history << rs.round << ' ' << rs.soc_id << ' ' << rs.completions
                << ' ' << rs.rejected << ' ' << rs.events << ' '
                << rs.makespan << '\n';
    for (const auto& rec : res.recent_completions)
        history << rec.slot << ' ' << rec.abbr << ' ' << rec.arrival << ' '
                << rec.start << ' ' << rec.end << ' ' << rec.dram_bytes << ' '
                << rec.cores << '\n';
    std::vector<output_pin> pins = {pin_of(slurp(cfg.trace_path)),
                                    pin_of(slurp(cfg.metrics_jsonl_path)),
                                    pin_of(history.str())};
    std::remove(cfg.trace_path.c_str());
    std::remove(cfg.metrics_jsonl_path.c_str());
    return pins;
}

std::size_t count_events(const serve::cluster_result& res,
                         serve::scale_event_kind kind) {
    std::size_t n = 0;
    for (const auto& ev : res.scale_events) n += ev.kind == kind ? 1 : 0;
    return n;
}

// Autoscaling writes scale_event rows, fleet-lane scale instants and scale
// metrics, and bounded history keeps round summaries and a completion
// ring; these pins hold all of them.
TEST(observer_outputs, are_pinned_for_elastic_bounded_history_fleets) {
    // One SoC under a heavy stream: the round SLA collapses and the
    // autoscaler adds SoCs.
    auto grow = elastic_fleet(1);
    grow.socs[0].admission_queue_limit = 4;
    grow.arrival_rate_per_ms = 40.0;
    grow.total_arrivals = 120;
    grow.autoscale.max_socs = 3;
    serve::cluster_result grown;
    EXPECT_EQ(elastic_pins(grow, grown),
              (std::vector<output_pin>{{13387155u, 0x5337a28a8c9a12cull},
                                       {59322u, 0xf3c22cdcfb7cb5dcull},
                                       {919u, 0xd89ef942615ba9cull}}));
    EXPECT_GT(count_events(grown, serve::scale_event_kind::add), 0u);

    // Two SoCs with an always-idle backlog threshold: one drains at the
    // first barrier, its queued requests migrate, and it retires.
    auto shrink = elastic_fleet(2);
    shrink.models = {&model::model_by_abbr("RS.")};
    shrink.arrival_rate_per_ms = 12.0;
    shrink.total_arrivals = 48;
    shrink.autoscale.max_socs = 2;
    shrink.autoscale.backlog_high = 1e18;
    shrink.autoscale.backlog_low = 1e18;
    shrink.autoscale.sla_low = 0.0;
    serve::cluster_result shrunk;
    EXPECT_EQ(elastic_pins(shrink, shrunk),
              (std::vector<output_pin>{{24332472u, 0x7f494db7264fca4aull},
                                       {149713u, 0x80611715fc7d4f06ull},
                                       {866u, 0xd21ac05fdfd87cdaull}}));
    EXPECT_GT(shrunk.migrated_requests, 0u);
    EXPECT_GT(count_events(shrunk, serve::scale_event_kind::drain), 0u);
    EXPECT_GT(count_events(shrunk, serve::scale_event_kind::retire), 0u);
}

TEST(cluster_obs, trace_and_jsonl_identical_across_pool_widths) {
    const std::string t1 = "test_obs_trace_w1.json";
    const std::string t4 = "test_obs_trace_w4.json";
    const std::string j1 = "test_obs_epochs_w1.jsonl";
    const std::string j4 = "test_obs_epochs_w4.jsonl";

    auto cfg = small_fleet();
    cfg.trace_path = t1;
    cfg.metrics_jsonl_path = j1;
    cfg.threads = 1;
    const auto a = serve::run_cluster(cfg);
    cfg.trace_path = t4;
    cfg.metrics_jsonl_path = j4;
    cfg.threads = 4;
    const auto b = serve::run_cluster(cfg);

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);

    const std::string trace1 = slurp(t1), trace4 = slurp(t4);
    const std::string rows1 = slurp(j1), rows4 = slurp(j4);
    ASSERT_FALSE(trace1.empty());
    ASSERT_FALSE(rows1.empty());
    EXPECT_EQ(trace1, trace4);
    EXPECT_EQ(rows1, rows4);
    EXPECT_TRUE(valid_json(trace1)) << trace1.substr(0, 200);
    // Every JSONL row is itself valid JSON; fleet_round and metrics rows
    // are present alongside the epoch rows.
    std::istringstream lines(rows1);
    std::string line;
    bool saw_epoch = false, saw_round = false, saw_metrics = false;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(valid_json(line)) << line.substr(0, 200);
        saw_epoch |= line.find("\"type\":\"epoch\"") != std::string::npos;
        saw_round |= line.find("\"type\":\"fleet_round\"") != std::string::npos;
        saw_metrics |= line.find("\"type\":\"metrics\"") != std::string::npos;
    }
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_round);
    EXPECT_TRUE(saw_metrics);

    for (const auto& p : {t1, t4, j1, j4}) std::remove(p.c_str());
}

TEST(cluster_obs, observed_cluster_run_matches_bare_run) {
    const auto bare = serve::run_cluster(small_fleet());

    auto cfg = small_fleet();
    cfg.trace_path = "test_obs_cluster_trace.json";
    cfg.metrics_jsonl_path = "test_obs_cluster_epochs.jsonl";
    const auto observed = serve::run_cluster(cfg);

    EXPECT_EQ(bare.completed, observed.completed);
    EXPECT_EQ(bare.makespan, observed.makespan);
    EXPECT_EQ(bare.events_executed, observed.events_executed);
    EXPECT_EQ(bare.dropped_queue, observed.dropped_queue);
    EXPECT_EQ(bare.fleet_latency_ms.count(), observed.fleet_latency_ms.count());
    EXPECT_DOUBLE_EQ(bare.fleet_latency_ms.p99(),
                     observed.fleet_latency_ms.p99());

    std::remove(cfg.trace_path.c_str());
    std::remove(cfg.metrics_jsonl_path.c_str());
}

TEST(cluster_obs, streaming_quantiles_change_memory_not_the_run) {
    const auto exact = serve::run_cluster(small_fleet());
    auto cfg = small_fleet();
    cfg.streaming_quantiles = true;
    const auto p2 = serve::run_cluster(cfg);

    // Same simulation either way...
    EXPECT_EQ(exact.completed, p2.completed);
    EXPECT_EQ(exact.makespan, p2.makespan);
    EXPECT_EQ(exact.fleet_latency_ms.count(), p2.fleet_latency_ms.count());
    EXPECT_FALSE(exact.fleet_latency_ms.streaming());
    EXPECT_TRUE(p2.fleet_latency_ms.streaming());
    // ...and the streamed estimates stay inside the sample range (the
    // handful of completions here is far too small for a tight P² bound —
    // bench/fleet_scaling quantifies the error at realistic counts).
    EXPECT_DOUBLE_EQ(p2.fleet_latency_ms.min(), exact.fleet_latency_ms.min());
    EXPECT_DOUBLE_EQ(p2.fleet_latency_ms.max(), exact.fleet_latency_ms.max());
    EXPECT_GE(p2.fleet_latency_ms.p50(), exact.fleet_latency_ms.min());
    EXPECT_LE(p2.fleet_latency_ms.p50(), exact.fleet_latency_ms.max());
    EXPECT_THROW(p2.fleet_latency_ms.exact(), std::logic_error);
}

TEST(cluster_obs, streaming_quantiles_deterministic_across_pool_widths) {
    // P² is order-sensitive, so the fleet fold replays a fixed round-major,
    // fleet-order merge sequence regardless of how the sweep pool
    // interleaved the per-SoC sims. Any pool width must therefore produce
    // bit-equal streamed quantiles.
    auto cfg = small_fleet();
    cfg.streaming_quantiles = true;
    cfg.threads = 1;
    const auto a = serve::run_cluster(cfg);
    cfg.threads = 4;
    const auto b = serve::run_cluster(cfg);

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.fleet_latency_ms.count(), b.fleet_latency_ms.count());
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p50(), b.fleet_latency_ms.p50());
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p95(), b.fleet_latency_ms.p95());
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p99(), b.fleet_latency_ms.p99());
    EXPECT_DOUBLE_EQ(a.fleet_queue_delay_ms.p95(),
                     b.fleet_queue_delay_ms.p95());
}

}  // namespace
}  // namespace camdn
