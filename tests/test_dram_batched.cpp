// Property tests for access_burst's dispatch (single-visit bursts on the
// per-line walk, the closed-form row-chain, and the attributed variants):
// every one must be bit-exact against the per-line reference — same
// completion cycles, same stats (row_hits included: they enter snapshot
// bytes), same snapshot bytes, and, with an attributor attached, the same
// attribution state — over every batched geometry in batched_geometries().
// The reference is a mirror dram_system driven one access() per line at
// the burst's arrival, which is exactly the walk the per-line fallback
// inside access_burst performs. access_lines() runs are checked the same
// way against one access() per line, in every batched geometry.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/snapshot_io.h"
#include "dram/dram_system.h"
#include "obs/attribution.h"
#include "obs/probe.h"

namespace camdn::dram {
namespace {

/// A probe for a standalone DRAM of geometry `cfg` that charges `attr`.
obs::probe attributing_probe(const dram_config& cfg,
                             obs::latency_attributor& attr) {
    obs::probe p(std::size_t{cfg.channels} * cfg.banks_per_channel,
                 cfg.channels, 0);
    obs::run_observer o;
    o.attr = &attr;
    p.attach(o, nullptr);
    return p;
}

std::vector<std::uint8_t> snapshot_of(const dram_system& d) {
    snapshot_writer w;
    d.save_state(w);
    return w.bytes();
}

/// The per-line reference: one access() per line, all at the burst's
/// arrival, completion = max over lines.
cycle_t perline_burst(dram_system& d, addr_t addr, std::uint64_t nlines,
                      bool is_write, cycle_t arrival, task_id task) {
    cycle_t done = arrival;
    for (std::uint64_t i = 0; i < nlines; ++i)
        done = std::max(done, d.access(addr + i * line_bytes, is_write,
                                       arrival, task));
    return done;
}

/// access_burst's gate for the batched kernels, restated from the config:
/// a pow2 geometry whose bank CAS cadence (t_ccd) cannot outrun the whole
/// channel bus (banks x one line's bus slot S).
bool meets_batched_gate(const dram_config& cfg) {
    const std::uint64_t row_lines = cfg.row_bytes / line_bytes;
    const std::uint64_t S = cfg.burst_deci_cycles() + cfg.t_burst_gap * 10;
    return is_pow2(cfg.channels) && is_pow2(cfg.banks_per_channel) &&
           cfg.row_bytes % line_bytes == 0 && is_pow2(row_lines) &&
           cfg.t_ccd * 10 <= cfg.banks_per_channel * S;
}

struct named_geometry {
    const char* name;
    dram_config cfg;
};

/// Geometries the batched kernels serve, each checked against the gate so
/// none falls back to the per-line walk unnoticed.
std::vector<named_geometry> batched_geometries() {
    std::vector<named_geometry> out;
    out.push_back({"stock", dram_config{}});
    dram_config wide;
    wide.channels = 8;
    wide.banks_per_channel = 8;
    out.push_back({"8ch x 8 banks", wide});
    dram_config deep;
    deep.channels = 2;
    deep.banks_per_channel = 32;
    deep.row_bytes = 4096;
    out.push_back({"2ch x 32 banks, 4 KiB rows", deep});
    dram_config short_rows;
    short_rows.row_bytes = 1024;
    out.push_back({"1 KiB rows", short_rows});
    dram_config gap;
    gap.t_burst_gap = 1;  // S = 35 deci-cycles
    out.push_back({"t_burst_gap 1", gap});
    // The gate's boundary, t_ccd*10 == banks*S: S = 6400 / 320 = 20 and
    // D = 40 = 2 * 20, so a bank's second visit has G1 == G0.
    dram_config edge;
    edge.banks_per_channel = 2;
    edge.bytes_per_cycle_x10 = 320;
    out.push_back({"gate boundary (2 banks, S 20, D 40)", edge});
    for (const named_geometry& g : out)
        EXPECT_TRUE(meets_batched_gate(g.cfg)) << g.name;
    return out;
}

void expect_stats_eq(const dram_stats& a, const dram_stats& b) {
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.row_hits, b.row_hits);
    EXPECT_EQ(a.row_misses, b.row_misses);
    EXPECT_EQ(a.row_empties, b.row_empties);
    EXPECT_EQ(a.throttled, b.throttled);
    EXPECT_EQ(a.bus_busy_deci, b.bus_busy_deci);
}

/// One randomized burst: nlines drawn from the class that exercises the
/// intended dispatch (tiny / closed-form / multi-row), a base address that
/// is sometimes sequential, sometimes row-aligned, sometimes scattered.
struct burst_op {
    addr_t addr = 0;
    std::uint64_t nlines = 0;
    bool is_write = false;
    cycle_t arrival = 0;
    task_id task = no_task;
};

std::vector<burst_op> random_ops(const dram_config& cfg, std::uint64_t seed,
                                 std::size_t count, int ntasks) {
    const std::uint64_t channels = cfg.channels;
    const std::uint64_t row_lines = cfg.row_bytes / line_bytes;
    std::mt19937_64 rng(seed);
    std::vector<burst_op> ops;
    ops.reserve(count);
    cycle_t clock = 0;
    std::uint64_t cursor = 0;  // sequential line cursor (the common shape)
    for (std::size_t i = 0; i < count; ++i) {
        burst_op op;
        switch (rng() % 4) {
            case 0:  // single-visit: at most one line per channel
                op.nlines = 1 + rng() % channels;
                break;
            case 1:  // closed form, inside one row block
                op.nlines = 5 + rng() % 196;
                break;
            case 2:  // multi-segment: crosses row boundaries per bank
                op.nlines = 201 + rng() % 4800;
                break;
            default:  // edges around the walk/segment boundary
                op.nlines = channels - 1 + rng() % 4;  // channels-1..+2
                break;
        }
        switch (rng() % 3) {
            case 0:  // continue the sequential stream (row hits)
                break;
            case 1:  // jump to a row-aligned base (fresh activates)
                cursor = (rng() % (1u << 16)) * row_lines;
                break;
            default:  // scattered base (conflict-heavy)
                cursor = rng() % (1u << 21);
                break;
        }
        op.addr = cursor * line_bytes;
        cursor += op.nlines;
        op.is_write = (rng() & 1) != 0;
        // Arrival sometimes repeats (back-to-back submits), sometimes
        // advances past the contention horizon.
        if (rng() % 3 != 0) clock += rng() % 400;
        op.arrival = clock;
        op.task = static_cast<task_id>(rng() % (ntasks + 1)) - 1;  // -1 = none
        ops.push_back(op);
    }
    return ops;
}

void check_plain_bursts(const dram_config& cfg) {
    dram_system batched{cfg};
    dram_system perline{cfg};
    const auto ops = random_ops(cfg, /*seed=*/0x5eed0001, /*count=*/400,
                                /*ntasks=*/3);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const burst_op& op = ops[i];
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task);
        ASSERT_EQ(done_b, done_p) << "burst " << i;
    }
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
    for (task_id t = 0; t < 3; ++t)
        EXPECT_EQ(batched.task_bytes(t), perline.task_bytes(t));
}

TEST(dram_batched, randomized_bursts_match_perline_reference) {
    for (const named_geometry& g : batched_geometries()) {
        SCOPED_TRACE(g.name);
        check_plain_bursts(g.cfg);
    }
}

TEST(dram_batched, regulator_budget_edges_match_perline_reference) {
    dram_system batched{dram_config{}};
    dram_system perline{dram_config{}};
    // Tight shares so bursts routinely straddle an epoch budget edge and
    // access_burst must fall back to the exact per-line walk (throttle
    // counting, window advances) mid-run.
    for (dram_system* d : {&batched, &perline}) {
        d->set_task_share(0, 0.02);
        d->set_task_share(1, 0.5);
        // Task 2 stays unregulated: the bulk-commit fast path.
    }
    const auto ops = random_ops(dram_config{}, /*seed=*/0x5eed0002,
                                /*count=*/300, /*ntasks=*/3);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const burst_op& op = ops[i];
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task);
        ASSERT_EQ(done_b, done_p) << "burst " << i;
    }
    EXPECT_GT(batched.stats().throttled, 0u);  // the edge case actually ran
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
}

/// Three active slots across two tenants, so the DRAM's lines suffer
/// both self-inflicted and cross-tenant waits.
void start_three_slots(obs::latency_attributor& a) {
    const char* tenants[3] = {"ta", "tb", "ta"};
    for (task_id s = 0; s < 3; ++s) {
        a.on_dispatch(s, tenants[s]);
        a.on_inference_start(s, 0, 0);
    }
}

/// Ends the three slots' inferences at `horizon` and compares both
/// attributors' tenants, components and interference matrices.
void end_and_compare(obs::latency_attributor& attr_b,
                     obs::latency_attributor& attr_p, cycle_t horizon) {
    for (task_id s = 0; s < 3; ++s) {
        attr_b.on_inference_end(s, horizon);
        attr_p.on_inference_end(s, horizon);
    }
    ASSERT_EQ(attr_b.tenant_names(), attr_p.tenant_names());
    const auto n = static_cast<std::uint32_t>(attr_b.tenant_names().size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto& tb = attr_b.tenants()[i];
        const auto& tp = attr_p.tenants()[i];
        EXPECT_EQ(tb.completed, tp.completed);
        EXPECT_EQ(tb.latency_cycles, tp.latency_cycles);
        for (std::size_t c = 0; c < 6; ++c)
            EXPECT_EQ(obs::attribution_component(tb.comp, c),
                      obs::attribution_component(tp.comp, c))
                << "tenant " << i << " component "
                << obs::attribution_component_names[c];
        for (std::uint32_t j = 0; j < n; ++j)
            EXPECT_EQ(attr_b.interference(i, j), attr_p.interference(i, j))
                << "matrix (" << i << "," << j << ")";
    }
}

void check_attributed_bursts(const dram_config& cfg) {
    dram_system batched{cfg};
    dram_system perline{cfg};
    obs::latency_attributor attr_b, attr_p;
    obs::probe probe_b = attributing_probe(cfg, attr_b);
    obs::probe probe_p = attributing_probe(cfg, attr_p);
    batched.set_probe(&probe_b);
    perline.set_probe(&probe_p);

    // The by-holder aggregation in the batched paths must fold to the
    // same per-tenant sums.
    start_three_slots(attr_b);
    start_three_slots(attr_p);

    const auto ops = random_ops(cfg, /*seed=*/0x5eed0003, /*count=*/400,
                                /*ntasks=*/3);
    cycle_t horizon = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const burst_op& op = ops[i];
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task);
        ASSERT_EQ(done_b, done_p) << "burst " << i;
        horizon = std::max(horizon, done_b);
        // Give every slot span so the waterfall has stall to attribute.
        if (op.task >= 0 && op.task < 3) {
            const std::uint64_t span = done_b - op.arrival;
            attr_b.on_layer_retired(op.task, span, span / 2);
            attr_p.on_layer_retired(op.task, span, span / 2);
        }
    }
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));

    end_and_compare(attr_b, attr_p, horizon);
}

TEST(dram_batched, attributed_bursts_match_perline_reference) {
    for (const named_geometry& g : batched_geometries()) {
        SCOPED_TRACE(g.name);
        check_attributed_bursts(g.cfg);
    }
    // One bank per channel is command-bound: t_ccd (40 deci-cycles)
    // outruns the channel bus (1 bank x 25 deci-cycles), so access_burst
    // must take the per-line walk instead of the segment kernel.
    dram_config command_bound;
    command_bound.banks_per_channel = 1;
    ASSERT_FALSE(meets_batched_gate(command_bound));
    check_attributed_bursts(command_bound);
}

TEST(dram_batched, tiny_boundary_widths_match_perline_reference) {
    // Explicit widths around the walk/segment dispatch boundary:
    // 1..channels takes the per-line walk, channels+1 the segment paths.
    for (const named_geometry& g : batched_geometries()) {
        SCOPED_TRACE(g.name);
        const std::uint64_t channels = g.cfg.channels;
        for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2}, channels,
                                channels + 1, 2 * channels}) {
            dram_system batched{g.cfg};
            dram_system perline{g.cfg};
            cycle_t clock = 0;
            for (int rep = 0; rep < 64; ++rep) {
                const addr_t addr = static_cast<addr_t>(rep) * 7 *
                                    line_bytes;  // stride: mixes hit and miss
                const cycle_t db =
                    batched.access_burst(addr, n, rep & 1, clock, 0);
                const cycle_t dp =
                    perline_burst(perline, addr, n, rep & 1, clock, 0);
                ASSERT_EQ(db, dp) << "nlines " << n << " rep " << rep;
                clock += (rep % 3 == 0) ? 0 : 37;
            }
            expect_stats_eq(batched.stats(), perline.stats());
            EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
        }
    }
}

TEST(dram_batched, non_pow2_geometry_is_rejected) {
    // Lines decode to channel, bank and row by bit fields, so every burst
    // path (per-line walk and segment kernels alike) needs power-of-two
    // counts: a geometry without them fails at construction.
    dram_config channels;
    channels.channels = 3;
    EXPECT_THROW(dram_system{channels}, std::invalid_argument);
    dram_config banks;
    banks.banks_per_channel = 12;
    EXPECT_THROW(dram_system{banks}, std::invalid_argument);
    dram_config rows;
    rows.row_bytes = 3 * 1024;  // 48 lines per row
    EXPECT_THROW(dram_system{rows}, std::invalid_argument);
    dram_config ragged;
    ragged.row_bytes = 2048 + 32;  // not a whole number of lines
    EXPECT_THROW(dram_system{ragged}, std::invalid_argument);
}

/// Random access_lines() runs, the transparent path's miss-run shape:
/// reads and writes, sequential and scattered addresses, arrivals that
/// step like a burst's slot times (sometimes back) with gaps between
/// runs, and lines of tasks 0..2 and the untracked one.
std::vector<std::vector<line_request>> random_runs(std::uint64_t seed,
                                                   std::size_t count) {
    std::mt19937_64 rng(seed);
    std::vector<std::vector<line_request>> runs(count);
    cycle_t clock = 0;
    std::uint64_t cursor = 0;
    for (auto& run : runs) {
        if (rng() % 4 == 0) clock += 2000 + rng() % 20000;
        const std::size_t n = 1 + rng() % (rng() % 4 == 0 ? 300 : 40);
        for (std::size_t i = 0; i < n; ++i) {
            line_request q;
            if (rng() % 3 == 0) cursor = rng() % (1u << 21);  // else sequential
            q.addr = cursor++ * line_bytes;
            q.is_write = rng() % 4 == 0;
            q.task = static_cast<task_id>(rng() % 4) - 1;
            if (rng() % 8 == 0) {
                q.arrival = clock > 40 ? clock - rng() % 40 : clock;
            } else {
                clock += rng() % 8;
                q.arrival = clock;
            }
            run.push_back(q);
        }
    }
    return runs;
}

/// Drives the same runs through access_lines() on one DRAM and one
/// access() per line on another; returns the run side's throttle count.
std::uint64_t check_line_runs(const dram_config& cfg, bool attributed,
                              std::uint64_t seed) {
    dram_system run{cfg};
    dram_system perline{cfg};
    for (dram_system* d : {&run, &perline}) {
        d->set_task_share(0, 0.002);  // 32 lines per epoch: throttles
        d->set_task_share(1, 0.3);
        // Task 2 stays unregulated.
    }
    obs::latency_attributor attr_r, attr_p;
    obs::probe probe_r = attributing_probe(cfg, attr_r);
    obs::probe probe_p = attributing_probe(cfg, attr_p);
    if (attributed) {
        run.set_probe(&probe_r);
        perline.set_probe(&probe_p);
        start_three_slots(attr_r);
        start_three_slots(attr_p);
    }
    cycle_t horizon = 0;
    const auto runs = random_runs(seed, 300);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const auto& reqs = runs[r];
        const cycle_t done_r = run.access_lines(reqs.data(), reqs.size());
        cycle_t done_p = 0;
        for (const line_request& q : reqs) {
            const cycle_t done =
                perline.access(q.addr, q.is_write, q.arrival, q.task);
            if (!q.is_write) done_p = std::max(done_p, done);
            horizon = std::max(horizon, done);
        }
        EXPECT_EQ(done_r, done_p) << "run " << r;
        if (::testing::Test::HasFailure()) break;
    }
    expect_stats_eq(run.stats(), perline.stats());
    for (task_id t = -1; t < 3; ++t)
        EXPECT_EQ(run.task_bytes(t), perline.task_bytes(t)) << "task " << t;
    EXPECT_EQ(snapshot_of(run), snapshot_of(perline));
    if (attributed) end_and_compare(attr_r, attr_p, horizon);
    return run.stats().throttled;
}

TEST(dram_batched, line_runs_match_per_line_access) {
    std::uint64_t seed = 0x5eed0005;
    for (const named_geometry& g : batched_geometries()) {
        for (const bool attributed : {false, true}) {
            SCOPED_TRACE(std::string(g.name) +
                         (attributed ? ", attributed" : ", bare"));
            EXPECT_GT(check_line_runs(g.cfg, attributed, seed++), 0u)
                << "the regulated task never throttled";
        }
    }
}

}  // namespace
}  // namespace camdn::dram
