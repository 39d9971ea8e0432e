// Snapshot codec suite.
//
//   * the writer/reader field and span operations against a per-byte
//     little-endian reference encoder kept here, with every strict prefix
//     of an encoding rejected;
//   * decoder rejection inside the machine section: a cut through the
//     transparent-set block, a recency order the lookup cannot run on (a
//     head that is not the unmasked ways, masked-off ways out of place,
//     unused nibbles set), a valid line in a masked-off way, a
//     transparent-way count other than the cache's, and corrupt
//     page-pool holder ids (out of range, repeated, out of order); at
//     resume, pages held by a slot that is not running; in the engine
//     section, a DMA flight with more chunks outstanding than issued; in
//     the typed-event section, a kind its channel does not define;
//   * pinned sizes + FNV-1a hashes of two mid-flight snapshots (a
//     bypassing CaMDN run and an AuRORA run, whose transparent sets hold
//     lines), so any drift of the byte format fails;
//   * the components' section readers agreeing at pause points of an
//     adaptive MMPP run and a closed loop: each running slot has one
//     layer run or one armed negotiation, each armed negotiation one
//     pending retry, and each DMA flight one pending chunk event;
//   * a seeded mutation fuzz (bit flips, truncations, splices of two valid
//     snapshots) of the machine, engine, typed-event and telemetry
//     sections through warm resume: every input either throws
//     snapshot_error or constructs a scheduler. Under ASan/UBSan the
//     second outcome must also be clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/snapshot_io.h"
#include "dram/dram_system.h"
#include "model/model_zoo.h"
#include "npu/dma_engine.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "sim/layer_engine.h"

namespace camdn {
namespace {

using runtime::resume_mode;
using runtime::scheduler_snapshot;
using sim::experiment_config;

// ---- field codec vs a per-byte reference --------------------------------

/// One encoded field of a random sequence. `records` holds span payloads
/// as (u64, i32, bool) triples flattened into u64s.
struct field {
    enum kind_t { u8, b, u32, i32, u64, i64, d, str, blob, span };
    kind_t kind = u8;
    std::uint64_t v = 0;
    std::string s;
    std::vector<std::uint64_t> records;
};

constexpr std::size_t span_record_bytes = 8 + 4 + 1;

void ref_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::vector<std::uint8_t> reference_encode(const std::vector<field>& fields) {
    std::vector<std::uint8_t> out;
    for (const auto& f : fields) {
        switch (f.kind) {
            case field::u8: ref_le(out, f.v, 1); break;
            case field::b: out.push_back((f.v & 1) ? 1 : 0); break;
            case field::u32:
            case field::i32: ref_le(out, f.v, 4); break;
            case field::u64:
            case field::i64:
            case field::d: ref_le(out, f.v, 8); break;
            case field::str:
            case field::blob:
                ref_le(out, f.s.size(), 8);
                out.insert(out.end(), f.s.begin(), f.s.end());
                break;
            case field::span:
                for (std::size_t i = 0; i < f.records.size(); i += 3) {
                    ref_le(out, f.records[i], 8);
                    ref_le(out, f.records[i + 1], 4);
                    out.push_back((f.records[i + 2] & 1) ? 1 : 0);
                }
                break;
        }
    }
    return out;
}

double as_double(std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::uint64_t bits_of(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

std::vector<std::uint8_t> codec_encode(const std::vector<field>& fields) {
    snapshot_writer w;
    for (const auto& f : fields) {
        switch (f.kind) {
            case field::u8: w.u8(static_cast<std::uint8_t>(f.v)); break;
            case field::b: w.b(f.v & 1); break;
            case field::u32: w.u32(static_cast<std::uint32_t>(f.v)); break;
            case field::i32: w.i32(static_cast<std::int32_t>(f.v)); break;
            case field::u64: w.u64(f.v); break;
            case field::i64: w.i64(static_cast<std::int64_t>(f.v)); break;
            case field::d: w.d(as_double(f.v)); break;
            case field::str: w.str(f.s); break;
            case field::blob:
                w.blob(std::vector<std::uint8_t>(f.s.begin(), f.s.end()));
                break;
            case field::span: {
                auto out = w.span(f.records.size() / 3 * span_record_bytes);
                for (std::size_t i = 0; i < f.records.size(); i += 3) {
                    out.u64(f.records[i]);
                    out.i32(static_cast<std::int32_t>(f.records[i + 1]));
                    out.b(f.records[i + 2] & 1);
                }
                break;
            }
        }
    }
    return w.take();
}

/// Decodes `fields` from `bytes`, checking every value; throws
/// snapshot_error when the bytes run out.
void codec_decode(const std::vector<field>& fields,
                  const std::uint8_t* data, std::size_t size) {
    snapshot_reader r(data, size);
    for (const auto& f : fields) {
        switch (f.kind) {
            case field::u8: EXPECT_EQ(r.u8(), f.v & 0xff); break;
            case field::b: EXPECT_EQ(r.b(), (f.v & 1) != 0); break;
            case field::u32:
                EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(f.v));
                break;
            case field::i32:
                EXPECT_EQ(r.i32(), static_cast<std::int32_t>(f.v));
                break;
            case field::u64: EXPECT_EQ(r.u64(), f.v); break;
            case field::i64:
                EXPECT_EQ(r.i64(), static_cast<std::int64_t>(f.v));
                break;
            case field::d: EXPECT_EQ(bits_of(r.d()), f.v); break;
            case field::str: EXPECT_EQ(r.str(), f.s); break;
            case field::blob:
                EXPECT_EQ(r.blob(),
                          std::vector<std::uint8_t>(f.s.begin(), f.s.end()));
                break;
            case field::span: {
                auto in = r.span(f.records.size() / 3 * span_record_bytes);
                for (std::size_t i = 0; i < f.records.size(); i += 3) {
                    EXPECT_EQ(in.u64(), f.records[i]);
                    EXPECT_EQ(in.i32(),
                              static_cast<std::int32_t>(f.records[i + 1]));
                    EXPECT_EQ(in.b(), (f.records[i + 2] & 1) != 0);
                }
                break;
            }
        }
    }
    EXPECT_TRUE(r.done());
}

std::vector<field> random_fields(rng& r) {
    std::vector<field> out(1 + r.next_below(24));
    for (auto& f : out) {
        f.kind = static_cast<field::kind_t>(r.next_below(10));
        // Mix small values, all-ones and full-width randoms so sign and
        // high-byte handling are exercised.
        switch (r.next_below(3)) {
            case 0: f.v = r.next_below(256); break;
            case 1: f.v = ~std::uint64_t{0}; break;
            default: f.v = r.next(); break;
        }
        if (f.kind == field::str || f.kind == field::blob)
            for (std::uint64_t i = r.next_below(12); i > 0; --i)
                f.s.push_back(static_cast<char>(r.next_below(256)));
        if (f.kind == field::span)
            for (std::uint64_t i = 3 * r.next_below(6); i > 0; --i)
                f.records.push_back(r.next());
    }
    return out;
}

TEST(snapshot_codec, random_fields_match_a_bytewise_reference) {
    rng r(4242);
    for (int seq = 0; seq < 200; ++seq) {
        const auto fields = random_fields(r);
        const auto bytes = codec_encode(fields);
        ASSERT_EQ(bytes, reference_encode(fields)) << "sequence " << seq;
        codec_decode(fields, bytes.data(), bytes.size());
        for (std::size_t len = 0; len < bytes.size(); ++len)
            EXPECT_THROW(codec_decode(fields, bytes.data(), len),
                         snapshot_error)
                << "sequence " << seq << " prefix " << len;
    }
}

// ---- mid-flight snapshots --------------------------------------------------

experiment_config codec_cfg() {
    experiment_config cfg;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
    cfg.co_located = 2;
    cfg.telemetry = true;
    cfg.seed = 17;
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.pol = sim::policy::camdn_adaptive;
    cfg.arrival_rate_per_ms = 0.8;
    cfg.total_arrivals = 8;
    cfg.admission_queue_limit = 8;
    return cfg;
}

scheduler_snapshot paused_snapshot(const experiment_config& cfg,
                                   cycle_t boundary) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    EXPECT_TRUE(sched.run_segment(boundary));
    return sched.save();
}

void warm_resume(const experiment_config& cfg, const scheduler_snapshot& snap) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler resumed(cfg, *gen, snap, resume_mode::warm);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
    return h;
}

/// The machine section opens with the cache: its line count and
/// transparent-way count, then the transparent-set block — per set, in
/// slice-major order, the u64 recency order and one record per way: tag
/// (8), owner (4), valid (1), dirty (1).
constexpr std::size_t line_block_begin = 4 + 4;
constexpr std::size_t line_record_bytes = 8 + 4 + 1 + 1;
constexpr std::size_t valid_in_record = 12;

std::size_t set_record_bytes(const cache::cache_config& c) {
    return 8 + std::size_t{c.ways} * line_record_bytes;
}

std::size_t line_block_end(const cache::cache_config& c) {
    return line_block_begin +
           std::size_t{c.slices} * c.sets_per_slice() * set_record_bytes(c);
}

/// `bytes` with `n` little-endian bytes of `v` written at `at`.
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> bytes,
                                  std::size_t at, std::uint64_t v, int n) {
    for (int b = 0; b < n; ++b)
        bytes[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
    return bytes;
}

/// `snap` with its machine section patched as `patched` does.
scheduler_snapshot patched_machine(const scheduler_snapshot& snap,
                                   std::size_t at, std::uint64_t v, int n) {
    scheduler_snapshot s = snap;
    s.machine = patched(snap.machine, at, v, n);
    return s;
}

TEST(snapshot_codec, mid_flight_snapshot_bytes_are_pinned) {
    // Size and FNV-1a of this snapshot's encoding: any change to the byte
    // format must fail here.
    const auto snap = paused_snapshot(codec_cfg(), ms_to_cycles(2.0));
    ASSERT_FALSE(snap.running.empty()) << "the pinned snapshot is mid-flight";
    const auto bytes = snap.encode();
    EXPECT_EQ(bytes.size(), 3806351u);
    EXPECT_EQ(fnv1a(bytes), 0x1654a2f36b6fe341ull);
}

TEST(snapshot_codec, mid_flight_aurora_snapshot_bytes_are_pinned) {
    // AuRORA runs its DMA through the transparent path, so, unlike the
    // bypassing CaMDN run above, this snapshot's transparent-line block
    // holds valid lines, and the pin covers their slice-major record order.
    auto cfg = codec_cfg();
    cfg.pol = sim::policy::aurora;
    const auto snap = paused_snapshot(cfg, ms_to_cycles(5.0));
    ASSERT_FALSE(snap.running.empty()) << "the pinned snapshot is mid-flight";
    const cache::cache_config& cc = cfg.soc.cache;
    std::size_t valid = 0;
    for (std::size_t at = line_block_begin; at < line_block_end(cc);
         at += set_record_bytes(cc))
        for (std::size_t w = 0; w < cc.ways; ++w)
            valid += snap.machine[at + 8 + w * line_record_bytes +
                                  valid_in_record];
    ASSERT_GT(valid, 0u) << "no valid transparent line";
    const auto bytes = snap.encode();
    EXPECT_EQ(bytes.size(), 3806381u);
    EXPECT_EQ(fnv1a(bytes), 0x347075d5d9ca5839ull);
}

TEST(snapshot_codec, cut_inside_the_transparent_line_block_is_rejected) {
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    const std::size_t block_end = line_block_end(cfg.soc.cache);
    ASSERT_GT(snap.machine.size(), block_end);
    EXPECT_NO_THROW(warm_resume(cfg, snap));
    for (const std::size_t len :
         {line_block_begin, line_block_begin + 1,
          line_block_begin + 1000 * set_record_bytes(cfg.soc.cache) + 7,
          block_end - 1}) {
        auto cut = snap;
        cut.machine.resize(len);
        EXPECT_THROW(warm_resume(cfg, cut), snapshot_error) << "cut at " << len;
    }
}

// The codec run is CaMDN: 4 of its 16 ways are transparent, and its DMA
// bypasses them, so every set still holds the order it was built with.
constexpr std::uint64_t ways_in_index_order = 0xfedcba9876543210ull;

TEST(snapshot_codec, order_head_that_is_not_the_unmasked_ways_is_rejected) {
    // The lookup takes position transparent_ways - 1 as the victim and
    // moves the touched way to the front; an order missing that way would
    // have it scan for a nibble that is not there.
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    const std::size_t last_set =
        line_block_end(cfg.soc.cache) - set_record_bytes(cfg.soc.cache);
    for (const std::size_t at : {line_block_begin, last_set}) {
        ASSERT_EQ(snapshot_reader(snap.machine.data() + at, 8).u64(),
                  ways_in_index_order);
        auto with_order = [&](std::uint64_t order) {
            return patched_machine(snap, at, order, 8);
        };
        // Any permutation of ways 0-3 in the head resumes.
        EXPECT_NO_THROW(warm_resume(cfg, with_order(0xfedcba9876540123ull)));
        // Way 1 twice and way 0 missing.
        EXPECT_THROW(warm_resume(cfg, with_order(0xfedcba9876543211ull)),
                     snapshot_error);
        // Masked-off way 4 in the head, way 3 behind it.
        EXPECT_THROW(warm_resume(cfg, with_order(0xfedcba9876534210ull)),
                     snapshot_error);
        // The empty order.
        EXPECT_THROW(warm_resume(cfg, with_order(0)), snapshot_error);
    }
}

TEST(snapshot_codec, order_with_masked_off_ways_out_of_place_is_rejected) {
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    // Masked-off ways 4 and 5 swapped.
    EXPECT_THROW(warm_resume(cfg, patched_machine(snap, line_block_begin,
                                                  0xfedcba9876453210ull, 8)),
                 snapshot_error);
    // A 12-way cache leaves nibbles 12-15 unused: they must be zero.
    dram::dram_system dram{dram::dram_config{}};
    cache::cache_config twelve;
    twelve.total_bytes = mib(12);
    twelve.ways = 12;
    cache::shared_cache cache{twelve, dram, 4};
    snapshot_writer w;
    cache.save_state(w);
    const std::vector<std::uint8_t> bytes = w.take();
    auto restore = [&](std::uint64_t order) {
        cache::shared_cache fresh{twelve, dram, 4};
        const auto edited = patched(bytes, line_block_begin, order, 8);
        snapshot_reader r(edited);
        fresh.restore_state(r, 1);
    };
    ASSERT_EQ(snapshot_reader(bytes.data() + line_block_begin, 8).u64(),
              0xba9876543210ull);
    EXPECT_NO_THROW(restore(0xba9876540123ull));
    EXPECT_THROW(restore(0x1ba9876543210ull), snapshot_error);
    EXPECT_THROW(restore(0xf000ba9876543210ull), snapshot_error);
}

TEST(snapshot_codec, valid_line_in_a_masked_off_way_is_rejected) {
    // No run fills a way above the mask; the lookup would never find it.
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    auto valid_byte = [](std::size_t way) {
        return line_block_begin + 8 + way * line_record_bytes +
               valid_in_record;
    };
    ASSERT_EQ(snap.machine[valid_byte(3)], 0);
    ASSERT_EQ(snap.machine[valid_byte(4)], 0);
    auto with_valid = [&](std::size_t way) {
        return patched_machine(snap, valid_byte(way), 1, 1);
    };
    EXPECT_NO_THROW(warm_resume(cfg, with_valid(3)));
    EXPECT_THROW(warm_resume(cfg, with_valid(4)), snapshot_error);
    EXPECT_THROW(warm_resume(cfg, with_valid(15)), snapshot_error);
}

TEST(snapshot_codec, transparent_way_count_other_than_the_caches_is_rejected) {
    // The way mask is set once, at construction; a snapshot carries the
    // saving cache's count, which must be the resuming cache's.
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    ASSERT_EQ(snapshot_reader(snap.machine.data() + 4, 4).u32(),
              cfg.soc.cache.cpu_ways());
    EXPECT_NO_THROW(warm_resume(cfg, snap));
    for (const std::uint32_t ways : {0u, 1u, 5u, 16u, 17u})
        EXPECT_THROW(warm_resume(cfg, patched_machine(snap, 4, ways, 4)),
                     snapshot_error)
            << ways << " ways";
}

TEST(snapshot_codec, dma_flight_with_more_outstanding_than_issued_is_rejected) {
    // Snapshots store no retired-chunk count (it is issued minus
    // outstanding), so restore checks that the difference is not negative.
    // At this pause a flight has three of its eight chunks in the air.
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(1.4));
    snapshot_reader r(snap.engine);
    sim::layer_engine::read_runs(r);
    const std::size_t dma_at = snap.engine.size() - r.remaining();
    const auto table = npu::dma_engine::read_flights(r);
    // After the table's next id and flight count, each flight: id, op,
    // task, three u64 request fields, group size, issued lines, total
    // chunks, issued chunks, the outstanding count and cycles, last_done
    // and the token.
    constexpr std::size_t to_issued = 8 + 1 + 4 + 3 * 8 + 4 + 8 + 8;
    std::size_t flight_at = dma_at + 8 + 8;
    auto f = table.flights.begin();
    for (; f != table.flights.end() && f->out.empty(); ++f)
        flight_at += to_issued + 8 + 8 + 8 * f->out.size() + 8 + 2 * 8;
    ASSERT_NE(f, table.flights.end()) << "no DMA chunk in the air";
    const std::size_t issued_at = flight_at + to_issued;
    ASSERT_EQ(snapshot_reader(snap.engine.data() + issued_at, 8).u64(),
              f->issued_chunks);
    auto with_issued = [&](std::uint64_t issued) {
        scheduler_snapshot s = snap;
        s.engine = patched(snap.engine, issued_at, issued, 8);
        return s;
    };
    EXPECT_NO_THROW(warm_resume(cfg, with_issued(f->out.size())));
    EXPECT_THROW(warm_resume(cfg, with_issued(f->out.size() - 1)),
                 snapshot_error);
}

/// camdn_hw_only grants each running inference an equal static share of
/// the page pool.
experiment_config hw_only_cfg() {
    experiment_config cfg;
    cfg.workload = {&model::model_by_abbr("MB."), &model::model_by_abbr("EF.")};
    cfg.co_located = 2;
    cfg.pol = sim::policy::camdn_hw_only;
    cfg.inferences_per_slot = 2;
    cfg.seed = 5;
    return cfg;
}

/// The first pause of `cfg`, every 0.2 ms, with `running` slots busy.
scheduler_snapshot first_pause_running(const experiment_config& cfg,
                                       std::size_t running) {
    auto gen = runtime::make_workload_generator(cfg);
    runtime::scheduler sched(cfg, *gen);
    for (cycle_t at = ms_to_cycles(0.2); sched.run_segment(at);
         at += ms_to_cycles(0.2)) {
        scheduler_snapshot snap = sched.save();
        if (snap.running.size() == running) return snap;
    }
    return {};
}

/// `snap` with its machine section decoded into a standalone cache,
/// edited through the cache's own API and saved back in front of the DRAM
/// part.
scheduler_snapshot with_cache_edit(
    const experiment_config& cfg, const scheduler_snapshot& snap,
    const std::function<void(cache::shared_cache&)>& edit) {
    dram::dram_system d{cfg.soc.dram};
    cache::shared_cache c{cfg.soc.cache, d, cfg.soc.cache.cpu_ways()};
    snapshot_reader r(snap.machine);
    c.restore_state(r, cfg.co_located);
    const std::size_t cache_end = snap.machine.size() - r.remaining();
    edit(c);
    snapshot_writer w;
    c.save_state(w);
    scheduler_snapshot s = snap;
    s.machine = w.take();
    s.machine.insert(s.machine.end(), snap.machine.begin() + cache_end,
                     snap.machine.end());
    return s;
}

TEST(snapshot_codec, corrupt_page_pool_holder_ids_are_rejected) {
    const experiment_config cfg = hw_only_cfg();
    const scheduler_snapshot snap = first_pause_running(cfg, 2);
    ASSERT_EQ(snap.running.size(), 2u) << "no pause with both slots busy";

    // The cache part of the machine section ends where a standalone cache
    // stops reading, with the pool's two holder records: i32 id, u64 page
    // count, u32 pcpns.
    dram::dram_system d{cfg.soc.dram};
    cache::shared_cache c{cfg.soc.cache, d, cfg.soc.cache.cpu_ways()};
    snapshot_reader whole(snap.machine);
    c.restore_state(whole, cfg.co_located);
    const std::size_t cache_end = snap.machine.size() - whole.remaining();
    auto holder_bytes = [&](task_id t) {
        return 4 + 8 + 4 * std::size_t{c.pages().allocated(t)};
    };
    const std::size_t second_id = cache_end - holder_bytes(1);
    const std::size_t first_id = second_id - holder_bytes(0);
    auto read_at = [&](std::size_t off, std::size_t n) {
        return snapshot_reader(snap.machine.data() + off, n);
    };
    ASSERT_GT(c.pages().allocated(0), 0u);
    ASSERT_GT(c.pages().allocated(1), 0u);
    ASSERT_EQ(read_at(first_id - 8, 8).u64(), 2u) << "holder count";
    ASSERT_EQ(read_at(first_id, 4).i32(), 0);
    ASSERT_EQ(read_at(second_id, 4).i32(), 1);
    EXPECT_NO_THROW(warm_resume(cfg, snap));

    auto with_id = [&](std::size_t off, std::uint32_t id) {
        return patched_machine(snap, off, id, 4);
    };
    // Far out of range: must be rejected before it sizes the holdings
    // (2^31 entries).
    EXPECT_THROW(warm_resume(cfg, with_id(second_id, 0x7fffffffu)),
                 snapshot_error);
    // One past the resuming scheduler's slot count.
    EXPECT_THROW(warm_resume(cfg, with_id(second_id, 2)), snapshot_error);
    // Repeated id: would silently merge the two holdings.
    EXPECT_THROW(warm_resume(cfg, with_id(second_id, 0)), snapshot_error);
    // Descending ids.
    EXPECT_THROW(warm_resume(cfg, with_id(first_id, 1)), snapshot_error);
    // Negative id.
    EXPECT_THROW(warm_resume(cfg, with_id(first_id, 0xffffffffu)),
                 snapshot_error);
}

TEST(snapshot_codec, pages_held_by_an_idle_slot_are_rejected) {
    // Only a running slot's completion returns its pages to the pool, so a
    // page an idle slot holds would never come back. The open-loop run
    // leaves one of its two slots idle between arrivals.
    auto cfg = codec_cfg();
    cfg.pol = sim::policy::camdn_hw_only;
    const scheduler_snapshot snap = first_pause_running(cfg, 1);
    ASSERT_EQ(snap.running.size(), 1u) << "no pause with one idle slot";
    const task_id idle = 1 - snap.running.front().slot;
    ASSERT_EQ(with_cache_edit(cfg, snap, [](cache::shared_cache&) {}).machine,
              snap.machine)
        << "the edit round trip changes no byte";
    EXPECT_NO_THROW(warm_resume(cfg, snap));
    const auto hand_idle_a_page = [&](cache::shared_cache& c) {
        ASSERT_TRUE(c.pages().try_allocate(idle, 1));
    };
    EXPECT_THROW(warm_resume(cfg, with_cache_edit(cfg, snap, hand_idle_a_page)),
                 snapshot_error);
}

/// A typed-event section is a u64 count, then records of when (8), seq
/// (8), channel (1), kind (1), a (8), b (8).
constexpr std::size_t typed_record_bytes = 8 + 8 + 1 + 1 + 8 + 8;
constexpr std::size_t typed_channel_at = 16, typed_kind_at = 17;

/// Offset of the first record of `snap`'s typed section on `ch`; 0 when
/// none is pending.
std::size_t first_typed_on(const scheduler_snapshot& snap, event_channel ch) {
    const auto& bytes = snap.typed_events;
    for (std::size_t at = 8; at + typed_record_bytes <= bytes.size();
         at += typed_record_bytes)
        if (bytes[at + typed_channel_at] == static_cast<std::uint8_t>(ch))
            return at;
    return 0;
}

/// `snap` with the kind of its typed-event record at byte `at` replaced.
scheduler_snapshot with_kind(const scheduler_snapshot& snap, std::size_t at,
                             std::uint8_t kind) {
    scheduler_snapshot s = snap;
    s.typed_events[at + typed_kind_at] = kind;
    return s;
}

TEST(snapshot_codec, typed_events_of_unknown_kinds_are_rejected) {
    // A kind its channel does not define fails at restore; it must not
    // resume (the DMA engine would run it as a chunk completion) or throw
    // only once dispatched.
    const auto cfg = codec_cfg();
    const auto snap = paused_snapshot(cfg, ms_to_cycles(2.0));
    EXPECT_NO_THROW(warm_resume(cfg, snap));
    // The first pending DMA chunk rewritten to kind 9.
    const std::size_t dma = first_typed_on(snap, event_channel::dma);
    ASSERT_NE(dma, 0u) << "no pending DMA event";
    ASSERT_EQ(snap.typed_events[dma + typed_kind_at], 0);
    EXPECT_THROW(warm_resume(cfg, with_kind(snap, dma, 9)), snapshot_error);

    // Each channel's last kind resumes and the next is rejected, at a
    // pause with events pending on all three.
    const auto all = paused_snapshot(cfg, ms_to_cycles(1.4));
    for (const event_channel ch :
         {event_channel::dma, event_channel::layer, event_channel::sched}) {
        const std::size_t at = first_typed_on(all, ch);
        ASSERT_NE(at, 0u) << "no pending event on channel "
                          << static_cast<int>(ch);
        const std::uint8_t kinds = event_kind_count(ch);
        EXPECT_NO_THROW(warm_resume(cfg, with_kind(all, at, kinds - 1)));
        EXPECT_THROW(warm_resume(cfg, with_kind(all, at, kinds)),
                     snapshot_error)
            << "channel " << static_cast<int>(ch);
    }
}

// ---- section readers agree --------------------------------------------------

/// What one snapshot's sections hold of the states the laws relate.
struct section_counts {
    std::size_t runs = 0, armed = 0, flights = 0;
};

/// Decodes `snap`'s typed-event and engine sections with the components'
/// own readers and checks the laws that tie them together.
section_counts expect_sections_agree(const scheduler_snapshot& snap,
                                     const std::string& where) {
    event_queue events;
    events.restore_now(snap.now);
    snapshot_reader typed(snap.typed_events);
    events.restore_typed(typed);
    EXPECT_TRUE(typed.done()) << where;
    snapshot_reader engine(snap.engine);
    const auto runs = sim::layer_engine::read_runs(engine);
    const auto flights = npu::dma_engine::read_flights(engine);
    EXPECT_TRUE(engine.done()) << where;

    std::size_t armed = 0;
    for (const auto& rs : snap.running) {
        const auto records = std::count_if(
            runs.begin(), runs.end(),
            [&](const sim::layer_engine::run_record& run) {
                return run.slot == rs.slot;
            });
        // A running slot is either running a layer or negotiating pages.
        EXPECT_EQ(records + (rs.neg_armed ? 1 : 0), 1)
            << where << ", slot " << rs.slot;
        armed += rs.neg_armed ? 1 : 0;
    }
    EXPECT_EQ(runs.size() + armed, snap.running.size())
        << where << ": a layer run on a slot that is not running";
    EXPECT_EQ(events.pending(event_channel::sched,
                             static_cast<std::uint8_t>(
                                 runtime::sched_event::page_retry)),
              armed)
        << where;
    EXPECT_EQ(events.pending(event_channel::dma), flights.flights.size())
        << where;
    return {runs.size(), armed, flights.flights.size()};
}

TEST(snapshot_decoders, sections_agree_at_pause_points) {
    // PointPillars and ViT beside ResNet and MobileNet contend for pages,
    // so some pauses land while a slot waits for its grant.
    const std::vector<const model::model*> mix = {
        &model::model_by_abbr("RS."), &model::model_by_abbr("PP."),
        &model::model_by_abbr("MB."), &model::model_by_abbr("VT.")};
    experiment_config mmpp;
    mmpp.workload = mix;
    mmpp.co_located = 6;
    mmpp.seed = 10;
    mmpp.kind = runtime::workload_kind::open_loop_mmpp;
    mmpp.pol = sim::policy::camdn_adaptive;
    mmpp.arrival_rate_per_ms = 1.0;
    mmpp.mmpp_rate_scale = {0.25, 3.0};
    mmpp.mmpp_sojourn_ms = 3.0;
    mmpp.total_arrivals = 16;
    mmpp.admission_queue_limit = runtime::unbounded_queue;

    experiment_config closed;
    closed.workload = mix;
    closed.co_located = 8;
    closed.seed = 10;
    closed.pol = sim::policy::camdn_full;
    closed.inferences_per_slot = 2;

    for (const auto* cfg : {&mmpp, &closed}) {
        const std::string name = sim::policy_name(cfg->pol);
        auto gen = runtime::make_workload_generator(*cfg);
        runtime::scheduler sched(*cfg, *gen);
        std::size_t pauses = 0;
        section_counts seen;
        for (cycle_t at = ms_to_cycles(0.25); sched.run_segment(at);
             at += ms_to_cycles(0.25)) {
            const section_counts n = expect_sections_agree(
                sched.save(), name + " at cycle " + std::to_string(at));
            seen.runs += n.runs;
            seen.armed += n.armed;
            seen.flights += n.flights;
            ++pauses;
        }
        // The pauses catch every state the laws relate.
        EXPECT_GT(pauses, 100u) << name;
        EXPECT_GT(seen.runs, 0u) << name;
        EXPECT_GT(seen.armed, 0u) << name;
        EXPECT_GT(seen.flights, 0u) << name;
    }
}

// ---- decoder fuzz -----------------------------------------------------------

std::vector<std::uint8_t>& section(scheduler_snapshot& s, int which) {
    switch (which) {
        case 0: return s.machine;
        case 1: return s.engine;
        case 2: return s.typed_events;
        default: return s.telemetry;
    }
}

TEST(snapshot_fuzz, mutated_sections_throw_or_resume_cleanly) {
    const auto cfg = codec_cfg();
    const auto a = paused_snapshot(cfg, ms_to_cycles(1.0));
    auto b = paused_snapshot(cfg, ms_to_cycles(1.5));
    ASSERT_FALSE(a.engine.empty());
    ASSERT_FALSE(a.typed_events.empty());
    ASSERT_FALSE(a.telemetry.empty()) << "the adaptive run saves telemetry";
    const std::size_t block_end = line_block_end(cfg.soc.cache);

    rng r(20251016);
    std::size_t threw = 0, resumed = 0;
    for (int i = 0; i < 600; ++i) {
        scheduler_snapshot m = a;
        const int which = i % 4;
        auto& bytes = section(m, which);
        const int mutation = static_cast<int>(r.next_below(3));
        if (mutation == 0) {
            // Bit flips. Most machine bytes are transparent sets, where
            // restore checks each order word and masked-off valid flag but
            // takes any tag, owner and dirty flag; half the machine flips
            // aim at the structured fields around the set block instead.
            for (std::uint64_t n = 1 + r.next_below(4); n > 0; --n) {
                std::size_t at = r.next_below(bytes.size());
                if (which == 0 && (r.next() & 1)) {
                    const std::size_t structured =
                        line_block_begin + (bytes.size() - block_end);
                    at = r.next_below(structured);
                    if (at >= line_block_begin)
                        at += block_end - line_block_begin;
                }
                bytes[at] ^= static_cast<std::uint8_t>(1u << r.next_below(8));
            }
        } else if (mutation == 1) {
            bytes.resize(r.next_below(bytes.size()));
        } else {
            // Splice: a prefix of this snapshot's section joined to a
            // suffix of the other snapshot's, at independent cuts.
            const auto& other = section(b, which);
            const std::size_t keep = r.next_below(bytes.size() + 1);
            const std::size_t from = r.next_below(other.size() + 1);
            bytes.resize(keep);
            bytes.insert(bytes.end(), other.begin() + from, other.end());
        }

        try {
            warm_resume(cfg, m);
            ++resumed;
        } catch (const snapshot_error&) {
            ++threw;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "iteration " << i << " (section " << which
                          << ", mutation " << mutation
                          << ") threw a non-snapshot error: " << e.what();
        }
    }
    // The mutations reach both outcomes, or the loop tests nothing.
    EXPECT_GT(threw, 0u);
    EXPECT_GT(resumed, 0u);
}

}  // namespace
}  // namespace camdn
