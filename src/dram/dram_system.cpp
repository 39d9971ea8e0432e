#include "dram/dram_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/probe.h"

namespace camdn::dram {

namespace {
constexpr std::uint64_t deci = 10;  // deci-cycles per cycle

/// The config, once its divisors are known to be usable and the address
/// decode's counts are powers of two.
const dram_config& checked(const dram_config& c) {
    if (c.channels == 0 || c.banks_per_channel == 0 ||
        c.bytes_per_cycle_x10 == 0 || c.regulation_epoch == 0)
        throw std::invalid_argument(
            "dram_system: channels, banks_per_channel, bytes_per_cycle_x10 "
            "and regulation_epoch must be non-zero");
    if (c.row_bytes < line_bytes)
        throw std::invalid_argument("dram_system: a row is below one line");
    if (!is_pow2(c.channels) || !is_pow2(c.banks_per_channel) ||
        c.row_bytes % line_bytes != 0 || !is_pow2(c.row_bytes / line_bytes))
        throw std::invalid_argument(
            "dram_system: channels, banks per channel and lines per row "
            "must be powers of two");
    return c;
}
}  // namespace

dram_system::dram_system(const dram_config& config)
    : config_(checked(config)),
      banks_(static_cast<std::size_t>(config.channels) * config.banks_per_channel),
      bus_free_(config.channels, 0) {
    precompute_decode();
}

void dram_system::precompute_decode() {
    channel_shift_ = log2_of(config_.channels);
    channel_mask_ = config_.channels - 1;
    bank_shift_ = log2_of(config_.banks_per_channel);
    bank_mask_ = config_.banks_per_channel - 1;
    row_shift_ = log2_of(config_.row_bytes / line_bytes);
    data_slot_deci_ = config_.burst_deci_cycles() + config_.t_burst_gap * deci;
    peak_bytes_per_cycle_ = config_.peak_bytes_per_cycle();
    controller_deci_ = config_.t_controller * deci;
    // burst_segments needs each bank's bus-order G chain non-increasing
    // from its second visit: a bank's CAS cadence may not outrun the
    // whole channel bus.
    batched_geometry_ = config_.t_ccd * deci <=
                        config_.banks_per_channel * data_slot_deci_;
}

/// The one per-line timing body: regulation, decode and the bank/bus
/// update of one line at a time, exactly as a lone access() times it.
/// Everything it reads is copied into locals, and everything it counts
/// (row outcomes, throttles, bus slots, reads and writes, per-task bytes)
/// stays in locals until commit(): the body stores 64-bit bank fields
/// through pointers, which as far as the compiler knows may alias any
/// 64-bit member, so members read there would be reloaded, and stats_
/// bumped in memory, on every line.
class dram_system::line_timer {
public:
    explicit line_timer(dram_system& d)
        : d_(d),
          attr_(obs::attribution_of(d.probe_)),
          banks_(d.banks_.data()),
          bus_free_(d.bus_free_.data()),
          regs_(d.regulators_.data()),
          nregs_(d.regulators_.size()),
          channel_mask_(d.channel_mask_),
          channel_shift_(d.channel_shift_),
          bank_mask_(d.bank_mask_),
          bank_shift_(d.bank_shift_),
          row_block_shift_(d.bank_shift_ + d.row_shift_),
          tcl_(d.config_.t_cl * deci),
          tccd_(d.config_.t_ccd * deci),
          empty_extra_(d.config_.t_rcd * deci),
          miss_extra_((d.config_.t_rp + d.config_.t_rcd) * deci),
          slot_(d.data_slot_deci_),
          controller_(d.controller_deci_),
          epoch_(d.config_.regulation_epoch),
          peak_(d.peak_bytes_per_cycle_) {}

    /// Whether the attribution hooks are live (Attr instantiations).
    bool attributing() const { return attr_ != nullptr; }

    /// Per-task regulation: the (possibly delayed) arrival. A task with
    /// share f may move f * peak bytes per epoch; a line over budget waits
    /// for the next epoch boundary.
    cycle_t regulate(task_id task, cycle_t arrival) {
        if (task < 0 || static_cast<std::size_t>(task) >= nregs_)
            return arrival;
        regulator_state& reg = regs_[task];
        if (reg.share <= 0.0) return arrival;
        // Advance the regulator's window to the epoch containing `arrival`.
        if (arrival >= reg.epoch_start + epoch_) {
            reg.epoch_start = arrival / epoch_ * epoch_;
            reg.bytes_used = 0;
        }
        const double budget =
            reg.share * peak_ * static_cast<double>(epoch_);
        if (static_cast<double>(reg.bytes_used) + line_bytes <= budget) {
            reg.bytes_used += line_bytes;
            return arrival;
        }
        // Budget exhausted: delay to the next epoch boundary (repeatedly
        // if the budget is smaller than one line, which we clamp against).
        ++throttled_;
        reg.epoch_start += epoch_;
        reg.bytes_used = line_bytes;
        return reg.epoch_start;
    }

    /// Regulation, decode and bank/bus update of line `line_id` of `task`,
    /// arriving at `arrival`; returns its completion. With Attr the bank
    /// and bus change holder, and each wait is charged to the attributor
    /// directly.
    template <bool Attr>
    cycle_t timed(std::uint64_t line_id, cycle_t arrival, task_id task) {
        const cycle_t regulated = regulate(task, arrival);
        if constexpr (Attr) {
            if (regulated > arrival)
                attr_->dram_wait(task, task, regulated - arrival);
        }
        const std::uint64_t channel = line_id & channel_mask_;
        const std::uint64_t u = line_id >> channel_shift_;
        const auto row = static_cast<std::int64_t>(u >> row_block_shift_);
        const std::size_t bank_idx =
            (channel << bank_shift_) + (u & bank_mask_);
        bank_state& bank = banks_[bank_idx];

        const std::uint64_t arrival_deci = regulated * deci;
        const std::uint64_t start = std::max(arrival_deci, bank.ready_deci);
        if constexpr (Attr) {
            const task_id holder = attr_->take_bank(bank_idx, task);
            if (start > arrival_deci)
                attr_->dram_wait(task, holder,
                                 (start - arrival_deci + deci - 1) / deci);
        }
        // Latency of this access (visible to the requester) and occupancy
        // of the bank (what the *next* access to this bank waits for). Row
        // hits pipeline column commands at tCCD, so a same-row stream is
        // bus-bound; row switches occupy the bank for precharge+activate.
        std::uint64_t extra = 0;
        if (bank.open_row == row) {
            ++row_hits_;
        } else if (bank.open_row < 0) {
            ++row_empties_;
            extra = empty_extra_;
        } else {
            ++row_misses_;
            extra = miss_extra_;
        }
        bank.open_row = row;

        const std::uint64_t cmd_done = start + tcl_ + extra;
        const std::uint64_t data_start = std::max(cmd_done, bus_free_[channel]);
        if constexpr (Attr) {
            const task_id holder = attr_->take_bus(channel, task);
            if (data_start > cmd_done)
                attr_->dram_wait(task, holder,
                                 (data_start - cmd_done + deci - 1) / deci);
        }
        const std::uint64_t data_end = data_start + slot_;
        bus_free_[channel] = data_end;
        ++lines_;
        // Row remains open (open-page policy); the next same-row CAS may
        // issue tCCD later even while this burst is still on the bus.
        bank.ready_deci = start + tccd_ + extra;
        return (data_end + controller_ + deci - 1) / deci;
    }

    /// One access(): timed() plus the line's read/write and byte counts.
    template <bool Attr>
    cycle_t access(const line_request& q) {
        const cycle_t done = timed<Attr>(q.addr / line_bytes, q.arrival, q.task);
        writes_ += q.is_write ? 1 : 0;
        if (q.task != bytes_task_) {
            flush_task_bytes();
            bytes_task_ = q.task;
        }
        ++task_lines_;
        return done;
    }

    /// access() of every line in array order; the latest read completion,
    /// or 0 when the run holds no read.
    template <bool Attr>
    cycle_t run(const line_request* reqs, std::size_t n) {
        cycle_t read_done = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const cycle_t done = access<Attr>(reqs[i]);
            if (!reqs[i].is_write && done > read_done) read_done = done;
        }
        return read_done;
    }

    /// timed() of `n` consecutive lines from `line_id0`, all arriving at
    /// `arrival`; the latest completion, at least `arrival`.
    template <bool Attr>
    cycle_t walk(std::uint64_t line_id0, std::uint64_t n, cycle_t arrival,
                 task_id task) {
        cycle_t done = arrival;
        for (std::uint64_t i = 0; i < n; ++i)
            done = std::max(done, timed<Attr>(line_id0 + i, arrival, task));
        return done;
    }

    /// Adds the counts to the DRAM's stats and per-task bytes. Lines
    /// timed without access() count no read, write or bytes.
    void commit() {
        dram_stats& st = d_.stats_;
        st.row_hits += row_hits_;
        st.row_empties += row_empties_;
        st.row_misses += row_misses_;
        st.throttled += throttled_;
        st.bus_busy_deci += lines_ * slot_;
        if (task_lines_ == 0) return;  // access() never ran
        flush_task_bytes();
        st.writes += writes_;
        st.reads += counted_ - writes_;
    }

private:
    void flush_task_bytes() {
        counted_ += task_lines_;
        if (bytes_task_ >= 0 && task_lines_ > 0) {
            std::vector<std::uint64_t>& bytes = d_.per_task_bytes_;
            const auto t = static_cast<std::size_t>(bytes_task_);
            if (t >= bytes.size()) bytes.resize(t + 1, 0);
            bytes[t] += task_lines_ * line_bytes;
        }
        task_lines_ = 0;
    }

    dram_system& d_;
    obs::probe* const attr_;
    bank_state* const banks_;
    std::uint64_t* const bus_free_;
    regulator_state* const regs_;
    const std::size_t nregs_;
    const std::uint64_t channel_mask_;
    const std::uint32_t channel_shift_;
    const std::uint64_t bank_mask_;
    const std::uint32_t bank_shift_;
    const std::uint32_t row_block_shift_;
    const std::uint64_t tcl_, tccd_, empty_extra_, miss_extra_;
    const std::uint64_t slot_, controller_;
    const cycle_t epoch_;
    const double peak_;

    std::uint64_t row_hits_ = 0, row_empties_ = 0, row_misses_ = 0;
    std::uint64_t throttled_ = 0;
    std::uint64_t lines_ = 0;    // bus slots taken
    std::uint64_t counted_ = 0;  // lines access() counted
    std::uint64_t writes_ = 0;
    task_id bytes_task_ = no_task;  // the current run of equal tasks
    std::uint64_t task_lines_ = 0;
};

cycle_t dram_system::access(addr_t line_addr, bool is_write, cycle_t arrival,
                            task_id task) {
    line_timer t(*this);
    const line_request q{line_addr, arrival, task, is_write};
    const cycle_t done =
        t.attributing() ? t.access<true>(q) : t.access<false>(q);
    t.commit();
    return done;
}

cycle_t dram_system::access_lines(const line_request* reqs, std::size_t n) {
    const obs::probe::scope host(probe_, obs::subsystem::dram);
    line_timer t(*this);
    const cycle_t read_done =
        t.attributing() ? t.run<true>(reqs, n) : t.run<false>(reqs, n);
    t.commit();
    return read_done;
}

bool dram_system::regulate_bulk(task_id task, cycle_t arrival,
                                std::uint64_t nlines) {
    if (task < 0 || static_cast<std::size_t>(task) >= regulators_.size())
        return true;
    regulator_state& reg = regulators_[task];
    if (reg.share <= 0.0) return true;
    const cycle_t epoch = config_.regulation_epoch;
    cycle_t epoch_start = reg.epoch_start;
    std::uint64_t bytes_used = reg.bytes_used;
    // Every line of the burst carries the same arrival, so only the first
    // scalar call could advance the window — replay that decision once.
    if (arrival >= epoch_start + epoch) {
        epoch_start = arrival / epoch * epoch;
        bytes_used = 0;
    }
    const double budget =
        reg.share * peak_bytes_per_cycle_ * static_cast<double>(epoch);
    // Line j passes iff bytes_used + (j+1)*line_bytes <= budget; the counts
    // are integers below 2^53, so the double comparisons are exact and the
    // last line's check implies every earlier one.
    if (static_cast<double>(bytes_used + nlines * line_bytes) > budget)
        return false;
    reg.epoch_start = epoch_start;
    reg.bytes_used = bytes_used + nlines * line_bytes;
    return true;
}

namespace {
/// Exact sum of ceil((w1 + i*b) / deci) for i = 1..n. When the step is a
/// whole number of cycles the ceil distributes; otherwise the tail is
/// short (visits per segment are bounded by lines_per_row) and a direct
/// loop stays exact for any geometry.
std::uint64_t ceil_ap_sum(std::uint64_t w1, std::uint64_t b, std::uint64_t n) {
    if (n == 0) return 0;
    if (b % deci == 0)
        return n * ((w1 + deci - 1) / deci) + (b / deci) * (n * (n + 1) / 2);
    std::uint64_t s = 0;
    for (std::uint64_t i = 1; i <= n; ++i) s += (w1 + i * b + deci - 1) / deci;
    return s;
}

/// One channel's DRAM waits, folded into few hook calls.
using wait_fold = obs::probe::wait_fold<&obs::probe::dram_wait>;
}  // namespace

template <bool Attr>
cycle_t dram_system::burst_segments(addr_t line_addr, std::uint64_t nlines,
                                    cycle_t arrival, task_id task) {
    // Consecutive lines stripe channels -> banks -> rows, so each channel's
    // subsequence (own data bus, own banks) times independently. Within a
    // channel, in-channel line index u walks one row block until a row
    // block boundary; inside such a segment every bank's visit chain is linear:
    //   start(v) = R1 + (v-1)*D  for v >= 1, with
    //   R1 = max(arrival, ready) + busy(first visit),  D = tCCD deci.
    // The only cross-bank coupling is the channel bus prefix-max
    //   data_start(j) = max(cmd_done(j), data_start(j-1) + S),
    // whose closed form is data_start(j) = j*S + max(P, max_{k<=j} G(k))
    // with G(k) = cmd_done(k) - k*S and P the incoming bus horizon. Bank t
    // serves lines j = t + v*nbanks, so from its second visit on each step
    // moves G by D - nbanks*S <= 0 (access_burst's gate): the prefix max
    // settles within the first two visit rounds.
    //
    // Everything the bank loop reads is copied into locals first, and the
    // stats are counted in locals and added once per burst. The loop
    // stores 64-bit bank fields through a pointer, which as far as the
    // compiler knows may alias any 64-bit member; reading members there
    // would reload them, and bump stats_ in memory, on every bank.
    const std::uint64_t line_id0 = line_addr / line_bytes;
    const std::uint64_t arrival_deci = arrival * deci;
    const std::uint64_t S = data_slot_deci_;
    const std::uint64_t tccd = config_.t_ccd;
    const std::uint64_t D = tccd * deci;
    const std::uint64_t tcl = config_.t_cl * deci;
    const std::uint64_t empty_extra = config_.t_rcd * deci;
    const std::uint64_t miss_extra = (config_.t_rp + config_.t_rcd) * deci;
    // Every count is a power of two: counts are masks + 1 and every
    // divide by them is a shift.
    const std::uint64_t channel_mask = channel_mask_;
    const std::uint32_t channel_shift = channel_shift_;
    const std::uint64_t bank_mask = bank_mask_;
    const std::uint32_t bank_shift = bank_shift_;
    const std::uint64_t nbanks = bank_mask + 1;
    const std::uint32_t row_block_shift = bank_shift + row_shift_;
    const std::uint64_t row_block = std::uint64_t{1} << row_block_shift;
    bank_state* const banks = banks_.data();
    std::uint64_t* const bus_free = bus_free_.data();
    [[maybe_unused]] obs::probe* const attr = Attr ? probe_ : nullptr;
    [[maybe_unused]] std::int64_t* g1s = nullptr;
    [[maybe_unused]] std::uint64_t* visits_of = nullptr;
    if constexpr (Attr) {
        if (attr_g1_.size() < nbanks) {
            attr_g1_.resize(nbanks);
            attr_visits_.resize(nbanks);
        }
        g1s = attr_g1_.data();
        visits_of = attr_visits_.data();
    }

    // Only a bank's first visit in a segment can open a row: later visits
    // are same-row CAS hits, exactly as the per-line walk classifies them.
    // Every line is a hit, an empty or a miss, so hits are the rest.
    std::uint64_t empties = 0;
    std::uint64_t misses = 0;
    std::uint64_t last_bus = 0;
    const std::uint64_t touched = std::min(channel_mask + 1, nlines);
    for (std::uint64_t i0 = 0; i0 < touched; ++i0) {
        const std::uint64_t first_id = line_id0 + i0;
        const std::uint64_t c = first_id & channel_mask;
        std::uint64_t remaining = (nlines - i0 + channel_mask) >> channel_shift;
        std::uint64_t u = first_id >> channel_shift;
        std::uint64_t bus = bus_free[c];
        bank_state* const cbanks = banks + (c << bank_shift);
        [[maybe_unused]] wait_fold waits{attr, task};
        bool first_segment = true;
        while (remaining > 0) {
            const std::uint64_t len =
                std::min(remaining, row_block - (u & (row_block - 1)));
            const std::int64_t row =
                static_cast<std::int64_t>(u >> row_block_shift);
            const std::uint64_t visited = std::min(nbanks, len);
            std::int64_t runmax = static_cast<std::int64_t>(bus);
            // Round 0: each visited bank's first line, in bus (j) order.
            for (std::uint64_t t = 0; t < visited; ++t) {
                const std::uint64_t b = (u + t) & bank_mask;
                bank_state& bank = cbanks[b];
                const std::uint64_t start0 =
                    std::max(arrival_deci, bank.ready_deci);
                if constexpr (Attr) {
                    const task_id holder =
                        attr->take_bank((c << bank_shift) + b, task);
                    if (start0 > arrival_deci)
                        waits.charge(holder,
                                     (start0 - arrival_deci + deci - 1) / deci);
                }
                std::uint64_t extra = 0;
                if (bank.open_row != row) {
                    if (bank.open_row < 0) {
                        ++empties;
                        extra = empty_extra;
                    } else {
                        ++misses;
                        extra = miss_extra;
                    }
                }
                bank.open_row = row;
                const std::uint64_t cmd0 = start0 + tcl + extra;
                const std::uint64_t visits = (len - t + bank_mask) >> bank_shift;
                // R1 + (visits-1)*D, R1 = start0 + D + extra.
                bank.ready_deci = start0 + extra + visits * D;
                const std::int64_t g0 = static_cast<std::int64_t>(cmd0) -
                                        static_cast<std::int64_t>(t * S);
                if constexpr (Attr) {
                    const std::uint64_t r1 = start0 + D + extra;
                    // Bank-chain waits for visits v >= 1: start(v) -
                    // arrival = (r1 - arrival) + (v-1)*D, an arithmetic
                    // progression whose step is a whole number of cycles,
                    // so the per-line ceils sum in closed form. All
                    // self-charges (the bank's holder is `task` from its
                    // first visit on).
                    if (visits >= 2) {
                        const std::uint64_t k =
                            (r1 - arrival_deci + deci - 1) / deci;
                        waits.self += (visits - 1) * k +
                                      tccd * ((visits - 1) * (visits - 2) / 2);
                    }
                    // Bus wait of line j = t: M(j) - G(j), M the running
                    // max; only the channel's very first line can wait on a
                    // foreign bus holder.
                    const task_id holder = first_segment && t == 0
                                               ? attr->take_bus(c, task)
                                               : task;
                    if (runmax > g0)
                        waits.charge(holder,
                                     (static_cast<std::uint64_t>(runmax - g0) +
                                      deci - 1) /
                                         deci);
                    else
                        runmax = g0;
                    g1s[t] = static_cast<std::int64_t>(r1 + tcl) -
                             static_cast<std::int64_t>((t + nbanks) * S);
                    visits_of[t] = visits;
                } else {
                    // Without hooks only the segment's max G matters. A
                    // bank's second visit has G1 = G0 + D - nbanks*S <= G0
                    // under the gate, so only first visits can raise it.
                    if (g0 > runmax) runmax = g0;
                }
            }
            if constexpr (Attr) {
                // Round 1: the second visits, in bus order — the last lines
                // where the prefix-max can still grow.
                if (len > nbanks) {
                    const std::uint64_t second = std::min(nbanks, len - nbanks);
                    for (std::uint64_t t = 0; t < second; ++t) {
                        const std::int64_t g1 = g1s[t];
                        if (runmax > g1)
                            waits.self +=
                                (static_cast<std::uint64_t>(runmax - g1) +
                                 deci - 1) /
                                deci;
                        else
                            runmax = g1;
                    }
                    // Rounds >= 2: M has plateaued at runmax, and each
                    // bank's remaining waits grow by nbanks*S - D per round.
                    for (std::uint64_t t = 0; t < second; ++t) {
                        if (visits_of[t] < 3) continue;
                        const std::uint64_t w1 =
                            static_cast<std::uint64_t>(runmax - g1s[t]);
                        waits.self += ceil_ap_sum(w1, nbanks * S - D,
                                                  visits_of[t] - 2);
                    }
                }
            }
            // Last line's data_end = (len-1)*S + max(P, max G) + S; the bus
            // occupies S deci-cycles per line regardless of waits.
            bus = static_cast<std::uint64_t>(runmax) + len * S;
            u += len;
            remaining -= len;
            first_segment = false;
        }
        if constexpr (Attr) waits.flush();
        bus_free[c] = bus;
        if (bus > last_bus) last_bus = bus;
    }
    stats_.row_hits += nlines - empties - misses;
    stats_.row_empties += empties;
    stats_.row_misses += misses;
    stats_.bus_busy_deci += nlines * S;
    // data_start is strictly increasing along a channel, so the burst's
    // slowest line is the last of the channel whose bus ends latest; done
    // = ceil of its data_end plus the controller hop.
    return std::max(arrival, (last_bus + controller_deci_ + deci - 1) / deci);
}

cycle_t dram_system::access_burst(addr_t line_addr, std::uint64_t nlines,
                                  bool is_write, cycle_t arrival,
                                  task_id task) {
    const obs::probe::scope host(probe_, obs::subsystem::dram);
    // Same totals the per-line bumps would have produced, paid once.
    if (is_write) stats_.writes += nlines; else stats_.reads += nlines;
    if (task >= 0 && nlines > 0) {
        if (static_cast<std::size_t>(task) >= per_task_bytes_.size())
            per_task_bytes_.resize(task + 1, 0);
        per_task_bytes_[task] += nlines * line_bytes;
    }
    if (nlines == 0) return arrival;
    // Single-visit bursts (at most one line per channel: small fills,
    // writebacks and tile tails) are the most common call by far and need
    // none of the segment machinery. Their width test comes first because
    // a successful regulate_bulk commits the burst's bytes.
    if (batched_geometry_ && nlines > config_.channels &&
        regulate_bulk(task, arrival, nlines)) {
        return obs::attribution_of(probe_) != nullptr
                   ? burst_segments<true>(line_addr, nlines, arrival, task)
                   : burst_segments<false>(line_addr, nlines, arrival, task);
    }
    // The exact per-line walk (regulate per line, throttle accounting,
    // attribution of the delays) for single-visit bursts, command-bound
    // geometries, and bursts across a regulation budget edge.
    const std::uint64_t line_id0 = line_addr / line_bytes;
    line_timer t(*this);
    const cycle_t done =
        t.attributing() ? t.walk<true>(line_id0, nlines, arrival, task)
                        : t.walk<false>(line_id0, nlines, arrival, task);
    t.commit();
    return done;
}

void dram_system::set_task_share(task_id task, double fraction) {
    // std::clamp passes NaN through, and a NaN share would make the burst
    // and per-line regulators disagree (every comparison with it fails).
    if (std::isnan(fraction))
        throw std::invalid_argument("dram_system::set_task_share: NaN share");
    if (task < 0) return;
    if (static_cast<std::size_t>(task) >= regulators_.size())
        regulators_.resize(task + 1);
    regulators_[task].share = std::clamp(fraction, 0.0, 1.0);
}

std::uint64_t dram_system::task_bytes(task_id task) const {
    if (task < 0 || static_cast<std::size_t>(task) >= per_task_bytes_.size())
        return 0;
    return per_task_bytes_[task];
}

void dram_system::save_state(snapshot_writer& w) const {
    w.u64(banks_.size());
    for (const auto& b : banks_) {
        w.i64(b.open_row);
        w.u64(b.ready_deci);
    }
    w.u64(bus_free_.size());
    for (const std::uint64_t f : bus_free_) w.u64(f);
    w.u64(regulators_.size());
    for (const auto& reg : regulators_) {
        w.d(reg.share);
        w.u64(reg.epoch_start);
        w.u64(reg.bytes_used);
    }
    w.u64(per_task_bytes_.size());
    for (const std::uint64_t bytes : per_task_bytes_) w.u64(bytes);
    w.u64(stats_.reads);
    w.u64(stats_.writes);
    w.u64(stats_.row_hits);
    w.u64(stats_.row_misses);
    w.u64(stats_.row_empties);
    w.u64(stats_.throttled);
    w.u64(stats_.bus_busy_deci);
}

void dram_system::restore_state(snapshot_reader& r) {
    const std::uint64_t nbanks = r.count(16);
    if (nbanks != banks_.size())
        throw snapshot_error("snapshot DRAM bank-count mismatch: saved " +
                             std::to_string(nbanks) + ", configured " +
                             std::to_string(banks_.size()));
    for (auto& b : banks_) {
        b.open_row = r.i64();
        b.ready_deci = r.u64();
    }
    const std::uint64_t nchan = r.count(8);
    if (nchan != bus_free_.size())
        throw snapshot_error("snapshot DRAM channel-count mismatch");
    for (auto& f : bus_free_) f = r.u64();
    const std::uint64_t nreg = r.count(24);
    regulators_.assign(nreg, regulator_state{});
    for (auto& reg : regulators_) {
        reg.share = r.d();
        if (!(reg.share >= 0.0 && reg.share <= 1.0))
            throw snapshot_error("snapshot DRAM regulator share outside [0, 1]");
        reg.epoch_start = r.u64();
        reg.bytes_used = r.u64();
    }
    const std::uint64_t ntask = r.count(8);
    per_task_bytes_.assign(ntask, 0);
    for (auto& bytes : per_task_bytes_) bytes = r.u64();
    stats_.reads = r.u64();
    stats_.writes = r.u64();
    stats_.row_hits = r.u64();
    stats_.row_misses = r.u64();
    stats_.row_empties = r.u64();
    stats_.throttled = r.u64();
    stats_.bus_busy_deci = r.u64();
}

}  // namespace camdn::dram
