// Core scalar types and unit helpers shared by every CaMDN module.
//
// The whole simulator runs on a single 1 GHz clock domain (Table II of the
// paper), so one cycle equals one nanosecond and time arithmetic stays in
// integer cycles throughout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace camdn {

/// Global simulation time in cycles of the 1 GHz SoC clock (1 cycle = 1 ns).
using cycle_t = std::uint64_t;

/// Byte address. Used for DRAM physical addresses and for the per-model
/// virtual cache address space (vcaddr) of the NPU subspace.
using addr_t = std::uint64_t;

/// Identifier of a co-located DNN task (tenant). Negative means "none".
using task_id = std::int32_t;

/// Identifier of an NPU core. Negative means "none".
using npu_id = std::int32_t;

inline constexpr task_id no_task = -1;
inline constexpr npu_id no_npu = -1;

inline constexpr cycle_t never = std::numeric_limits<cycle_t>::max();

/// Bytes per KiB/MiB, spelled as functions so call sites read as units.
constexpr std::uint64_t kib(std::uint64_t n) { return n << 10; }
constexpr std::uint64_t mib(std::uint64_t n) { return n << 20; }

/// Cache line size used across the memory hierarchy (bytes).
inline constexpr std::uint64_t line_bytes = 64;

/// Rounds `n` up to the next multiple of `align` (align must be non-zero).
constexpr std::uint64_t round_up(std::uint64_t n, std::uint64_t align) {
    return (n + align - 1) / align * align;
}

/// Integer ceiling division.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
}

/// Number of cache lines needed to hold `bytes` bytes.
constexpr std::uint64_t lines_for(std::uint64_t bytes) {
    return ceil_div(bytes, line_bytes);
}

/// Whether `v` is a power of two (0 is not). The cache and DRAM decode
/// addresses by bit fields, so their geometries must be powers of two.
constexpr bool is_pow2(std::uint64_t v) {
    return v != 0 && (v & (v - 1)) == 0;
}

/// log2 of a power of two: the shift that stands for dividing by `v`.
constexpr std::uint32_t log2_of(std::uint64_t v) {
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v) ++s;
    return s;
}

/// Saturating clock arithmetic. Hours-of-stream-time configs multiply
/// round lengths by round counts; a wrapped product silently truncates a
/// round window to near zero, so long-horizon bounds clamp to
/// `never` instead of wrapping.
constexpr cycle_t sat_add(cycle_t a, cycle_t b) {
    return a > never - b ? never : a + b;
}
constexpr cycle_t sat_mul(cycle_t a, cycle_t b) {
    return (b != 0 && a > never / b) ? never : a * b;
}

/// Converts cycles of the 1 GHz clock to milliseconds.
constexpr double cycles_to_ms(cycle_t c) { return static_cast<double>(c) * 1e-6; }

/// Converts milliseconds to cycles of the 1 GHz clock.
constexpr cycle_t ms_to_cycles(double ms) {
    return static_cast<cycle_t>(ms * 1e6);
}

/// Converts microseconds to cycles of the 1 GHz clock.
constexpr cycle_t us_to_cycles(double us) {
    return static_cast<cycle_t>(us * 1e3);
}

}  // namespace camdn
