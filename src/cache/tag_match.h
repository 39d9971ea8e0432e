// Lane-wise equality over one transparent set's 16-bit tag signatures —
// the first step of every transparent lookup (shared_cache.cpp). SSE2,
// baseline on x86-64, compares eight signatures per instruction; other
// targets run the plain loop, which tests also check the vector form
// against.
#pragma once

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace camdn::cache {

/// Bit w set where sig[w] == key, for w < 16.
inline std::uint32_t match_signatures_scalar(const std::uint16_t* sig,
                                             std::uint16_t key) {
    std::uint32_t mask = 0;
    for (std::uint32_t w = 0; w < 16; ++w)
        mask |= static_cast<std::uint32_t>(sig[w] == key) << w;
    return mask;
}

/// Same mask as match_signatures_scalar.
inline std::uint32_t match_signatures(const std::uint16_t* sig,
                                      std::uint16_t key) {
#if defined(__SSE2__)
    const __m128i k = _mm_set1_epi16(static_cast<short>(key));
    const __m128i lo = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig)), k);
    const __m128i hi = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig + 8)), k);
    // Each equal lane is 0xffff; packing to bytes keeps it all-ones, and
    // the byte sign bits are the mask.
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
#else
    return match_signatures_scalar(sig, key);
#endif
}

}  // namespace camdn::cache
