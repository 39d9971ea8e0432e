#include "cache/cpt.h"

namespace camdn::cache {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_of(std::uint64_t v) {
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v) ++s;
    return s;
}
}  // namespace

page_translation::page_translation(const cache_config& config)
    : page_bytes_(config.page_bytes),
      slices_(config.slices),
      pages_per_way_(config.pages_per_way()),
      sets_per_page_(config.sets_per_page()) {
    pow2_geometry_ =
        is_pow2(page_bytes_) && is_pow2(slices_) && is_pow2(pages_per_way_);
    if (pow2_geometry_) {
        page_shift_ = log2_of(page_bytes_);
        page_mask_ = page_bytes_ - 1;
        slice_shift_ = log2_of(slices_);
        slice_mask_ = slices_ - 1;
        ppw_shift_ = log2_of(pages_per_way_);
        ppw_mask_ = pages_per_way_ - 1;
    }
}

}  // namespace camdn::cache
