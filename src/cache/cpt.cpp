#include "cache/cpt.h"

#include <stdexcept>
#include <string>

namespace camdn::cache {

const cache_config& checked_page_geometry(const cache_config& config) {
    const auto reject = [](const std::string& why) {
        throw std::invalid_argument("cache geometry: " + why);
    };
    if (config.ways == 0) reject("no ways");
    if (!is_pow2(config.slices))
        reject(std::to_string(config.slices) +
               " slices, not a power of two");
    if (!is_pow2(config.page_bytes))
        reject(std::to_string(config.page_bytes) +
               "-byte pages, not a power of two");
    if (config.sets_per_page() == 0)
        reject("a " + std::to_string(config.page_bytes) +
               "-byte page holds less than one line per slice");
    const std::uint32_t ppw = config.pages_per_way();
    if (ppw == 0)
        reject("a " + std::to_string(config.page_bytes) +
               "-byte page is larger than one way");
    if (!is_pow2(ppw))
        reject(std::to_string(ppw) + " pages per way, not a power of two");
    return config;
}

page_translation::page_translation(const cache_config& config) {
    checked_page_geometry(config);
    const std::uint32_t ppw = config.pages_per_way();
    sets_per_page_ = config.sets_per_page();
    page_shift_ = log2_of(config.page_bytes);
    page_mask_ = config.page_bytes - 1;
    slice_shift_ = log2_of(config.slices);
    slice_mask_ = config.slices - 1;
    ppw_shift_ = log2_of(ppw);
    ppw_mask_ = ppw - 1;
}

}  // namespace camdn::cache
