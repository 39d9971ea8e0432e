// Cache Page Table (CPT) translation: hardware paging of the NPU cache
// subspace (paper §III-B3, Fig 5(b)).
//
// Each model owns a private virtual cache address space (vcaddr). Its CPT
// maps virtual cache page numbers (vcpn) to the physical cache page
// numbers (pcpn) the runtime granted it. That mapping is the page pool's
// record of the model's holdings — vcpn v is the v-th page it holds, in
// allocation order (page_allocator::pages_of) — so no table is kept beside
// it. What stays here is the address arithmetic: a pcpn identifies one way
// and a contiguous band of sets across all slices, and the byte offset in
// the page picks the line, consecutive lines striping across slices for
// bandwidth.
#pragma once

#include <cstdint>

#include "cache/cache_config.h"
#include "common/types.h"

namespace camdn::cache {

class page_translation {
public:
    explicit page_translation(const cache_config& config);

    /// The vcpn of virtual cache address `vcaddr`.
    std::uint32_t page_of(addr_t vcaddr) const {
        return static_cast<std::uint32_t>(pow2_geometry_ ? vcaddr >> page_shift_
                                                         : vcaddr / page_bytes_);
    }
    /// The byte offset of `vcaddr` inside its page.
    addr_t offset_in_page(addr_t vcaddr) const {
        return pow2_geometry_ ? vcaddr & page_mask_ : vcaddr % page_bytes_;
    }

    /// The line holding byte `offset` (< page_bytes) of physical page
    /// `pcpn`. Inline: the NEC bursts read only the slice, which depends
    /// on the offset alone.
    pcaddr translate(std::uint32_t pcpn, addr_t offset) const {
        const std::uint64_t line_in_page = offset / line_bytes;
        pcaddr out;
        if (pow2_geometry_) {
            out.slice = static_cast<std::uint32_t>(line_in_page & slice_mask_);
            out.way = pcpn >> ppw_shift_;
            out.set = (pcpn & ppw_mask_) * sets_per_page_ +
                      static_cast<std::uint32_t>(line_in_page >> slice_shift_);
            return out;
        }
        out.slice = static_cast<std::uint32_t>(line_in_page % slices_);
        out.way = pcpn / pages_per_way_;
        out.set = (pcpn % pages_per_way_) * sets_per_page_ +
                  static_cast<std::uint32_t>(line_in_page / slices_);
        return out;
    }

private:
    std::uint64_t page_bytes_ = 0;
    std::uint32_t slices_ = 0;
    std::uint32_t pages_per_way_ = 0;
    std::uint32_t sets_per_page_ = 0;

    // The NEC bursts translate once each; power-of-two geometries (every
    // stock config) precompute shift/mask forms of the div/mod chain. Same
    // quotients as the fallback, bit for bit.
    bool pow2_geometry_ = false;
    std::uint32_t page_shift_ = 0;
    std::uint64_t page_mask_ = 0;
    std::uint32_t slice_shift_ = 0;
    std::uint64_t slice_mask_ = 0;
    std::uint32_t ppw_shift_ = 0;  // pages_per_way
    std::uint32_t ppw_mask_ = 0;
};

}  // namespace camdn::cache
