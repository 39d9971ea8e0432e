// Cache Page Table (CPT): hardware paging of the NPU cache subspace.
//
// Each model owns a private virtual cache address space (vcaddr). The CPT
// maps virtual cache page numbers (vcpn) to physical cache page numbers
// (pcpn); a pcpn identifies one way and a contiguous band of sets across
// all slices. Translation composes the pcaddr whose fields (way, set,
// slice) index the target line directly — consecutive vcaddr lines stripe
// across slices for bandwidth (paper §III-B3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_config.h"
#include "common/snapshot_io.h"
#include "common/types.h"

namespace camdn::cache {

class cache_page_table {
public:
    explicit cache_page_table(const cache_config& config);

    /// Maps `vcpn` to physical page `pcpn`. Overwrites any prior mapping.
    void map(std::uint32_t vcpn, std::uint32_t pcpn);

    /// Invalidates the entry for `vcpn` (no-op when not mapped).
    void unmap(std::uint32_t vcpn);

    /// Invalidates every entry.
    void clear();

    bool is_mapped(std::uint32_t vcpn) const;
    std::optional<std::uint32_t> lookup(std::uint32_t vcpn) const;

    /// Translates a virtual cache byte address to its physical line
    /// location. The page containing `vcaddr` must be mapped.
    pcaddr translate(addr_t vcaddr) const;

    /// Number of valid entries.
    std::uint32_t mapped_count() const { return mapped_; }

    /// Capacity in entries (== total pages of the cache, paper: <=512).
    std::uint32_t capacity() const { return static_cast<std::uint32_t>(entries_.size()); }

    /// SRAM footprint of this table in bytes (3 bytes per entry: pcpn +
    /// valid bit, paper §III-B3) — used by the area model.
    std::uint64_t sram_bytes() const { return entries_.size() * 3; }

    /// Checkpoint support: serializes / restores every entry. restore_state
    /// throws snapshot_error when the saved capacity does not match this
    /// table's geometry.
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r);

private:
    struct entry {
        std::uint32_t pcpn = 0;
        bool valid = false;
    };
    /// One entry on disk: pcpn, valid.
    static constexpr std::size_t entry_record_bytes = 4 + 1;

    cache_config config_;
    std::vector<entry> entries_;
    std::uint32_t mapped_ = 0;

    // translate() runs once per NEC burst on the hot path; power-of-two
    // geometries (every stock config) precompute shift/mask forms of its
    // div/mod chain. Same quotients as the fallback, bit for bit.
    bool pow2_geometry_ = false;
    std::uint32_t page_shift_ = 0;
    std::uint64_t page_mask_ = 0;
    std::uint32_t slice_shift_ = 0;
    std::uint64_t slice_mask_ = 0;
    std::uint32_t ppw_shift_ = 0;   // pages_per_way
    std::uint32_t ppw_mask_ = 0;
    std::uint32_t sets_per_page_ = 0;
};

}  // namespace camdn::cache
