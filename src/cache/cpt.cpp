#include "cache/cpt.h"

#include <cassert>

namespace camdn::cache {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_of(std::uint64_t v) {
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v) ++s;
    return s;
}
}  // namespace

cache_page_table::cache_page_table(const cache_config& config)
    : config_(config), entries_(config.pages_total()) {
    sets_per_page_ = config_.sets_per_page();
    pow2_geometry_ = is_pow2(config_.page_bytes) && is_pow2(config_.slices) &&
                     is_pow2(config_.pages_per_way());
    if (pow2_geometry_) {
        page_shift_ = log2_of(config_.page_bytes);
        page_mask_ = config_.page_bytes - 1;
        slice_shift_ = log2_of(config_.slices);
        slice_mask_ = config_.slices - 1;
        ppw_shift_ = log2_of(config_.pages_per_way());
        ppw_mask_ = config_.pages_per_way() - 1;
    }
}

void cache_page_table::map(std::uint32_t vcpn, std::uint32_t pcpn) {
    assert(vcpn < entries_.size());
    assert(pcpn < config_.pages_total());
    if (!entries_[vcpn].valid) ++mapped_;
    entries_[vcpn] = entry{pcpn, true};
}

void cache_page_table::unmap(std::uint32_t vcpn) {
    assert(vcpn < entries_.size());
    if (entries_[vcpn].valid) {
        entries_[vcpn].valid = false;
        --mapped_;
    }
}

void cache_page_table::clear() {
    for (auto& e : entries_) e.valid = false;
    mapped_ = 0;
}

bool cache_page_table::is_mapped(std::uint32_t vcpn) const {
    return vcpn < entries_.size() && entries_[vcpn].valid;
}

std::optional<std::uint32_t> cache_page_table::lookup(std::uint32_t vcpn) const {
    if (!is_mapped(vcpn)) return std::nullopt;
    return entries_[vcpn].pcpn;
}

pcaddr cache_page_table::translate(addr_t vcaddr) const {
    pcaddr out;
    if (pow2_geometry_) {
        const std::uint32_t vcpn =
            static_cast<std::uint32_t>(vcaddr >> page_shift_);
        assert(is_mapped(vcpn) && "translate() on an unmapped cache page");
        const std::uint32_t pcpn = entries_[vcpn].pcpn;
        const std::uint64_t line_in_page = (vcaddr & page_mask_) / line_bytes;
        out.slice = static_cast<std::uint32_t>(line_in_page & slice_mask_);
        const std::uint32_t set_in_page =
            static_cast<std::uint32_t>(line_in_page >> slice_shift_);
        out.way = pcpn >> ppw_shift_;
        out.set = (pcpn & ppw_mask_) * sets_per_page_ + set_in_page;
        return out;
    }
    const std::uint32_t vcpn =
        static_cast<std::uint32_t>(vcaddr / config_.page_bytes);
    assert(is_mapped(vcpn) && "translate() on an unmapped cache page");
    const std::uint32_t pcpn = entries_[vcpn].pcpn;

    const std::uint64_t line_in_page =
        (vcaddr % config_.page_bytes) / line_bytes;
    out.slice = static_cast<std::uint32_t>(line_in_page % config_.slices);
    const std::uint32_t set_in_page =
        static_cast<std::uint32_t>(line_in_page / config_.slices);
    out.way = pcpn / config_.pages_per_way();
    out.set = (pcpn % config_.pages_per_way()) * sets_per_page_ + set_in_page;
    return out;
}

void cache_page_table::save_state(snapshot_writer& w) const {
    w.u64(entries_.size());
    auto out = w.span(entries_.size() * entry_record_bytes);
    for (const auto& e : entries_) {
        out.u32(e.pcpn);
        out.b(e.valid);
    }
}

void cache_page_table::restore_state(snapshot_reader& r) {
    const std::uint64_t n = r.count(entry_record_bytes);
    if (n != entries_.size())
        throw snapshot_error("snapshot CPT capacity mismatch: saved " +
                             std::to_string(n) + ", configured " +
                             std::to_string(entries_.size()));
    auto in = r.span(n * entry_record_bytes);
    mapped_ = 0;
    for (auto& e : entries_) {
        e.pcpn = in.u32();
        e.valid = in.b();
        if (e.valid) {
            if (e.pcpn >= config_.pages_total())
                throw snapshot_error("snapshot CPT entry maps pcpn " +
                                     std::to_string(e.pcpn) +
                                     " beyond the cache's " +
                                     std::to_string(config_.pages_total()) +
                                     " pages");
            ++mapped_;
        }
    }
}

}  // namespace camdn::cache
