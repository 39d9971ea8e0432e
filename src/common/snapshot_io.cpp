#include "common/snapshot_io.h"

namespace camdn::snapshot_detail {

void throw_truncated(std::size_t pos, std::uint64_t need, std::size_t have) {
    throw snapshot_error("snapshot truncated at byte " + std::to_string(pos) +
                         ": need " + std::to_string(need) + " more, have " +
                         std::to_string(have));
}

}  // namespace camdn::snapshot_detail
