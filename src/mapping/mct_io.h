// Compact text serialization of model mapping files (paper §III-C3: MCTs
// store candidates in a compact format instead of unrolled NPU
// instructions). The format is line-based and round-trips exactly.
#pragma once

#include <iosfwd>
#include <string>

#include "mapping/mapping.h"

namespace camdn::mapping {

/// Writes `mapping` as a "camdn-mapping-v1" document.
void write_mapping(std::ostream& os, const model_mapping& mapping);

/// Parses a document produced by write_mapping. Throws std::runtime_error
/// with a line-numbered message on malformed input, which includes a
/// layer with no LWM candidate, LWM page counts that do not ascend
/// strictly from 0, a block whose last layer precedes its first or is not
/// a layer of the model, and a block_est count other than the block
/// count.
model_mapping read_mapping(std::istream& is);

/// Convenience string round-trip helpers.
std::string mapping_to_string(const model_mapping& mapping);
model_mapping mapping_from_string(const std::string& text);

}  // namespace camdn::mapping
