// Memoized offline mappings: the mapping phase runs once per (model,
// mapper-config) pair and is shared by every experiment in a process —
// mirroring the paper's offline/online split.
//
// Keys are interned: model names and mapper configs each get a small
// integer id, and the registry resolves (name id, config id) through one
// integer-keyed hash lookup instead of formatting and comparing a
// composite string per call — the lookup sits on the scheduler's dispatch
// path.
#pragma once

#include "mapping/cost_model.h"
#include "mapping/mapping.h"
#include "model/model.h"

namespace camdn::sim {

/// Returns the cached mapping for `m` under `cfg`, computing it on first
/// use. The returned reference stays valid for the process lifetime.
const mapping::model_mapping& mapping_for(const model::model& m,
                                          const mapping::mapper_config& cfg);

/// Drops all cached mappings (test isolation).
void clear_mapping_registry();

}  // namespace camdn::sim
