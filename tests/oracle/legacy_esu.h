// Test oracle: the original recursive ESU walk (Wernicke 2006) over Graph
// adjacency — binary-search HasEdge probes and one vector copy per tree
// node. The index engine (motif/esu_engine.h) replaced it in the library;
// the differential tests diff the engine's emission sequence against it,
// exhaustively and under RAND-ESU sampling.
#ifndef LAMO_TESTS_ORACLE_LEGACY_ESU_H_
#define LAMO_TESTS_ORACLE_LEGACY_ESU_H_

#include <functional>
#include <vector>

#include "graph/graph.h"
#include "motif/esu.h"
#include "util/random.h"

namespace lamo {
namespace oracle {

/// Emits every connected size-k vertex set once, sorted ascending, in
/// ESU order. With `probabilities` non-null (size k) each branch is
/// explored with the per-depth probability, drawing from `rng` (RAND-ESU):
/// one coin per root at depth 0, one per extension candidate at depth
/// |subgraph|; a probability >= 1 draws nothing. Return false from the
/// callback to stop early.
void LegacyEsu(const Graph& g, size_t k,
               const std::vector<double>* probabilities, Rng* rng,
               const std::function<bool(const std::vector<VertexId>&)>& cb);

/// SampleSubgraphClasses computed from the LegacyEsu sample.
SampledSubgraphCounts LegacySampleSubgraphClasses(
    const Graph& g, size_t k, const std::vector<double>& probabilities,
    Rng& rng);

}  // namespace oracle
}  // namespace lamo

#endif  // LAMO_TESTS_ORACLE_LEGACY_ESU_H_
