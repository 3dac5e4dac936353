#include "oracle/legacy_esu.h"

#include <algorithm>

#include "graph/canonical.h"
#include "util/logging.h"

namespace lamo {
namespace oracle {
namespace {

class EsuEnumerator {
 public:
  EsuEnumerator(const Graph& g, size_t k,
                const std::function<bool(const std::vector<VertexId>&)>& cb,
                const std::vector<double>* depth_probability, Rng* rng)
      : g_(g), k_(k), callback_(cb), probabilities_(depth_probability),
        rng_(rng) {}

  // ESU roots every vertex set at its minimum vertex (extensions only grow
  // upward).
  void Run() {
    if (k_ == 0 || k_ > g_.num_vertices()) return;
    std::vector<VertexId> subgraph;
    std::vector<VertexId> extension;
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (!Explore(0)) continue;  // depth-0 sampling decision per root
      subgraph.assign(1, v);
      extension.clear();
      for (VertexId u : g_.Neighbors(v)) {
        if (u > v) extension.push_back(u);
      }
      if (!Extend(v, subgraph, extension)) return;
    }
  }

 private:
  // Returns true if this branch should be explored (always true when
  // exhaustive).
  bool Explore(size_t depth) {
    if (probabilities_ == nullptr) return true;
    const double p = (*probabilities_)[depth];
    if (p >= 1.0) return true;
    return rng_->Bernoulli(p);
  }

  // Returns false iff enumeration must stop entirely (callback abort).
  bool Extend(VertexId root, std::vector<VertexId>& subgraph,
              const std::vector<VertexId>& extension) {
    if (subgraph.size() == k_) {
      std::vector<VertexId> sorted = subgraph;
      std::sort(sorted.begin(), sorted.end());
      return callback_(sorted);
    }
    // Try each extension vertex in turn; ESU's exclusive-neighborhood rule
    // guarantees each vertex set is generated exactly once.
    for (size_t i = 0; i < extension.size(); ++i) {
      if (!Explore(subgraph.size())) continue;
      const VertexId w = extension[i];
      std::vector<VertexId> next_extension(extension.begin() + i + 1,
                                           extension.end());
      // Add exclusive neighbors of w: neighbors > root that are neither in
      // the subgraph nor adjacent to it.
      for (VertexId u : g_.Neighbors(w)) {
        if (u <= root) continue;
        if (std::find(subgraph.begin(), subgraph.end(), u) != subgraph.end())
          continue;
        bool adjacent_to_subgraph = false;
        for (VertexId s : subgraph) {
          if (g_.HasEdge(u, s)) {
            adjacent_to_subgraph = true;
            break;
          }
        }
        if (adjacent_to_subgraph) continue;
        if (std::find(next_extension.begin(), next_extension.end(), u) ==
            next_extension.end()) {
          next_extension.push_back(u);
        }
      }
      subgraph.push_back(w);
      const bool keep_going = Extend(root, subgraph, next_extension);
      subgraph.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  const Graph& g_;
  size_t k_;
  const std::function<bool(const std::vector<VertexId>&)>& callback_;
  const std::vector<double>* probabilities_;
  Rng* rng_;
};

}  // namespace

void LegacyEsu(const Graph& g, size_t k,
               const std::vector<double>* probabilities, Rng* rng,
               const std::function<bool(const std::vector<VertexId>&)>& cb) {
  EsuEnumerator(g, k, cb, probabilities, rng).Run();
}

SampledSubgraphCounts LegacySampleSubgraphClasses(
    const Graph& g, size_t k, const std::vector<double>& probabilities,
    Rng& rng) {
  LAMO_CHECK_EQ(probabilities.size(), k);
  double sample_probability = 1.0;
  for (double p : probabilities) sample_probability *= p;
  LAMO_CHECK_GT(sample_probability, 0.0);
  const double inverse = 1.0 / sample_probability;

  SampledSubgraphCounts result;
  LegacyEsu(g, k, &probabilities, &rng, [&](const std::vector<VertexId>& set) {
    const SmallGraph sub = SmallGraph::InducedSubgraph(g, set);
    result.estimated_counts[CanonicalCode(sub)] += inverse;
    result.estimated_total += inverse;
    ++result.samples;
    return true;
  });
  return result;
}

}  // namespace oracle
}  // namespace lamo
