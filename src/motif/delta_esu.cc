#include "motif/delta_esu.h"

#include <algorithm>
#include <cassert>

#include "motif/esu_engine.h"

namespace lamo {

size_t PairBitIndex(size_t i, size_t j, size_t k) {
  assert(i < j && j < k);
  // Pairs (i, j), i < j, in lexicographic order: rows 0..i-1 contribute
  // (k-1) + (k-2) + ... + (k-i) = i*(2k-i-1)/2 bits before row i starts.
  return i * (2 * k - i - 1) / 2 + (j - i - 1);
}

bool MaskConnected(uint64_t bits, size_t k) {
  if (k <= 1) return true;
  uint32_t visited = 1u;  // vertex 0
  uint32_t frontier = 1u;
  const uint32_t all = (k >= 32) ? ~0u : ((1u << k) - 1);
  while (frontier != 0) {
    uint32_t next = 0;
    for (size_t i = 0; i < k; ++i) {
      if ((frontier & (1u << i)) == 0) continue;
      for (size_t j = 0; j < k; ++j) {
        if (j == i || (visited & (1u << j)) != 0) continue;
        const size_t bit =
            i < j ? PairBitIndex(i, j, k) : PairBitIndex(j, i, k);
        if (bits & (uint64_t{1} << bit)) next |= 1u << j;
      }
    }
    visited |= next;
    frontier = next;
    if (visited == all) return true;
  }
  return visited == all;
}

void EnumeratePairSubgraphs(const GraphIndex& index, VertexId u, VertexId v,
                            size_t k, std::vector<PackedPairSubgraph>* out) {
  out->clear();
  assert(k >= 2 && k <= GraphIndex::kMaxInducedBitsVertices);
  assert(index.HasEdge(u, v));
  const VertexId lo = std::min(u, v);
  const VertexId hi = std::max(u, v);
  esu_internal::RunPairEsu(
      index, k, u, v, [&](const VertexId* set, size_t size) {
        PackedPairSubgraph& ps = out->emplace_back();
        std::copy(set, set + size, ps.verts);
        ps.bits_with = index.InducedBits(set, size);
        // Positions of the anchor pair within the ascending set.
        const size_t pu = static_cast<size_t>(
            std::lower_bound(set, set + size, lo) - set);
        const size_t pv = static_cast<size_t>(
            std::lower_bound(set, set + size, hi) - set);
        ps.bits_without =
            ps.bits_with & ~(uint64_t{1} << PairBitIndex(pu, pv, size));
        ps.connected_without = size > 2 && MaskConnected(ps.bits_without, size);
        return true;
      });
}

void EnumeratePairSubgraphs(const GraphIndex& index, VertexId u, VertexId v,
                            size_t k, std::vector<PairSubgraph>* out) {
  std::vector<PackedPairSubgraph> packed;
  EnumeratePairSubgraphs(index, u, v, k, &packed);
  out->clear();
  out->reserve(packed.size());
  for (const PackedPairSubgraph& p : packed) {
    out->push_back(PairSubgraph{{p.verts, p.verts + k},
                                p.bits_with,
                                p.bits_without,
                                p.connected_without});
  }
}

}  // namespace lamo
