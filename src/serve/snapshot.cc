#include "serve/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "predict/gds.h"
#include "predict/role_similarity.h"
#include "util/atomic_io.h"
#include "util/logging.h"

namespace lamo {

/// Befriended by Graph, Ontology, AnnotationTable, TermWeights and
/// InformativeClasses: the snapshot codec moves their precomputed private
/// arrays in and out directly, so a loaded snapshot is bit-for-bit the state
/// the pipeline computed — nothing is re-derived.
struct SnapshotAccess {
  // ---- Graph (CSR) ----
  static const std::vector<size_t>& GraphOffsets(const Graph& g) {
    return g.offsets_;
  }
  static const std::vector<VertexId>& GraphNeighbors(const Graph& g) {
    return g.neighbors_;
  }
  static Graph MakeGraph(std::vector<size_t> offsets,
                         std::vector<VertexId> neighbors) {
    Graph g;
    g.offsets_ = std::move(offsets);
    g.neighbors_ = std::move(neighbors);
    return g;
  }

  // ---- Ontology ----
  static const Ontology& O(const Ontology& o) { return o; }
  static Ontology MakeOntology(
      std::vector<std::string> names, std::vector<size_t> parent_offsets,
      std::vector<TermId> parents_flat,
      std::vector<RelationType> parent_relations_flat,
      std::vector<size_t> child_offsets, std::vector<TermId> children_flat,
      std::vector<TermId> roots, std::vector<TermId> topo_order,
      std::vector<size_t> ancestor_offsets, std::vector<TermId> ancestors_flat,
      std::vector<uint32_t> depths) {
    Ontology o;
    o.names_ = std::move(names);
    o.parent_offsets_ = std::move(parent_offsets);
    o.parents_flat_ = std::move(parents_flat);
    o.parent_relations_flat_ = std::move(parent_relations_flat);
    o.child_offsets_ = std::move(child_offsets);
    o.children_flat_ = std::move(children_flat);
    o.roots_ = std::move(roots);
    o.topo_order_ = std::move(topo_order);
    o.ancestor_offsets_ = std::move(ancestor_offsets);
    o.ancestors_flat_ = std::move(ancestors_flat);
    o.depths_ = std::move(depths);
    return o;
  }
  static const std::vector<std::string>& Names(const Ontology& o) {
    return o.names_;
  }
  static const std::vector<size_t>& ParentOffsets(const Ontology& o) {
    return o.parent_offsets_;
  }
  static const std::vector<TermId>& ParentsFlat(const Ontology& o) {
    return o.parents_flat_;
  }
  static const std::vector<RelationType>& ParentRelationsFlat(
      const Ontology& o) {
    return o.parent_relations_flat_;
  }
  static const std::vector<size_t>& ChildOffsets(const Ontology& o) {
    return o.child_offsets_;
  }
  static const std::vector<TermId>& ChildrenFlat(const Ontology& o) {
    return o.children_flat_;
  }
  static const std::vector<TermId>& Roots(const Ontology& o) {
    return o.roots_;
  }
  static const std::vector<TermId>& TopoOrder(const Ontology& o) {
    return o.topo_order_;
  }
  static const std::vector<size_t>& AncestorOffsets(const Ontology& o) {
    return o.ancestor_offsets_;
  }
  static const std::vector<TermId>& AncestorsFlat(const Ontology& o) {
    return o.ancestors_flat_;
  }
  static const std::vector<uint32_t>& Depths(const Ontology& o) {
    return o.depths_;
  }

  // ---- AnnotationTable ----
  static const std::vector<std::vector<TermId>>& Annotations(
      const AnnotationTable& a) {
    return a.annotations_;
  }
  static AnnotationTable MakeAnnotations(
      std::vector<std::vector<TermId>> annotations) {
    AnnotationTable a;
    a.annotations_ = std::move(annotations);
    return a;
  }

  // ---- TermWeights ----
  static const std::vector<double>& Weights(const TermWeights& w) {
    return w.weights_;
  }
  static const std::vector<double>& LogWeights(const TermWeights& w) {
    return w.log_weights_;
  }
  static TermWeights MakeWeights(std::vector<double> weights,
                                 std::vector<double> log_weights) {
    TermWeights w;
    w.weights_ = std::move(weights);
    w.log_weights_ = std::move(log_weights);
    return w;
  }

  // ---- InformativeClasses ----
  static const std::vector<bool>& Informative(const InformativeClasses& c) {
    return c.informative_;
  }
  static const std::vector<bool>& Border(const InformativeClasses& c) {
    return c.border_;
  }
  static const std::vector<bool>& Candidate(const InformativeClasses& c) {
    return c.candidate_;
  }
  static const std::vector<TermId>& InformativeTerms(
      const InformativeClasses& c) {
    return c.informative_terms_;
  }
  static const std::vector<TermId>& BorderTerms(const InformativeClasses& c) {
    return c.border_terms_;
  }
  static InformativeClasses MakeInformative(std::vector<bool> informative,
                                            std::vector<bool> border,
                                            std::vector<bool> candidate,
                                            std::vector<TermId> info_terms,
                                            std::vector<TermId> border_terms) {
    InformativeClasses c;
    c.informative_ = std::move(informative);
    c.border_ = std::move(border);
    c.candidate_ = std::move(candidate);
    c.informative_terms_ = std::move(info_terms);
    c.border_terms_ = std::move(border_terms);
    return c;
  }
};

namespace {

// ---- encoding primitives (little-endian, fixed width) ----------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutU8Vec(std::string* out, const std::vector<uint8_t>& v) {
  PutU64(out, v.size());
  out->append(reinterpret_cast<const char*>(v.data()), v.size());
}

void PutU32Vec(std::string* out, const std::vector<uint32_t>& v) {
  PutU64(out, v.size());
  for (uint32_t x : v) PutU32(out, x);
}

void PutSizeVec(std::string* out, const std::vector<size_t>& v) {
  PutU64(out, v.size());
  for (size_t x : v) PutU64(out, x);
}

void PutU64Vec(std::string* out, const std::vector<uint64_t>& v) {
  PutU64(out, v.size());
  for (uint64_t x : v) PutU64(out, x);
}

void PutDoubleVec(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (double x : v) PutDouble(out, x);
}

void PutBoolVec(std::string* out, const std::vector<bool>& v) {
  PutU64(out, v.size());
  for (bool b : v) PutU8(out, b ? 1 : 0);
}

// FNV-1a 64-bit over the document body; stored as the trailing 8 bytes.
uint64_t Checksum(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// ---- bounds-checked decoding cursor ----------------------------------------

// Reads primitives sequentially; the first short read or failed validation
// latches an error message and makes every subsequent read a cheap no-op, so
// decode code can run straight-line and check once at the end.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t remaining() const { return size_ - pos_; }

  void Fail(const std::string& message) {
    if (!ok_) return;
    ok_ = false;
    error_ = message + " at offset " + std::to_string(pos_);
  }

  uint8_t GetU8() {
    if (!Need(1, "u8")) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t GetU32() {
    if (!Need(4, "u32")) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t GetU64() {
    if (!Need(8, "u64")) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double GetDouble() { return std::bit_cast<double>(GetU64()); }

  std::string GetString() {
    const uint32_t n = GetU32();
    if (!Need(n, "string body")) return {};
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  // Element counts are validated against the remaining bytes *before*
  // allocation, so a corrupt length cannot trigger a huge allocation.
  size_t GetCount(size_t element_bytes, const char* what) {
    const uint64_t n = GetU64();
    if (!ok_) return 0;
    if (element_bytes != 0 && n > remaining() / element_bytes) {
      Fail(std::string("implausible ") + what + " count " + std::to_string(n));
      return 0;
    }
    return static_cast<size_t>(n);
  }

  std::vector<uint8_t> GetU8Vec(const char* what) {
    const size_t n = GetCount(1, what);
    std::vector<uint8_t> v;
    if (!ok_ || !Need(n, what)) return v;
    v.assign(reinterpret_cast<const uint8_t*>(data_) + pos_,
             reinterpret_cast<const uint8_t*>(data_) + pos_ + n);
    pos_ += n;
    return v;
  }

  std::vector<uint32_t> GetU32Vec(const char* what) {
    const size_t n = GetCount(4, what);
    std::vector<uint32_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok_; ++i) v.push_back(GetU32());
    return v;
  }

  std::vector<size_t> GetSizeVec(const char* what) {
    const size_t n = GetCount(8, what);
    std::vector<size_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok_; ++i) {
      v.push_back(static_cast<size_t>(GetU64()));
    }
    return v;
  }

  std::vector<uint64_t> GetU64Vec(const char* what) {
    const size_t n = GetCount(8, what);
    std::vector<uint64_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok_; ++i) v.push_back(GetU64());
    return v;
  }

  std::vector<double> GetDoubleVec(const char* what) {
    const size_t n = GetCount(8, what);
    std::vector<double> v;
    if (!ok_) return v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok_; ++i) v.push_back(GetDouble());
    return v;
  }

  std::vector<bool> GetBoolVec(const char* what) {
    const size_t n = GetCount(1, what);
    std::vector<bool> v;
    if (!ok_) return v;
    v.reserve(n);
    for (size_t i = 0; i < n && ok_; ++i) v.push_back(GetU8() != 0);
    return v;
  }

 private:
  bool Need(size_t n, const char* what) {
    if (!ok_) return false;
    if (n > remaining()) {
      Fail(std::string("truncated ") + what);
      return false;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// ---- structural validation -------------------------------------------------

// Offsets arrays must be monotone with exactly `flat` total entries — the
// span accessors index them unchecked, so a checksum-valid but inconsistent
// file must be rejected here rather than crash later.
bool OffsetsValid(const std::vector<size_t>& offsets, size_t n, size_t flat) {
  if (offsets.size() != n + 1) return false;
  if (offsets.front() != 0 || offsets.back() != flat) return false;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  return true;
}

bool IdsBelow(const std::vector<uint32_t>& ids, size_t limit) {
  return std::all_of(ids.begin(), ids.end(),
                     [limit](uint32_t id) { return id < limit; });
}

}  // namespace

Snapshot BuildSnapshot(Graph graph, Ontology ontology,
                       AnnotationTable annotations,
                       std::vector<LabeledMotif> motifs,
                       const InformativeConfig& informative_config) {
  Snapshot snap;
  snap.graph = std::move(graph);
  snap.ontology = std::move(ontology);
  snap.annotations = std::move(annotations);
  snap.motifs = std::move(motifs);
  snap.weights = TermWeights::Compute(snap.ontology, snap.annotations);
  snap.informative = InformativeClasses::Compute(
      snap.ontology, snap.annotations, informative_config);

  snap.sites = BuildSiteIndex(snap.motifs, snap.graph.num_vertices());

  // Predictor section: the non-default backends' precomputed inputs. Both
  // computations are deterministic, so serving from these matrices answers
  // byte-identically to an offline `lamo predict` recompute.
  snap.gds_signatures = ComputeGdsSignatures(snap.graph);
  snap.role_dim = static_cast<uint32_t>(kRoleIterations);
  snap.role_vectors = ComputeRoleVectors(snap.graph);

  // Prediction context: categories are the first root's children; protein
  // categories via the true path — the same derivation `lamo predict` runs.
  const TermId root = snap.ontology.Roots()[0];
  snap.categories.assign(snap.ontology.Children(root).begin(),
                         snap.ontology.Children(root).end());
  snap.protein_categories.resize(snap.graph.num_vertices());
  for (ProteinId p = 0; p < snap.graph.num_vertices(); ++p) {
    std::vector<TermId>& cats = snap.protein_categories[p];
    for (TermId t : snap.annotations.TermsOf(p)) {
      for (TermId c : snap.categories) {
        if (snap.ontology.IsAncestorOrEqual(c, t)) {
          if (!std::binary_search(cats.begin(), cats.end(), c)) {
            cats.insert(std::lower_bound(cats.begin(), cats.end(), c), c);
          }
        }
      }
    }
  }
  return snap;
}

std::string ShardSnapshotPath(const std::string& base, uint32_t shard_id,
                              uint32_t num_shards) {
  return base + ".shard" + std::to_string(shard_id) + "of" +
         std::to_string(num_shards);
}

Snapshot MakeShard(const Snapshot& full, uint32_t shard_id,
                   uint32_t num_shards) {
  Snapshot shard = full;
  shard.num_shards = num_shards;
  shard.shard_id = shard_id;
  if (num_shards <= 1) return shard;
  // Keep exactly the occurrences that involve an owned protein: the
  // predictor index a backend rebuilds from them lists, for every owned
  // protein, the same (motif, vertex) sites in the same first-seen order as
  // the full snapshot, so served answers cannot drift. Stored frequency,
  // uniqueness and strength are untouched — they describe the whole
  // interactome, not the shard.
  for (LabeledMotif& motif : shard.motifs) {
    std::vector<MotifOccurrence> kept;
    kept.reserve(motif.occurrences.size());
    for (MotifOccurrence& occ : motif.occurrences) {
      const bool owned =
          std::any_of(occ.proteins.begin(), occ.proteins.end(),
                      [&shard](VertexId p) { return shard.OwnsProtein(p); });
      if (owned) kept.push_back(std::move(occ));
    }
    motif.occurrences = std::move(kept);
  }
  for (uint32_t p = 0; p < shard.sites.size(); ++p) {
    if (!shard.OwnsProtein(p)) {
      shard.sites[p].clear();
      shard.sites[p].shrink_to_fit();
    }
  }
  return shard;
}

std::string EncodeSnapshot(const Snapshot& snap) {
  LAMO_CHECK(snap.version >= kMinSnapshotVersion &&
             snap.version <= kSnapshotVersion)
      << "unencodable snapshot version " << snap.version;
  std::string out;
  out.append(kSnapshotMagic, sizeof kSnapshotMagic);
  PutU32(&out, snap.version);

  // -- shard section --
  PutU32(&out, snap.num_shards);
  PutU32(&out, snap.shard_id);

  // -- graph (CSR) --
  PutSizeVec(&out, SnapshotAccess::GraphOffsets(snap.graph));
  PutU32Vec(&out, SnapshotAccess::GraphNeighbors(snap.graph));

  // -- ontology --
  const Ontology& o = snap.ontology;
  PutU64(&out, SnapshotAccess::Names(o).size());
  for (const std::string& name : SnapshotAccess::Names(o)) {
    PutString(&out, name);
  }
  PutSizeVec(&out, SnapshotAccess::ParentOffsets(o));
  PutU32Vec(&out, SnapshotAccess::ParentsFlat(o));
  PutU64(&out, SnapshotAccess::ParentRelationsFlat(o).size());
  for (RelationType r : SnapshotAccess::ParentRelationsFlat(o)) {
    PutU8(&out, static_cast<uint8_t>(r));
  }
  PutSizeVec(&out, SnapshotAccess::ChildOffsets(o));
  PutU32Vec(&out, SnapshotAccess::ChildrenFlat(o));
  PutU32Vec(&out, SnapshotAccess::Roots(o));
  PutU32Vec(&out, SnapshotAccess::TopoOrder(o));
  PutSizeVec(&out, SnapshotAccess::AncestorOffsets(o));
  PutU32Vec(&out, SnapshotAccess::AncestorsFlat(o));
  PutU32Vec(&out, SnapshotAccess::Depths(o));

  // -- annotations --
  const auto& annotations = SnapshotAccess::Annotations(snap.annotations);
  PutU64(&out, annotations.size());
  for (const std::vector<TermId>& terms : annotations) {
    PutU32Vec(&out, terms);
  }

  // -- term weights --
  PutDoubleVec(&out, SnapshotAccess::Weights(snap.weights));
  PutDoubleVec(&out, SnapshotAccess::LogWeights(snap.weights));

  // -- informative classes --
  PutBoolVec(&out, SnapshotAccess::Informative(snap.informative));
  PutBoolVec(&out, SnapshotAccess::Border(snap.informative));
  PutBoolVec(&out, SnapshotAccess::Candidate(snap.informative));
  PutU32Vec(&out, SnapshotAccess::InformativeTerms(snap.informative));
  PutU32Vec(&out, SnapshotAccess::BorderTerms(snap.informative));

  // -- labeled motifs --
  PutU64(&out, snap.motifs.size());
  for (const LabeledMotif& m : snap.motifs) {
    const size_t n = m.pattern.num_vertices();
    PutU8(&out, static_cast<uint8_t>(n));
    const auto edges = m.pattern.Edges();
    PutU64(&out, edges.size());
    for (const auto& [a, b] : edges) {
      PutU8(&out, static_cast<uint8_t>(a));
      PutU8(&out, static_cast<uint8_t>(b));
    }
    PutU8Vec(&out, m.code);
    for (size_t v = 0; v < n; ++v) PutU32Vec(&out, m.scheme[v]);
    PutU64(&out, m.occurrences.size());
    for (const MotifOccurrence& occ : m.occurrences) {
      for (VertexId p : occ.proteins) PutU32(&out, p);
    }
    PutU64(&out, m.frequency);
    PutDouble(&out, m.uniqueness);
    PutDouble(&out, m.strength);
  }

  // -- per-protein site index --
  PutU64(&out, snap.sites.size());
  for (const std::vector<SnapshotSite>& sites : snap.sites) {
    PutU64(&out, sites.size());
    for (const SnapshotSite& site : sites) {
      PutU32(&out, site.motif);
      PutU32(&out, site.vertex);
    }
  }

  // -- prediction context --
  PutU32Vec(&out, snap.categories);
  PutU64(&out, snap.protein_categories.size());
  for (const std::vector<TermId>& cats : snap.protein_categories) {
    PutU32Vec(&out, cats);
  }

  // -- predictor section (version 3) --
  if (snap.version >= 3) {
    PutU64Vec(&out, snap.gds_signatures);
    PutU32(&out, snap.role_dim);
    PutDoubleVec(&out, snap.role_vectors);
  }

  PutU64(&out, Checksum(out.data(), out.size()));
  return out;
}

StatusOr<Snapshot> DecodeSnapshot(const std::string& bytes) {
  constexpr size_t kHeaderBytes = sizeof kSnapshotMagic + 4;
  if (bytes.size() < kHeaderBytes + 8) {
    return Status::Corruption("snapshot too short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return Status::Corruption("bad snapshot magic (not a .lamosnap file)");
  }
  const size_t body = bytes.size() - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[body + i]))
              << (8 * i);
  }
  const uint64_t actual = Checksum(bytes.data(), body);
  if (stored != actual) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "snapshot checksum mismatch (stored %016llx, computed "
                  "%016llx)",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(actual));
    return Status::Corruption(msg);
  }

  Cursor in(bytes.data(), body);
  in.GetU8();  // magic, already validated
  for (size_t i = 1; i < sizeof kSnapshotMagic; ++i) in.GetU8();
  const uint32_t version = in.GetU32();
  if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kMinSnapshotVersion) +
        ".." + std::to_string(kSnapshotVersion) + ")");
  }

  Snapshot snap;
  snap.checksum = actual;
  snap.version = version;

  // -- shard section --
  snap.num_shards = in.GetU32();
  snap.shard_id = in.GetU32();
  if (in.ok() && (snap.num_shards == 0 || snap.shard_id >= snap.num_shards)) {
    in.Fail("invalid shard section (shard " + std::to_string(snap.shard_id) +
            " of " + std::to_string(snap.num_shards) + ")");
  }

  // -- graph --
  auto graph_offsets = in.GetSizeVec("graph offsets");
  auto graph_neighbors = in.GetU32Vec("graph neighbors");
  if (in.ok()) {
    if (graph_offsets.empty() ||
        !OffsetsValid(graph_offsets, graph_offsets.size() - 1,
                      graph_neighbors.size()) ||
        !IdsBelow(graph_neighbors, graph_offsets.size() - 1)) {
      in.Fail("inconsistent graph CSR");
    }
  }
  snap.graph = SnapshotAccess::MakeGraph(std::move(graph_offsets),
                                         std::move(graph_neighbors));
  const size_t num_proteins = snap.graph.num_vertices();

  // -- ontology --
  const size_t num_terms = in.GetCount(4, "term name");
  std::vector<std::string> names;
  names.reserve(in.ok() ? num_terms : 0);
  for (size_t i = 0; i < num_terms && in.ok(); ++i) {
    names.push_back(in.GetString());
  }
  auto parent_offsets = in.GetSizeVec("parent offsets");
  auto parents_flat = in.GetU32Vec("parents");
  const size_t num_relations = in.GetCount(1, "parent relation");
  std::vector<RelationType> parent_relations;
  parent_relations.reserve(in.ok() ? num_relations : 0);
  for (size_t i = 0; i < num_relations && in.ok(); ++i) {
    const uint8_t r = in.GetU8();
    if (r > static_cast<uint8_t>(RelationType::kPartOf)) {
      in.Fail("invalid relation type");
      break;
    }
    parent_relations.push_back(static_cast<RelationType>(r));
  }
  auto child_offsets = in.GetSizeVec("child offsets");
  auto children_flat = in.GetU32Vec("children");
  auto roots = in.GetU32Vec("roots");
  auto topo_order = in.GetU32Vec("topo order");
  auto ancestor_offsets = in.GetSizeVec("ancestor offsets");
  auto ancestors_flat = in.GetU32Vec("ancestors");
  auto depths = in.GetU32Vec("depths");
  if (in.ok()) {
    const bool valid =
        OffsetsValid(parent_offsets, num_terms, parents_flat.size()) &&
        parent_relations.size() == parents_flat.size() &&
        OffsetsValid(child_offsets, num_terms, children_flat.size()) &&
        OffsetsValid(ancestor_offsets, num_terms, ancestors_flat.size()) &&
        IdsBelow(parents_flat, num_terms) &&
        IdsBelow(children_flat, num_terms) && IdsBelow(roots, num_terms) &&
        IdsBelow(ancestors_flat, num_terms) &&
        topo_order.size() == num_terms && IdsBelow(topo_order, num_terms) &&
        depths.size() == num_terms && !roots.empty();
    if (!valid) in.Fail("inconsistent ontology tables");
  }
  snap.ontology = SnapshotAccess::MakeOntology(
      std::move(names), std::move(parent_offsets), std::move(parents_flat),
      std::move(parent_relations), std::move(child_offsets),
      std::move(children_flat), std::move(roots), std::move(topo_order),
      std::move(ancestor_offsets), std::move(ancestors_flat),
      std::move(depths));

  // -- annotations --
  const size_t annotated = in.GetCount(8, "annotation row");
  if (in.ok() && annotated != num_proteins) {
    in.Fail("annotation table size does not match the graph");
  }
  std::vector<std::vector<TermId>> annotations(in.ok() ? annotated : 0);
  for (size_t p = 0; p < annotations.size() && in.ok(); ++p) {
    annotations[p] = in.GetU32Vec("annotation terms");
    if (in.ok() && !IdsBelow(annotations[p], num_terms)) {
      in.Fail("annotation term out of range");
    }
  }
  snap.annotations = SnapshotAccess::MakeAnnotations(std::move(annotations));

  // -- term weights --
  auto weights = in.GetDoubleVec("weights");
  auto log_weights = in.GetDoubleVec("log weights");
  if (in.ok() &&
      (weights.size() != num_terms || log_weights.size() != num_terms)) {
    in.Fail("weight table size does not match the ontology");
  }
  snap.weights =
      SnapshotAccess::MakeWeights(std::move(weights), std::move(log_weights));

  // -- informative classes --
  auto informative = in.GetBoolVec("informative flags");
  auto border = in.GetBoolVec("border flags");
  auto candidate = in.GetBoolVec("candidate flags");
  auto informative_terms = in.GetU32Vec("informative terms");
  auto border_terms = in.GetU32Vec("border terms");
  if (in.ok()) {
    const bool valid = informative.size() == num_terms &&
                       border.size() == num_terms &&
                       candidate.size() == num_terms &&
                       IdsBelow(informative_terms, num_terms) &&
                       IdsBelow(border_terms, num_terms);
    if (!valid) in.Fail("inconsistent informative-class tables");
  }
  snap.informative = SnapshotAccess::MakeInformative(
      std::move(informative), std::move(border), std::move(candidate),
      std::move(informative_terms), std::move(border_terms));

  // -- labeled motifs --
  const size_t num_motifs = in.GetCount(8, "motif");
  snap.motifs.resize(in.ok() ? num_motifs : 0);
  for (size_t mi = 0; mi < snap.motifs.size() && in.ok(); ++mi) {
    LabeledMotif& m = snap.motifs[mi];
    const size_t n = in.GetU8();
    if (in.ok() && (n == 0 || n > SmallGraph::kMaxVertices)) {
      in.Fail("motif size out of range");
      break;
    }
    m.pattern = SmallGraph(n);
    const size_t num_edges = in.GetCount(2, "motif edge");
    for (size_t e = 0; e < num_edges && in.ok(); ++e) {
      const uint8_t a = in.GetU8();
      const uint8_t b = in.GetU8();
      if (a >= n || b >= n || a == b) {
        in.Fail("motif edge out of range");
        break;
      }
      m.pattern.AddEdge(a, b);
    }
    m.code = in.GetU8Vec("motif code");
    m.scheme.resize(n);
    for (size_t v = 0; v < n && in.ok(); ++v) {
      m.scheme[v] = in.GetU32Vec("scheme labels");
      if (in.ok() && !IdsBelow(m.scheme[v], num_terms)) {
        in.Fail("scheme label out of range");
      }
    }
    const size_t num_occurrences = in.GetCount(4 * n, "occurrence");
    m.occurrences.resize(in.ok() ? num_occurrences : 0);
    for (MotifOccurrence& occ : m.occurrences) {
      if (!in.ok()) break;
      occ.proteins.resize(n);
      for (size_t v = 0; v < n; ++v) {
        occ.proteins[v] = in.GetU32();
        if (in.ok() && occ.proteins[v] >= num_proteins) {
          in.Fail("occurrence protein out of range");
          break;
        }
      }
    }
    m.frequency = static_cast<size_t>(in.GetU64());
    m.uniqueness = in.GetDouble();
    m.strength = in.GetDouble();
  }

  // -- per-protein site index --
  const size_t num_site_rows = in.GetCount(8, "site row");
  if (in.ok() && num_site_rows != num_proteins) {
    in.Fail("site index size does not match the graph");
  }
  snap.sites.resize(in.ok() ? num_site_rows : 0);
  for (size_t p = 0; p < snap.sites.size() && in.ok(); ++p) {
    const size_t count = in.GetCount(8, "site");
    snap.sites[p].resize(in.ok() ? count : 0);
    for (SnapshotSite& site : snap.sites[p]) {
      if (!in.ok()) break;
      site.motif = in.GetU32();
      site.vertex = in.GetU32();
      if (in.ok() && (site.motif >= snap.motifs.size() ||
                      site.vertex >= snap.motifs[site.motif].size())) {
        in.Fail("site index out of range");
      }
    }
  }

  // -- prediction context --
  snap.categories = in.GetU32Vec("categories");
  if (in.ok() && !IdsBelow(snap.categories, num_terms)) {
    in.Fail("category out of range");
  }
  const size_t num_cat_rows = in.GetCount(8, "category row");
  if (in.ok() && num_cat_rows != num_proteins) {
    in.Fail("protein-category table size does not match the graph");
  }
  snap.protein_categories.resize(in.ok() ? num_cat_rows : 0);
  for (size_t p = 0; p < snap.protein_categories.size() && in.ok(); ++p) {
    snap.protein_categories[p] = in.GetU32Vec("protein categories");
    if (in.ok() && !IdsBelow(snap.protein_categories[p], num_terms)) {
      in.Fail("protein category out of range");
    }
  }

  // -- predictor section (version 3; absent in version 2 files) --
  if (version >= 3) {
    snap.gds_signatures = in.GetU64Vec("gds signatures");
    if (in.ok() && snap.gds_signatures.size() != num_proteins * kGdsOrbits) {
      in.Fail("GDS signature matrix size does not match the graph");
    }
    snap.role_dim = in.GetU32();
    snap.role_vectors = in.GetDoubleVec("role vectors");
    if (in.ok() && (snap.role_dim == 0 ||
                    snap.role_vectors.size() !=
                        num_proteins * static_cast<size_t>(snap.role_dim))) {
      in.Fail("role vector matrix size does not match the graph");
    }
  }

  if (!in.ok()) return Status::Corruption("snapshot decode: " + in.error());
  if (in.remaining() != 0) {
    return Status::Corruption("snapshot has " +
                              std::to_string(in.remaining()) +
                              " trailing bytes before the checksum");
  }
  return snap;
}

Status WriteSnapshot(const Snapshot& snapshot, const std::string& path) {
  // Atomic replace: a serving process may re-load this path at any moment,
  // so it must never observe a half-written snapshot.
  return WriteFileAtomic(path, EncodeSnapshot(snapshot));
}

StatusOr<Snapshot> ReadSnapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string bytes;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    bytes.append(buffer, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IoError("read error on " + path);
  auto snapshot = DecodeSnapshot(bytes);
  if (!snapshot.ok()) {
    return Status(snapshot.status().code() == StatusCode::kInvalidArgument
                      ? Status::InvalidArgument(path + ": " +
                                                snapshot.status().message())
                      : Status::Corruption(path + ": " +
                                           snapshot.status().message()));
  }
  snapshot->source_path = path;
  return snapshot;
}

}  // namespace lamo
