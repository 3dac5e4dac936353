#ifndef LAMO_SERVE_SNAPSHOT_H_
#define LAMO_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/labeled_motif.h"
#include "graph/graph.h"
#include "ontology/annotation.h"
#include "ontology/informative.h"
#include "ontology/ontology.h"
#include "ontology/weights.h"
#include "predict/labeled_motif_predictor.h"
#include "util/status.h"

namespace lamo {

/// ---- Model snapshot (`.lamosnap`) ----------------------------------------
///
/// The serving subsystem's binary artifact: everything `lamo predict` would
/// re-derive from the text inputs (OBO ontology with its ancestor closures,
/// GAF annotations, Lord term weights, informative/border functional-class
/// flags, labeled motifs with strengths, a per-protein motif-site index and
/// the top-category prediction context) compiled once by `lamo pack` and
/// loaded back with one sequential read — no text parsing, no closure or
/// weight recomputation on the serve path.
///
/// The on-disk layout (field by field) is documented in docs/FORMATS.md
/// ("Model snapshot"). The file is versioned and checksummed; the reader
/// rejects truncated files, wrong magic, unsupported versions and checksum
/// mismatches with a Status error and never crashes on corrupt input.

/// File magic, first 8 bytes of every snapshot.
inline constexpr char kSnapshotMagic[8] = {'L', 'A', 'M', 'O',
                                           'S', 'N', 'A', 'P'};

/// Current format version. Readers accept kMinSnapshotVersion through this.
/// Version 2 added the shard section (num_shards, shard_id) right after the
/// version word; version 3 added the predictor section (precomputed GDS
/// signature and role-vector matrices) between the prediction context and
/// the checksum; see docs/FORMATS.md.
inline constexpr uint32_t kSnapshotVersion = 3;

/// Oldest version this build still reads. A version-2 file decodes with an
/// empty predictor section, so it can serve the lms backend but `lamo serve
/// --predictor gds|role` asks for a repack.
inline constexpr uint32_t kMinSnapshotVersion = 2;

/// One motif site a protein appears at (predict/labeled_motif_predictor.h).
using SnapshotSite = MotifSite;

/// The in-memory image of a snapshot.
struct Snapshot {
  Graph graph;
  Ontology ontology;
  AnnotationTable annotations;
  TermWeights weights;
  InformativeClasses informative;
  std::vector<LabeledMotif> motifs;

  /// Per-protein motif-occurrence index: sites[p] lists the (motif, vertex)
  /// pairs protein p plays, deduplicated, in first-seen order
  /// (BuildSiteIndex). The served lms predictor reads it in place.
  std::vector<std::vector<SnapshotSite>> sites;

  /// Prediction context, materialized at pack time: the top categories
  /// (children of the first ontology root) and each protein's known
  /// categories generalized via the true path — exactly what `lamo predict`
  /// derives before answering.
  std::vector<TermId> categories;
  std::vector<std::vector<TermId>> protein_categories;

  /// Predictor section (version 3): precomputed inputs of the non-default
  /// backends, so `lamo serve --predictor gds|role` loads instead of
  /// recounting orbits at startup. Both computations are deterministic, so
  /// the packed matrices equal what offline `lamo predict` recomputes — the
  /// basis of the offline/serving byte-identity contract. Shards keep the
  /// full matrices (scoring must be identical everywhere). Empty when a
  /// version-2 file was loaded.
  std::vector<uint64_t> gds_signatures;  // flat n x kGdsOrbits
  uint32_t role_dim = 0;                 // role-vector dimension
  std::vector<double> role_vectors;      // flat n x role_dim

  /// Format version to encode as / decoded from. BuildSnapshot leaves the
  /// current version; `lamo pack --snapshot-version 2` downgrades for
  /// compatibility testing (the encoder then omits the predictor section).
  uint32_t version = kSnapshotVersion;

  /// Shard section. An unsharded snapshot is shard 0 of 1. Shard k of N
  /// keeps the full graph, ontology, annotations, weights, motifs and
  /// prediction context (so scoring is identical everywhere), but retains
  /// only the motif occurrences touching at least one owned protein
  /// (p % num_shards == shard_id) and only the owned rows of the per-protein
  /// site index — the memory that actually scales with query ownership.
  uint32_t num_shards = 1;
  uint32_t shard_id = 0;

  /// Identity, filled by DecodeSnapshot/ReadSnapshot (not serialized): the
  /// file's trailing FNV-1a checksum and the path it was loaded from.
  /// Surfaced by STATS so operators (and the router) can verify which model
  /// a backend is serving after a rolling reload.
  uint64_t checksum = 0;
  std::string source_path;

  /// True iff this shard owns protein p (always true when num_shards == 1).
  bool OwnsProtein(uint32_t p) const { return p % num_shards == shard_id; }
};

/// Canonical on-disk name of shard `shard_id` of `num_shards` derived from a
/// base snapshot path: `<base>.shard<k>of<N>`. Shared by `lamo pack
/// --shards` and the router's sharded placement so the two cannot drift.
std::string ShardSnapshotPath(const std::string& base, uint32_t shard_id,
                              uint32_t num_shards);

/// Extracts shard `shard_id` of `num_shards` from a full snapshot: drops
/// motif occurrences containing no owned protein and clears the site-index
/// rows of non-owned proteins. For every owned protein the shard answers
/// PREDICT and MOTIFS byte-identically to the full snapshot (the predictor's
/// index is rebuilt from exactly the occurrences that involve owned
/// proteins, in the same first-seen order). Requires shard_id < num_shards.
Snapshot MakeShard(const Snapshot& full, uint32_t shard_id,
                   uint32_t num_shards);

/// Derives the packed artifacts (weights, informative classes, site index,
/// prediction context) from pipeline outputs. Deterministic: depends only on
/// the inputs, never on thread count.
Snapshot BuildSnapshot(Graph graph, Ontology ontology,
                       AnnotationTable annotations,
                       std::vector<LabeledMotif> motifs,
                       const InformativeConfig& informative_config);

/// Serializes `snapshot` to its canonical byte string (magic, version,
/// sections, trailing FNV-1a checksum). Byte-reproducible for equal inputs.
std::string EncodeSnapshot(const Snapshot& snapshot);

/// Parses a byte string produced by EncodeSnapshot. Corrupt input (short
/// file, bad magic, unsupported version, checksum mismatch, malformed or
/// out-of-range section data) yields a descriptive error Status.
StatusOr<Snapshot> DecodeSnapshot(const std::string& bytes);

/// Writes EncodeSnapshot(snapshot) to `path`.
Status WriteSnapshot(const Snapshot& snapshot, const std::string& path);

/// Reads and decodes `path`.
StatusOr<Snapshot> ReadSnapshot(const std::string& path);

}  // namespace lamo

#endif  // LAMO_SERVE_SNAPSHOT_H_
