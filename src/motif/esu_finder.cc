#include "motif/esu_finder.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/esu.h"
#include "motif/esu_engine.h"
#include "motif/stage_checkpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/random.h"

namespace lamo {
namespace {

const size_t kObsSubgraphs = ObsCounterId("esu.subgraphs");
const size_t kObsCanonHits = ObsCounterId("esu.canon_cache_hits");
const size_t kObsCanonMisses = ObsCounterId("esu.canon_cache_misses");
const size_t kObsReplicates = ObsCounterId("uniqueness.replicates");
const size_t kObsPatternTests = ObsCounterId("uniqueness.pattern_tests");
/// Same per-item instruments as the dedicated mining/uniqueness passes: the
/// ESU finder runs both phases internally, so its chunks and replicates feed
/// the shared histograms and span names.
const size_t kHistChunkUs = ObsHistogramId("esu.chunk_us");
const size_t kSpanChunk = ObsSpanId("esu.chunk");
const size_t kHistReplicateUs = ObsHistogramId("uniqueness.replicate_us");
const size_t kSpanReplicate = ObsSpanId("uniqueness.replicate");

/// Root-range chunks enumerated between two folds into the run's class map
/// (see FindNetworkMotifsEsu).
constexpr size_t kFoldWaveChunks = 32;

/// Crash points, one per checkpoint group of each half (fault.h).
const size_t kFpEnumChunk = FaultPointId("mine.enum.chunk");
const size_t kFpUniqReplicate = FaultPointId("mine.uniq.replicate");

struct ClassEntry {
  SmallGraph pattern{0};
  /// Exact number of occurrences emitted (the class frequency).
  size_t count = 0;
  /// The occurrences in emission order, only the first
  /// max_occurrences_per_pattern of them when capped.
  std::vector<MotifOccurrence> occurrences;
};
using ClassMap = std::map<std::vector<uint8_t>, ClassEntry>;

/// Folds one chunk's class map into the accumulator, appending occurrences
/// in chunk order (the serial occurrence order for any thread count) until
/// `cap` (0 = unlimited) are stored. Every chunk stored its own first `cap`,
/// so the accumulator holds the first `cap` of the whole emission order.
/// Whatever is not taken stays behind in `part`.
void MergeClassMap(ClassMap* acc, ClassMap& part, size_t cap) {
  for (auto& [code, entry] : part) {
    auto [it, inserted] = acc->try_emplace(code, std::move(entry));
    if (!inserted) {
      it->second.count += entry.count;
      auto& dst = it->second.occurrences;
      auto& src = entry.occurrences;
      const size_t take =
          cap == 0 ? src.size() : std::min(src.size(), cap - dst.size());
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.begin() + take));
    }
  }
}

uint64_t EsuFingerprint(const Graph& graph, const EsuMotifConfig& config) {
  ByteWriter w;
  w.PutU64(config.size);
  w.PutU64(config.min_frequency);
  w.PutU64(config.max_occurrences_per_pattern);
  w.PutU64(config.num_random_networks);
  w.PutDouble(config.swaps_per_edge);
  w.PutDouble(config.uniqueness_threshold);
  w.PutU64(config.seed);
  w.PutU64(GraphFingerprint(graph));
  return Fnv1a64(w.bytes());
}

std::string EncodeEnumState(size_t next_root, size_t cap,
                            const ClassMap& classes) {
  ByteWriter w;
  w.PutU64(next_root);
  w.PutU64(cap);
  w.PutU64(classes.size());
  for (const auto& [code, entry] : classes) {
    w.PutString(std::string_view(reinterpret_cast<const char*>(code.data()),
                                 code.size()));
    EncodeSmallGraph(entry.pattern, &w);
    w.PutU64(entry.count);
    w.PutU64(entry.occurrences.size());
    for (const MotifOccurrence& occ : entry.occurrences) {
      w.PutU64(occ.proteins.size());
      for (const VertexId v : occ.proteins) w.PutU32(v);
    }
  }
  return w.TakeBytes();
}

Status DecodeEnumState(std::string_view payload, size_t cap,
                       size_t* next_root, ClassMap* classes) {
  ByteReader r(payload);
  uint64_t root = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&root));
  *next_root = static_cast<size_t>(root);
  uint64_t saved_cap = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&saved_cap));
  if (saved_cap != cap) return Status::Corruption("enum occurrence cap differs");
  uint64_t num_classes = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&num_classes));
  classes->clear();
  for (uint64_t i = 0; i < num_classes; ++i) {
    std::string code_bytes;
    LAMO_RETURN_IF_ERROR(r.GetString(&code_bytes));
    ClassEntry entry;
    LAMO_RETURN_IF_ERROR(DecodeSmallGraph(&r, &entry.pattern));
    uint64_t count = 0;
    LAMO_RETURN_IF_ERROR(r.GetU64(&count));
    entry.count = static_cast<size_t>(count);
    uint64_t num_occurrences = 0;
    LAMO_RETURN_IF_ERROR(r.GetU64(&num_occurrences));
    const uint64_t stored = cap == 0 ? count : std::min<uint64_t>(count, cap);
    if (num_occurrences != stored) {
      return Status::Corruption("enum occurrence list disagrees with count");
    }
    for (uint64_t o = 0; o < num_occurrences; ++o) {
      uint64_t num_proteins = 0;
      LAMO_RETURN_IF_ERROR(r.GetU64(&num_proteins));
      if (num_proteins > SmallGraph::kMaxVertices) {
        return Status::Corruption("enum occurrence size out of range");
      }
      MotifOccurrence occ;
      occ.proteins.assign(static_cast<size_t>(num_proteins), 0);
      for (VertexId& v : occ.proteins) LAMO_RETURN_IF_ERROR(r.GetU32(&v));
      entry.occurrences.push_back(std::move(occ));
    }
    std::vector<uint8_t> code(code_bytes.begin(), code_bytes.end());
    classes->emplace(std::move(code), std::move(entry));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in enum state");
  return Status::OK();
}

std::string EncodeWinState(size_t next_replicate,
                           const std::vector<uint64_t>& wins) {
  ByteWriter w;
  w.PutU64(next_replicate);
  w.PutU64(wins.size());
  for (const uint64_t v : wins) w.PutU64(v);
  return w.TakeBytes();
}

Status DecodeWinState(std::string_view payload, size_t expected_classes,
                      size_t* next_replicate, std::vector<uint64_t>* wins) {
  ByteReader r(payload);
  uint64_t rep = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&rep));
  *next_replicate = static_cast<size_t>(rep);
  uint64_t count = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&count));
  if (count != expected_classes) {
    return Status::Corruption("uniqueness win-vector size mismatch");
  }
  wins->assign(static_cast<size_t>(count), 0);
  for (uint64_t& v : *wins) LAMO_RETURN_IF_ERROR(r.GetU64(&v));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in win state");
  return Status::OK();
}

}  // namespace

std::vector<Motif> FindNetworkMotifsEsu(const Graph& graph,
                                        const EsuMotifConfig& config) {
  const size_t n = graph.num_vertices();
  const size_t grain = EsuRootGrain(n);
  const uint64_t fingerprint = EsuFingerprint(graph, config);
  const std::string size_tag = std::to_string(config.size);

  // Index built once per run: CSR neighbor arrays plus (for all but
  // pathological vertex counts) the dense bitset adjacency the ESU engine's
  // inner loop probes. Shared read-only by every chunk worker.
  const GraphIndex index(graph);
  // One canonicalization table for the whole run — every enumeration chunk
  // and every uniqueness replicate resolves through it, so each adjacency
  // pattern is canonicalized once per run. Sizes past the 64-bit key fall
  // back to chunk-local caches (ChunkCanonCache).
  std::optional<SharedCanonCache> shared_canon;
  if (config.size <= SharedCanonCache::kMaxK) shared_canon.emplace(config.size);

  // Enumeration is sharded by ESU root vertex; per-chunk class maps are
  // merged in chunk order, which reproduces the serial occurrence order
  // (roots ascending, DFS order within a root) for any thread count. With
  // checkpointing on, chunks are processed in groups of `every` — group
  // boundaries are multiples of the grain, so the sub-chunks and their fold
  // order are exactly those of the single full-range reduce, and a resumed
  // run picks up the identical accumulator.
  const size_t cap = config.max_occurrences_per_pattern;
  ClassMap classes;
  {
    const ScopedTimer timer("esu_enumeration");
    const StageCheckpointer ckpt(config.checkpoint, "mine_enum_" + size_tag,
                                 fingerprint);
    size_t next_root = 0;
    std::string payload;
    if (ckpt.TryLoad(&payload)) {
      size_t restored_root = 0;
      ClassMap restored;
      const Status status =
          DecodeEnumState(payload, cap, &restored_root, &restored);
      if (status.ok() && restored_root <= n &&
          (restored_root % grain == 0 || restored_root == n)) {
        classes = std::move(restored);
        next_root = restored_root;
      } else {
        ckpt.RecordDecodeFailure();
      }
    }
    const size_t num_chunks = n == 0 ? 0 : (n + grain - 1) / grain;
    ckpt.RecordChunks(num_chunks, (next_root + grain - 1) / grain);
    const size_t roots_per_group =
        ckpt.enabled() ? std::max<size_t>(1, config.checkpoint.every) * grain
                       : std::max<size_t>(1, n);
    // One root-range chunk: its class map, occurrences aligned to the
    // canonical order, at most `cap` stored per class.
    const auto enumerate_chunk = [&](size_t lo, size_t hi) {
      const ScopedItemTimer item(kSpanChunk, kHistChunkUs, lo, hi, 2);
      ClassMap local;
      const auto record = [&](const VertexId* set, size_t size,
                              const CanonicalResult& canon) {
        auto [it, inserted] = local.try_emplace(canon.code);
        if (inserted) it->second.pattern = canon.graph;
        ClassEntry& entry = it->second;
        ++entry.count;
        if (cap != 0 && entry.occurrences.size() == cap) return;
        MotifOccurrence occ;
        occ.proteins.resize(size);
        for (size_t pos = 0; pos < size; ++pos) {
          occ.proteins[pos] = set[canon.canonical_to_original[pos]];
        }
        entry.occurrences.push_back(std::move(occ));
      };
      if (shared_canon.has_value()) {
        // Chunk-local L1 in front of the shared table: one hash probe on
        // the 64-bit adjacency key per emission, one shared lookup per
        // distinct pattern per chunk. Pointers are stable for the cache's
        // lifetime, so caching them is safe.
        std::unordered_map<uint64_t, const CanonicalResult*> memo;
        esu_internal::RunEsu(
            index, config.size, static_cast<VertexId>(lo),
            static_cast<VertexId>(hi), [&](const VertexId* set, size_t size) {
              ObsIncrement(kObsSubgraphs);
              const uint64_t bits = index.InducedBits(set, size);
              auto [it, inserted] = memo.try_emplace(bits, nullptr);
              if (inserted) {
                ObsIncrement(kObsCanonMisses);
                it->second = &shared_canon->Lookup(bits);
              } else {
                ObsIncrement(kObsCanonHits);
              }
              record(set, size, *it->second);
              return true;
            });
      } else {
        ChunkCanonCache canon_cache;
        esu_internal::RunEsu(
            index, config.size, static_cast<VertexId>(lo),
            static_cast<VertexId>(hi), [&](const VertexId* set, size_t size) {
              ObsIncrement(kObsSubgraphs);
              const SmallGraph sub = SmallGraph::InducedSubgraph(
                  graph, std::vector<VertexId>(set, set + size));
              record(set, size, canon_cache.Lookup(sub));
              return true;
            });
      }
      return local;
    };
    for (size_t glo = next_root; glo < n; glo += roots_per_group) {
      FaultHit(kFpEnumChunk);
      const size_t ghi = std::min(n, glo + roots_per_group);
      // A capped run enumerates in waves of kFoldWaveChunks chunks, each
      // folded in chunk order before the next starts, so it holds at most
      // one wave of chunk maps beyond `cap` occurrences per class. An
      // uncapped run keeps every occurrence anyway and folds once per group.
      // Wave boundaries are multiples of the grain, so the chunks and the
      // fold order are those of one full-range pass.
      const size_t wave_roots = cap == 0 ? ghi - glo : kFoldWaveChunks * grain;
      for (size_t wlo = glo; wlo < ghi; wlo += wave_roots) {
        const size_t whi = std::min(ghi, wlo + wave_roots);
        std::vector<ClassMap> partials((whi - wlo + grain - 1) / grain);
        ParallelForChunks(wlo, whi, grain,
                          [&](size_t chunk, size_t lo, size_t hi) {
                            partials[chunk] = enumerate_chunk(lo, hi);
                          });
        for (ClassMap& part : partials) MergeClassMap(&classes, part, cap);
      }
      if (ckpt.enabled()) ckpt.Save(EncodeEnumState(ghi, cap, classes));
    }
  }

  for (auto it = classes.begin(); it != classes.end();) {
    if (it->second.count < config.min_frequency) {
      it = classes.erase(it);
    } else {
      ++it;
    }
  }
  LAMO_LOG(Debug) << classes.size() << " size-" << config.size
                  << " classes pass frequency >= " << config.min_frequency;

  // Uniqueness ensemble: one randomized network per task, each on its own
  // deterministic Rng substream so the ensemble is identical whether the
  // replicates run serially, in parallel, or split across a resumed run
  // (the per-class win counts are exact integer sums, so replicate groups
  // accumulate in any grouping to the same totals).
  std::map<std::vector<uint8_t>, size_t> wins;
  {
    const ScopedTimer timer("uniqueness");
    std::vector<const std::vector<uint8_t>*> codes;
    std::vector<size_t> real_frequencies;
    codes.reserve(classes.size());
    for (const auto& [code, entry] : classes) {
      codes.push_back(&code);
      real_frequencies.push_back(entry.count);
    }
    const StageCheckpointer ckpt(config.checkpoint, "mine_uniq_" + size_tag,
                                 fingerprint);
    std::vector<uint64_t> win_counts(codes.size(), 0);
    size_t next_replicate = 0;
    std::string payload;
    if (ckpt.TryLoad(&payload)) {
      size_t restored_replicate = 0;
      std::vector<uint64_t> restored;
      const Status status = DecodeWinState(payload, codes.size(),
                                           &restored_replicate, &restored);
      if (status.ok() && restored_replicate <= config.num_random_networks) {
        win_counts = std::move(restored);
        next_replicate = restored_replicate;
      } else {
        ckpt.RecordDecodeFailure();
      }
    }
    ckpt.RecordChunks(config.num_random_networks, next_replicate);
    const size_t replicates_per_group =
        ckpt.enabled() ? std::max<size_t>(1, config.checkpoint.every)
                       : std::max<size_t>(1, config.num_random_networks);
    for (size_t rlo = next_replicate; rlo < config.num_random_networks;
         rlo += replicates_per_group) {
      FaultHit(kFpUniqReplicate);
      const size_t rhi =
          std::min(config.num_random_networks, rlo + replicates_per_group);
      const auto replicate_wins = ParallelMap(rhi - rlo, 1, [&](size_t i) {
        const size_t r = rlo + i;
        const ScopedItemTimer item(kSpanReplicate, kHistReplicateUs, r, 0, 1);
        ObsIncrement(kObsReplicates);
        ObsAdd(kObsPatternTests, codes.size());
        Rng rng = Rng::Stream(config.seed, r);
        const Graph randomized =
            DegreePreservingRewire(graph, config.swaps_per_edge, rng);
        // Replicates resolve canonical codes through the run-wide shared
        // table: the randomized networks repeat the same adjacency patterns
        // as the real one, so past the first replicate virtually every
        // pattern is already resident.
        const auto random_counts = CountSubgraphClasses(
            randomized, config.size,
            shared_canon.has_value() ? &*shared_canon : nullptr);
        std::vector<uint8_t> won(codes.size(), 0);
        for (size_t c = 0; c < codes.size(); ++c) {
          auto it = random_counts.find(*codes[c]);
          const size_t random_frequency =
              it == random_counts.end() ? 0 : it->second;
          won[c] = real_frequencies[c] >= random_frequency ? 1 : 0;
        }
        return won;
      });
      for (const auto& won : replicate_wins) {
        for (size_t c = 0; c < codes.size(); ++c) win_counts[c] += won[c];
      }
      if (ckpt.enabled()) ckpt.Save(EncodeWinState(rhi, win_counts));
    }
    for (size_t c = 0; c < codes.size(); ++c) {
      wins[*codes[c]] = static_cast<size_t>(win_counts[c]);
    }
  }

  std::vector<Motif> motifs;
  for (auto& [code, entry] : classes) {
    const double uniqueness =
        config.num_random_networks == 0
            ? -1.0
            : static_cast<double>(wins[code]) /
                  static_cast<double>(config.num_random_networks);
    if (config.num_random_networks > 0 &&
        uniqueness < config.uniqueness_threshold) {
      continue;
    }
    Motif motif;
    motif.pattern = entry.pattern;
    motif.code = code;
    motif.frequency = entry.count;
    motif.uniqueness = uniqueness;
    motif.occurrences = std::move(entry.occurrences);
    motifs.push_back(std::move(motif));
  }
  return motifs;
}

std::vector<Motif> FindNetworkMotifs(const Graph& graph,
                                     const MotifFindingConfig& config) {
  EsuMotifConfig per_size;
  per_size.min_frequency = config.min_frequency;
  per_size.max_occurrences_per_pattern = config.max_occurrences_per_pattern;
  per_size.num_random_networks = config.num_random_networks;
  per_size.swaps_per_edge = config.swaps_per_edge;
  per_size.uniqueness_threshold = config.uniqueness_threshold;
  per_size.seed = config.seed;
  per_size.checkpoint = config.checkpoint;
  std::vector<Motif> motifs;
  for (size_t size = config.min_size; size <= config.max_size; ++size) {
    per_size.size = size;
    for (Motif& motif : FindNetworkMotifsEsu(graph, per_size)) {
      motifs.push_back(std::move(motif));
    }
  }
  return motifs;
}

}  // namespace lamo
