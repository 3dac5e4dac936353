// Differential and crash-safety tests for the dynamic-interactome serve
// path: UpdateEngine (incremental motif/predictor maintenance), the
// write-ahead UpdateJournal, and SnapshotService's mutation verbs.
//
// The engine differential pins the strongest claim: after a random sequence
// of live edge mutations, every piece of derived state the snapshot carries
// — occurrence multisets, global frequencies, LMS strengths, the site
// index, the GDS signature matrix, the role-vector matrix — equals a
// from-scratch recompute on the final graph. The recompute side enumerates
// the whole graph (full ESU, all k-sets), so it shares none of the
// pair-anchored delta machinery under test.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/lamofinder.h"
#include "graph/graph_index.h"
#include "motif/canon_cache.h"
#include "motif/esu_engine.h"
#include "motif/esu_finder.h"
#include "predict/gds.h"
#include "predict/role_similarity.h"
#include "serve/journal.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/update.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace lamo {
namespace {

// A small pipeline run packed into a snapshot, with the occurrence cap far
// above any real count so the packed occurrence lists are the *complete*
// conforming sets — the invariant the differential oracle needs (and
// asserts) before mutating anything.
const Snapshot& SmallSnapshot() {
  static const Snapshot* const snapshot = [] {
    SyntheticDatasetConfig config;
    config.num_proteins = 70;
    config.go.num_terms = 50;
    config.go.depth = 4;
    config.num_templates = 2;
    config.copies_per_template = 6;
    config.template_min_size = 3;
    config.template_max_size = 4;
    config.informative_threshold = 8;
    config.seed = 913;
    SyntheticDataset dataset = BuildSyntheticDataset(config);

    MotifFindingConfig motif_config;
    motif_config.min_size = 3;
    motif_config.max_size = 4;
    motif_config.min_frequency = 8;
    motif_config.num_random_networks = 3;
    motif_config.uniqueness_threshold = 0.0;
    const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);

    LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                      dataset.annotations);
    LaMoFinderConfig label_config;
    label_config.sigma = 6;
    label_config.max_occurrences = 1'000'000;  // uncapped in practice
    auto labeled = finder.LabelAll(motifs, label_config);

    InformativeConfig informative_config;
    informative_config.min_direct_proteins = config.informative_threshold;
    return new Snapshot(BuildSnapshot(
        std::move(dataset.ppi), std::move(dataset.ontology),
        std::move(dataset.annotations), std::move(labeled),
        informative_config));
  }();
  return *snapshot;
}

std::string CodeKey(const std::vector<uint8_t>& code) {
  return std::string(code.begin(), code.end());
}

// The stored occurrence list as a multiset of sorted vertex sets (alignment
// and order are presentation; the maintained *set* is the contract).
std::multiset<std::vector<VertexId>> StoredSets(const LabeledMotif& motif) {
  std::multiset<std::vector<VertexId>> sets;
  for (const MotifOccurrence& occ : motif.occurrences) {
    std::vector<VertexId> sorted = occ.proteins;
    std::sort(sorted.begin(), sorted.end());
    sets.insert(std::move(sorted));
  }
  return sets;
}

// Oracle: every conforming occurrence of `motif` in `graph`, by a full
// from-scratch enumeration of all connected k-sets (no pair anchoring).
std::multiset<std::vector<VertexId>> FullConformingSets(
    const Graph& graph, LaMoFinder& finder, const LabeledMotif& motif,
    SharedCanonCache& cache) {
  std::multiset<std::vector<VertexId>> sets;
  const GraphIndex index(graph);
  const std::string want = CodeKey(motif.code);
  esu_internal::RunEsu(
      index, motif.size(), 0, static_cast<VertexId>(graph.num_vertices()),
      [&](const VertexId* set, size_t size) {
        std::vector<VertexId> verts(set, set + size);
        std::sort(verts.begin(), verts.end());
        const uint64_t bits = index.InducedBits(verts.data(), size);
        const CanonicalResult& canon = cache.Lookup(bits);
        if (CodeKey(canon.code) != want) return true;
        MotifOccurrence occ;
        occ.proteins.resize(size);
        for (size_t i = 0; i < size; ++i) {
          occ.proteins[i] = verts[canon.canonical_to_original[i]];
        }
        const Motif probe{motif.pattern, motif.code, {occ}, 1, -1.0, {}};
        if (!finder.ConformingOccurrences(probe, motif.scheme).empty()) {
          sets.insert(std::move(verts));
        }
        return true;
      });
  return sets;
}

// The site index BuildSnapshot would derive from the current occurrence
// lists: first-seen dedup per protein, non-owned rows cleared on shards.
std::vector<std::vector<SnapshotSite>> RebuildSites(const Snapshot& snap) {
  std::vector<std::vector<SnapshotSite>> sites(snap.graph.num_vertices());
  for (uint32_t mi = 0; mi < snap.motifs.size(); ++mi) {
    for (const MotifOccurrence& occ : snap.motifs[mi].occurrences) {
      for (uint32_t pos = 0; pos < occ.proteins.size(); ++pos) {
        auto& row = sites[occ.proteins[pos]];
        const SnapshotSite site{mi, pos};
        if (std::find(row.begin(), row.end(), site) == row.end()) {
          row.push_back(site);
        }
      }
    }
  }
  if (snap.num_shards > 1) {
    for (uint32_t p = 0; p < sites.size(); ++p) {
      if (!snap.OwnsProtein(p)) sites[p].clear();
    }
  }
  return sites;
}

// A random mutation applicable to the current graph: deletes an existing
// edge or adds a missing one (never a self-loop).
DeltaEntry RandomMutation(const Graph& graph, Rng& rng) {
  DeltaEntry entry;
  const auto edges = graph.Edges();
  const bool del = !edges.empty() && rng.Uniform(2) == 0;
  if (del) {
    const auto [u, v] = edges[rng.Uniform(edges.size())];
    entry.add = false;
    entry.u = u;
    entry.v = v;
    return entry;
  }
  const size_t n = graph.num_vertices();
  while (true) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v || graph.HasEdge(u, v)) continue;
    entry.add = true;
    entry.u = u;
    entry.v = v;
    return entry;
  }
}

TEST(UpdateEngineDifferentialTest, MatchesFullRecomputeOverRandomSequence) {
  Snapshot snap = SmallSnapshot();  // mutable copy
  ASSERT_FALSE(snap.motifs.empty());
  ASSERT_FALSE(snap.gds_signatures.empty());
  ASSERT_FALSE(snap.role_vectors.empty());

  LaMoFinder finder(snap.ontology, snap.weights, snap.informative,
                    snap.annotations);
  std::map<size_t, std::unique_ptr<SharedCanonCache>> caches;
  const auto cache_for = [&caches](size_t k) -> SharedCanonCache& {
    auto it = caches.find(k);
    if (it == caches.end()) {
      it = caches.emplace(k, std::make_unique<SharedCanonCache>(k)).first;
    }
    return *it->second;
  };

  // Precondition the oracle rests on: the packed lists are complete.
  for (const LabeledMotif& motif : snap.motifs) {
    const auto expected =
        FullConformingSets(snap.graph, finder, motif, cache_for(motif.size()));
    ASSERT_EQ(StoredSets(motif), expected) << "packed occurrence list is not "
                                              "the complete conforming set";
    ASSERT_EQ(motif.frequency, expected.size());
  }

  UpdateEngine engine(&snap);
  Rng rng(777);
  for (int step = 0; step < 8; ++step) {
    const DeltaEntry mut = RandomMutation(snap.graph, rng);
    SCOPED_TRACE("step " + std::to_string(step) + " " +
                 std::string(mut.add ? "ADDEDGE " : "DELEDGE ") +
                 std::to_string(mut.u) + " " + std::to_string(mut.v));
    UpdateResult result;
    ASSERT_TRUE(engine.Apply(mut.add, mut.u, mut.v, &result).ok());
    EXPECT_EQ(snap.graph.HasEdge(mut.u, mut.v), mut.add);
    EXPECT_TRUE(std::binary_search(result.affected.begin(),
                                   result.affected.end(), mut.u));
    EXPECT_TRUE(std::binary_search(result.affected.begin(),
                                   result.affected.end(), mut.v));

    // Occurrences and frequencies against the full re-mine.
    std::vector<LabeledMotif> expected_motifs = snap.motifs;
    for (size_t mi = 0; mi < snap.motifs.size(); ++mi) {
      const LabeledMotif& motif = snap.motifs[mi];
      const auto expected = FullConformingSets(snap.graph, finder, motif,
                                               cache_for(motif.size()));
      EXPECT_EQ(StoredSets(motif), expected) << "motif " << mi;
      EXPECT_EQ(motif.frequency, expected.size()) << "motif " << mi;
      expected_motifs[mi].frequency = expected.size();
    }
    // Strengths: recomputing from the oracle frequencies must change
    // nothing (the engine already normalized within each size class).
    ComputeMotifStrengths(&expected_motifs);
    for (size_t mi = 0; mi < snap.motifs.size(); ++mi) {
      EXPECT_EQ(snap.motifs[mi].strength, expected_motifs[mi].strength)
          << "motif " << mi;
    }

    // Predictor matrices and the site index against global recomputes.
    EXPECT_EQ(snap.gds_signatures, ComputeGdsSignatures(snap.graph));
    EXPECT_EQ(snap.role_vectors,
              ComputeRoleVectors(snap.graph, snap.role_dim));
    EXPECT_EQ(snap.sites, RebuildSites(snap));
  }
}

TEST(UpdateEngineDifferentialTest, ShardUpdateMatchesShardOfUpdatedFull) {
  // Applying a mutation on every shard must produce exactly the shards of
  // the mutated full snapshot — the property the router's fan-out relies on.
  Snapshot full = SmallSnapshot();
  constexpr uint32_t kShards = 2;
  std::vector<Snapshot> shards;
  for (uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(MakeShard(full, i, kShards));
  }

  UpdateEngine full_engine(&full);
  Rng rng(4242);
  std::vector<DeltaEntry> muts;
  for (int step = 0; step < 4; ++step) {
    const DeltaEntry mut = RandomMutation(full.graph, rng);
    muts.push_back(mut);
    UpdateResult result;
    ASSERT_TRUE(full_engine.Apply(mut.add, mut.u, mut.v, &result).ok());
  }
  for (uint32_t i = 0; i < kShards; ++i) {
    UpdateEngine engine(&shards[i]);
    for (const DeltaEntry& mut : muts) {
      UpdateResult result;
      ASSERT_TRUE(engine.Apply(mut.add, mut.u, mut.v, &result).ok());
    }
    const Snapshot expected = MakeShard(full, i, kShards);
    ASSERT_EQ(shards[i].motifs.size(), expected.motifs.size());
    for (size_t mi = 0; mi < expected.motifs.size(); ++mi) {
      SCOPED_TRACE("shard " + std::to_string(i) + " motif " +
                   std::to_string(mi));
      // Global frequency on the shard even where the occurrence is not
      // stored locally.
      EXPECT_EQ(shards[i].motifs[mi].frequency, expected.motifs[mi].frequency);
      EXPECT_EQ(shards[i].motifs[mi].strength, expected.motifs[mi].strength);
      EXPECT_EQ(StoredSets(shards[i].motifs[mi]),
                StoredSets(expected.motifs[mi]));
    }
    EXPECT_EQ(shards[i].sites, expected.sites);
  }
}

TEST(UpdateEngineTest, RejectsInvalidMutations) {
  Snapshot snap = SmallSnapshot();
  UpdateEngine engine(&snap);
  const std::string before = EncodeSnapshot(snap);
  UpdateResult result;
  EXPECT_FALSE(engine.Apply(true, 0, 0, &result).ok());  // self-loop
  EXPECT_FALSE(
      engine.Apply(true, 0, static_cast<VertexId>(snap.graph.num_vertices()),
                   &result)
          .ok());  // out of range
  const auto edges = snap.graph.Edges();
  ASSERT_FALSE(edges.empty());
  EXPECT_FALSE(
      engine.Apply(true, edges[0].first, edges[0].second, &result).ok());
  VertexId u = 0, v = 0;
  for (u = 0; u < snap.graph.num_vertices() && v == 0; ++u) {
    for (VertexId w = u + 1; w < snap.graph.num_vertices(); ++w) {
      if (!snap.graph.HasEdge(u, w)) {
        v = w;
        --u;
        break;
      }
    }
  }
  EXPECT_FALSE(engine.Apply(false, u, v, &result).ok());  // absent edge
  // Rejected mutations leave the snapshot untouched.
  EXPECT_EQ(EncodeSnapshot(snap), before);
}

TEST(UpdateEngineTest, ScoreEdgeCountsCompletedConformingInstances) {
  // Deleting an edge and re-scoring it must find exactly the conforming
  // instances the deletion destroyed, weighted by the refreshed strengths.
  Snapshot snap = SmallSnapshot();
  UpdateEngine engine(&snap);
  // Pick an edge that participates in at least one stored occurrence.
  VertexId u = 0, v = 0;
  bool found = false;
  for (const LabeledMotif& motif : snap.motifs) {
    for (const MotifOccurrence& occ : motif.occurrences) {
      for (size_t i = 0; i < occ.proteins.size() && !found; ++i) {
        for (size_t j = i + 1; j < occ.proteins.size() && !found; ++j) {
          if (snap.graph.HasEdge(occ.proteins[i], occ.proteins[j])) {
            u = occ.proteins[i];
            v = occ.proteins[j];
            found = true;
          }
        }
      }
      if (found) break;
    }
    if (found) break;
  }
  ASSERT_TRUE(found);

  EdgeScore present;
  EXPECT_FALSE(engine.ScoreEdge(u, v, &present).ok());  // edge exists

  UpdateResult del;
  ASSERT_TRUE(engine.Apply(false, u, v, &del).ok());
  EdgeScore score;
  ASSERT_TRUE(engine.ScoreEdge(u, v, &score).ok());
  // Every conforming instance the deletion removed from the global counts
  // is a completion for the candidate edge (freq deltas count conforming
  // instances whether or not this shard stores them; on 1 shard they agree
  // with occ_removed).
  EXPECT_EQ(score.completions, del.occ_removed);
  double expected_score = 0.0;
  for (const auto& [mi, count] : score.per_motif) {
    expected_score += static_cast<double>(count) * snap.motifs[mi].strength;
  }
  EXPECT_DOUBLE_EQ(score.score, expected_score);
  // Scoring leaves the graph unchanged.
  EXPECT_FALSE(snap.graph.HasEdge(u, v));

  // Re-adding restores the instances; the score predicted exactly what the
  // addition creates.
  UpdateResult addback;
  ASSERT_TRUE(engine.Apply(true, u, v, &addback).ok());
  EXPECT_EQ(addback.occ_added, score.completions);
}

// ---- journal ---------------------------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(DeltaLineTest, ParsesWireGrammarExactly) {
  auto add = ParseDeltaLine("ADDEDGE 3 9");
  ASSERT_TRUE(add.ok());
  EXPECT_TRUE(add->add);
  EXPECT_EQ(add->u, 3u);
  EXPECT_EQ(add->v, 9u);
  auto del = ParseDeltaLine("DELEDGE 12 0");
  ASSERT_TRUE(del.ok());
  EXPECT_FALSE(del->add);
  EXPECT_EQ(del->u, 12u);
  EXPECT_EQ(del->v, 0u);
  EXPECT_FALSE(ParseDeltaLine("").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE 1").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE 1 2 3").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE one two").ok());
  EXPECT_FALSE(ParseDeltaLine("PREDICT 1").ok());

  EXPECT_TRUE(IsDeltaComment(""));
  EXPECT_TRUE(IsDeltaComment("# note"));
  EXPECT_TRUE(IsDeltaComment("LAMOJOURNAL 1 0000000000000000"));
  EXPECT_FALSE(IsDeltaComment("ADDEDGE 1 2"));
}

TEST(UpdateJournalTest, AppendsAndReplaysAcrossReopen) {
  const std::string path = TempPath("journal.roundtrip");
  std::remove(path.c_str());
  {
    std::vector<DeltaEntry> replay;
    auto journal = UpdateJournal::Open(path, 0xABCDu, &replay);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_TRUE(replay.empty());
    ASSERT_TRUE(journal->Append({true, 4, 7}).ok());
    ASSERT_TRUE(journal->Append({false, 1, 2}).ok());
    EXPECT_EQ(journal->entries(), 2u);
  }
  std::vector<DeltaEntry> replay;
  auto journal = UpdateJournal::Open(path, 0xABCDu, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_TRUE(replay[0].add);
  EXPECT_EQ(replay[0].u, 4u);
  EXPECT_EQ(replay[0].v, 7u);
  EXPECT_FALSE(replay[1].add);
  EXPECT_EQ(replay[1].u, 1u);
  EXPECT_EQ(replay[1].v, 2u);
  std::remove(path.c_str());
}

TEST(UpdateJournalTest, IgnoresTornTrailingLine) {
  // A crash mid-append leaves a line without '\n'; that update was never
  // acknowledged, so replay must skip it — and the next append must not
  // fuse with the fragment.
  const std::string path = TempPath("journal.torn");
  WriteFile(path,
            "LAMOJOURNAL 1 0000000000001234\nADDEDGE 1 2\nDELEDGE 9");
  std::vector<DeltaEntry> replay;
  auto journal = UpdateJournal::Open(path, 0x1234u, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_TRUE(replay[0].add);
  std::remove(path.c_str());
}

TEST(UpdateJournalTest, RejectsChecksumMismatchAndGarbage) {
  const std::string path = TempPath("journal.bad");
  WriteFile(path, "LAMOJOURNAL 1 0000000000001234\nADDEDGE 1 2\n");
  std::vector<DeltaEntry> replay;
  // Journal written against a different base snapshot: refuse to replay.
  EXPECT_FALSE(UpdateJournal::Open(path, 0x9999u, &replay).ok());
  // A complete but unparseable entry is corruption, not a skip.
  WriteFile(path, "LAMOJOURNAL 1 0000000000001234\nADDEDGE one two\n");
  EXPECT_FALSE(UpdateJournal::Open(path, 0x1234u, &replay).ok());
  // Wrong header entirely.
  WriteFile(path, "not a journal\n");
  EXPECT_FALSE(UpdateJournal::Open(path, 0x1234u, &replay).ok());
  std::remove(path.c_str());
}

// ---- service ---------------------------------------------------------------

// An edge of some stored occurrence (deleting it changes answers) plus a
// non-edge for PREDICT_EDGE.
void PickInterestingPair(const Snapshot& snap, VertexId* u, VertexId* v) {
  for (const LabeledMotif& motif : snap.motifs) {
    for (const MotifOccurrence& occ : motif.occurrences) {
      for (size_t i = 0; i < occ.proteins.size(); ++i) {
        for (size_t j = i + 1; j < occ.proteins.size(); ++j) {
          if (snap.graph.HasEdge(occ.proteins[i], occ.proteins[j])) {
            *u = occ.proteins[i];
            *v = occ.proteins[j];
            return;
          }
        }
      }
    }
  }
  FAIL() << "no stored occurrence with an edge";
}

TEST(ServiceUpdateTest, CachedResponsesNeverGoStale) {
  // The regression the cache invalidation exists for: query, mutate, query
  // again. A cached service must answer exactly like an uncached one at
  // every step — if invalidation missed an affected entry, the second
  // PREDICT would serve the pre-update bytes.
  VertexId u = 0, v = 0;
  PickInterestingPair(SmallSnapshot(), &u, &v);
  SnapshotService cached{Snapshot(SmallSnapshot())};
  SnapshotService uncached{Snapshot(SmallSnapshot()), /*cache_capacity=*/0};

  std::vector<std::string> script;
  for (const VertexId p : {u, v}) {
    script.push_back("PREDICT " + std::to_string(p) + " 5");
    script.push_back("MOTIFS " + std::to_string(p));
  }
  script.push_back("DELEDGE " + std::to_string(u) + " " + std::to_string(v));
  for (const VertexId p : {u, v}) {
    script.push_back("PREDICT " + std::to_string(p) + " 5");  // was cached
    script.push_back("MOTIFS " + std::to_string(p));
  }
  script.push_back("PREDICT_EDGE " + std::to_string(u) + " " +
                   std::to_string(v));
  script.push_back("ADDEDGE " + std::to_string(u) + " " + std::to_string(v));
  for (const VertexId p : {u, v}) {
    script.push_back("PREDICT " + std::to_string(p) + " 5");
  }
  // The applied line's evicted= count legitimately differs (the uncached
  // service has nothing to invalidate); everything else must match.
  const auto strip_evicted = [](std::string response) {
    const size_t pos = response.find(" evicted=");
    if (pos != std::string::npos) {
      response.erase(pos, response.find('\n', pos) - pos);
    }
    return response;
  };
  for (const std::string& line : script) {
    SCOPED_TRACE(line);
    EXPECT_EQ(strip_evicted(cached.Handle(line)),
              strip_evicted(uncached.Handle(line)));
  }
  EXPECT_EQ(cached.stats().updates.load(), 2u);
}

TEST(ServiceUpdateTest, MutationVerbsValidateAndReport) {
  SnapshotService service{Snapshot(SmallSnapshot())};
  const auto edges = SmallSnapshot().graph.Edges();
  ASSERT_FALSE(edges.empty());
  const std::string edge = std::to_string(edges[0].first) + " " +
                           std::to_string(edges[0].second);
  EXPECT_EQ(service.Handle("ADDEDGE " + edge).rfind("ERR AlreadyExists", 0),
            0u);
  EXPECT_EQ(service.Handle("ADDEDGE 0 0").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(service.Handle("DELEDGE 999999 1").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(service.Handle("ADDEDGE 1").rfind("ERR InvalidArgument", 0), 0u);
  const std::string applied = service.Handle("DELEDGE " + edge);
  EXPECT_EQ(applied.rfind("OK 1", 0), 0u);
  EXPECT_NE(applied.find("applied DELEDGE " + edge), std::string::npos);
  // STATS reports the update.
  const std::string stats = service.Handle("STATS");
  EXPECT_NE(stats.find("\nupdates 1\n"), std::string::npos);
}

TEST(ServiceUpdateTest, JournalReplayReproducesLiveState) {
  const std::string path = TempPath("journal.service");
  std::remove(path.c_str());
  VertexId u = 0, v = 0;
  PickInterestingPair(SmallSnapshot(), &u, &v);
  const std::string query = "PREDICT " + std::to_string(u) + " 5";
  std::string live_answer;
  {
    SnapshotService live{Snapshot(SmallSnapshot())};
    ASSERT_TRUE(live.AttachJournal(path).ok());
    ASSERT_EQ(live.Handle("DELEDGE " + std::to_string(u) + " " +
                          std::to_string(v))
                  .rfind("OK", 0),
              0u);
    live_answer = live.Handle(query);
  }
  // A fresh process over the untouched base snapshot + the journal must
  // replay to the exact same answers.
  SnapshotService restarted{Snapshot(SmallSnapshot())};
  ASSERT_TRUE(restarted.AttachJournal(path).ok());
  EXPECT_EQ(restarted.stats().updates.load(), 1u);
  EXPECT_EQ(restarted.Handle(query), live_answer);
  // Mismatched base snapshot: refuse.
  Snapshot other = SmallSnapshot();
  other.checksum ^= 0x1;
  SnapshotService wrong{std::move(other)};
  EXPECT_FALSE(wrong.AttachJournal(path).ok());
  std::remove(path.c_str());
}

TEST(ServiceUpdateTest, ConcurrentQueriesAndUpdatesAreSerialized) {
  // TSan-visible hammer: readers race PREDICT/MOTIFS against a writer
  // toggling an edge and scoring candidates. The service serializes
  // mutations behind the snapshot lock; every response must still be a
  // well-formed OK/ERR (and under TSan, data-race free).
  VertexId u = 0, v = 0;
  PickInterestingPair(SmallSnapshot(), &u, &v);
  SnapshotService service{Snapshot(SmallSnapshot())};
  const size_t n = SmallSnapshot().graph.num_vertices();
  std::atomic<bool> stop{false};
  std::atomic<size_t> malformed{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &stop, &malformed, n, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const VertexId p = static_cast<VertexId>(rng.Uniform(n));
        const std::string verb = rng.Uniform(2) ? "PREDICT " : "MOTIFS ";
        const std::string response =
            service.Handle(verb + std::to_string(p));
        if (response.rfind("OK", 0) != 0 && response.rfind("ERR", 0) != 0) {
          malformed.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&service, u, v, &malformed] {
    const std::string del =
        "DELEDGE " + std::to_string(u) + " " + std::to_string(v);
    const std::string add =
        "ADDEDGE " + std::to_string(u) + " " + std::to_string(v);
    const std::string score =
        "PREDICT_EDGE " + std::to_string(u) + " " + std::to_string(v);
    for (int i = 0; i < 10; ++i) {
      if (service.Handle(del).rfind("OK", 0) != 0) malformed.fetch_add(1);
      if (service.Handle(score).rfind("OK", 0) != 0) malformed.fetch_add(1);
      if (service.Handle(add).rfind("OK", 0) != 0) malformed.fetch_add(1);
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_EQ(service.stats().updates.load(), 20u);
}

}  // namespace
}  // namespace lamo
