// perfbench_harness — one run of one benchmark workload, driven through the
// lamo_* libraries' public functions (see README.md in this directory).
//
//   perfbench_harness --workload serve_hot --seed 7 --seconds 20 --trace 0
//                     --work .perfbench_out/run
//
// Both workloads walk the same chain with their own traffic:
//
//   set-up   synth dataset -> io text round trip -> ontology weights
//            -> model (ESU motif finding -> LaMoFinder labeling -> snapshot
//            pack) -> decode -> service
//   reads    2 closed-loop TCP connections against RunTcpServer
//   curator  ADDEDGE / DELEDGE / PREDICT_EDGE steps on a third connection
//   checks   model invariants, offline == online, live == serial replay
//
// stdout carries exactly one line: a JSON record with the run descriptor,
// the end-to-end metrics (with sample counts), the per-layer metrics of a
// traced run, the output checks and the attempted/failed operation counts.
// Progress goes to stderr. run.py builds this binary, runs it and turns the
// record into the benchmark's result line.
//
// --trace 1 runs the workload twice in one process: untraced, then with an
// ObsSink and a TraceCollector installed. The per-layer metrics come from
// the traced pass; trace_overhead.* is traced minus untraced.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/lamofinder.h"
#include "graph/canonical.h"
#include "io/edge_list.h"
#include "io/gaf.h"
#include "io/obo.h"
#include "motif/esu_finder.h"
#include "motif/uniqueness.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "predict/registry.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "synth/dataset.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace lamo {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Fixed parameters -------------------------------------------------------

constexpr uint64_t kDatasetSeed = 2007;  // `lamo generate` defaults
constexpr size_t kProteins = 1500;
constexpr size_t kCopiesPerTemplate = 60;
constexpr size_t kMinFrequency = 40;     // `lamo mine` defaults
constexpr size_t kRandomNetworks = 10;
constexpr double kUniquenessThreshold = 0.95;
constexpr uint64_t kEnsembleSeed = 42;   // `lamo mine` default
constexpr size_t kSigma = 10;            // `lamo label` defaults
constexpr size_t kMaxOccurrences = 300;
constexpr size_t kThreads = 2;           // parallel runtime and server pool
constexpr size_t kReadConnections = 2;
constexpr size_t kSetupRepeats = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSampleEvery = 61;      // reads kept for the output checks
constexpr size_t kSamplesPerReader = 150;
constexpr size_t kReplayProbes = 200;

struct WorkloadSpec {
  std::string name;
  /// Zipf over fewer keys than the cache holds, or uniform over many more.
  bool hot_mix = false;
  /// The curator's rate (steps per second), and how long it runs after the
  /// reads, as a paced closed loop; 0 runs it beside the reads for the whole
  /// read window, as an open loop. Both spread their mutations over several
  /// seconds so that a short stall of the shared machine touches few of them.
  double curator_rate = 0;
  double curator_seconds = 0;

  bool concurrent_curator() const { return curator_seconds == 0; }
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"serve_hot", true, 20.0, 7.5},
      {"serve_churn", false, 5.0, 0.0},
  };
  return specs;
}

// ---- Small helpers ----------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", v);
  return buffer;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(Trim(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

/// One timed layer call: a ScopedTimer (an obs phase plus a trace span when
/// a sink or collector is installed) and a wall-clock measurement.
class LayerTimer {
 public:
  LayerTimer(const char* name, double* seconds)
      : timer_(name), seconds_(seconds), start_(Clock::now()) {}
  ~LayerTimer() { *seconds_ = SecondsSince(start_); }

  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  ScopedTimer timer_;
  double* seconds_;
  Clock::time_point start_;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 for values that are not percentiles/rates
};

using MetricMap = std::map<std::string, Metric>;

// ---- Set-up: dataset, io round trip, ontology -------------------------------

struct Inputs {
  Graph graph;
  Ontology ontology;
  AnnotationTable annotations;
  TermWeights weights;
  InformativeClasses informative;
  std::vector<PlantedTemplate> templates;
  double generate_s = 0;
  double write_s = 0;
  double parse_s = 0;
  double weights_s = 0;

  double Seconds() const { return generate_s + write_s + parse_s + weights_s; }
};

InformativeConfig InformativeFor(size_t num_proteins) {
  InformativeConfig config;
  config.min_direct_proteins = std::max<size_t>(5, num_proteins / 140);
  return config;
}

/// The interactome `lamo generate` writes with its defaults, round-tripped
/// through the io text readers the way every `lamo mine`/`label` run loads
/// it, then the term weights and informative classes `lamo label` computes.
/// The generator seed is fixed: across generator seeds the planted templates
/// change shape and the mining cost with them (README.md, "Noise").
StatusOr<Inputs> PrepareInputs(const std::string& dir) {
  Inputs in;
  SyntheticDatasetConfig config = BindScaleConfig();
  config.num_proteins = kProteins;
  config.seed = kDatasetSeed;
  config.copies_per_template = kCopiesPerTemplate;
  config.informative_threshold = InformativeFor(kProteins).min_direct_proteins;
  std::optional<SyntheticDataset> dataset;
  {
    LayerTimer timer("synth.generate", &in.generate_s);
    dataset.emplace(BuildSyntheticDataset(config));
  }
  const std::string prefix = dir + "/dataset";
  {
    LayerTimer timer("io.write", &in.write_s);
    Status status = WriteEdgeList(dataset->ppi, prefix + ".graph.txt");
    if (status.ok()) status = WriteObo(dataset->ontology, prefix + ".obo");
    if (status.ok()) {
      status = WriteAnnotations(dataset->annotations, dataset->ontology,
                                prefix + ".annotations.tsv");
    }
    if (!status.ok()) return status;
  }
  in.templates = std::move(dataset->templates);
  dataset.reset();
  {
    LayerTimer timer("io.parse", &in.parse_s);
    auto graph = ReadEdgeList(prefix + ".graph.txt");
    if (!graph.ok()) return graph.status();
    auto ontology = ReadObo(prefix + ".obo");
    if (!ontology.ok()) return ontology.status();
    auto annotations = ReadAnnotations(prefix + ".annotations.tsv", *ontology);
    if (!annotations.ok()) return annotations.status();
    in.graph = std::move(graph).value();
    in.ontology = std::move(ontology).value();
    in.annotations = std::move(annotations).value();
  }
  {
    LayerTimer timer("ontology.weights", &in.weights_s);
    in.weights = TermWeights::Compute(in.ontology, in.annotations);
    in.informative = InformativeClasses::Compute(
        in.ontology, in.annotations, InformativeFor(in.graph.num_vertices()));
  }
  return in;
}

// ---- Model: motif finding -> labeling -> pack -------------------------------

struct Model {
  static constexpr size_t kMinSize = 3;
  static constexpr size_t kMaxSize = 4;
  /// Every frequent pattern the finder mined, by canonical code (as bytes):
  /// its uniqueness.
  std::map<std::string, double> frequent;
  std::vector<Motif> motifs;  // the frequent patterns that are unique
  std::vector<LabeledMotif> labeled;
  std::string bytes;  // EncodeSnapshot output
  double find_s = 0;
  double label_s = 0;
  double pack_s = 0;
  /// Obs counter deltas over this build and the motif phase split, filled
  /// only when a sink is installed.
  std::map<std::string, uint64_t> counters;
  double miner_s = 0;
  double uniqueness_s = 0;

  double Seconds() const { return find_s + label_s + pack_s; }
};

std::string CodeKey(const std::vector<uint8_t>& code) {
  return std::string(code.begin(), code.end());
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

double PhaseSeconds(const PhaseNode& node, const std::set<std::string>& names) {
  if (names.count(node.name) != 0) return node.wall_ms / 1000.0;
  double total = 0;
  for (const PhaseNode& child : node.children) {
    total += PhaseSeconds(child, names);
  }
  return total;
}

/// The exact ESU route (sizes 3-4): it counts exhaustively, so the served
/// model does not change when the level-wise mining route does.
Model BuildModel(const Inputs& in) {
  Model model;
  ObsSink* sink = GetObsSink();
  std::map<std::string, uint64_t> before;
  if (sink != nullptr) before = sink->CounterTotals();
  {
    // The finder runs with the threshold off so every frequent pattern and
    // its uniqueness stays visible to the planted-template check;
    // FilterUnique then applies the CLI's threshold exactly as the finder
    // would have.
    LayerTimer timer("motif.find", &model.find_s);
    std::vector<Motif> frequent;
    EsuMotifConfig config;
    config.min_frequency = kMinFrequency;
    config.num_random_networks = kRandomNetworks;
    config.seed = kEnsembleSeed;
    config.uniqueness_threshold = -1;
    for (size_t size = Model::kMinSize; size <= Model::kMaxSize; ++size) {
      config.size = size;
      for (Motif& motif : FindNetworkMotifsEsu(in.graph, config)) {
        frequent.push_back(std::move(motif));
      }
    }
    for (const Motif& motif : frequent) {
      model.frequent[CodeKey(motif.code)] = motif.uniqueness;
    }
    model.motifs = FilterUnique(std::move(frequent), kUniquenessThreshold);
  }
  {
    LayerTimer timer("core.label", &model.label_s);
    LaMoFinder finder(in.ontology, in.weights, in.informative, in.annotations);
    LaMoFinderConfig config;
    config.sigma = kSigma;
    config.max_occurrences = kMaxOccurrences;
    model.labeled = finder.LabelAll(model.motifs, config);
  }
  // BuildSnapshot consumes its inputs; the copies stay outside the timer,
  // as `lamo pack` moves freshly parsed inputs in.
  Graph graph = in.graph;
  Ontology ontology = in.ontology;
  AnnotationTable annotations = in.annotations;
  std::vector<LabeledMotif> labeled = model.labeled;
  {
    LayerTimer timer("serve.pack", &model.pack_s);
    const Snapshot snapshot = BuildSnapshot(
        std::move(graph), std::move(ontology), std::move(annotations),
        std::move(labeled), InformativeFor(in.graph.num_vertices()));
    model.bytes = EncodeSnapshot(snapshot);
  }
  if (sink != nullptr) {
    model.counters = CounterDelta(before, sink->CounterTotals());
    const std::vector<PhaseNode> phases = sink->Phases();
    for (auto it = phases.rbegin(); it != phases.rend(); ++it) {
      if (it->name != "motif.find") continue;
      model.miner_s = PhaseSeconds(*it, {"esu_enumeration"});
      model.uniqueness_s = PhaseSeconds(*it, {"uniqueness"});
      break;
    }
  }
  return model;
}

// ---- Model checks -----------------------------------------------------------

std::vector<Check> CheckModel(const Inputs& in, const Model& model) {
  std::vector<Check> checks;

  // Every planted template that clears min-freq is among the mined frequent
  // patterns. Whether it is also a motif depends on the background network
  // (a planted path is everywhere), so that part is reported, not required.
  Check planted{"planted_templates_mined", true, ""};
  size_t expected = 0, unique = 0;
  for (size_t t = 0; t < in.templates.size(); ++t) {
    const PlantedTemplate& tmpl = in.templates[t];
    const size_t k = tmpl.pattern.num_vertices();
    if (k < Model::kMinSize || k > Model::kMaxSize) continue;
    if (tmpl.instances.size() < kMinFrequency) continue;
    ++expected;
    const auto it = model.frequent.find(CodeKey(CanonicalCode(tmpl.pattern)));
    if (it == model.frequent.end()) {
      planted.ok = false;
      planted.detail += "template " + std::to_string(t) + " (size " +
                        std::to_string(k) + ") not mined; ";
    } else if (it->second >= kUniquenessThreshold) {
      ++unique;
    }
  }
  if (planted.ok) {
    planted.detail = std::to_string(expected) + " templates among " +
                     std::to_string(model.frequent.size()) +
                     " frequent patterns, " + std::to_string(unique) +
                     " of them unique";
  }
  checks.push_back(planted);

  // Every labeled motif has >= sigma conforming occurrences and LMS in (0,1].
  Check labeled{"labeled_motifs_conform", true, ""};
  std::map<std::string, const Motif*> by_code;
  for (const Motif& motif : model.motifs) by_code[CodeKey(motif.code)] = &motif;
  LaMoFinder finder(in.ontology, in.weights, in.informative, in.annotations);
  size_t bad = 0;
  for (size_t i = 0; i < model.labeled.size(); ++i) {
    const LabeledMotif& lm = model.labeled[i];
    const auto it = by_code.find(CodeKey(lm.code));
    std::string why;
    if (it == by_code.end()) {
      why = "no source motif";
    } else if (finder.ConformingOccurrences(*it->second, lm.scheme).size() <
               kSigma) {
      why = "fewer than sigma conforming occurrences";
    } else if (!(lm.strength > 0.0 && lm.strength <= 1.0)) {
      why = "LMS outside (0,1]";
    }
    if (!why.empty()) {
      if (bad++ < 3) {
        labeled.detail += "labeled motif " + std::to_string(i) + ": " + why +
                          "; ";
      }
      labeled.ok = false;
    }
  }
  if (model.labeled.empty()) {
    labeled.ok = false;
    labeled.detail = "no labeled motifs";
  }
  if (labeled.ok) {
    labeled.detail = std::to_string(model.labeled.size()) + " labeled motifs";
  }
  checks.push_back(labeled);
  return checks;
}

// ---- Serving: a timing decorator and an in-process TCP server ---------------

enum class Verb { kRead, kUpdate, kEdgeScore };

Verb VerbOf(const std::string& line) {
  if (line.rfind("ADDEDGE ", 0) == 0 || line.rfind("DELEDGE ", 0) == 0) {
    return Verb::kUpdate;
  }
  if (line.rfind("PREDICT_EDGE ", 0) == 0) return Verb::kEdgeScore;
  return Verb::kRead;
}

/// Times SnapshotService::Handle per verb class while recording is on; a
/// pass-through otherwise.
class TimedService : public LineService {
 public:
  explicit TimedService(SnapshotService* inner) : inner_(inner) {}
  TimedService(const TimedService&) = delete;
  TimedService& operator=(const TimedService&) = delete;

  std::string Handle(const std::string& line) override {
    if (!recording_.load(std::memory_order_relaxed)) {
      return inner_->Handle(line);
    }
    const Clock::time_point start = Clock::now();
    std::string response = inner_->Handle(line);
    const double us = MicrosBetween(start, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    switch (VerbOf(line)) {
      case Verb::kRead: read_us_.push_back(us); break;
      case Verb::kUpdate: update_us_.push_back(us); break;
      case Verb::kEdgeScore: edge_score_us_.push_back(us); break;
    }
    return response;
  }
  void OnConnection() override { inner_->OnConnection(); }
  uint64_t TotalRequests() const override { return inner_->TotalRequests(); }
  uint64_t TotalConnections() const override {
    return inner_->TotalConnections();
  }

  void set_recording(bool on) { recording_.store(on); }
  std::vector<double> Samples(Verb verb) {
    std::lock_guard<std::mutex> lock(mu_);
    return verb == Verb::kRead     ? read_us_
           : verb == Verb::kUpdate ? update_us_
                                   : edge_score_us_;
  }

 private:
  SnapshotService* inner_;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<double> read_us_, update_us_, edge_score_us_;
};

/// RunTcpServer on a background thread, bound to an ephemeral loopback
/// port, stopped with SIGTERM the way `lamo serve` is.
class InProcessServer {
 public:
  Status Start(LineService* service) {
    ServeOptions options;
    options.port = 0;
    options.log = stderr;
    options.on_listening = [this](uint16_t port) {
      std::lock_guard<std::mutex> lock(mu_);
      port_ = port;
      cv_.notify_all();
    };
    thread_ = std::thread([this, service, options] {
      status_ = RunTcpServer(service, options);
      std::lock_guard<std::mutex> lock(mu_);
      exited_ = true;
      cv_.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(30),
                 [this] { return port_ != 0 || exited_; });
    if (port_ == 0) return Status::IoError("server did not start listening");
    return Status::OK();
  }

  Status Stop() {
    if (!thread_.joinable()) return Status::OK();
    raise(SIGTERM);
    thread_.join();
    return status_;
  }

  InProcessServer() = default;
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;
  ~InProcessServer() { Stop(); }

  uint16_t port() const { return port_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint16_t port_ = 0;
  bool exited_ = false;
  Status status_;
  std::thread thread_;  // last: it uses every member above
};

/// A blocking protocol client: one request line out, one full response
/// (`OK <n>` plus n lines, or one `ERR` line) back.
class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{15, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0;
  }

  /// False on a transport failure (timeout, reset, close).
  bool Call(const std::string& line, std::string* response) {
    const std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    response->clear();
    std::string first;
    if (!ReadLine(&first)) return false;
    *response = first + "\n";
    if (first.rfind("OK ", 0) != 0) return true;
    uint64_t lines = 0;
    if (!ParseUint64(first.substr(3), &lines)) return false;
    for (uint64_t i = 0; i < lines; ++i) {
      std::string payload;
      if (!ReadLine(&payload)) return false;
      *response += payload + "\n";
    }
    return true;
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        line->assign(buffer_, pos_, newline - pos_);
        pos_ = newline + 1;
        if (pos_ == buffer_.size()) {
          buffer_.clear();
          pos_ = 0;
        }
        return true;
      }
      char chunk[16384];
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

bool IsOk(const std::string& response) {
  return response.rfind("OK ", 0) == 0;
}

// ---- Read traffic -----------------------------------------------------------

/// The read request mix: a synthetic one, with no production trace behind
/// it, so every proportion is the plainest the workload's purpose allows.
/// Each request picks its verb with equal odds. Hot: PREDICT p, MOTIFS p or
/// TERMINFO t, the key drawn by Zipf(1) over every protein or term in a
/// seeded order; about 3150 distinct keys, fewer than the response cache
/// holds. Uniform: `PREDICT p k` (k in 1..8) or `MOTIFS p` over every
/// protein; 13500 distinct keys, several times what the cache holds.
class ReadMix {
 public:
  ReadMix(bool hot, size_t num_proteins, const Ontology& ontology,
          uint64_t seed)
      : hot_(hot), num_proteins_(num_proteins) {
    if (!hot) return;
    Rng rng(seed ^ 0x5eed0001ULL);
    std::vector<std::string> proteins, terms;
    for (size_t p = 0; p < num_proteins; ++p) {
      proteins.push_back(std::to_string(p));
    }
    for (size_t t = 0; t < ontology.num_terms(); ++t) {
      terms.push_back(ontology.TermName(static_cast<TermId>(t)));
    }
    verbs_.push_back(ZipfKeys("PREDICT ", proteins, rng));
    verbs_.push_back(ZipfKeys("MOTIFS ", proteins, rng));
    verbs_.push_back(ZipfKeys("TERMINFO ", terms, rng));
  }

  std::string Next(Rng& rng) const {
    if (hot_) {
      const KeySet& keys = verbs_[rng.Uniform(verbs_.size())];
      const auto it = std::upper_bound(keys.cdf.begin(), keys.cdf.end(),
                                       rng.NextDouble());
      return keys.keys[std::min<size_t>(it - keys.cdf.begin(),
                                        keys.keys.size() - 1)];
    }
    const uint64_t p = rng.Uniform(num_proteins_);
    if (rng.Bernoulli(0.5)) {
      return "PREDICT " + std::to_string(p) + " " +
             std::to_string(1 + rng.Uniform(8));
    }
    return "MOTIFS " + std::to_string(p);
  }

  size_t DistinctKeys() const {
    if (!hot_) return num_proteins_ * 9;
    size_t keys = 0;
    for (const KeySet& set : verbs_) keys += set.keys.size();
    return keys;
  }

 private:
  struct KeySet {
    std::vector<std::string> keys;  // by Zipf rank
    std::vector<double> cdf;
  };

  static KeySet ZipfKeys(const std::string& verb,
                         std::vector<std::string> args, Rng& rng) {
    std::shuffle(args.begin(), args.end(), rng);
    KeySet set;
    double total = 0;
    for (size_t rank = 1; rank <= args.size(); ++rank) {
      set.keys.push_back(verb + args[rank - 1]);
      total += 1.0 / static_cast<double>(rank);
      set.cdf.push_back(total);
    }
    for (double& c : set.cdf) c /= total;
    return set;
  }

  bool hot_;
  size_t num_proteins_;
  std::vector<KeySet> verbs_;
};

/// One connection's reads sent in one 1-second slice of the timed window.
struct SliceFigures {
  size_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct ReaderResult {
  std::vector<SliceFigures> slices;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> samples;
};

/// One closed-loop read connection: next request as soon as the previous
/// reply is complete, from now (warm-up) until `end`; requests sent after
/// `window` are timed, filed by the 1-second slice they were sent in. Each
/// slice is summarized when it ends, so the load generator's memory does not
/// grow with the throughput it measures (peak_rss_mb would read it).
void RunReader(uint16_t port, const ReadMix* mix, uint64_t seed,
               Clock::time_point window, Clock::time_point end,
               bool keep_samples, ReaderResult* out) {
  out->slices.resize(static_cast<size_t>(
      std::ceil(std::chrono::duration<double>(end - window).count())));
  std::vector<double> latencies;
  size_t current = 0;
  auto close_slice = [&] {
    if (latencies.empty()) return;
    out->slices[current] = {latencies.size(), Percentile(latencies, 0.5),
                            Percentile(latencies, 0.99)};
    latencies.clear();
  };
  Client client;
  if (!client.Connect(port)) {
    out->attempted = out->failed = 1;
    return;
  }
  Rng rng(seed);
  std::string response;
  while (true) {
    const Clock::time_point sent = Clock::now();
    if (sent >= end) break;
    const std::string line = mix->Next(rng);
    ++out->attempted;
    const bool transport_ok = client.Call(line, &response);
    const Clock::time_point done = Clock::now();
    if (!transport_ok) {
      ++out->failed;
      break;  // the connection is gone
    }
    if (!IsOk(response)) ++out->failed;
    if (sent >= window) {
      const size_t slice = std::min(
          out->slices.size() - 1,
          static_cast<size_t>(std::chrono::duration<double>(sent - window)
                                  .count()));
      if (slice != current) {
        close_slice();
        current = slice;
      }
      latencies.push_back(MicrosBetween(sent, done));
      if (keep_samples && out->attempted % kSampleEvery == 0 &&
          out->samples.size() < kSamplesPerReader) {
        out->samples.emplace_back(line, response);
      }
    }
  }
  close_slice();
}

// ---- Curator traffic --------------------------------------------------------

/// Seeded sequence of curator steps, valid against the evolving graph. Steps
/// alternate: add a currently absent pair (scored with PREDICT_EDGE first),
/// then delete one of the original edges. A mutation's cost grows steeply
/// with the degrees at its endpoints, so both kinds are drawn by systematic
/// sampling over kStrata degree bands: every kStrata adds take each endpoint
/// once from each band of proteins sorted by degree, and every kStrata
/// deletes take one edge from each band of edges sorted by degree sum, in a
/// seeded order. Each run of 100 steps then mixes cheap and costly mutations
/// in the same proportions, down to the tail its p90 reads, and the seed
/// picks which ones.
class CuratorPlan {
 public:
  static constexpr size_t kStrata = 50;

  struct Step {
    bool add = false;
    VertexId u = 0;
    VertexId v = 0;
  };

  CuratorPlan(const Graph& graph, uint64_t seed)
      : rng_(seed ^ 0xc0ffee11ULL), n_(graph.num_vertices()) {
    std::vector<VertexId> proteins(n_);
    for (VertexId p = 0; p < n_; ++p) proteins[p] = p;
    std::stable_sort(proteins.begin(), proteins.end(),
                     [&graph](VertexId a, VertexId b) {
                       return graph.Degree(a) < graph.Degree(b);
                     });
    std::vector<std::pair<VertexId, VertexId>> edges = graph.Edges();
    for (const auto& [u, v] : edges) present_.insert(Key(u, v));
    auto degree_sum = [&graph](const std::pair<VertexId, VertexId>& e) {
      return graph.Degree(e.first) + graph.Degree(e.second);
    };
    std::stable_sort(edges.begin(), edges.end(),
                     [&](const auto& a, const auto& b) {
                       return degree_sum(a) < degree_sum(b);
                     });
    for (size_t s = 0; s < kStrata; ++s) {
      protein_strata_[s].assign(proteins.begin() + s * n_ / kStrata,
                                proteins.begin() + (s + 1) * n_ / kStrata);
      edge_strata_[s].assign(
          edges.begin() + s * edges.size() / kStrata,
          edges.begin() + (s + 1) * edges.size() / kStrata);
    }
  }

  Step Next() {
    Step step;
    step.add = steps_ % 2 == 0;
    const size_t slot = (steps_ / 2) % kStrata;
    if (slot == 0) {
      for (Order* order : {&u_order_, &v_order_, &del_order_}) {
        for (size_t s = 0; s < kStrata; ++s) (*order)[s] = s;
        std::shuffle(order->begin(), order->end(), rng_);
      }
    }
    ++steps_;
    if (step.add) {
      const std::vector<VertexId>& us = protein_strata_[u_order_[slot]];
      const std::vector<VertexId>& vs = protein_strata_[v_order_[slot]];
      step.u = us[rng_.Uniform(us.size())];
      // A hub may already touch a whole band; then any absent partner does.
      for (size_t tries = 0;; ++tries) {
        step.v = tries < 64 ? vs[rng_.Uniform(vs.size())]
                            : static_cast<VertexId>(rng_.Uniform(n_));
        if (step.v != step.u && present_.count(Key(step.u, step.v)) == 0) {
          break;
        }
      }
      present_.insert(Key(step.u, step.v));
      return step;
    }
    // The first non-empty stratum from the scheduled one; original edges
    // leave their stratum when deleted, so every pick is present.
    for (size_t k = 0; k < kStrata; ++k) {
      auto& stratum = edge_strata_[(del_order_[slot] + k) % kStrata];
      if (stratum.empty()) continue;
      const size_t i = rng_.Uniform(stratum.size());
      step.u = stratum[i].first;
      step.v = stratum[i].second;
      stratum[i] = stratum.back();
      stratum.pop_back();
      present_.erase(Key(step.u, step.v));
      return step;
    }
    LAMO_CHECK(false) << "curator plan ran out of edges to delete";
    return step;
  }

 private:
  static uint64_t Key(VertexId u, VertexId v) {
    return (uint64_t{std::min(u, v)} << 32) | std::max(u, v);
  }

  Rng rng_;
  size_t n_;
  size_t steps_ = 0;
  std::unordered_set<uint64_t> present_;
  std::array<std::vector<VertexId>, kStrata> protein_strata_;
  std::array<std::vector<std::pair<VertexId, VertexId>>, kStrata> edge_strata_;
  using Order = std::array<size_t, kStrata>;
  Order u_order_{};
  Order v_order_{};
  Order del_order_{};
};

struct CuratorResult {
  size_t steps = 0;                   // scheduled; one mutation each
  std::vector<double> update_us;      // see RunCurator for the timing
  std::vector<double> edge_score_us;  // from the step's due time
  std::vector<double> late_us;        // send time minus due time
  std::vector<std::string> mutations;  // acknowledged, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double resubgraphs = 0;
  double affected = 0;
  double evicted = 0;
};

double ReplyField(const std::string& response, const std::string& field) {
  const size_t at = response.find(" " + field + "=");
  if (at == std::string::npos) return 0;
  return std::strtod(response.c_str() + at + field.size() + 2, nullptr);
}

/// Runs curator steps on its own connection, step i scheduled at
/// start + i / rate; no step is scheduled at or after `end`. With
/// `open_loop` a step is timed from its scheduled time, so the wait behind
/// a slow predecessor counts; otherwise (a lone editor who waits for each
/// reply) from when it was sent. An ADDEDGE is due when its step's
/// PREDICT_EDGE reply arrives.
void RunCurator(uint16_t port, CuratorPlan* plan, double steps_per_second,
                bool open_loop, Clock::time_point end, CuratorResult* out) {
  static const size_t kSpanAdd = ObsSpanId("curator.addedge");
  static const size_t kSpanDel = ObsSpanId("curator.deledge");
  static const size_t kSpanScore = ObsSpanId("curator.predict_edge");
  Client client;
  if (!client.Connect(port)) {
    out->attempted = out->failed = 1;
    return;
  }
  const Clock::time_point start = Clock::now();
  std::string response;
  auto call = [&](const std::string& line, size_t span,
                  Clock::time_point timed_from, std::vector<double>* lat) {
    ScopedSpan trace_span(span);
    ++out->attempted;
    const bool transport_ok = client.Call(line, &response);
    lat->push_back(MicrosBetween(timed_from, Clock::now()));
    if (!transport_ok || !IsOk(response)) {
      ++out->failed;
      return false;
    }
    return true;
  };
  for (size_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  steps_per_second));
    if (due >= end) break;
    ++out->steps;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    out->late_us.push_back(MicrosBetween(due, sent));
    const Clock::time_point timed_from = open_loop ? due : sent;
    const CuratorPlan::Step step = plan->Next();
    const std::string pair = std::to_string(step.u) + " " +
                             std::to_string(step.v);
    std::string mutation;
    Clock::time_point mutation_due = timed_from;
    if (step.add) {
      if (!call("PREDICT_EDGE " + pair, kSpanScore, timed_from,
                &out->edge_score_us)) {
        continue;
      }
      mutation = "ADDEDGE " + pair;
      mutation_due = Clock::now();
    } else {
      mutation = "DELEDGE " + pair;
    }
    if (!call(mutation, step.add ? kSpanAdd : kSpanDel, mutation_due,
              &out->update_us)) {
      continue;
    }
    out->mutations.push_back(mutation);
    out->resubgraphs += ReplyField(response, "resubgraphs");
    out->affected += ReplyField(response, "affected");
    out->evicted += ReplyField(response, "evicted");
  }
}

// ---- Output checks against offline recomputation ----------------------------

/// The serving state a reference recomputes from: a fresh, cache-less
/// service over the decoded initial snapshot.
std::unique_ptr<SnapshotService> FreshService(const std::string& bytes) {
  auto snapshot = DecodeSnapshot(bytes);
  if (!snapshot.ok()) return nullptr;
  return std::make_unique<SnapshotService>(std::move(snapshot).value(), 0);
}

/// Replies sampled before any mutation equal the offline answers for the
/// same snapshot: PREDICT against PredictionOutputLines (what `lamo predict`
/// prints), the other reads against a fresh cache-less service.
Check CheckOfflineReads(
    const std::string& bytes,
    const std::vector<std::pair<std::string, std::string>>& samples) {
  Check check{"reads_equal_offline", true, ""};
  auto reference = FreshService(bytes);
  if (reference == nullptr) return {check.name, false, "decode failed"};
  const Snapshot& snap = reference->snapshot();
  PredictionContext context;
  context.ppi = &snap.graph;
  context.categories = snap.categories;
  context.protein_categories = snap.protein_categories;
  PredictorInputs inputs;
  inputs.context = &context;
  inputs.ontology = &snap.ontology;
  inputs.motifs = &snap.motifs;
  auto predictor = MakePredictor("lms", inputs);
  if (!predictor.ok()) return {check.name, false, "no lms predictor"};
  size_t predicts = 0;
  size_t mismatches = 0;
  for (const auto& [line, reply] : samples) {
    std::string expected;
    auto request = ParseRequest(line);
    if (request.ok() && request->type == RequestType::kPredict) {
      ++predicts;
      expected = FormatOkResponse(PredictionOutputLines(
          context, snap.ontology, **predictor, request->protein,
          request->top_k));
    } else {
      expected = reference->Handle(line);
    }
    if (expected != reply) {
      if (mismatches++ < 3) check.detail += "\"" + line + "\" differs; ";
      check.ok = false;
    }
  }
  if (samples.empty()) {
    check.ok = false;
    check.detail = "no sampled replies";
  }
  if (check.ok) {
    check.detail = std::to_string(samples.size()) + " sampled replies (" +
                   std::to_string(predicts) + " PREDICT) match";
  }
  return check;
}

/// After the traffic, the live server answers like a fresh service that
/// replayed the acknowledged mutations serially. Every scheduled step must
/// have been acknowledged, so a broken update path cannot pass by leaving
/// the server unmutated.
Check CheckReplay(const std::string& bytes, const CuratorResult& curator,
                  const ReadMix& mix, uint16_t port, uint64_t seed) {
  Check check{"live_equals_serial_replay", true, ""};
  const std::vector<std::string>& mutations = curator.mutations;
  if (mutations.empty() || mutations.size() < curator.steps) {
    return {check.name, false,
            std::to_string(mutations.size()) + " of " +
                std::to_string(curator.steps) +
                " curator steps acknowledged"};
  }
  auto reference = FreshService(bytes);
  if (reference == nullptr) return {check.name, false, "decode failed"};
  for (const std::string& mutation : mutations) {
    const std::string reply = reference->Handle(mutation);
    if (reply.rfind("OK 1\napplied ", 0) != 0) {
      return {check.name, false, "replay of \"" + mutation + "\" failed"};
    }
  }
  std::vector<std::string> probes;
  for (size_t i = mutations.size(); i > 0 && probes.size() < 40; --i) {
    const std::vector<std::string> parts = Split(mutations[i - 1], ' ');
    probes.push_back("MOTIFS " + parts[1]);
    probes.push_back("PREDICT " + parts[2] + " 5");
  }
  Rng rng(seed ^ 0x9e9a1ULL);
  while (probes.size() < kReplayProbes) probes.push_back(mix.Next(rng));
  Client client;
  if (!client.Connect(port)) return {check.name, false, "cannot connect"};
  size_t mismatches = 0;
  std::string live;
  for (const std::string& probe : probes) {
    if (!client.Call(probe, &live) || live != reference->Handle(probe)) {
      if (mismatches++ < 3) check.detail += "\"" + probe + "\" differs; ";
      check.ok = false;
    }
  }
  if (check.ok) {
    check.detail = std::to_string(probes.size()) + " probes match after " +
                   std::to_string(mutations.size()) + " replayed mutations";
  }
  return check;
}

// ---- One pass of a workload -------------------------------------------------

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 20;
  std::string work_dir;
};

/// What set-up leaves behind: the last repeat's inputs and model, the
/// service over its decoded snapshot, and the set-up timings (medians over
/// the repeats).
struct Setup {
  std::optional<Inputs> inputs;
  std::optional<Model> model;
  std::unique_ptr<SnapshotService> service;
  double seconds = 0;  // without the server start
  double decode_s = 0;
  double service_init_s = 0;
  std::vector<Check> checks;
};

/// The dataset and the model kSetupRepeats times, then decode + service
/// construction as often.
StatusOr<Setup> SetUp(const RunOptions& options) {
  Setup setup;
  std::vector<double> model_times, serving_times;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    setup.inputs.reset();
    setup.model.reset();
    auto prepared = PrepareInputs(options.work_dir);
    if (!prepared.ok()) return prepared.status();
    setup.inputs.emplace(std::move(prepared).value());
    setup.model.emplace(BuildModel(*setup.inputs));
    const double seconds = setup.inputs->Seconds() + setup.model->Seconds();
    model_times.push_back(seconds);
    std::fprintf(stderr, "perfbench: set-up %zu/%zu: %.3f s\n", r + 1,
                 kSetupRepeats, seconds);
  }
  setup.checks = CheckModel(*setup.inputs, *setup.model);

  Check round_trip{"snapshot_encode_decode_encode", true, ""};
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    setup.service.reset();
    std::optional<StatusOr<Snapshot>> decoded;
    {
      LayerTimer timer("serve.decode", &setup.decode_s);
      decoded.emplace(DecodeSnapshot(setup.model->bytes));
    }
    if (!decoded->ok()) return decoded->status();
    if (r == 0 && EncodeSnapshot(**decoded) != setup.model->bytes) {
      round_trip.ok = false;
      round_trip.detail = "re-encoded snapshot differs";
    }
    {
      LayerTimer timer("serve.service_init", &setup.service_init_s);
      setup.service =
          std::make_unique<SnapshotService>(std::move(*decoded).value());
    }
    serving_times.push_back(setup.decode_s + setup.service_init_s);
  }
  if (round_trip.ok) {
    round_trip.detail = std::to_string(setup.model->bytes.size()) + " bytes";
  }
  setup.checks.push_back(round_trip);
  setup.seconds = Median(model_times) + Median(serving_times);
  return setup;
}

/// The read figures are medians over the 1-second slices, so a stall of the
/// shared machine moves one slice, not the run's result.
struct ReadFigures {
  double rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
};

ReadFigures SummarizeReads(const std::vector<ReaderResult>& readers) {
  std::vector<double> rps, p50, p99;
  ReadFigures figures;
  for (size_t i = 0; i < readers.front().slices.size(); ++i) {
    size_t count = 0;
    for (const ReaderResult& r : readers) {
      const SliceFigures& slice = r.slices[i];
      if (slice.count == 0) continue;
      count += slice.count;
      p50.push_back(slice.p50_us);
      p99.push_back(slice.p99_us);
    }
    if (count == 0) continue;
    figures.samples += count;
    rps.push_back(static_cast<double>(count));
  }
  std::fprintf(stderr, "perfbench: reads per 1-s slice:");
  for (double r : rps) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  figures.rps = Median(rps);
  figures.p50_us = Median(p50);
  figures.p99_us = Median(p99);
  return figures;
}

/// Everything the traffic observed.
struct Traffic {
  ReadFigures reads;
  std::vector<std::pair<std::string, std::string>> samples;  // before churn
  CuratorResult curator;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Over the timed read window.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::map<std::string, uint64_t> read_counters;  // obs deltas
};

/// Reads on 2 closed-loop connections for a warm-up plus the read window;
/// the curator runs beside them (serve_churn) or after them.
Traffic RunTraffic(const RunOptions& options, const ReadMix& mix,
                   CuratorPlan* plan, uint16_t port, SnapshotService* service,
                   TimedService* timed, ObsSink* sink) {
  const WorkloadSpec& spec = options.spec;
  Traffic traffic;
  const Clock::time_point window =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point end =
      window + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(options.seconds));
  std::vector<ReaderResult> readers(kReadConnections);
  const ServeStats& stats = service->stats();
  uint64_t hits0 = 0, misses0 = 0;
  std::map<std::string, uint64_t> counters0;
  {
    ScopedTimer phase("serve.reads");
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kReadConnections; ++c) {
      threads.emplace_back(RunReader, port, &mix, options.seed * 1000003 + c,
                           window, end, !spec.concurrent_curator(),
                           &readers[c]);
    }
    std::this_thread::sleep_until(window);
    hits0 = stats.cache_hits.load();
    misses0 = stats.cache_misses.load();
    if (sink != nullptr) counters0 = sink->CounterTotals();
    timed->set_recording(sink != nullptr);
    if (spec.concurrent_curator()) {
      RunCurator(port, plan, spec.curator_rate, /*open_loop=*/true, end,
                 &traffic.curator);
    }
    for (std::thread& t : threads) t.join();
  }
  traffic.cache_hits = stats.cache_hits.load() - hits0;
  traffic.cache_misses = stats.cache_misses.load() - misses0;
  if (sink != nullptr) {
    traffic.read_counters = CounterDelta(counters0, sink->CounterTotals());
  }
  if (!spec.concurrent_curator()) {
    ScopedTimer phase("serve.curator");
    const Clock::time_point curator_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(spec.curator_seconds));
    RunCurator(port, plan, spec.curator_rate, /*open_loop=*/false,
               curator_end, &traffic.curator);
  }
  timed->set_recording(false);

  traffic.reads = SummarizeReads(readers);
  for (const ReaderResult& r : readers) {
    traffic.samples.insert(traffic.samples.end(), r.samples.begin(),
                           r.samples.end());
    traffic.attempted += r.attempted;
    traffic.failed += r.failed;
  }
  traffic.attempted += traffic.curator.attempted;
  traffic.failed += traffic.curator.failed;
  return traffic;
}

/// The median of a power-of-two obs histogram, interpolated linearly inside
/// its bucket. HistogramSnapshot::Percentile returns the bucket's upper
/// bound, which reads the same on nearly every run.
double InterpolatedMedian(const HistogramSnapshot& h) {
  const double rank = 0.5 * static_cast<double>(h.count);
  double seen = 0;
  for (size_t b = 0; b < kObsHistogramBuckets; ++b) {
    const double in_bucket = static_cast<double>(h.buckets[b]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      const double lo = static_cast<double>(ObsHistogramBucketLo(b));
      const double hi = static_cast<double>(ObsHistogramBucketHi(b)) + 1;
      return lo + (hi - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return 0.0;
}

/// The per-layer metrics of the traced pass.
MetricMap PerLayer(const Setup& setup, const Traffic& traffic,
                   const ReadFigures& reads, TimedService& timed,
                   const ObsSink& sink) {
  const Inputs& inputs = *setup.inputs;
  const Model& model = *setup.model;
  const CuratorResult& curator = traffic.curator;
  auto counter = [](const std::map<std::string, uint64_t>& counters,
                    const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto model_counter = [&](const std::string& name) {
    return counter(model.counters, name);
  };
  auto histogram_p50 = [&sink](const std::string& name) {
    for (const HistogramSnapshot& h : sink.Histograms()) {
      if (h.name == name) return InterpolatedMedian(h);
    }
    return 0.0;
  };
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  size_t occurrences = 0;
  for (const Motif& motif : model.motifs) occurrences += motif.frequency;
  const double st_hits = model_counter("similarity.memo_hits");
  const double st_lookups = st_hits + model_counter("similarity.memo_misses");
  const double tasks = model_counter("pool.tasks");
  const std::vector<double> handle = timed.Samples(Verb::kRead);
  const std::vector<double> update_handle = timed.Samples(Verb::kUpdate);
  const std::vector<double> score_handle = timed.Samples(Verb::kEdgeScore);
  const double handle_p50 = Percentile(handle, 0.5);
  const double applied =
      static_cast<double>(std::max<size_t>(1, curator.mutations.size()));

  MetricMap layer;
  layer["synth.generate_s"] = {inputs.generate_s, "s"};
  layer["io.parse_s"] = {inputs.parse_s, "s"};
  layer["ontology.weights_s"] = {inputs.weights_s, "s"};
  layer["motif.find_s"] = {model.find_s, "s"};
  layer["motif.miner_s"] = {model.miner_s, "s"};
  layer["motif.uniqueness_s"] = {model.uniqueness_s, "s"};
  layer["motif.motifs"] = {static_cast<double>(model.motifs.size()), "count"};
  layer["motif.occurrences"] = {static_cast<double>(occurrences), "count"};
  layer["motif.candidate_sets"] = {model_counter("esu.subgraphs"), "count"};
  layer["motif.uniqueness_tests"] = {
      model_counter("uniqueness.pattern_tests"), "count"};
  layer["core.label_s"] = {model.label_s, "s"};
  layer["core.labeled_motifs"] = {static_cast<double>(model.labeled.size()),
                                  "count"};
  layer["core.so_cells"] = {model_counter("lamofinder.so_cells"), "count"};
  layer["core.cluster_merges"] = {model_counter("lamofinder.cluster_merges"),
                                  "count"};
  layer["ontology.st_lookups"] = {st_lookups, "count"};
  layer["ontology.st_hit_ratio"] = {ratio(st_hits, st_lookups), "ratio"};
  layer["ontology.st_contended"] = {
      model_counter("similarity.lock_contention"), "count"};
  layer["serve.pack_s"] = {model.pack_s, "s"};
  layer["serve.snapshot_mb"] = {
      static_cast<double>(model.bytes.size()) / (1024.0 * 1024.0), "MB"};
  layer["predict.gds_cells"] = {model_counter("gds.signature_cells"), "count"};
  layer["parallel.tasks"] = {tasks, "count"};
  layer["parallel.queue_wait_us"] = {
      ratio(model_counter("pool.queue_wait_us"), tasks), "us"};

  layer["serve.decode_s"] = {setup.decode_s, "s"};
  layer["serve.service_init_s"] = {setup.service_init_s, "s"};
  layer["serve.handle_p50_us"] = {handle_p50, "us", handle.size()};
  layer["serve.handle_p99_us"] = {Percentile(handle, 0.99), "us",
                                  handle.size()};
  layer["serve.transport_p50_us"] = {reads.p50_us - handle_p50, "us"};
  layer["serve.queue_p50_us"] = {histogram_p50("serve.queue_us"), "us"};
  layer["serve.cache_hit_ratio"] = {
      ratio(static_cast<double>(traffic.cache_hits),
            static_cast<double>(traffic.cache_hits + traffic.cache_misses)),
      "ratio"};
  layer["predict.score_p50_us"] = {histogram_p50("predict.score_us"), "us"};
  layer["predict.votes"] = {counter(traffic.read_counters, "predict.votes"),
                            "count"};
  layer["update.p90_us"] = {Percentile(curator.update_us, 0.9), "us",
                            curator.update_us.size()};
  layer["update.handle_p50_us"] = {Percentile(update_handle, 0.5), "us",
                                   update_handle.size()};
  layer["update.resubgraphs"] = {curator.resubgraphs, "count"};
  layer["update.affected_mean"] = {curator.affected / applied, "count"};
  layer["update.evicted_mean"] = {curator.evicted / applied, "count"};
  layer["update.edge_score_handle_p50_us"] = {Percentile(score_handle, 0.5),
                                              "us", score_handle.size()};
  layer["update.sched_late_p99_us"] = {Percentile(curator.late_us, 0.99), "us",
                                       curator.late_us.size()};
  layer["read.p99_us"] = {reads.p99_us, "us", reads.samples};
  layer["read.samples"] = {static_cast<double>(reads.samples), "count"};
  layer["update.samples"] = {static_cast<double>(curator.update_us.size()),
                             "count"};
  layer["edge_score.samples"] = {
      static_cast<double>(curator.edge_score_us.size()), "count"};
  return layer;
}

struct PassResult {
  MetricMap end_to_end;
  MetricMap per_layer;
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t read_mix_keys = 0;
};

/// Runs the workload once: set-up, server start, traffic, checks. With
/// `sink` set (the traced pass), also fills the per-layer metrics.
StatusOr<PassResult> RunPass(const RunOptions& options, ObsSink* sink) {
  auto setup = SetUp(options);
  if (!setup.ok()) return setup.status();
  // The set-up repeats leave freed build memory in the allocator's arenas,
  // which a `lamo serve` process that only decodes a snapshot never holds.
  // Returned, it cannot decide peak_rss_mb by whether the serving path
  // happens to reuse those pages or to touch new ones.
  malloc_trim(0);
  TimedService timed(setup->service.get());
  InProcessServer server;
  double start_s = 0;
  {
    LayerTimer timer("serve.start", &start_s);
    const Status status = server.Start(&timed);
    if (!status.ok()) return status;
  }
  const Inputs& inputs = *setup->inputs;
  const ReadMix mix(options.spec.hot_mix, inputs.graph.num_vertices(),
                    inputs.ontology, options.seed);
  CuratorPlan plan(inputs.graph, options.seed);
  const Traffic traffic = RunTraffic(options, mix, &plan, server.port(),
                                     setup->service.get(), &timed, sink);
  const ReadFigures& reads = traffic.reads;
  const CuratorResult& curator = traffic.curator;

  PassResult result;
  result.checks = std::move(setup->checks);
  result.attempted = traffic.attempted;
  result.failed = traffic.failed;
  result.read_mix_keys = mix.DistinctKeys();
  MetricMap& e2e = result.end_to_end;
  e2e["setup_s"] = {setup->seconds + start_s, "s", kSetupRepeats};
  e2e["read_rps"] = {reads.rps, "1/s", reads.samples};
  e2e["read_p50_us"] = {reads.p50_us, "us", reads.samples};
  e2e["update_p50_us"] = {Percentile(curator.update_us, 0.5), "us",
                          curator.update_us.size()};
  e2e["edge_score_p50_us"] = {Percentile(curator.edge_score_us, 0.5), "us",
                              curator.edge_score_us.size()};

  // Output checks, outside every timed window.
  const std::string& bytes = setup->model->bytes;
  if (!options.spec.concurrent_curator()) {
    result.checks.push_back(CheckOfflineReads(bytes, traffic.samples));
  }
  result.checks.push_back(
      CheckReplay(bytes, curator, mix, server.port(), options.seed));
  const Status stopped = server.Stop();
  if (!stopped.ok()) return stopped;
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (sink != nullptr) {
    result.per_layer = PerLayer(*setup, traffic, reads, timed, *sink);
  }
  return result;
}

// ---- Record -----------------------------------------------------------------

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":\"" + metric.unit + "\"";
    if (metric.samples > 0) {
      out += ",\"samples\":" + std::to_string(metric.samples);
    }
    out += "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload serve_hot|serve_churn "
               "--seed N --seconds S --trace 0|1 --work DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 5) return Usage();
  RunOptions options;
  const auto spec = std::find_if(
      Workloads().begin(), Workloads().end(),
      [&args](const WorkloadSpec& s) { return s.name == args["workload"]; });
  uint64_t seconds = 0;
  if (spec == Workloads().end() || !ParseUint64(args["seed"], &options.seed) ||
      !ParseUint64(args["seconds"], &seconds) || seconds == 0 ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    return Usage();
  }
  options.spec = *spec;
  options.seconds = static_cast<double>(seconds);
  options.work_dir = args["work"];
  const bool traced = args["trace"] == "1";
  SetThreadCount(kThreads);

  auto untraced = RunPass(options, nullptr);
  if (!untraced.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 untraced.status().ToString().c_str());
    return 1;
  }
  PassResult record = std::move(untraced).value();
  std::string trace_path;
  if (traced) {
    ObsSink sink;
    TraceCollector tracer;
    SetObsSink(&sink);
    SetTraceCollector(&tracer);
    auto traced_pass = RunPass(options, &sink);
    SetTraceCollector(nullptr);
    SetObsSink(nullptr);
    if (!traced_pass.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   traced_pass.status().ToString().c_str());
      return 1;
    }
    trace_path = options.work_dir + "/trace.json";
    const Status written = tracer.WriteFile(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    record.per_layer = traced_pass->per_layer;
    for (const auto& [name, metric] : record.end_to_end) {
      if (name == "peak_rss_mb") continue;  // a process-lifetime high mark
      record.per_layer["trace_overhead." + name] = {
          traced_pass->end_to_end[name].value - metric.value, metric.unit};
    }
    for (Check& check : traced_pass->checks) {
      check.name = "traced." + check.name;
      record.checks.push_back(std::move(check));
    }
    record.attempted += traced_pass->attempted;
    record.failed += traced_pass->failed;
  }

  std::string checks = "[";
  for (size_t i = 0; i < record.checks.size(); ++i) {
    const Check& c = record.checks[i];
    if (i > 0) checks += ",";
    checks += "{\"name\":\"" + c.name + "\",\"ok\":" +
              (c.ok ? "true" : "false") + ",\"detail\":\"" +
              JsonEscape(c.detail) + "\"}";
  }
  checks += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%llu,\"trace\":%d,"
      "\"descriptor\":{\"nproc\":%u,\"cpu_model\":\"%s\",\"compiler\":"
      "\"g++ %s\",\"build_type\":\"%s\",\"threads\":%zu,\"read_connections\":"
      "%zu,\"curator_connections\":1,\"read_mix_keys\":%zu,"
      "\"cache_capacity\":%zu},"
      "\"attempted\":%llu,\"failed\":%llu,\"checks\":%s,"
      "\"end_to_end\":%s,\"per_layer\":%s,\"trace_file\":\"%s\"}\n",
      spec->name.c_str(), static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(seconds), traced ? 1 : 0,
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      __VERSION__, PERFBENCH_BUILD_TYPE, kThreads, kReadConnections,
      record.read_mix_keys, kDefaultServeCacheCapacity,
      static_cast<unsigned long long>(record.attempted),
      static_cast<unsigned long long>(record.failed), checks.c_str(),
      MetricsJson(record.end_to_end).c_str(),
      MetricsJson(record.per_layer).c_str(), JsonEscape(trace_path).c_str());
  return 0;
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) { return lamo::Main(argc, argv); }
