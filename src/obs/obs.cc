#include "obs/obs.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Registry of counter names; lives behind a function-local static so
/// namespace-scope ObsCounterId initializers in other translation units are
/// safe during static initialization.
struct CounterRegistry {
  std::mutex mu;
  std::vector<std::string> names;  // guarded by mu
};

CounterRegistry& Registry() {
  static CounterRegistry* registry = new CounterRegistry();
  return *registry;
}

/// Separate registry for histogram names (ids are a distinct dense space).
CounterRegistry& HistogramRegistry() {
  static CounterRegistry* registry = new CounterRegistry();
  return *registry;
}

size_t RegisterName(CounterRegistry& registry, const std::string& name,
                    size_t cap, const char* kind) {
  std::lock_guard<std::mutex> lock(registry.mu);
  for (size_t id = 0; id < registry.names.size(); ++id) {
    if (registry.names[id] == name) return id;
  }
  LAMO_CHECK_LT(registry.names.size(), cap)
      << "too many observability " << kind << "; raise the cap";
  registry.names.push_back(name);
  return registry.names.size() - 1;
}

std::atomic<ObsSink*> g_sink{nullptr};
std::atomic<uint64_t> g_epoch_source{0};
std::atomic<uint8_t> g_active_mask{0};

/// Per-thread cache of the block belonging to the installed sink. The epoch
/// check invalidates the cached pointer whenever the sink changes, so a
/// stale pointer from a destroyed sink is never dereferenced.
struct TlsCache {
  uint64_t epoch = 0;
  ObsSink::CounterBlock* block = nullptr;
};
thread_local TlsCache tls_cache;
thread_local std::string* tls_thread_name = nullptr;

}  // namespace

size_t ObsCounterId(const std::string& name) {
  return RegisterName(Registry(), name, kMaxObsCounters, "counters");
}

std::vector<std::string> ObsCounterNames() {
  CounterRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.names;
}

size_t ObsHistogramId(const std::string& name) {
  return RegisterName(HistogramRegistry(), name, kMaxObsHistograms,
                      "histograms");
}

std::vector<std::string> ObsHistogramNames() {
  CounterRegistry& registry = HistogramRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.names;
}

ObsSink* GetObsSink() { return g_sink.load(std::memory_order_acquire); }

void SetObsSink(ObsSink* sink) {
  g_sink.store(sink, std::memory_order_release);
  internal::SetObsActiveBit(kObsSinkBit, sink != nullptr);
}

uint8_t ObsActiveMask() {
  return g_active_mask.load(std::memory_order_relaxed);
}

namespace internal {
std::string CurrentThreadName() {
  return tls_thread_name != nullptr && !tls_thread_name->empty()
             ? *tls_thread_name
             : "main";
}

void SetObsActiveBit(uint8_t bit, bool on) {
  if (on) {
    g_active_mask.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_active_mask.fetch_and(static_cast<uint8_t>(~bit),
                            std::memory_order_relaxed);
  }
}
}  // namespace internal

bool ObsEnabled() {
  return g_sink.load(std::memory_order_relaxed) != nullptr;
}

void ObsAdd(size_t counter_id, uint64_t delta) {
  ObsSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  TlsCache& cache = tls_cache;
  if (cache.block == nullptr || cache.epoch != sink->epoch()) {
    cache.block = sink->BlockForCurrentThread();
    cache.epoch = sink->epoch();
  }
  cache.block->cells[counter_id].fetch_add(delta, std::memory_order_relaxed);
}

size_t ObsHistogramBucket(uint64_t value) {
  const size_t width = static_cast<size_t>(std::bit_width(value));
  return std::min(width, kObsHistogramBuckets - 1);
}

uint64_t ObsHistogramBucketLo(size_t bucket) {
  if (bucket == 0) return 0;
  return uint64_t{1} << (bucket - 1);
}

uint64_t ObsHistogramBucketHi(size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= kObsHistogramBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << bucket) - 1;
}

void ObsObserve(size_t histogram_id, uint64_t value) {
  ObsSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  TlsCache& cache = tls_cache;
  if (cache.block == nullptr || cache.epoch != sink->epoch()) {
    cache.block = sink->BlockForCurrentThread();
    cache.epoch = sink->epoch();
  }
  ObsSink::HistogramCells& cells = cache.block->histograms[histogram_id];
  cells.buckets[ObsHistogramBucket(value)].fetch_add(
      1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  // The owning thread is the only writer, so plain compare-then-store min/
  // max updates cannot lose; atomics make the snapshot reads race-free.
  if (value < cells.min.load(std::memory_order_relaxed)) {
    cells.min.store(value, std::memory_order_relaxed);
  }
  if (value > cells.max.load(std::memory_order_relaxed)) {
    cells.max.store(value, std::memory_order_relaxed);
  }
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  const double clamped_q = std::min(1.0, std::max(0.0, q));
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(clamped_q * count)));
  uint64_t seen = 0;
  for (size_t b = 0; b < kObsHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return std::min(max, std::max(min, ObsHistogramBucketHi(b)));
    }
  }
  return max;
}

HistogramSnapshot MergeHistograms(const HistogramSnapshot& a,
                                  const HistogramSnapshot& b) {
  HistogramSnapshot merged;
  merged.name = a.name.empty() ? b.name : a.name;
  merged.count = a.count + b.count;
  merged.sum = a.sum + b.sum;
  if (a.count == 0) {
    merged.min = b.min;
    merged.max = b.max;
  } else if (b.count == 0) {
    merged.min = a.min;
    merged.max = a.max;
  } else {
    merged.min = std::min(a.min, b.min);
    merged.max = std::max(a.max, b.max);
  }
  for (size_t i = 0; i < kObsHistogramBuckets; ++i) {
    merged.buckets[i] = a.buckets[i] + b.buckets[i];
  }
  return merged;
}

void ObsSetThreadName(const std::string& name) {
  // Never freed on purpose: thread_local destructor order versus pool
  // teardown is not worth reasoning about for one small string per thread.
  // Each string is parked in a process-lifetime registry so it stays
  // reachable after its thread exits (keeps LeakSanitizer quiet when a
  // short-lived ThreadPool — e.g. one per server run — is torn down).
  if (tls_thread_name == nullptr) {
    tls_thread_name = new std::string();
    static std::mutex* mu = new std::mutex();
    static std::vector<std::string*>* parked = new std::vector<std::string*>();
    const std::lock_guard<std::mutex> lock(*mu);
    parked->push_back(tls_thread_name);
  }
  *tls_thread_name = name;
  // A block created before the rename keeps working; relabel it.
  ObsSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink != nullptr && tls_cache.block != nullptr &&
      tls_cache.epoch == sink->epoch()) {
    tls_cache.block->thread_name = name;
  }
}

ObsSink::ObsSink()
    : epoch_(g_epoch_source.fetch_add(1) + 1), start_(Clock::now()) {}

ObsSink::~ObsSink() {
  // Auto-uninstall so stale global pointers cannot outlive the sink.
  ObsSink* expected = this;
  if (g_sink.compare_exchange_strong(expected, nullptr)) {
    internal::SetObsActiveBit(kObsSinkBit, false);
  }
}

ObsSink::CounterBlock* ObsSink::BlockForCurrentThread() {
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.push_back(std::make_unique<CounterBlock>());
  blocks_.back()->thread_name =
      tls_thread_name != nullptr && !tls_thread_name->empty()
          ? *tls_thread_name
          : "main";
  return blocks_.back().get();
}

void ObsSink::BeginPhase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PhaseNode>* container =
      phase_stack_.empty() ? &root_phases_ : &phase_stack_.back()->children;
  container->push_back(PhaseNode{name, 0.0, {}});
  phase_stack_.push_back(&container->back());
  phase_starts_.push_back(Clock::now());
}

void ObsSink::EndPhase() {
  std::lock_guard<std::mutex> lock(mu_);
  LAMO_CHECK(!phase_stack_.empty()) << "EndPhase without matching BeginPhase";
  phase_stack_.back()->wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                phase_starts_.back())
          .count();
  phase_stack_.pop_back();
  phase_starts_.pop_back();
}

void ObsSink::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

std::map<std::string, uint64_t> ObsSink::CounterTotals() const {
  const std::vector<std::string> names = ObsCounterNames();
  std::map<std::string, uint64_t> totals;
  for (const std::string& name : names) totals[name] = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& block : blocks_) {
    for (size_t id = 0; id < names.size(); ++id) {
      totals[names[id]] += block->cells[id].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

std::vector<WorkerCounters> ObsSink::PerThreadCounters() const {
  const std::vector<std::string> names = ObsCounterNames();
  std::vector<WorkerCounters> result;
  std::lock_guard<std::mutex> lock(mu_);
  result.reserve(blocks_.size());
  for (const auto& block : blocks_) {
    WorkerCounters wc;
    wc.thread_name = block->thread_name;
    for (size_t id = 0; id < names.size(); ++id) {
      wc.counters[names[id]] =
          block->cells[id].load(std::memory_order_relaxed);
    }
    result.push_back(std::move(wc));
  }
  return result;
}

std::map<std::string, double> ObsSink::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::vector<HistogramSnapshot> ObsSink::Histograms() const {
  const std::vector<std::string> names = ObsHistogramNames();
  std::vector<HistogramSnapshot> result(names.size());
  for (size_t id = 0; id < names.size(); ++id) result[id].name = names[id];
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& block : blocks_) {
    for (size_t id = 0; id < names.size(); ++id) {
      const HistogramCells& cells = block->histograms[id];
      HistogramSnapshot part;
      part.name = names[id];
      for (size_t b = 0; b < kObsHistogramBuckets; ++b) {
        part.buckets[b] = cells.buckets[b].load(std::memory_order_relaxed);
        part.count += part.buckets[b];
      }
      if (part.count == 0) continue;
      part.sum = cells.sum.load(std::memory_order_relaxed);
      part.min = cells.min.load(std::memory_order_relaxed);
      part.max = cells.max.load(std::memory_order_relaxed);
      result[id] = MergeHistograms(result[id], part);
    }
  }
  return result;
}

std::vector<PhaseNode> ObsSink::Phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PhaseNode> phases = root_phases_;
  // Open phases have wall_ms 0 in the copy; patch in elapsed-so-far times by
  // walking the open chain (the stack holds pointers into the originals, so
  // the copy is patched positionally: each open phase is the last child at
  // its depth).
  const Clock::time_point now = Clock::now();
  std::vector<PhaseNode>* level = &phases;
  for (size_t depth = 0; depth < phase_stack_.size(); ++depth) {
    if (level->empty()) break;
    PhaseNode& open = level->back();
    open.wall_ms = std::chrono::duration<double, std::milli>(
                       now - phase_starts_[depth])
                       .count();
    level = &open.children;
  }
  return phases;
}

double ObsSink::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_)
      .count();
}

ScopedTimer::ScopedTimer(const std::string& name) : sink_(GetObsSink()) {
  if (sink_ != nullptr) sink_->BeginPhase(name);
  if (TraceEnabled()) {
    // Orchestration-level only, so the by-name registry lookup is fine here.
    span_id_ = ObsSpanId(name);
    TracePrepareThread();
    span_start_ = std::chrono::steady_clock::now();
    span_active_ = true;
  }
}

ScopedTimer::~ScopedTimer() {
  if (span_active_) {
    TraceRecordSpan(span_id_, span_start_, std::chrono::steady_clock::now());
  }
  if (sink_ != nullptr) sink_->EndPhase();
}

}  // namespace lamo
