#include "obs/trace.h"

#include <atomic>
#include <cstdio>

#include "obs/json.h"
#include "util/atomic_io.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Registry of span names (separate dense id space from counters).
struct SpanRegistry {
  std::mutex mu;
  std::vector<std::string> names;  // guarded by mu
};

SpanRegistry& Registry() {
  static SpanRegistry* registry = new SpanRegistry();
  return *registry;
}

std::atomic<TraceCollector*> g_collector{nullptr};
std::atomic<uint64_t> g_epoch_source{0};

/// Events lost to ring overflow, also reported in run reports (schema v2
/// requires this counter so dashboards can tell a complete trace from a
/// truncated one).
const size_t kObsTraceDropped = ObsCounterId("trace.dropped");

/// Per-thread cache of the ring belonging to the installed collector; the
/// epoch check invalidates it on a collector swap (same scheme as the
/// counter-block cache in obs.cc).
struct TlsRingCache {
  uint64_t epoch = 0;
  TraceCollector::Ring* ring = nullptr;
};
thread_local TlsRingCache tls_ring;

}  // namespace

size_t ObsSpanId(const std::string& name) {
  SpanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (size_t id = 0; id < registry.names.size(); ++id) {
    if (registry.names[id] == name) return id;
  }
  LAMO_CHECK_LT(registry.names.size(), kMaxObsSpans)
      << "too many trace span names; raise kMaxObsSpans";
  registry.names.push_back(name);
  return registry.names.size() - 1;
}

std::vector<std::string> ObsSpanNames() {
  SpanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.names;
}

TraceCollector* GetTraceCollector() {
  return g_collector.load(std::memory_order_acquire);
}

void SetTraceCollector(TraceCollector* collector) {
  g_collector.store(collector, std::memory_order_release);
  internal::SetObsActiveBit(kObsTraceBit, collector != nullptr);
}

bool TraceEnabled() {
  return g_collector.load(std::memory_order_relaxed) != nullptr;
}

void TraceRecordSpan(size_t span_id,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end,
                     uint64_t arg0, uint64_t arg1, size_t num_args) {
  TraceCollector* collector = g_collector.load(std::memory_order_acquire);
  if (collector == nullptr) return;
  const uint64_t start_us = collector->MicrosSinceStart(start);
  const uint64_t end_us = collector->MicrosSinceStart(end);
  collector->Record(span_id, start_us,
                    end_us >= start_us ? end_us - start_us : 0, arg0, arg1,
                    num_args);
}

void TracePrepareThread() {
  TraceCollector* collector = g_collector.load(std::memory_order_acquire);
  if (collector != nullptr) collector->CurrentThreadRing();
}

TraceCollector::TraceCollector(size_t events_per_thread)
    : epoch_(g_epoch_source.fetch_add(1) + 1),
      start_(std::chrono::steady_clock::now()),
      events_per_thread_(events_per_thread == 0 ? 1 : events_per_thread) {}

TraceCollector::~TraceCollector() {
  TraceCollector* expected = this;
  if (g_collector.compare_exchange_strong(expected, nullptr)) {
    internal::SetObsActiveBit(kObsTraceBit, false);
  }
}

TraceCollector::Ring* TraceCollector::RingForCurrentThread() {
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<uint32_t>(rings_.size());
  ring->thread_name = internal::CurrentThreadName();
  ring->slots.resize(events_per_thread_);
  rings_.push_back(std::move(ring));
  return rings_.back().get();
}

TraceCollector::Ring* TraceCollector::CurrentThreadRing() {
  TlsRingCache& cache = tls_ring;
  if (cache.ring == nullptr || cache.epoch != epoch_) {
    cache.ring = RingForCurrentThread();
    cache.epoch = epoch_;
  }
  return cache.ring;
}

void TraceCollector::Record(size_t span_id, uint64_t start_us,
                            uint64_t dur_us, uint64_t arg0, uint64_t arg1,
                            size_t num_args) {
  Ring& ring = *CurrentThreadRing();
  const size_t capacity = ring.slots.size();
  if (ring.next >= capacity) ObsAdd(kObsTraceDropped, 1);
  TraceEvent& slot = ring.slots[ring.next % capacity];
  slot.span_id = static_cast<uint32_t>(span_id);
  slot.num_args = static_cast<uint8_t>(num_args);
  slot.start_us = start_us;
  slot.dur_us = dur_us;
  slot.args[0] = arg0;
  slot.args[1] = arg1;
  ++ring.next;
}

uint64_t TraceCollector::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    if (ring->next > ring->slots.size()) {
      dropped += ring->next - ring->slots.size();
    }
  }
  return dropped;
}

uint64_t TraceCollector::RecordedEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t recorded = 0;
  for (const auto& ring : rings_) recorded += ring->next;
  return recorded;
}

uint64_t TraceCollector::NowMicros() const {
  return MicrosSinceStart(std::chrono::steady_clock::now());
}

uint64_t TraceCollector::MicrosSinceStart(
    std::chrono::steady_clock::time_point t) const {
  if (t <= start_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - start_)
          .count());
}

std::string TraceCollector::ToJson() const {
  const std::vector<std::string> names = ObsSpanNames();
  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("otherData");
  json.BeginObject();
  json.Key("recorded");
  json.Int(RecordedEvents());
  json.Key("dropped");
  json.Int(DroppedEvents());
  json.EndObject();
  json.Key("traceEvents");
  json.BeginArray();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    // Chrome/Perfetto thread metadata: names the tid lane in the UI.
    json.BeginObject();
    json.Key("ph");
    json.String("M");
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(ring->tid);
    json.Key("name");
    json.String("thread_name");
    json.Key("args");
    json.BeginObject();
    json.Key("name");
    json.String(ring->thread_name);
    json.EndObject();
    json.EndObject();

    const size_t capacity = ring->slots.size();
    const uint64_t first =
        ring->next > capacity ? ring->next - capacity : 0;
    for (uint64_t i = first; i < ring->next; ++i) {
      const TraceEvent& event = ring->slots[i % capacity];
      json.BeginObject();
      json.Key("ph");
      json.String("X");
      json.Key("pid");
      json.Int(1);
      json.Key("tid");
      json.Int(ring->tid);
      json.Key("name");
      json.String(event.span_id < names.size() ? names[event.span_id]
                                               : "span?");
      json.Key("ts");
      json.Int(event.start_us);
      json.Key("dur");
      json.Int(event.dur_us);
      if (event.num_args > 0) {
        json.Key("args");
        json.BeginObject();
        json.Key("a0");
        json.Int(event.args[0]);
        if (event.num_args > 1) {
          json.Key("a1");
          json.Int(event.args[1]);
        }
        json.EndObject();
      }
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status TraceCollector::WriteFile(const std::string& path) const {
  return WriteFileAtomic(path, ToJson() + "\n");
}

}  // namespace lamo
