// lamo_report_check — validates a JSON run report written by `lamo
// --report` against the schema documented in docs/FORMATS.md. Exits 0 when
// every required key is present with the right shape, 1 with a diagnostic
// otherwise. Extra arguments name counters that must be present *and*
// nonzero; a `hist:` prefix demands a histogram with a nonzero count
// instead. Used by the report_schema ctest; handy interactively too:
//
//   lamo mine --graph g.txt --report r.json
//   lamo_report_check r.json esu.subgraphs hist:esu.chunk_us
//
// Schema v2 adds the "histograms" object and the trace.dropped counter; v1
// reports (no histograms) are still accepted with a warning so archived
// reports keep checking out.
//
// Given a Chrome trace written by `--trace` instead (a top-level
// "traceEvents" array), it checks span nesting: every phase span that only
// exists inside a parent span (the update engine's phases inside
// update.apply / update.score_edge) must lie within one of its parents on
// the same thread, and the phases must cover at least 95% of the summed
// update.apply time (the update.update_us histogram's scope):
//
//   lamo serve --snapshot s.lamosnap --stdin --trace t.json < updates.txt
//   lamo_report_check t.json
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace lamo {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "report check failed: %s\n", message.c_str());
  return 1;
}

const JsonValue* RequireMember(const JsonValue& object, const char* key,
                               JsonValue::Type type, int* rc) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    *rc = Fail(std::string("missing key \"") + key + "\"");
    return nullptr;
  }
  if (value->type != type) {
    *rc = Fail(std::string("key \"") + key + "\" has the wrong type");
    return nullptr;
  }
  return value;
}

// A phase node needs name/wall_ms/children, recursively.
bool CheckPhase(const JsonValue& phase, int* rc) {
  if (RequireMember(phase, "name", JsonValue::Type::kString, rc) == nullptr)
    return false;
  if (RequireMember(phase, "wall_ms", JsonValue::Type::kNumber, rc) == nullptr)
    return false;
  const JsonValue* children =
      RequireMember(phase, "children", JsonValue::Type::kArray, rc);
  if (children == nullptr) return false;
  for (const JsonValue& child : children->items) {
    if (!CheckPhase(child, rc)) return false;
  }
  return true;
}

// Validates one histogram entry and its invariants: required numeric fields,
// bucket counts summing to "count", strictly increasing bucket bounds, and
// ordered percentiles confined to [min, max] (empty histograms may keep all
// fields at zero).
int CheckHistogram(const std::string& name, const JsonValue& hist) {
  const char* fields[] = {"count", "sum", "min", "max", "p50", "p90", "p99"};
  for (const char* field : fields) {
    const JsonValue* value = hist.Find(field);
    if (value == nullptr || !value->is_number()) {
      return Fail("histogram \"" + name + "\": missing numeric \"" + field +
                  "\"");
    }
  }
  const JsonValue* buckets = hist.Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return Fail("histogram \"" + name + "\": missing \"buckets\" array");
  }
  const double count = hist.Find("count")->number_value;
  double bucket_total = 0.0;
  double previous_hi = -1.0;
  for (const JsonValue& bucket : buckets->items) {
    const JsonValue* lo = bucket.Find("lo");
    const JsonValue* hi = bucket.Find("hi");
    const JsonValue* bucket_count = bucket.Find("count");
    if (lo == nullptr || !lo->is_number() || hi == nullptr ||
        !hi->is_number() || bucket_count == nullptr ||
        !bucket_count->is_number()) {
      return Fail("histogram \"" + name + "\": malformed bucket");
    }
    if (lo->number_value > hi->number_value) {
      return Fail("histogram \"" + name + "\": bucket with lo > hi");
    }
    if (lo->number_value <= previous_hi) {
      return Fail("histogram \"" + name + "\": bucket bounds not increasing");
    }
    if (bucket_count->number_value <= 0.0) {
      return Fail("histogram \"" + name + "\": empty bucket emitted");
    }
    previous_hi = hi->number_value;
    bucket_total += bucket_count->number_value;
  }
  if (bucket_total != count) {
    return Fail("histogram \"" + name + "\": bucket counts do not sum to " +
                std::to_string(static_cast<uint64_t>(count)));
  }
  if (count == 0.0) return 0;  // empty: percentiles/min/max are all zero
  const double min = hist.Find("min")->number_value;
  const double max = hist.Find("max")->number_value;
  const double p50 = hist.Find("p50")->number_value;
  const double p90 = hist.Find("p90")->number_value;
  const double p99 = hist.Find("p99")->number_value;
  if (min > max) return Fail("histogram \"" + name + "\": min > max");
  if (!(p50 <= p90 && p90 <= p99)) {
    return Fail("histogram \"" + name + "\": percentiles not monotone");
  }
  if (p50 < min || p99 > max) {
    return Fail("histogram \"" + name + "\": percentiles outside [min, max]");
  }
  return 0;
}

// ---- Chrome traces -----------------------------------------------------------

// A phase span that is only ever recorded inside one of `parents`.
struct NestingRule {
  const char* child;  // exact name, or a name prefix when `prefix`
  bool prefix;
  std::vector<const char*> parents;
};

const std::vector<NestingRule>& NestingRules() {
  static const std::vector<NestingRule> rules = {
      {"update.enumerate.k", true, {"update.apply", "update.score_edge"}},
      {"update.classify", false, {"update.apply", "update.score_edge"}},
      {"update.index_edit", false, {"update.apply", "update.score_edge"}},
      {"update.sites", false, {"update.apply"}},
      {"update.roles", false, {"update.apply"}},
      {"update.invalidate", false, {"update.apply"}},
  };
  return rules;
}

const NestingRule* RuleFor(const std::string& name) {
  for (const NestingRule& rule : NestingRules()) {
    if (rule.prefix ? name.rfind(rule.child, 0) == 0 : name == rule.child) {
      return &rule;
    }
  }
  return nullptr;
}

struct TraceSpan {
  std::string name;
  uint64_t tid = 0;
  double start = 0;
  double end = 0;
};

// Minimum share of update.apply time its nested phases must cover.
constexpr double kMinUpdateCoverage = 0.95;

int CheckTrace(const std::string& path, const JsonValue& trace,
               int num_required, char** required) {
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("traceEvents is not an array");
  }
  std::vector<TraceSpan> spans;
  for (const JsonValue& event : events->items) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string_value != "X") continue;
    const JsonValue* name = event.Find("name");
    const JsonValue* tid = event.Find("tid");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    if (name == nullptr || !name->is_string() || tid == nullptr ||
        !tid->is_number() || ts == nullptr || !ts->is_number() ||
        dur == nullptr || !dur->is_number()) {
      return Fail("malformed trace event");
    }
    spans.push_back(TraceSpan{name->string_value,
                              static_cast<uint64_t>(tid->number_value),
                              ts->number_value,
                              ts->number_value + dur->number_value});
  }
  // Parent spans by (thread, name); each nested span must fit in one, and
  // its time is credited to that parent's name.
  std::map<std::pair<uint64_t, std::string>, std::vector<const TraceSpan*>>
      parents;
  std::map<std::string, double> parent_total;
  std::map<std::string, double> child_total;
  for (const NestingRule& rule : NestingRules()) {
    for (const char* parent : rule.parents) parent_total[parent] += 0.0;
  }
  for (const TraceSpan& span : spans) {
    if (parent_total.count(span.name) > 0) {
      parents[{span.tid, span.name}].push_back(&span);
      parent_total[span.name] += span.end - span.start;
    }
  }
  for (const TraceSpan& span : spans) {
    const NestingRule* rule = RuleFor(span.name);
    if (rule == nullptr) continue;
    const char* found = nullptr;
    for (const char* parent : rule->parents) {
      const auto it = parents.find({span.tid, parent});
      if (it == parents.end()) continue;
      for (const TraceSpan* p : it->second) {
        if (p->start <= span.start && span.end <= p->end) {
          found = parent;
          break;
        }
      }
      if (found != nullptr) break;
    }
    if (found == nullptr) {
      return Fail("span \"" + span.name + "\" at ts " +
                  std::to_string(static_cast<uint64_t>(span.start)) +
                  " on thread " + std::to_string(span.tid) +
                  " lies outside every parent span it belongs to");
    }
    child_total[found] += span.end - span.start;
  }
  if (num_required > 0) {
    return Fail(std::string("trace checks take no extra arguments, got ") +
                required[0]);
  }
  for (const auto& [parent, total] : parent_total) {
    if (total <= 0.0) continue;
    const double covered = child_total[parent] / total;
    std::printf("%s: nested phases cover %.1f%% of %.0f us\n", parent.c_str(),
                100.0 * covered, total);
    // update.apply times exactly the update.update_us histogram; its phases
    // must account for nearly all of it, or a cost centre is unattributed.
    if (parent == "update.apply" && covered < kMinUpdateCoverage) {
      return Fail("nested phases cover " + std::to_string(covered) +
                  " of update.apply, below " +
                  std::to_string(kMinUpdateCoverage));
    }
  }
  std::printf("trace OK: %s\n", path.c_str());
  return 0;
}

int Check(const std::string& path, int num_required, char** required) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Fail("cannot open " + path);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);

  JsonValue report;
  std::string error;
  if (!ParseJson(text, &report, &error)) return Fail("bad JSON: " + error);
  if (!report.is_object()) return Fail("top level is not an object");
  if (report.Find("traceEvents") != nullptr) {
    return CheckTrace(path, report, num_required, required);
  }

  int rc = 0;
  const JsonValue* version = RequireMember(
      report, "lamo_report_version", JsonValue::Type::kNumber, &rc);
  if (version == nullptr) return rc;
  const bool v2 = version->number_value == 2.0;
  if (!v2 && version->number_value != 1.0) {
    return Fail("unsupported lamo_report_version");
  }
  if (!v2) {
    std::fprintf(stderr,
                 "warning: %s is a legacy v1 report (no histograms); "
                 "re-run with a current lamo build for schema v2\n",
                 path.c_str());
  }
  RequireMember(report, "command", JsonValue::Type::kString, &rc);
  RequireMember(report, "threads", JsonValue::Type::kNumber, &rc);
  RequireMember(report, "wall_ms", JsonValue::Type::kNumber, &rc);
  const JsonValue* phases =
      RequireMember(report, "phases", JsonValue::Type::kArray, &rc);
  const JsonValue* counters =
      RequireMember(report, "counters", JsonValue::Type::kObject, &rc);
  RequireMember(report, "gauges", JsonValue::Type::kObject, &rc);
  const JsonValue* histograms =
      v2 ? RequireMember(report, "histograms", JsonValue::Type::kObject, &rc)
         : nullptr;
  const JsonValue* workers =
      RequireMember(report, "workers", JsonValue::Type::kArray, &rc);
  if (rc != 0) return rc;

  for (const JsonValue& phase : phases->items) {
    if (!CheckPhase(phase, &rc)) return rc;
  }
  for (const auto& [name, value] : counters->members) {
    if (!value.is_number()) {
      return Fail("counter \"" + name + "\" not a number");
    }
  }
  if (v2) {
    // Schema v2 ships trace-loss accounting in every report, traced or not.
    const JsonValue* dropped = counters->Find("trace.dropped");
    if (dropped == nullptr || !dropped->is_number()) {
      return Fail("v2 report lacks the \"trace.dropped\" counter");
    }
    for (const auto& [name, hist] : histograms->members) {
      if (!hist.is_object()) {
        return Fail("histogram \"" + name + "\" not an object");
      }
      const int hist_rc = CheckHistogram(name, hist);
      if (hist_rc != 0) return hist_rc;
    }
  }
  const auto counter_value = [&](const char* name) {
    const JsonValue* value = counters->Find(name);
    return value != nullptr && value->is_number() ? value->number_value : 0.0;
  };
  // Serve reports: when the daemon recorded traffic, the serve.* metrics
  // must be mutually consistent — the cache can't have resolved more lookups
  // than there were requests, errors are a subset of requests, and every
  // request must have been timed into the serve.request_us histogram.
  const JsonValue* serve_requests = counters->Find("serve.requests");
  if (serve_requests != nullptr && serve_requests->is_number() &&
      serve_requests->number_value > 0.0) {
    const double requests = serve_requests->number_value;
    if (counter_value("serve.errors") > requests) {
      return Fail("serve.errors exceeds serve.requests");
    }
    if (counter_value("serve.cache_hits") +
            counter_value("serve.cache_misses") >
        requests) {
      return Fail("serve cache hits+misses exceed serve.requests");
    }
    // Access logging is sampled: at most one log line per request.
    if (counter_value("serve.access_logged") > requests) {
      return Fail("serve.access_logged exceeds serve.requests");
    }
    if (v2) {
      const JsonValue* hist = histograms->Find("serve.request_us");
      const JsonValue* count =
          hist == nullptr ? nullptr : hist->Find("count");
      if (count == nullptr || !count->is_number() ||
          count->number_value != requests) {
        return Fail(
            "histogram \"serve.request_us\" count does not match "
            "serve.requests");
      }
    }
  }
  // Router reports: the front-end only counts a backend request at the
  // moment it successfully proxies a client request, so the two counters
  // must agree exactly; retried requests are a subset of all requests; and
  // every client request must have been timed into router.request_us.
  const JsonValue* router_requests = counters->Find("router.requests");
  if (router_requests != nullptr && router_requests->is_number() &&
      router_requests->number_value > 0.0) {
    const double requests = router_requests->number_value;
    if (counter_value("router.backend_requests") !=
        counter_value("router.proxied")) {
      return Fail("router.backend_requests does not match router.proxied");
    }
    if (counter_value("router.retries") > requests) {
      return Fail("router.retries exceeds router.requests");
    }
    if (counter_value("router.errors") > requests) {
      return Fail("router.errors exceeds router.requests");
    }
    // ID conservation: every stamped request either reached a backend or
    // ended in a router-originated error — nothing double-counted, nothing
    // dropped. Guarded on presence so archived pre-tracing reports still
    // check out.
    if (counters->Find("router.ids_issued") != nullptr &&
        counter_value("router.ids_issued") !=
            counter_value("router.backend_requests") +
                counter_value("router.errors")) {
      return Fail(
          "router.ids_issued does not match router.backend_requests + "
          "router.errors");
    }
    if (v2) {
      const JsonValue* hist = histograms->Find("router.request_us");
      const JsonValue* count =
          hist == nullptr ? nullptr : hist->Find("count");
      if (count == nullptr || !count->is_number() ||
          count->number_value != requests) {
        return Fail(
            "histogram \"router.request_us\" count does not match "
            "router.requests");
      }
    }
  }
  // Predict reports must say which backend answered (the registry key in
  // the "annotations" object), so archived reports and A/B comparisons stay
  // attributable. Other commands may omit annotations — older reports
  // predate the key entirely.
  const JsonValue* command = report.Find("command");
  const JsonValue* annotations = report.Find("annotations");
  if (annotations != nullptr && !annotations->is_object()) {
    return Fail("\"annotations\" is not an object");
  }
  if (command != nullptr && command->is_string() &&
      command->string_value == "predict") {
    const JsonValue* predictor =
        annotations == nullptr ? nullptr : annotations->Find("predictor");
    if (predictor == nullptr || !predictor->is_string() ||
        predictor->string_value.empty()) {
      return Fail("predict report lacks annotations.predictor");
    }
  }
  // Predictor backends: every scored protein that produced a ranking had at
  // least one vote behind it, so predictions can never outnumber votes; and
  // the GDS signature matrix is per-protein rows of the 73 graphlet orbits,
  // so its cell counter must be a multiple of 73.
  if (counter_value("predict.predictions") > counter_value("predict.votes")) {
    return Fail("predict.predictions exceeds predict.votes");
  }
  {
    const double cells = counter_value("gds.signature_cells");
    if (cells != 73.0 * static_cast<uint64_t>(cells / 73.0)) {
      return Fail("gds.signature_cells is not a multiple of 73 orbits");
    }
  }
  // Shared canonicalization table: Lookup ticks the lookup counter and then
  // exactly one of hit/miss, so the totals must agree exactly on every run
  // that used the table.
  if (counters->Find("esu.canon_shared_lookups") != nullptr &&
      counter_value("esu.canon_shared_lookups") !=
          counter_value("esu.canon_shared_hits") +
              counter_value("esu.canon_shared_misses")) {
    return Fail(
        "esu.canon_shared_lookups does not match esu.canon_shared_hits + "
        "esu.canon_shared_misses");
  }
  // Checkpointed runs: a resume can only replay chunks the run actually
  // tracked, and atomic checkpoint/output replaces are durable — one fsynced
  // rename per write, so the two counters must agree exactly.
  if (counters->Find("checkpoint.resumed_chunks") != nullptr &&
      counter_value("checkpoint.resumed_chunks") >
          counter_value("checkpoint.total_chunks")) {
    return Fail("checkpoint.resumed_chunks exceeds checkpoint.total_chunks");
  }
  if (counter_value("checkpoint.writes") > 0.0 &&
      counter_value("checkpoint.writes") !=
          counter_value("checkpoint.fsyncs")) {
    return Fail("checkpoint.writes does not match checkpoint.fsyncs");
  }
  // Live-update runs: every applied edge mutation is exactly one ADDEDGE or
  // one DELEDGE; journal replay only re-applies updates that were counted as
  // applied; and the incremental path re-enumerates pair-anchored subgraphs
  // through the same ESU emit hook, so it can never claim more re-enumerated
  // subgraphs than the run's esu.subgraphs total. Guarded on presence so
  // reports from builds predating live updates still check out.
  if (counters->Find("update.applied") != nullptr) {
    if (counter_value("update.applied") !=
        counter_value("update.added") + counter_value("update.deleted")) {
      return Fail("update.applied does not match update.added + "
                  "update.deleted");
    }
    if (counter_value("update.journal_replayed") >
        counter_value("update.applied")) {
      return Fail("update.journal_replayed exceeds update.applied");
    }
    if (counters->Find("esu.subgraphs") != nullptr &&
        counter_value("update.resubgraphs") > counter_value("esu.subgraphs")) {
      return Fail("update.resubgraphs exceeds esu.subgraphs");
    }
  }
  for (const JsonValue& worker : workers->items) {
    if (RequireMember(worker, "name", JsonValue::Type::kString, &rc) ==
        nullptr)
      return rc;
    if (RequireMember(worker, "tasks", JsonValue::Type::kNumber, &rc) ==
        nullptr)
      return rc;
    if (RequireMember(worker, "counters", JsonValue::Type::kObject, &rc) ==
        nullptr)
      return rc;
  }

  // Demanded counters/histograms prove the pipeline recorded real work, not
  // just a well-shaped empty report.
  for (int i = 0; i < num_required; ++i) {
    if (std::strncmp(required[i], "hist:", 5) == 0) {
      const char* name = required[i] + 5;
      if (!v2) continue;  // v1 reports predate histograms
      const JsonValue* hist = histograms->Find(name);
      const JsonValue* count =
          hist == nullptr ? nullptr : hist->Find("count");
      if (count == nullptr || !count->is_number() ||
          count->number_value <= 0.0) {
        return Fail(std::string("histogram \"") + name +
                    "\" missing or empty");
      }
      continue;
    }
    const JsonValue* value = counters->Find(required[i]);
    if (value == nullptr || !value->is_number() || value->number_value <= 0.0) {
      return Fail(std::string("counter \"") + required[i] +
                  "\" missing or zero");
    }
  }
  std::printf("report OK: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lamo_report_check <report.json> "
                 "[required-nonzero-counter | hist:NAME ...]\n"
                 "       lamo_report_check <trace.json>\n");
    return 2;
  }
  return lamo::Check(argv[1], argc - 2, argv + 2);
}
