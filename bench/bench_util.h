// NeuroDB — shared helpers for the benchmark harnesses.
//
// Each bench binary reproduces one exhibit/claim of the paper (see
// DESIGN.md Section 6 and EXPERIMENTS.md) and prints its rows through
// common/table.h. Everything is seeded and sized to run in seconds on a
// laptop while preserving the paper's effect shapes. Benches that track a
// performance trajectory additionally emit a machine-readable
// BENCH_<name>.json next to the binary via JsonEmitter, so CI runs can be
// diffed over time.

#ifndef NEURODB_BENCH_BENCH_UTIL_H_
#define NEURODB_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/session.h"
#include "flat/flat_index.h"
#include "geom/aabb.h"
#include "neuro/circuit.h"
#include "neuro/circuit_generator.h"
#include "scout/session.h"
#include "storage/page_store.h"

namespace neurodb {
namespace bench {

/// Standard microcircuit used by the exhibit benches: a cortical column
/// with strongly non-uniform layer densities (the demo's dense/sparse
/// regions). ~`neurons` cells, ~1-2k segments each.
inline neuro::Circuit MakeColumn(uint32_t neurons, uint64_t seed) {
  neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  // Layer 2 dense, layer 5 sparse — mirrors neocortex counts.
  params.layer_weights = {0.05f, 0.40f, 0.25f, 0.20f, 0.10f};
  auto circuit = neuro::CircuitGenerator(params).Generate();
  if (!circuit.ok()) {
    std::fprintf(stderr, "circuit generation failed: %s\n",
                 circuit.status().ToString().c_str());
    std::abort();
  }
  return std::move(circuit).value();
}

/// The paper-figure walkthrough: replay `queries` through a fresh
/// engine::Session over a standalone FLAT index (cold pool, fresh clock)
/// and return the session's summary.
inline Result<scout::SessionResult> Walkthrough(
    const flat::FlatIndex& index, storage::PageStore* store,
    const neuro::SegmentResolver& resolver,
    const std::vector<geom::Aabb>& queries, scout::PrefetchMethod method,
    const scout::SessionOptions& options) {
  NEURODB_ASSIGN_OR_RETURN(
      engine::Session session,
      engine::Session::Open(&index, store, &resolver, method, options));
  for (const geom::Aabb& box : queries) {
    NEURODB_RETURN_NOT_OK(session.Step(box).status());
  }
  return session.Summary();
}

/// Nanoseconds rendered as milliseconds with 2 decimals.
inline std::string Ms(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ns / 1e6);
  return buf;
}

/// Simulated microseconds rendered as milliseconds.
inline std::string UsToMs(uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us / 1e3);
  return buf;
}

/// One row of a JSON benchmark record: flat key → number/string fields in
/// insertion order.
class JsonRow {
 public:
  JsonRow& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonRow& Int(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRow& Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + Escaped(value) + '"');
    return *this;
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"' + Escaped(fields_[i].first) + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  /// (key, pre-rendered JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects rows and writes BENCH_<name>.json into the working directory:
///   {"bench": "<name>", "generated_at": "<ISO-8601 UTC>", "threads": N,
///    "rows": [{...}, ...], "metrics": {...}}
/// The perf-trajectory format CI archives after each run. Every file is
/// stamped with the wall-clock time and hardware thread count so archived
/// trajectories are self-describing; benches that run a QueryEngine can
/// attach its end-of-run metrics snapshot via SetMetricsJson.
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string name) : name_(std::move(name)) {}

  void AddRow(const JsonRow& row) { rows_.push_back(row.Render()); }

  /// Attach a pre-rendered JSON object (typically
  /// `engine.MetricsSnapshot().ToJson()`) written verbatim under the
  /// "metrics" key. Empty string: key omitted.
  void SetMetricsJson(std::string json) { metrics_json_ = std::move(json); }

  /// Write the file; returns false (with a note on stderr) on I/O failure.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonEmitter: cannot open %s\n", path.c_str());
      return false;
    }
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm* utc = std::gmtime(&now)) {
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", utc);
    }
    std::fprintf(f,
                 "{\"bench\": \"%s\", \"generated_at\": \"%s\", "
                 "\"threads\": %u, \"rows\": [\n",
                 name_.c_str(), stamp, std::thread::hardware_concurrency());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]%s", metrics_json_.empty() ? "" : ",\n\"metrics\": ");
    if (!metrics_json_.empty()) std::fputs(metrics_json_.c_str(), f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
  std::string metrics_json_;
};

}  // namespace bench
}  // namespace neurodb

#endif  // NEURODB_BENCH_BENCH_UTIL_H_
