// neurobench — entry point.
//
//   neurobench --workload <name|all> --seed <n> [--seconds <s>]
//              [--trace <0|1>] [--out <dir>]
//
// Runs one workload (or all four in turn), prints every metric as
// `name value unit`, checks the answers, writes
// <out>/BENCH_neurobench_<workload>.json (and, traced,
// <out>/neurobench_trace_<workload>.json), and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end catalog (untraced) or the per-layer catalog
// (traced). Exits 1 when any operation or check failed.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include "neurobench.h"

namespace neurobench {
namespace {

struct Workload {
  const char* name;
  bool (*run)(const Options&, Report*);
};

const Workload kWorkloads[] = {
    {"serve_column", RunServeColumn},
    {"explore_scout", RunExploreScout},
    {"synapse_join", RunSynapseJoin},
    {"ingest_durable", RunIngestDurable},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end catalog: every workload reports each of these from its
/// untraced run. "op" is the workload's operation (README.md).
const MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"setup_s", "s"},
};

/// The per-layer catalog, reported by every traced run. A workload that
/// bypasses a layer reports 0 for it (README.md lists what each bypasses).
const MetricSpec kPerLayer[] = {
    {"setup.generate_s", "s"},
    {"setup.load_s", "s"},
    {"setup.build_flat_s", "s"},
    {"setup.build_rtree_s", "s"},
    {"setup.build_grid_s", "s"},
    {"setup.build_sharded_s", "s"},
    {"engine.range_self_us", "us"},
    {"engine.knn_self_us", "us"},
    {"engine.warm_wait_us", "us"},
    {"engine.read_repins", "count"},
    {"engine.session_open_us", "us"},
    {"engine.join_self_us", "us"},
    {"engine.commit_self_us", "us"},
    {"engine.group_size", "commits"},
    {"engine.compact_ms", "ms"},
    {"engine.delta_records", "count"},
    {"engine.recover_s", "s"},
    {"backend.flat.range_us", "us"},
    {"backend.flat.knn_us", "us"},
    {"backend.flat.pages_per_range", "pages"},
    {"backend.flat.pages_per_knn", "pages"},
    {"backend.flat.scanned_per_result", "ratio"},
    {"backend.flat.range_sim_us", "us"},
    {"backend.rtree.range_us", "us"},
    {"backend.rtree.knn_us", "us"},
    {"backend.rtree.pages_per_range", "pages"},
    {"backend.rtree.pages_per_knn", "pages"},
    {"backend.rtree.scanned_per_result", "ratio"},
    {"backend.rtree.range_sim_us", "us"},
    {"backend.grid.range_us", "us"},
    {"backend.grid.knn_us", "us"},
    {"backend.grid.pages_per_range", "pages"},
    {"backend.grid.pages_per_knn", "pages"},
    {"backend.grid.scanned_per_result", "ratio"},
    {"backend.grid.range_sim_us", "us"},
    {"backend.sharded.range_us", "us"},
    {"backend.sharded.knn_us", "us"},
    {"backend.sharded.pages_per_range", "pages"},
    {"backend.sharded.pages_per_knn", "pages"},
    {"backend.sharded.scanned_per_result", "ratio"},
    {"backend.sharded.range_sim_us", "us"},
    {"flat.range_us", "us"},
    {"flat.seed_nodes_per_query", "nodes"},
    {"flat.crawl_pages_per_query", "pages"},
    {"flat.knn_rings_per_query", "rings"},
    {"rtree.leaf_nodes_per_query", "nodes"},
    {"rtree.inner_nodes_per_query", "nodes"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_misses_per_query", "pages"},
    {"storage.evictions_per_query", "pages"},
    {"storage.sim_us_per_read", "us"},
    {"storage.wal_write_us", "us"},
    {"storage.fsync_us", "us"},
    {"storage.fsyncs_per_commit", "ratio"},
    {"storage.write_amp", "ratio"},
    {"storage.page_read_us", "us"},
    {"cache.step_hit_fraction", "ratio"},
    {"cache.delta_volume_fraction", "ratio"},
    {"cache.plan_us", "us"},
    {"scout.stall_sim_us", "us"},
    {"scout.stall_saved_sim_us", "us"},
    {"scout.prefetch_us_per_step", "us"},
    {"scout.prefetched_per_step", "pages"},
    {"scout.prefetch_precision", "ratio"},
    {"touch.build_s", "s"},
    {"touch.assign_s", "s"},
    {"touch.probe_s", "s"},
    {"touch.mbr_tests_per_pair", "ratio"},
    {"touch.refine_tests_per_pair", "ratio"},
    {"touch.filtered_fraction", "ratio"},
    {"touch.peak_mb", "MB"},
    {"obs.metrics_on_overhead_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage", "ratio"},
};

/// Shortest round-trip rendering: every digit as measured, nothing more.
std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

template <size_t N>
std::string CatalogJson(const MetricSpec (&catalog)[N], const Report& report,
                        const std::string& prefix) {
  std::string out;
  for (const MetricSpec& spec : catalog) {
    auto it = report.values().find(spec.name);
    const double value = it == report.values().end() ? 0.0 : it->second.value;
    if (!out.empty()) out += ", ";
    out += Quote(prefix + spec.name) + ": {\"value\": " + Num(value) +
           ", \"unit\": " + Quote(spec.unit) + "}";
  }
  return out;
}

/// BENCH_neurobench_<workload>.json: every metric the run measured.
bool WriteBenchJson(const Options& options, const Report& report) {
  const std::string path =
      options.out_dir + "/BENCH_neurobench_" + options.workload + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm* utc = std::gmtime(&now)) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", utc);
  }
  std::fprintf(f,
               "{\"bench\": \"neurobench\", \"workload\": \"%s\", "
               "\"generated_at\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
               "\"trace\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               options.workload.c_str(), stamp,
               static_cast<unsigned long long>(options.seed),
               Num(options.seconds).c_str(), options.trace ? "true" : "false",
               static_cast<unsigned long long>(report.attempted()),
               static_cast<unsigned long long>(report.failed()));
  bool first = true;
  for (const auto& [name, v] : report.values()) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 first ? "" : ",", name.c_str(), Num(v.value).c_str(),
                 v.unit.c_str());
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

/// Runs one workload; prints its metric lines and writes its JSON file.
bool RunOne(const Workload& workload, Options options, Report* report) {
  options.workload = workload.name;
  std::printf("# workload %s seed %llu seconds %s %s\n", workload.name,
              static_cast<unsigned long long>(options.seed),
              Num(options.seconds).c_str(),
              options.trace ? "traced" : "untraced");
  std::fflush(stdout);
  if (!workload.run(options, report)) {
    report->Fail(std::string(workload.name) + ": run aborted");
    return false;
  }
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      if (!report->Has(spec.name)) {
        report->Fail(std::string("missing end-to-end metric ") + spec.name);
      }
    }
    report->Set("error_rate",
                Ratio(static_cast<double>(report->failed()),
                      static_cast<double>(report->attempted())),
                "ratio");
  }
  for (const auto& [name, v] : report->values()) {
    std::printf("%s %s %s\n", name.c_str(), Num(v.value).c_str(),
                v.unit.c_str());
  }
  if (!WriteBenchJson(options, *report)) {
    std::fprintf(stderr, "cannot write BENCH_neurobench_%s.json\n",
                 workload.name);
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: neurobench --workload <name|all> --seed <n> "
               "[--seconds <s>] [--trace <0|1>] [--out <dir>]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || !(options.seconds > 0)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (options.workload == "all" || options.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) return Usage();

  uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Workload* w : selected) {
    Report report;
    RunOne(*w, options, &report);
    attempted += report.attempted();
    failed += report.failed();
    // `all` prefixes each workload's metrics with its name.
    const std::string prefix =
        selected.size() > 1 ? std::string(w->name) + "." : "";
    if (!metrics.empty()) metrics += ", ";
    metrics += options.trace ? CatalogJson(kPerLayer, report, prefix)
                             : CatalogJson(kEndToEnd, report, prefix);
  }
  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace neurobench

int main(int argc, char** argv) { return neurobench::Main(argc, argv); }
