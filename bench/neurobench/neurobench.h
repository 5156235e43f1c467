// neurobench — the NeuroDB end-to-end and per-layer benchmark.
//
// One binary runs four workloads at 10^5–10^6 elements (README.md has the
// workload table and the metric catalog). This header holds what the
// workloads share: run options, latency samples, the metric report,
// the bench-side span recorder, the timing file system and the read mix
// that serve_column and ingest_durable send.
//
// Every layer is measured from outside the program, by timing calls into
// the layer's public functions; nothing under src/ knows about the bench.

#ifndef NEUROBENCH_NEUROBENCH_H_
#define NEUROBENCH_NEUROBENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "neuro/circuit.h"
#include "neuro/workload.h"
#include "storage/disk/file.h"

namespace neurobench {

using namespace neurodb;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  /// Drives every request and op stream (the circuits are fixed).
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  /// Per-layer run: spans, replays and the per-layer metric catalog.
  bool trace = false;
  /// Where BENCH_neurobench_<w>.json, the trace and durable data go.
  std::string out_dir = ".";
};

/// A 64-bit mix of `a` and `b` (splitmix64 finalizer): derives the
/// independent sub-seeds of one --seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// Latency samples in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Mean() const;
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

/// x / y, or 0 when y is 0.
inline double Ratio(double x, double y) { return y == 0 ? 0.0 : x / y; }

/// (traced / plain − 1) × 100 on mean op latency: what tracing costs.
double OverheadPct(const Samples& plain, const Samples& traced);

/// Metrics and failure accounting of one workload run. Attempt and Fail
/// are thread-safe; Set is called from the driving thread only.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Operations attempted (timed ones and correctness checks alike).
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// One failed operation or check: logged and counted; any failure makes
  /// the run incorrect.
  void Fail(const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  struct Value {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Value>& values() const { return values_; }

 private:
  std::map<std::string, Value> values_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer. `parent` is the span that caused it (0 =
/// root); spans of one request share `request`. Replays measured after the
/// request name the request's span as parent: their time is attributed to
/// it, which is how a layer's self time is taken from outside.
struct Span {
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span store of the traced run; written out when it ends.
/// Thread-safe. Span ids are 1-based positions; names must be string
/// literals (or otherwise outlive the recorder).
class SpanRecorder {
 public:
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  /// A span whose interval the caller already measured.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns);

  /// Mean duration (µs) of the spans named `name`; 0 when there are none.
  double MeanUs(const std::string& name) const;
  /// Mean self time (µs) of the `name` spans that have children: duration
  /// minus the summed duration of the spans naming it as parent.
  double MeanSelfUs(const std::string& name) const;
  /// Σ child-span time ÷ Σ root-span time, over roots that have children:
  /// how much of the end-to-end time the measured layers account for.
  double Coverage() const;

  bool WriteJson(const std::string& path, const std::string& workload) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The span the calling thread is inside (0: none). The timing file system
/// parents its I/O spans here, so device time nests under the engine call
/// that caused it.
uint64_t CurrentSpan();

/// Begin/End of one span around a scope; also makes it the thread's
/// current span. A null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* spans_;
  uint64_t id_ = 0;
  uint64_t saved_ = 0;
};

// ---------------------------------------------------------------------------
// Timing file system
// ---------------------------------------------------------------------------

/// A point-in-time copy of the TimedFileSystem counters.
struct IoCounts {
  uint64_t wal_writes = 0;
  uint64_t wal_write_ns = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_sync_ns = 0;
  /// Every file: bytes handed to WriteAt, and Sync calls.
  uint64_t bytes_written = 0;
  uint64_t syncs = 0;
  /// Backend page files (<name>.pages): reads and their time.
  uint64_t page_reads = 0;
  uint64_t page_read_ns = 0;

  IoCounts operator-(const IoCounts& o) const;
};

/// Device-level counters of TimedFileSystem (IoCounts, kept atomically).
struct IoTimes {
  std::atomic<uint64_t> wal_writes{0};
  std::atomic<uint64_t> wal_write_ns{0};
  std::atomic<uint64_t> wal_syncs{0};
  std::atomic<uint64_t> wal_sync_ns{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> page_reads{0};
  std::atomic<uint64_t> page_read_ns{0};
  /// Where I/O spans go while tracing (null: no spans).
  std::atomic<SpanRecorder*> spans{nullptr};

  IoCounts Snapshot() const;
};

/// A FileSystem that times every WriteAt, Sync and ReadAt of the files it
/// opens (DurabilityOptions::fs) and passes them through — except Sync,
/// which sleeps kFlushUs in place of the device flush. The flush latency of
/// a shared machine's disk can swing several-fold from one minute to the
/// next, which would swamp the write path being measured; a fixed flush
/// keeps the protocol's cost (how many flushes, who waits for them) and
/// drops the device's. The flushing thread sleeps, leaving the CPU as it
/// would while the device works. While IoTimes::spans is set it also
/// records one span per WAL write, flush and page read.
class TimedFileSystem : public storage::FileSystem {
 public:
  static constexpr uint64_t kFlushUs = 500;

  TimedFileSystem(storage::FileSystem* base, IoTimes* times)
      : base_(base), times_(times) {}

  Result<std::unique_ptr<storage::File>> Open(const std::string& path,
                                              bool truncate) override;
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(
      const std::string& path) const override {
    return base_->ListDir(path);
  }

 private:
  storage::FileSystem* base_;
  IoTimes* times_;
};

// ---------------------------------------------------------------------------
// Circuits and the read mix
// ---------------------------------------------------------------------------

/// Generator seed of every circuit. The circuit is the fixed data set; the
/// run's --seed drives the request and op streams over it.
inline constexpr uint64_t kCircuitSeed = 42;

/// The exhibit benches' cortical column: ~`neurons` cells with strongly
/// non-uniform layer densities (~435 segments per cell).
neuro::Circuit MakeColumn(uint32_t neurons, uint64_t seed);

/// The four single backends a read rotates over.
inline constexpr engine::BackendChoice kBackends[] = {
    engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
    engine::BackendChoice::kGrid, engine::BackendChoice::kSharded};
inline constexpr const char* kBackendNames[] = {"flat", "rtree", "grid",
                                                "sharded"};

/// The backend (index into kBackends) request `i` of stream `seed` runs on.
inline size_t BackendIndex(uint64_t seed, uint64_t i) {
  return Mix(seed, i) % 4;
}

/// Request `i` of read stream `seed`: the serve_column mix of 30% kNN
/// with k 1–32 and ranges with cube side 8–60 µm, half of them centred on
/// one of `elements`.
neuro::WorkloadQuery ReadRequest(const geom::Aabb& domain,
                                 const geom::ElementVec& elements,
                                 uint64_t seed, uint64_t i);

/// What one read returned.
struct ReadResult {
  bool ok = false;
  /// The first attempt answered kOutOfRange and the read was re-pinned.
  bool repinned = false;
  /// Range cardinality, or the kNN hit count.
  uint64_t results = 0;
  std::vector<geom::KnnHit> hits;
  /// Modeled (SimClock) time of the executing backend.
  uint64_t sim_us = 0;
  storage::PoolCounters pool;
  std::string error;
};

/// Execute `q` on `backend` with kWarm pools. Follows the documented re-pin
/// contract: a read whose default-epoch pin was retired (kOutOfRange) is
/// retried once at the current epoch.
ReadResult RunRead(engine::QueryEngine& db, const neuro::WorkloadQuery& q,
                   engine::BackendChoice backend);

/// A read remembered for a correctness check or a per-layer replay.
struct KeptRead {
  uint64_t index = 0;
  neuro::WorkloadQuery query;
  size_t backend = 0;
  ReadResult result;
  double us = 0.0;
  /// The read's root span (0 when untraced).
  uint64_t span = 0;
  /// Re-run as kAll after the window (serve_column's parity check).
  bool check = false;
};

/// What a set of read clients saw.
struct ReadStats {
  Samples all, range, knn;
  uint64_t repins = 0;
  /// Modeled time summed over range reads.
  uint64_t range_sim_us = 0;
  storage::PoolCounters pool;
  std::vector<KeptRead> kept;

  void Merge(ReadStats&& other);
};

/// Which reads a client remembers: every `check_every`-th for the parity
/// check (0: none) and, traced, every `replay_every`-th for replays.
struct KeepPolicy {
  uint64_t check_every = 0;
  uint64_t replay_every = 0;
};

/// Sends read `i` of `stream` (on the backend BackendIndex picks) as one
/// root span, and records it in `stats`; a failed read goes to `report`.
void SendRead(engine::QueryEngine& db, const geom::ElementVec& elements,
               uint64_t stream, uint64_t i, const KeepPolicy& keep,
               SpanRecorder* spans, ReadStats* stats, Report* report);

/// Per-layer replays of kept reads: through every backend directly on
/// bench-owned pools (warm, then cold) and through FlatIndex. Sets the
/// backend.*, rtree.* and flat.* metrics. With `attribute` — the data has
/// not changed since the reads ran — the replay on the backend the engine
/// used becomes the read's child span and engine.{range,knn}_self_us are
/// set.
void ReplayReadLayers(engine::QueryEngine& db,
                      const std::vector<KeptRead>& kept, bool attribute,
                      SpanRecorder* spans, Report* report);

/// Sets storage.pool_* , storage.sim_us_per_read and engine.read_repins.
void SetReadPoolMetrics(const ReadStats& reads, Report* report);

/// `count` range reads of their own stream checked against a brute-force
/// scan of `live` (the elements the engine must hold).
void CheckOracleRanges(engine::QueryEngine& db,
                       const geom::ElementVec& request_elements,
                       const geom::ElementVec& live, uint64_t stream,
                       uint64_t count, Report* report);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Each workload fills `report` with its metrics (the end-to-end catalog
/// without --trace, the per-layer catalog with it) and returns false only
/// when the run could not be carried out at all.
bool RunServeColumn(const Options& options, Report* report);
bool RunExploreScout(const Options& options, Report* report);
bool RunSynapseJoin(const Options& options, Report* report);
bool RunIngestDurable(const Options& options, Report* report);

/// A loaded column: the circuit, its elements and the engine over them.
struct Column {
  neuro::Circuit circuit;
  geom::ElementVec elements;
  std::unique_ptr<engine::QueryEngine> db;
};

/// Set-up: generates the column (kCircuitSeed) and loads it into a fresh
/// engine, replacing `column->db` (and a stale durable directory).
/// `setup_s` receives {generation, LoadCircuit} seconds.
bool LoadColumn(uint32_t neurons, const engine::EngineOptions& engine_options,
                Column* column, double setup_s[2]);

/// Untraced runs set up kEngines fresh engines in turn and spread the
/// measured window over them: set-up time is a median of several, and the
/// memory layout a process happens to get is averaged over rather than
/// sampled once. Traced runs set up one engine.
inline constexpr int kEngines = 3;

/// Times a standalone Build of each backend on `elements` (setup.build_*).
void MeasureBackendBuilds(const geom::ElementVec& elements,
                          const engine::EngineOptions& engine_options,
                          Report* report);

/// A measured window cut into slices. ops_per_s, op_p50_us and op_tail_us
/// come from the better tenth of the slices: the 90th percentile of the
/// per-slice rates, the 10th percentile of the per-slice latencies.
/// Interference from outside the process (other tenants of a shared
/// machine) only ever slows a slice, so the faster slices estimate the
/// program's own cost best; a percentile rather than the single best slice
/// keeps one lucky slice from deciding.
class Slices {
 public:
  void Add(const Samples& ops, double seconds);
  /// op_tail_us is the per-slice p99, or p90 when a slice holds fewer than
  /// 1000 ops: the highest of the two with at least ten samples beyond it
  /// in every slice. Slices of fewer than 100 ops (synapse_join's) support
  /// neither, and op_tail_us is then the slowest op of the run.
  /// `op_tail_pct` says which (100: the slowest), `samples` counts the ops.
  void SetOpMetrics(Report* report) const;

 private:
  std::vector<Samples> ops_;
  Samples rate_;
};

/// Writes <out>/neurobench_trace_<workload>.json.
void WriteTrace(const Options& options, const SpanRecorder& spans);

}  // namespace neurobench

#endif  // NEUROBENCH_NEUROBENCH_H_
