// neurobench — shared infrastructure (see neurobench.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "engine/flat_backend.h"
#include "engine/grid_backend.h"
#include "engine/rtree_backend.h"
#include "engine/sharded_backend.h"
#include "neuro/circuit_generator.h"
#include "neurobench.h"

namespace neurobench {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Samples and Report
// ---------------------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

double OverheadPct(const Samples& plain, const Samples& traced) {
  return (Ratio(traced.Mean(), plain.Mean()) - 1.0) * 100.0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
thread_local uint64_t current_span = 0;
}  // namespace

uint64_t CurrentSpan() { return current_span; }

uint64_t SpanRecorder::Begin(const char* name, uint64_t parent,
                             uint64_t request) {
  return Add(name, parent, request, NowNs(), 0);
}

void SpanRecorder::End(uint64_t id) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t SpanRecorder::Add(const char* name, uint64_t parent,
                           uint64_t request, uint64_t start_ns,
                           uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{parent, request, name, start_ns, end_ns});
  return spans_.size();
}

namespace {

double DurationUs(const Span& s) {
  return s.end_ns > s.start_ns ? (s.end_ns - s.start_ns) / 1e3 : 0.0;
}

/// Σ duration of each span's children, keyed by parent id.
std::unordered_map<uint64_t, double> ChildTime(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += DurationUs(s);
  }
  return child_us;
}

}  // namespace

double SpanRecorder::MeanUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      sum += DurationUs(s);
      ++n;
    }
  }
  return Ratio(sum, static_cast<double>(n));
}

double SpanRecorder::MeanSelfUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::unordered_map<uint64_t, double> child_us = ChildTime(spans_);
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    auto it = child_us.find(i + 1);
    if (it == child_us.end()) continue;
    sum += DurationUs(spans_[i]) - it->second;
    ++n;
  }
  return Ratio(sum, static_cast<double>(n));
}

double SpanRecorder::Coverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::unordered_map<uint64_t, double> child_us = ChildTime(spans_);
  double roots = 0.0, children = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) continue;
    auto it = child_us.find(i + 1);
    if (it == child_us.end()) continue;
    roots += DurationUs(spans_[i]);
    children += it->second;
  }
  return Ratio(children, roots);
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [\n", workload.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu}%s\n",
                 i + 1, static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* spans, const char* name,
                       uint64_t request)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  id_ = spans_->Begin(name, current_span, request);
  saved_ = current_span;
  current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (spans_ == nullptr) return;
  spans_->End(id_);
  current_span = saved_;
}

// ---------------------------------------------------------------------------
// Timing file system
// ---------------------------------------------------------------------------

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

class TimedFile : public storage::File {
 public:
  enum class Kind { kWal, kPages, kOther };

  TimedFile(std::unique_ptr<storage::File> base, Kind kind, IoTimes* times)
      : base_(std::move(base)), kind_(kind), times_(times) {}

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) const override {
    const uint64_t t0 = NowNs();
    Result<size_t> r = base_->ReadAt(offset, buf, n);
    if (kind_ == Kind::kPages) {
      const uint64_t t1 = NowNs();
      times_->page_reads.fetch_add(1, std::memory_order_relaxed);
      times_->page_read_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      Record("storage.page_read", t0, t1);
    }
    return r;
  }

  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    const uint64_t t0 = NowNs();
    Status s = base_->WriteAt(offset, buf, n);
    const uint64_t t1 = NowNs();
    times_->bytes_written.fetch_add(n, std::memory_order_relaxed);
    if (kind_ == Kind::kWal) {
      times_->wal_writes.fetch_add(1, std::memory_order_relaxed);
      times_->wal_write_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      Record("storage.wal_write", t0, t1);
    }
    return s;
  }

  Status Sync() override {
    const uint64_t t0 = NowNs();
    std::this_thread::sleep_for(
        std::chrono::microseconds(TimedFileSystem::kFlushUs));
    const uint64_t t1 = NowNs();
    times_->syncs.fetch_add(1, std::memory_order_relaxed);
    if (kind_ == Kind::kWal) {
      times_->wal_syncs.fetch_add(1, std::memory_order_relaxed);
      times_->wal_sync_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    }
    Record("storage.fsync", t0, t1);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  void Record(const char* name, uint64_t t0, uint64_t t1) const {
    SpanRecorder* spans = times_->spans.load(std::memory_order_relaxed);
    if (spans != nullptr) spans->Add(name, CurrentSpan(), 0, t0, t1);
  }

  std::unique_ptr<storage::File> base_;
  Kind kind_;
  IoTimes* times_;
};

}  // namespace

Result<std::unique_ptr<storage::File>> TimedFileSystem::Open(
    const std::string& path, bool truncate) {
  auto file = base_->Open(path, truncate);
  if (!file.ok()) return file.status();
  TimedFile::Kind kind = TimedFile::Kind::kOther;
  if (EndsWith(path, "wal.ndb")) kind = TimedFile::Kind::kWal;
  if (EndsWith(path, ".pages")) kind = TimedFile::Kind::kPages;
  return std::unique_ptr<storage::File>(
      std::make_unique<TimedFile>(std::move(*file), kind, times_));
}

IoCounts IoTimes::Snapshot() const {
  IoCounts c;
  c.wal_writes = wal_writes.load();
  c.wal_write_ns = wal_write_ns.load();
  c.wal_syncs = wal_syncs.load();
  c.wal_sync_ns = wal_sync_ns.load();
  c.bytes_written = bytes_written.load();
  c.syncs = syncs.load();
  c.page_reads = page_reads.load();
  c.page_read_ns = page_read_ns.load();
  return c;
}

IoCounts IoCounts::operator-(const IoCounts& o) const {
  IoCounts d;
  d.wal_writes = wal_writes - o.wal_writes;
  d.wal_write_ns = wal_write_ns - o.wal_write_ns;
  d.wal_syncs = wal_syncs - o.wal_syncs;
  d.wal_sync_ns = wal_sync_ns - o.wal_sync_ns;
  d.bytes_written = bytes_written - o.bytes_written;
  d.syncs = syncs - o.syncs;
  d.page_reads = page_reads - o.page_reads;
  d.page_read_ns = page_read_ns - o.page_read_ns;
  return d;
}

// ---------------------------------------------------------------------------
// Circuits
// ---------------------------------------------------------------------------

neuro::Circuit MakeColumn(uint32_t neurons, uint64_t seed) {
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

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

bool LoadColumn(uint32_t neurons, const engine::EngineOptions& engine_options,
                Column* column, double* setup_s) {
  column->db.reset();
  if (engine_options.durability.enabled()) {
    std::error_code ec;
    std::filesystem::remove_all(engine_options.durability.dir, ec);
  }
  const uint64_t t0 = NowNs();
  column->circuit = MakeColumn(neurons, kCircuitSeed);
  const uint64_t t1 = NowNs();
  column->db = std::make_unique<engine::QueryEngine>(engine_options);
  Status status = column->db->LoadCircuit(column->circuit);
  const uint64_t t2 = NowNs();
  if (!status.ok()) {
    std::fprintf(stderr, "LoadCircuit failed: %s\n", status.ToString().c_str());
    return false;
  }
  if (column->elements.empty()) {
    column->elements = column->circuit.FlattenSegments().Elements();
    std::printf("# %zu elements, %zu neurons\n", column->elements.size(),
                column->circuit.NumNeurons());
  }
  setup_s[0] = (t1 - t0) / 1e9;
  setup_s[1] = (t2 - t1) / 1e9;
  return true;
}

namespace {

double TimeBuild(engine::SpatialBackend* backend,
                 const geom::ElementVec& elements, Report* report) {
  const uint64_t t0 = NowNs();
  Status status = backend->Build(elements);
  const uint64_t t1 = NowNs();
  report->Attempt();
  if (!status.ok()) {
    report->Fail(std::string(backend->name()) + " Build: " + status.ToString());
  }
  return (t1 - t0) / 1e9;
}

}  // namespace

void MeasureBackendBuilds(const geom::ElementVec& elements,
                          const engine::EngineOptions& engine_options,
                          Report* report) {
  {
    engine::FlatBackend flat(engine_options.flat);
    report->Set("setup.build_flat_s", TimeBuild(&flat, elements, report),
                "s");
  }
  {
    engine::PagedRTreeBackend rtree(engine_options.rtree);
    report->Set("setup.build_rtree_s", TimeBuild(&rtree, elements, report),
                "s");
  }
  {
    engine::GridBackend grid(engine_options.grid);
    report->Set("setup.build_grid_s", TimeBuild(&grid, elements, report),
                "s");
  }
  {
    engine::ShardedBackend sharded(engine_options.sharded);
    report->Set("setup.build_sharded_s",
                TimeBuild(&sharded, elements, report), "s");
  }
}

void Slices::Add(const Samples& ops, double seconds) {
  ops_.push_back(ops);
  rate_.Add(Ratio(static_cast<double>(ops.size()), seconds));
}

void Slices::SetOpMetrics(Report* report) const {
  size_t smallest = SIZE_MAX;
  for (const Samples& s : ops_) smallest = std::min(smallest, s.size());
  const double tail_pct = smallest >= 1000 ? 99.0 : smallest >= 100 ? 90.0
                                                                    : 100.0;
  Samples p50, tail, all;
  for (const Samples& s : ops_) {
    p50.Add(s.Percentile(50));
    tail.Add(s.Percentile(tail_pct));
    all.Append(s);
  }
  report->Set("ops_per_s", rate_.Percentile(90), "1/s");
  report->Set("op_p50_us", p50.Percentile(10), "us");
  report->Set("op_tail_us",
              tail_pct < 100.0 ? tail.Percentile(10) : all.Percentile(100.0),
              "us");
  report->Set("op_tail_pct", tail_pct, "%");
  report->Set("samples", static_cast<double>(all.size()), "count");
}

void WriteTrace(const Options& options, const SpanRecorder& spans) {
  const std::string path =
      options.out_dir + "/neurobench_trace_" + options.workload + ".json";
  if (!spans.WriteJson(path, options.workload)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace neurobench
