// Commit throughput: writers × sync-policy sweep, and reader latency under
// a background checkpoint.
//
// The durable write path acknowledges a batch only after its WAL record is
// fsync'd. Under kPerBatch every batch pays its own fsync; under kGroup
// concurrent writers coalesce at the commit lock and the leader amortizes
// ONE fsync over the whole group; kNone skips the fsync (bulk load). The
// "group" rows force full groups (group_max_batches = writers, a 5 ms
// hold); the "group_defaults" rows at 1, 2 and 8 writers keep every
// DurabilityOptions default but the policy (disk backends, the 64-batch
// cap, the 100 µs hold ceiling), so they show what the learned hold target
// does with no tuning. Every row reports its mean group size. The
// fsync is the whole story, so the sweep runs on a wrapper filesystem whose
// Sync() sleeps a fixed NEURODB_BENCH_FSYNC_DELAY_US (default 1000 — a
// realistic honest-flush latency) instead of flushing — making the
// kGroup-vs-kPerBatch ratio a property of the protocol, not of how fast the
// build machine's page cache lies about fsync. The flushing thread sleeps,
// as a thread blocked in fsync would, so it leaves its core to the other
// writers.
//
// Second exhibit: reader p95 while a streaming checkpoint rewrites base.ndb
// in the background, against a no-checkpoint baseline. The rewrite holds
// the commit lock only for the pin and the final swap, so readers should
// barely notice.
//
// Emits BENCH_commit_throughput.json. commit_throughput_smoke runs the
// shrunken sweep and enforces both acceptance gates: kGroup >= 3x kPerBatch
// batches/sec at 8 writers, and checkpoint-concurrent reader p95 within
// 1.5x of baseline. The throughput gate takes the median ratio of three
// alternating 8-writer pairs, so one pair slowed by other processes on the
// machine cannot decide it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "engine/query_engine.h"
#include "neuro/workload.h"
#include "storage/disk/file.h"

using namespace neurodb;
using geom::Aabb;
using geom::Vec3;

namespace {

// Every Sync() sleeps a fixed delay instead of flushing: the deterministic
// stand-in for a storage device with honest flush latency.
class SlowFsyncFile : public storage::File {
 public:
  SlowFsyncFile(std::unique_ptr<storage::File> base, uint64_t delay_us)
      : base_(std::move(base)), delay_us_(delay_us) {}

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) const override {
    return base_->ReadAt(offset, buf, n);
  }
  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    return base_->WriteAt(offset, buf, n);
  }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    return Status::OK();
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<storage::File> base_;
  uint64_t delay_us_;
};

class SlowFsyncFileSystem : public storage::FileSystem {
 public:
  SlowFsyncFileSystem(storage::FileSystem* base, uint64_t delay_us)
      : base_(base), delay_us_(delay_us) {}

  Result<std::unique_ptr<storage::File>> Open(const std::string& path,
                                              bool truncate) override {
    auto file = base_->Open(path, truncate);
    if (!file.ok()) return file.status();
    return std::unique_ptr<storage::File>(
        std::make_unique<SlowFsyncFile>(std::move(*file), delay_us_));
  }
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
  uint64_t delay_us_;
};

struct SweepRow {
  double wall_ms = 0.0;
  double batches_per_sec = 0.0;
  uint64_t fsyncs = 0;  // wal.ndb fsyncs inside the measured window
};

// `writers` threads each commit `batches_per_writer` single-insert batches
// as fast as the engine acknowledges them. With `defaults` every
// DurabilityOptions field but the directory, the filesystem and the policy
// keeps its default.
bool RunSweepCell(engine::SyncPolicy policy, size_t writers, bool defaults,
                  size_t batches_per_writer, storage::FileSystem* fs,
                  const std::string& dir, SweepRow* row) {
  std::filesystem::remove_all(dir);
  engine::EngineOptions options;
  options.durability.dir = dir;
  options.durability.fs = fs;
  options.durability.sync = policy;
  if (!defaults) {
    // The sweep measures the commit protocol, so keep the backends on
    // memory stores — their page writes would add a serialized non-fsync
    // cost that caps the ratio no matter how well the fsyncs coalesce.
    options.durability.disk_backends = false;
    // Let the leader hold the group open until every writer has queued
    // (group_max_batches caps the hold target): steady-state groups of
    // `writers`, one fsync each. A lone writer never waits — its own batch
    // already reaches the cap.
    options.durability.group_max_batches = writers;
    options.durability.group_hold_us = 5000;
  }
  engine::QueryEngine db(options);
  if (!db.LoadElements({}).ok()) return false;

  const uint64_t fsyncs_before = db.durability()->io().fsyncs;
  std::atomic<bool> failed{false};
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      geom::ElementId id = 1 + w * 1000000ull;
      for (size_t i = 0; i < batches_per_writer && !failed; ++i) {
        float f = static_cast<float>((id + i) % 97);
        engine::UpdateRequest request;
        request.kind = engine::UpdateKind::kInsert;
        request.id = id + i;
        request.bounds = Aabb(Vec3(f, f, 0), Vec3(f + 1, f + 1, 1));
        auto report = db.ApplyUpdates(
            std::span<const engine::UpdateRequest>(&request, 1));
        if (!report.ok()) {
          std::fprintf(stderr, "ApplyUpdates failed: %s\n",
                       report.status().ToString().c_str());
          failed = true;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      1e3;
  if (failed) return false;
  row->wall_ms = wall_ms;
  const double total = static_cast<double>(writers * batches_per_writer);
  row->batches_per_sec = wall_ms > 0 ? total / (wall_ms / 1e3) : 0.0;
  row->fsyncs = db.durability()->io().fsyncs - fsyncs_before;
  return true;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1, static_cast<size_t>(p * (samples.size() - 1)));
  return samples[idx];
}

// `queries` kCold range queries against `db`, one at a time, returning the
// per-query latency samples in microseconds.
std::vector<double> ReadLoop(engine::QueryEngine* db, const Aabb& probe,
                             size_t queries) {
  std::vector<double> samples;
  samples.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    engine::RangeRequest request;
    request.box = probe;
    request.backend = engine::BackendChoice::kFlat;
    request.cache = engine::CachePolicy::kCold;
    if (!db->Execute(request).ok()) break;
    samples.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      1e3);
  }
  return samples;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("NEURODB_BENCH_SMOKE") != nullptr;
  uint64_t fsync_delay_us = 1000;
  if (const char* env = std::getenv("NEURODB_BENCH_FSYNC_DELAY_US")) {
    fsync_delay_us = std::strtoull(env, nullptr, 10);
  }
  const size_t batches_per_writer = smoke ? 50 : 200;
  // Alternating (kPerBatch, kGroup) pairs at 8 writers behind the gate.
  const size_t gate_pairs = smoke ? 3 : 1;
  const size_t reader_queries = smoke ? 200 : 1000;

  std::printf(
      "Commit throughput: writers x sync policy (fsync delay %llu us), "
      "%zu batches/writer.\n\n",
      static_cast<unsigned long long>(fsync_delay_us), batches_per_writer);

  SlowFsyncFileSystem slow_fs(storage::DefaultFileSystem(), fsync_delay_us);
  const std::string root = "bench_commit_throughput_data";
  std::filesystem::remove_all(root);

  TableWriter table("durable ApplyUpdates throughput",
                    {"policy", "writers", "batches", "wall_ms",
                     "batches_per_sec", "wal_fsyncs", "mean_group"});
  bench::JsonEmitter json("commit_throughput");
  bool ok = true;

  struct Cell {
    const char* label;
    engine::SyncPolicy policy;
    size_t writers;
    bool defaults = false;
  };
  const Cell kCells[] = {
      {"per_batch", engine::SyncPolicy::kPerBatch, 1},
      {"per_batch", engine::SyncPolicy::kPerBatch, 8},
      {"group", engine::SyncPolicy::kGroup, 1},
      {"group", engine::SyncPolicy::kGroup, 8},
      {"none", engine::SyncPolicy::kNone, 8},
      {"group_defaults", engine::SyncPolicy::kGroup, 1, true},
      {"group_defaults", engine::SyncPolicy::kGroup, 2, true},
      {"group_defaults", engine::SyncPolicy::kGroup, 8, true},
  };
  double per_batch_8 = 0.0, group_8 = 0.0;

  for (const Cell& cell : kCells) {
    SweepRow row;
    ok = RunSweepCell(cell.policy, cell.writers, cell.defaults,
                      batches_per_writer, &slow_fs, root + "/sweep", &row);
    if (!ok) break;
    if (cell.writers == 8 && !cell.defaults) {
      if (cell.policy == engine::SyncPolicy::kPerBatch) {
        per_batch_8 = row.batches_per_sec;
      } else if (cell.policy == engine::SyncPolicy::kGroup) {
        group_8 = row.batches_per_sec;
      }
    }
    const size_t batches = cell.writers * batches_per_writer;
    // Batches per WAL fsync; 0 when the policy never fsyncs (kNone).
    const double mean_group =
        row.fsyncs > 0 ? static_cast<double>(batches) / row.fsyncs : 0.0;
    char wall_buf[32], tput_buf[32], group_buf[32];
    std::snprintf(wall_buf, sizeof(wall_buf), "%.2f", row.wall_ms);
    std::snprintf(tput_buf, sizeof(tput_buf), "%.0f", row.batches_per_sec);
    std::snprintf(group_buf, sizeof(group_buf), "%.2f", mean_group);
    table.AddRow({cell.label, std::to_string(cell.writers),
                  std::to_string(batches), wall_buf, tput_buf,
                  std::to_string(row.fsyncs), group_buf});
    bench::JsonRow json_row;
    json_row.Str("policy", cell.label)
        .Int("writers", cell.writers)
        .Int("batches", batches)
        .Int("fsync_delay_us", fsync_delay_us)
        .Num("wall_ms", row.wall_ms)
        .Num("batches_per_sec", row.batches_per_sec)
        .Int("wal_fsyncs", row.fsyncs)
        .Num("mean_group_size", mean_group);
    json.AddRow(json_row);
  }

  // The throughput gate's ratio: the sweep's 8-writer pair plus
  // gate_pairs - 1 more, alternating which policy runs first.
  std::vector<double> ratios;
  if (ok && per_batch_8 > 0) ratios.push_back(group_8 / per_batch_8);
  for (size_t pair = 1; ok && pair < gate_pairs; ++pair) {
    SweepRow per_batch, group;
    for (bool run_group : {pair % 2 == 1, pair % 2 == 0}) {
      ok = ok && RunSweepCell(run_group ? engine::SyncPolicy::kGroup
                                        : engine::SyncPolicy::kPerBatch,
                              8, /*defaults=*/false, batches_per_writer,
                              &slow_fs, root + "/sweep",
                              run_group ? &group : &per_batch);
    }
    if (ok && per_batch.batches_per_sec > 0) {
      ratios.push_back(group.batches_per_sec / per_batch.batches_per_sec);
    }
  }
  const double gate_ratio = Percentile(ratios, 0.5);
  if (ok) {
    std::printf("kGroup / kPerBatch at 8 writers:");
    for (double ratio : ratios) std::printf(" %.2f", ratio);
    std::printf(" (median %.2f)\n", gate_ratio);
    bench::JsonRow ratio_row;
    ratio_row.Str("policy", "group_vs_per_batch_8")
        .Int("pairs", ratios.size())
        .Num("median_ratio", gate_ratio);
    json.AddRow(ratio_row);
  }

  // Reader p95 with and without a background streaming checkpoint. The
  // data set is big enough that the rewrite takes real time; the writer
  // thread keeps the WAL growing so each checkpoint has work to do.
  double p95_base = 0.0, p95_ckpt = 0.0;
  if (ok) {
    neuro::Circuit circuit = bench::MakeColumn(smoke ? 8 : 24, 42);
    geom::ElementVec elements = circuit.FlattenSegments().Elements();
    const Aabb probe =
        neuro::DataCenteredQueries(elements, 40.0f, 1, 4242).front();
    const std::string dir = root + "/readers";
    std::filesystem::remove_all(dir);
    engine::EngineOptions options;
    options.durability.dir = dir;
    options.durability.sync = engine::SyncPolicy::kGroup;
    engine::QueryEngine db(options);
    ok = db.LoadElements(elements).ok();
    if (ok) {
      // Baseline: quiescent engine.
      std::vector<double> base_samples = ReadLoop(&db, probe, reader_queries);
      p95_base = Percentile(base_samples, 0.95);

      // Checkpoint run: a writer feeds the WAL and a checkpoint loop
      // streams base rewrites for the whole read window.
      std::atomic<bool> stop{false};
      std::thread writer([&] {
        geom::ElementId id = 50000000ull;
        while (!stop) {
          engine::UpdateRequest request;
          request.kind = engine::UpdateKind::kInsert;
          request.id = id++;
          float f = static_cast<float>(id % 97);
          request.bounds = Aabb(Vec3(f, f, 0), Vec3(f + 1, f + 1, 1));
          if (!db.ApplyUpdates(
                    std::span<const engine::UpdateRequest>(&request, 1))
                   .ok()) {
            break;
          }
        }
      });
      std::thread checkpointer([&] {
        while (!stop) {
          if (!db.Checkpoint().ok()) break;
        }
      });
      std::vector<double> ckpt_samples = ReadLoop(&db, probe, reader_queries);
      stop = true;
      writer.join();
      checkpointer.join();
      p95_ckpt = Percentile(ckpt_samples, 0.95);

      char base_buf[32], ckpt_buf[32];
      std::snprintf(base_buf, sizeof(base_buf), "%.1f", p95_base);
      std::snprintf(ckpt_buf, sizeof(ckpt_buf), "%.1f", p95_ckpt);
      std::printf("reader p95: baseline %.1f us, under checkpoint %.1f us\n",
                  p95_base, p95_ckpt);
      bench::JsonRow baseline_row;
      baseline_row.Str("policy", "reader_baseline")
          .Int("queries", reader_queries)
          .Num("p95_us", p95_base);
      json.AddRow(baseline_row);
      bench::JsonRow ckpt_row;
      ckpt_row.Str("policy", "reader_under_checkpoint")
          .Int("queries", reader_queries)
          .Num("p95_us", p95_ckpt);
      json.AddRow(ckpt_row);
    }
  }

  std::filesystem::remove_all(root);
  if (!ok) return 1;
  table.Print();
  if (!json.Write()) return 1;

  if (smoke) {
    // Acceptance gates (ISSUE 9). The fsync-delay filesystem makes the
    // throughput ratio deterministic; the reader gate gets a small floor
    // so microsecond-scale baseline noise cannot fail it.
    int rc = 0;
    if (gate_ratio < 3.0) {
      std::fprintf(stderr,
                   "GATE FAILED: kGroup / kPerBatch batches/sec at 8 writers "
                   "%.2f < 3 (median of %zu pairs)\n",
                   gate_ratio, ratios.size());
      rc = 1;
    }
    const double base_floor_us = std::max(p95_base, 200.0);
    if (p95_ckpt > 1.5 * base_floor_us) {
      std::fprintf(stderr,
                   "GATE FAILED: reader p95 %.1f us under checkpoint exceeds "
                   "1.5x baseline %.1f us\n",
                   p95_ckpt, base_floor_us);
      rc = 1;
    }
    if (rc == 0) std::printf("smoke gates passed\n");
    return rc;
  }
  return 0;
}
