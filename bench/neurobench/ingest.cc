// ingest_durable: writes beside reads on a durable engine.
//
// A ~261k-element column (MakeColumn(600)) on a durable engine with its
// backend pages on disk too: SyncPolicy::kGroup with the default group
// knobs, every flush a fixed 500 µs (TimedFileSystem), and no
// size-triggered checkpoint. The load runs in cycles, modeled on simulation
// time-steps: 2 closed-loop writers each commit 250 4-op batches (insert
// 40% / erase 30% / move 30%) while 2 closed-loop readers send the
// serve_column read mix; then the load pauses for a timed Compact(), which
// for a durable engine also checkpoints. Each writer owns its own id
// partition, so the final live set follows from the writers' own
// bookkeeping whatever the interleaving. The last cycle is not compacted:
// recovery (QueryEngine::Open) replays its batches from the WAL. The op is
// one committed batch.
//
// The window of --seconds spans whole cycles, Compact pauses included; op
// rates and latencies are taken over the load phases, and the pauses are
// reported on their own (compact_ms, engine.compact_ms).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "neurobench.h"

namespace neurobench {
namespace {

constexpr uint32_t kColumnNeurons = 600;
constexpr size_t kWriters = 2;
constexpr size_t kReaders = 2;
/// Batches each writer commits per cycle.
constexpr uint64_t kBatchesPerWriter = 250;
constexpr size_t kOpsPerBatch = 4;
/// Bytes of one op as a user hands it over: u64 id + 6 × f32 bounds.
constexpr double kUserBytesPerOp = 32.0;
constexpr uint64_t kOracleRanges = 200;
constexpr int kTracedRecoveries = 5;
constexpr KeepPolicy kKeep{0, 16};
/// New element ids sit above every circuit gid (bits 63..40).
constexpr uint64_t kNewIdGid = 0xF00000;

/// One writer's id partition and its deterministic op stream.
class Writer {
 public:
  Writer(uint64_t seed, size_t index, const geom::Aabb& domain)
      : rng_(Mix(seed, 100 + index)),
        domain_(domain),
        next_id_((kNewIdGid + index) << 40) {}

  void Own(const geom::SpatialElement& e) {
    slot_[e.id] = owned_.size();
    owned_.push_back(e);
  }

  /// The next batch over ids this writer owns; distinct ids within it.
  std::vector<engine::UpdateRequest> Plan() {
    std::vector<engine::UpdateRequest> batch;
    while (batch.size() < kOpsPerBatch) {
      const double r = rng_.NextDouble();
      engine::UpdateRequest u;
      if (r < 0.4 || owned_.size() <= 2 * kOpsPerBatch) {
        u.kind = engine::UpdateKind::kInsert;
        u.id = next_id_++;
        u.bounds = RandomBox(RandomPoint());
      } else {
        const geom::SpatialElement& e =
            owned_[rng_.NextBounded(static_cast<uint32_t>(owned_.size()))];
        bool taken = false;
        for (const auto& b : batch) taken |= b.id == e.id;
        if (taken) continue;
        u.id = e.id;
        if (r < 0.7) {
          u.kind = engine::UpdateKind::kErase;
        } else {
          u.kind = engine::UpdateKind::kMove;
          const geom::Vec3 c = e.bounds.Center();
          u.bounds = RandomBox(geom::Vec3(Jitter(c.x, 0), Jitter(c.y, 1),
                                          Jitter(c.z, 2)));
        }
      }
      batch.push_back(u);
    }
    return batch;
  }

  /// Record a committed batch.
  void Apply(const std::vector<engine::UpdateRequest>& batch) {
    for (const engine::UpdateRequest& u : batch) {
      switch (u.kind) {
        case engine::UpdateKind::kInsert:
          Own(geom::SpatialElement(u.id, u.bounds));
          break;
        case engine::UpdateKind::kMove:
          owned_[slot_[u.id]].bounds = u.bounds;
          break;
        case engine::UpdateKind::kErase: {
          const size_t s = slot_[u.id];
          slot_[owned_.back().id] = s;
          owned_[s] = owned_.back();
          owned_.pop_back();
          slot_.erase(u.id);
          break;
        }
      }
    }
  }

  const geom::ElementVec& owned() const { return owned_; }

 private:
  geom::Vec3 RandomPoint() {
    return geom::Vec3(
        static_cast<float>(rng_.Uniform(domain_.min.x, domain_.max.x)),
        static_cast<float>(rng_.Uniform(domain_.min.y, domain_.max.y)),
        static_cast<float>(rng_.Uniform(domain_.min.z, domain_.max.z)));
  }
  /// An element-scale cube (side 1–6 µm) kept inside the domain.
  geom::Aabb RandomBox(const geom::Vec3& center) {
    const float side = static_cast<float>(rng_.Uniform(1.0, 6.0));
    geom::Aabb box = geom::Aabb::Cube(center, side);
    return geom::Aabb::Intersection(box, domain_).IsEmpty()
               ? geom::Aabb::Cube(domain_.Center(), side)
               : geom::Aabb::Intersection(box, domain_);
  }
  float Jitter(float v, int axis) {
    const float lo = domain_.min[axis], hi = domain_.max[axis];
    return std::clamp(v + static_cast<float>(rng_.Uniform(-10.0, 10.0)), lo,
                      hi);
  }

  Pcg32 rng_;
  geom::Aabb domain_;
  uint64_t next_id_;
  geom::ElementVec owned_;
  std::unordered_map<geom::ElementId, size_t> slot_;
};

struct Window {
  Samples commits;
  ReadStats reads;
  double seconds = 0.0;
  uint64_t cycles = 0;
  Samples compact_ms;
  Samples delta_records;
  /// Each cycle's commits and the time its load ran (Compact excluded).
  std::vector<std::pair<Samples, double>> cycle_commits;
};

/// Cycles until `seconds` pass. A cycle starts with a timed Compact when the
/// previous one left a delta, then runs the load.
Window RunCycles(engine::QueryEngine& db, const geom::ElementVec& elements,
                 std::vector<Writer>* writers, uint64_t read_stream,
                 std::atomic<uint64_t>* next_read, double seconds,
                 SpanRecorder* spans, Report* report) {
  Window w;
  const uint64_t start = NowNs();
  while (NowNs() - start < seconds * 1e9) {
    if (db.DeltaSize() > 0) {
      const uint64_t c0 = NowNs();
      Status status;
      {
        ScopedSpan s(spans, "engine.compact", w.cycles);
        status = db.Compact();
      }
      w.compact_ms.Add((NowNs() - c0) / 1e6);
      report->Attempt();
      if (!status.ok()) report->Fail("Compact: " + status.ToString());
    }

    std::vector<Samples> commit_parts(kWriters);
    std::vector<ReadStats> read_parts(kReaders);
    std::atomic<size_t> writers_done{0};
    const uint64_t load_start = NowNs();
    std::vector<std::thread> threads;
    for (size_t k = 0; k < kWriters; ++k) {
      threads.emplace_back([&, k] {
        Writer& writer = (*writers)[k];
        for (uint64_t b = 0; b < kBatchesPerWriter; ++b) {
          std::vector<engine::UpdateRequest> batch = writer.Plan();
          const uint64_t b0 = NowNs();
          Result<engine::UpdateReport> r = [&] {
            ScopedSpan s(spans, "engine.commit", b);
            return db.ApplyUpdates(batch);
          }();
          commit_parts[k].Add((NowNs() - b0) / 1e3);
          report->Attempt();
          if (!r.ok()) {
            report->Fail("ApplyUpdates: " + r.status().ToString());
            break;
          }
          writer.Apply(batch);
        }
        ++writers_done;
      });
    }
    for (size_t k = 0; k < kReaders; ++k) {
      threads.emplace_back([&, k] {
        while (writers_done < kWriters) {
          SendRead(db, elements, read_stream, next_read->fetch_add(1), kKeep,
                    spans, &read_parts[k], report);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Samples commits;
    ReadStats reads;
    for (Samples& part : commit_parts) commits.Append(part);
    for (ReadStats& part : read_parts) reads.Merge(std::move(part));
    w.cycle_commits.emplace_back(commits, (NowNs() - load_start) / 1e9);
    w.commits.Append(commits);
    w.reads.Merge(std::move(reads));
    w.delta_records.Add(static_cast<double>(db.DeltaSize()));
    ++w.cycles;
  }
  w.seconds = (NowNs() - start) / 1e9;
  return w;
}

/// The live set the writers' bookkeeping says the engine holds.
geom::ElementVec TrackedLiveSet(const std::vector<Writer>& writers) {
  geom::ElementVec live;
  for (const Writer& w : writers) {
    live.insert(live.end(), w.owned().begin(), w.owned().end());
  }
  std::sort(live.begin(), live.end(),
            [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
              return a.id < b.id;
            });
  return live;
}

/// Every element of `db` (a cold FLAT scan of the whole domain), by id.
Result<geom::ElementVec> EngineLiveSet(engine::QueryEngine& db) {
  engine::RangeRequest request;
  request.box = db.domain().Expanded(100.0f);
  request.backend = engine::BackendChoice::kFlat;
  request.cache = engine::CachePolicy::kCold;
  geom::CollectingVisitor out;
  auto report = db.Execute(request, out);
  if (!report.ok()) return report.status();
  geom::ElementVec live = out.TakeElements();
  std::sort(live.begin(), live.end(),
            [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
              return a.id < b.id;
            });
  return live;
}

bool SameElements(const geom::ElementVec& a, const geom::ElementVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].bounds != b[i].bounds) return false;
  }
  return true;
}

/// Closes `column.db`, reopens the directory `repeats` times and checks
/// the last recovered engine against the writers' live set. Returns the
/// median Open time in seconds.
double RecoverAndCheck(Column* column,
                       const engine::EngineOptions& engine_options,
                       const geom::ElementVec& live, int repeats,
                       Report* report) {
  column->db.reset();
  Samples open_s;
  std::unique_ptr<engine::QueryEngine> recovered;
  for (int r = 0; r < repeats; ++r) {
    recovered.reset();
    const uint64_t t0 = NowNs();
    auto opened = engine::QueryEngine::Open(engine_options.durability.dir,
                                            engine_options);
    open_s.Add((NowNs() - t0) / 1e9);
    report->Attempt();
    if (!opened.ok()) {
      report->Fail("QueryEngine::Open: " + opened.status().ToString());
      return 0.0;
    }
    recovered = std::move(*opened);
  }
  report->Attempt();
  auto engine_live = EngineLiveSet(*recovered);
  if (!engine_live.ok() || !SameElements(*engine_live, live)) {
    report->Fail("recovered live set differs from the writers' live set");
  }
  return open_s.Percentile(50);
}

}  // namespace

bool RunIngestDurable(const Options& options, Report* report) {
  IoTimes io;
  TimedFileSystem timed_fs(storage::DefaultFileSystem(), &io);
  engine::EngineOptions engine_options;
  engine_options.durability.dir =
      options.out_dir + "/neurobench_data_" + options.workload;
  engine_options.durability.disk_backends = true;
  engine_options.durability.sync = engine::SyncPolicy::kGroup;
  engine_options.durability.checkpoint_wal_bytes = 0;
  engine_options.durability.fs = &timed_fs;
  const uint64_t read_stream = Mix(options.seed, 1);
  const uint64_t oracle_stream = Mix(options.seed, 2);
  std::atomic<uint64_t> next_read{0};

  // A fresh engine over the column, with writers owning its elements.
  Column column;
  double setup[2];
  std::vector<Writer> writers;
  auto load = [&](int engine_index) {
    if (!LoadColumn(kColumnNeurons, engine_options, &column, setup)) {
      return false;
    }
    writers.clear();
    for (size_t k = 0; k < kWriters; ++k) {
      writers.emplace_back(Mix(options.seed, engine_index), k,
                           column.db->domain());
    }
    for (size_t j = 0; j < column.elements.size(); ++j) {
      writers[j % kWriters].Own(column.elements[j]);
    }
    return true;
  };

  if (!options.trace) {
    Samples setup_s, recover_s, compact_ms;
    Slices slices;
    Window all;
    for (int k = 0; k < kEngines; ++k) {
      if (!load(k)) return false;
      setup_s.Add(setup[0] + setup[1]);
      Window w = RunCycles(*column.db, column.elements, &writers, read_stream,
                           &next_read, options.seconds / kEngines, nullptr,
                           report);
      for (const auto& [ops, seconds] : w.cycle_commits) {
        slices.Add(ops, seconds);
      }
      all.commits.Append(w.commits);
      all.reads.Merge(std::move(w.reads));
      all.seconds += w.seconds;
      all.cycles += w.cycles;
      compact_ms.Append(w.compact_ms);
      const geom::ElementVec live = TrackedLiveSet(writers);
      CheckOracleRanges(*column.db, column.elements, live,
                        Mix(oracle_stream, k), kOracleRanges / kEngines,
                        report);
      recover_s.Add(RecoverAndCheck(&column, engine_options, live, 1, report));
    }
    report->Set("setup_s", setup_s.Percentile(50), "s");
    slices.SetOpMetrics(report);
    report->Set("commits_per_s", Ratio(all.commits.size(), all.seconds),
                "1/s");
    report->Set("commit_p50_us", all.commits.Percentile(50), "us");
    report->Set("commit_p99_us", all.commits.Percentile(99), "us");
    report->Set("reads_per_s", Ratio(all.reads.all.size(), all.seconds), "1/s");
    report->Set("range_p50_us", all.reads.range.Percentile(50), "us");
    report->Set("knn_p50_us", all.reads.knn.Percentile(50), "us");
    report->Set("knn_p99_us", all.reads.knn.Percentile(99), "us");
    report->Set("read_repins", all.reads.repins, "count");
    report->Set("compact_ms", compact_ms.Mean(), "ms");
    report->Set("cycles", all.cycles, "count");
    report->Set("recover_s", recover_s.Percentile(50), "s");
  } else {
    if (!load(0)) return false;
    report->Set("setup.generate_s", setup[0], "s");
    report->Set("setup.load_s", setup[1], "s");
    MeasureBackendBuilds(column.elements, engine_options, report);
    engine::QueryEngine& db = *column.db;
    SpanRecorder spans;
    Window plain = RunCycles(db, column.elements, &writers, read_stream,
                             &next_read, options.seconds / 2, nullptr, report);
    io.spans = &spans;
    const IoCounts io0 = io.Snapshot();
    Window traced = RunCycles(db, column.elements, &writers, read_stream,
                              &next_read, options.seconds / 2, &spans, report);
    const IoCounts d = io.Snapshot() - io0;
    io.spans = nullptr;

    const double commits = static_cast<double>(traced.commits.size());
    const double group_us = Ratio((d.wal_write_ns + d.wal_sync_ns) / 1e3,
                                  d.wal_syncs);
    report->Set("engine.commit_self_us", traced.commits.Mean() - group_us,
                "us");
    report->Set("engine.group_size", Ratio(commits, d.wal_syncs), "commits");
    report->Set("engine.compact_ms", traced.compact_ms.Mean(), "ms");
    report->Set("engine.delta_records", traced.delta_records.Mean(), "count");
    report->Set("storage.wal_write_us",
                Ratio(d.wal_write_ns / 1e3, d.wal_writes), "us");
    report->Set("storage.fsync_us", Ratio(d.wal_sync_ns / 1e3, d.wal_syncs),
                "us");
    report->Set("storage.fsyncs_per_commit", Ratio(d.syncs, commits), "ratio");
    const double user_bytes =
        traced.commits.size() * kOpsPerBatch * kUserBytesPerOp;
    report->Set("storage.write_amp", Ratio(d.bytes_written, user_bytes),
                "ratio");
    report->Set("storage.page_read_us",
                Ratio(d.page_read_ns / 1e3, d.page_reads), "us");
    SetReadPoolMetrics(traced.reads, report);
    // The reads ran over deltas the replays can no longer see, so their
    // time is not attributed to them.
    ReplayReadLayers(db, traced.reads.kept, /*attribute=*/false, &spans,
                     report);
    report->Set("trace.overhead_pct",
                OverheadPct(plain.commits, traced.commits), "%");
    report->Set("trace.coverage", spans.Coverage(), "ratio");
    WriteTrace(options, spans);

    const geom::ElementVec live = TrackedLiveSet(writers);
    CheckOracleRanges(db, column.elements, live, oracle_stream, kOracleRanges,
                      report);
    report->Set("engine.recover_s",
                RecoverAndCheck(&column, engine_options, live,
                                kTracedRecoveries, report),
                "s");
  }
  std::error_code ec;
  std::filesystem::remove_all(engine_options.durability.dir, ec);
  return true;
}

}  // namespace neurobench
