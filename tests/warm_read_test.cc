// Tests of the shared warm read path. Every report carries its own pool
// tally, so its modeled time and pool counters are exact however many
// readers share the engine's pools; warm readers racing serial batches
// (whose kCold entries evict those pools) and MetricsSnapshot answer
// exactly what a kCold request answers.

#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "neuro/circuit_generator.h"
#include "neuro/workload.h"

namespace neurodb {
namespace engine {
namespace {

/// A small cortical column: dense and sparse layers, ~440 segments a cell.
neuro::Circuit MakeColumn(uint32_t neurons, uint64_t seed) {
  neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  params.layer_weights = {0.05f, 0.40f, 0.25f, 0.20f, 0.10f};
  auto circuit = neuro::CircuitGenerator(params).Generate();
  EXPECT_TRUE(circuit.ok());
  return std::move(circuit).value();
}

/// Pools far smaller than every index, so most reads miss and evict.
EngineOptions SmallPools() {
  EngineOptions options;
  options.pool_pages = 32;
  return options;
}

std::vector<neuro::WorkloadQuery> Reads(QueryEngine& db, size_t n,
                                        uint64_t seed) {
  neuro::MixedWorkloadOptions mix;
  mix.knn_fraction = 0.3;
  return neuro::MixedWorkload(db.domain(), db.flat_backend()->base_elements(),
                              mix, n, seed);
}

QueryRequest MakeRequest(const neuro::WorkloadQuery& q, BackendChoice backend,
                         CachePolicy cache) {
  if (q.kind == neuro::QueryKind::kKnn) {
    KnnRequest request;
    request.point = q.point;
    request.k = q.k;
    request.backend = backend;
    request.cache = cache;
    return request;
  }
  RangeRequest request;
  request.box = q.box;
  request.backend = backend;
  request.cache = cache;
  return request;
}

/// Every row priced from its own tally and counting one page per access,
/// and the report's pool the sum of its rows'.
bool RowsPriced(const std::vector<RangeRow>& rows,
                const storage::PoolCounters& report_pool,
                const storage::DiskCostModel& cost) {
  storage::PoolCounters sum;
  for (const RangeRow& row : rows) {
    if (row.stats.time_us != row.stats.pool.ModeledMicros(cost)) return false;
    if (row.stats.pages_read != row.stats.pool.accesses()) return false;
    sum += row.stats.pool;
  }
  return sum == report_pool;
}

/// What one report adds to its batch aggregate.
struct Tally {
  storage::PoolCounters pool;
  uint64_t pages_read = 0;
  uint64_t time_us = 0;
  uint64_t results = 0;
  bool priced = true;

  void Add(const QueryReport& report, const storage::DiskCostModel& cost) {
    std::visit(
        [&](const auto& r) {
          priced = priced && RowsPriced(r.rows, r.pool, cost);
          pool += r.pool;
          for (const RangeRow& row : r.rows) {
            pages_read += row.stats.pages_read;
            time_us += row.stats.time_us;
          }
        },
        report);
    if (const auto* range = std::get_if<RangeReport>(&report)) {
      results += range->results;
    } else {
      results += std::get<KnnReport>(report).hits.size();
    }
  }

  bool Matches(const BatchStats& aggregate) const {
    return aggregate.pool_hits == pool.hits &&
           aggregate.pool_misses == pool.misses &&
           aggregate.pool_evictions == pool.evictions &&
           aggregate.pages_read == pages_read &&
           aggregate.time_us == time_us &&
           aggregate.critical_path_us == time_us &&
           aggregate.results == results;
  }
};

/// Demand counters of the engine's warm sets, summed over backends.
storage::PoolCounters WarmCounters(QueryEngine& db) {
  storage::PoolCounters total;
  for (size_t i = 0; i < db.NumBackends(); ++i) {
    total += db.pool_manager()->Find(db.backend(i).name())->Counters();
  }
  return total;
}

TEST(WarmAccountingTest, ReportTalliesAddUpToThePoolCounters) {
  QueryEngine db(SmallPools());
  ASSERT_TRUE(db.LoadCircuit(MakeColumn(40, 5)).ok());
  const storage::DiskCostModel& cost = db.options().cost;
  const storage::PoolCounters before = WarmCounters(db);

  const BackendChoice kChoices[] = {BackendChoice::kFlat, BackendChoice::kRTree,
                                    BackendChoice::kGrid,
                                    BackendChoice::kSharded,
                                    BackendChoice::kAll};
  const std::vector<neuro::WorkloadQuery> reads = Reads(db, 400, 11);
  storage::PoolCounters reported;
  for (size_t i = 0; i < reads.size(); ++i) {
    const QueryRequest request =
        MakeRequest(reads[i], kChoices[i % 5],
                    i % 2 == 0 ? CachePolicy::kWarm : CachePolicy::kDelta);
    if (const auto* range = std::get_if<RangeRequest>(&request)) {
      auto report = db.Execute(*range);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(RowsPriced(report->rows, report->pool, cost)) << i;
      reported += report->pool;
    } else {
      auto report = db.Execute(std::get<KnnRequest>(request));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(RowsPriced(report->rows, report->pool, cost)) << i;
      reported += report->pool;
    }
  }

  // A serial batch over the same pools; every 7th entry is kCold (it
  // evicts the warm pools and clears the result cache first).
  std::vector<QueryRequest> batch;
  const std::vector<neuro::WorkloadQuery> batch_reads = Reads(db, 120, 12);
  for (size_t i = 0; i < batch_reads.size(); ++i) {
    const CachePolicy cache = i % 7 == 0   ? CachePolicy::kCold
                              : i % 2 == 0 ? CachePolicy::kWarm
                                           : CachePolicy::kDelta;
    batch.push_back(MakeRequest(batch_reads[i], kChoices[i % 5], cache));
  }
  auto result = db.ExecuteBatch(std::span<const QueryRequest>(batch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Tally tally;
  for (const QueryReport& report : result->reports) tally.Add(report, cost);
  EXPECT_TRUE(tally.priced);
  EXPECT_TRUE(tally.Matches(result->aggregate));
  EXPECT_GT(result->aggregate.delta_requests, 0u);
  reported += tally.pool;

  EXPECT_EQ(WarmCounters(db) - before, reported);
  EXPECT_GT(reported.hits, 0u);
  EXPECT_GT(reported.misses, 0u);
  EXPECT_GT(reported.evictions, 0u);
}

/// The kCold answer of a request: sorted ids (range) or ordered hits (kNN).
struct Answer {
  std::vector<geom::ElementId> ids;
  std::vector<geom::KnnHit> hits;
};

Answer ColdAnswer(QueryEngine& db, QueryRequest request) {
  Answer answer;
  std::visit([](auto& r) { r.cache = CachePolicy::kCold; }, request);
  if (const auto* range = std::get_if<RangeRequest>(&request)) {
    CollectingVisitor out;
    EXPECT_TRUE(db.Execute(*range, out).ok());
    answer.ids = out.Ids();
    std::sort(answer.ids.begin(), answer.ids.end());
  } else {
    auto report = db.Execute(std::get<KnnRequest>(request));
    EXPECT_TRUE(report.ok());
    if (report.ok()) answer.hits = report->hits;
  }
  return answer;
}

/// Four warm readers and a fifth thread running serial batches (with kCold
/// entries, which evict the shared pools) and MetricsSnapshot, all on one
/// engine. Every answer must equal its kCold answer and every report must
/// be priced from its own tally.
void RunConcurrentWarmReads(bool flat_only) {
  constexpr size_t kReaders = 4;
  constexpr size_t kReads = 160;
  constexpr size_t kRounds = 4;
  QueryEngine db(SmallPools());
  ASSERT_TRUE(db.LoadCircuit(MakeColumn(40, 9)).ok());
  const storage::DiskCostModel& cost = db.options().cost;

  const BackendChoice kChoices[] = {BackendChoice::kFlat, BackendChoice::kRTree,
                                    BackendChoice::kGrid,
                                    BackendChoice::kSharded};
  std::vector<QueryRequest> requests;
  std::vector<Answer> cold;
  for (const neuro::WorkloadQuery& q : Reads(db, kReads, 21)) {
    const BackendChoice backend =
        flat_only ? BackendChoice::kFlat : kChoices[requests.size() % 4];
    requests.push_back(MakeRequest(q, backend, CachePolicy::kWarm));
    cold.push_back(ColdAnswer(db, requests.back()));
  }

  std::atomic<uint64_t> wrong_answers{0};
  std::atomic<uint64_t> unpriced{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<size_t> readers_left{kReaders};

  auto run_one = [&](size_t i, CachePolicy cache) {
    QueryRequest request = requests[i];
    std::visit([cache](auto& r) { r.cache = cache; }, request);
    if (const auto* range = std::get_if<RangeRequest>(&request)) {
      CollectingVisitor out;
      auto report = db.Execute(*range, out);
      if (!report.ok()) {
        ++errors;
        return;
      }
      std::vector<geom::ElementId> ids = out.Ids();
      std::sort(ids.begin(), ids.end());
      if (ids != cold[i].ids || report->results != ids.size()) ++wrong_answers;
      if (!RowsPriced(report->rows, report->pool, cost)) ++unpriced;
    } else {
      auto report = db.Execute(std::get<KnnRequest>(request));
      if (!report.ok()) {
        ++errors;
        return;
      }
      if (report->hits != cold[i].hits) ++wrong_answers;
      if (!RowsPriced(report->rows, report->pool, cost)) ++unpriced;
    }
  };

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < kReads; ++j) {
          const size_t i = (j + r * kReads / kReaders) % kReads;
          run_one(i, (i + r + round) % 2 == 0 ? CachePolicy::kWarm
                                               : CachePolicy::kDelta);
        }
      }
      --readers_left;
    });
  }
  uint64_t batches = 0;
  threads.emplace_back([&] {
    size_t next = 0;
    do {
      std::vector<QueryRequest> batch;
      std::vector<size_t> index;
      for (size_t j = 0; j < 16; ++j, ++next) {
        const size_t i = next % kReads;
        QueryRequest request = requests[i];
        const CachePolicy cache = j % 5 == 0   ? CachePolicy::kCold
                                  : j % 2 == 0 ? CachePolicy::kWarm
                                               : CachePolicy::kDelta;
        std::visit([cache](auto& r) { r.cache = cache; }, request);
        batch.push_back(request);
        index.push_back(i);
      }
      auto result = db.ExecuteBatch(std::span<const QueryRequest>(batch));
      if (!result.ok()) {
        ++errors;
        break;
      }
      Tally tally;
      for (size_t j = 0; j < batch.size(); ++j) {
        const QueryReport& report = result->reports[j];
        tally.Add(report, cost);
        if (const auto* range = std::get_if<RangeReport>(&report)) {
          if (range->results != cold[index[j]].ids.size()) ++wrong_answers;
        } else if (std::get<KnnReport>(report).hits != cold[index[j]].hits) {
          ++wrong_answers;
        }
      }
      if (!tally.priced || !tally.Matches(result->aggregate)) ++unpriced;
      if (db.MetricsSnapshot().FindGauge("pool.latch_waits") == nullptr) {
        ++errors;
      }
      ++batches;
    } while (readers_left.load() > 0);
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_EQ(unpriced.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(batches, 0u);
}

TEST(ConcurrentWarmReadTest, ReadersSharingTheFlatPoolAnswerLikeCold) {
  RunConcurrentWarmReads(/*flat_only=*/true);
}

TEST(ConcurrentWarmReadTest, ReadersAcrossAllBackendsAnswerLikeCold) {
  RunConcurrentWarmReads(/*flat_only=*/false);
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
