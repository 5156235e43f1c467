// Tests of the parallel execution subsystem: ThreadPool task/future
// semantics, graceful shutdown and exception safety; PartitionLanes
// determinism; ParallelExecutor inline-vs-pooled equivalence; and the
// engine-level acceptance property — ExecuteBatch with num_threads > 1 is
// byte-identical (results and per-query stats, in request order) to the
// serial path on a seeded 1000-query mixed workload, and deterministic
// under repeated runs.

#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "diff_harness.h"
#include "exec/parallel_executor.h"
#include "neuro/circuit_generator.h"

namespace neurodb {
namespace exec {
namespace {

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

// A thread starter that throws from its `fail_from`-th call on, as
// std::thread's constructor does when the system has no thread to give.
// (Never test this by exhausting the machine's threads.)
ThreadPool::ThreadStarter FailingFrom(size_t fail_from, size_t* calls) {
  return [fail_from, calls](std::function<void()> loop) {
    if (++*calls >= fail_from) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again));
    }
    return std::thread(std::move(loop));
  };
}

TEST(ThreadPoolTest, KeepsTheWorkersThatStartedWhenAStartFails) {
  size_t calls = 0;
  ThreadPool pool(4, FailingFrom(3, &calls));
  EXPECT_EQ(calls, 3u);  // the failure ends the starting
  EXPECT_EQ(pool.num_threads(), 2u);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);

  auto lanes = PartitionLanes(8, 8);
  std::vector<int> ran(lanes.size(), 0);
  Status status = ParallelExecutor(&pool).Run(
      lanes, [&](const LaneRange& lane) {
        ran[lane.lane] = 1;
        return lane.lane == 5 ? Status::Internal("five") : Status::OK();
      });
  EXPECT_EQ(status.ToString(), Status::Internal("five").ToString());
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 8);
}

TEST(ThreadPoolTest, APoolWhoseFirstStartFailsRunsTasksInline) {
  size_t calls = 0;
  ThreadPool pool(4, FailingFrom(1, &calls));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(pool.num_threads(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_EQ(pool.Submit([] { return std::this_thread::get_id(); }).get(),
            caller);

  auto lanes = PartitionLanes(4, 4);
  std::vector<size_t> order;
  ASSERT_TRUE(ParallelExecutor(&pool)
                  .Run(lanes,
                       [&](const LaneRange& lane) {
                         order.push_back(lane.lane);
                         return Status::OK();
                       })
                  .ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // Queue far more slow tasks than workers, destroy the pool immediately,
  // and verify that every task still ran: graceful shutdown completes the
  // queue instead of abandoning it.
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      }));
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(ran.load(), 32);
  for (auto& future : futures) {
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ThreadPoolTest, ExceptionsTravelThroughFuturesAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task is still alive and serving.
  EXPECT_EQ(pool.Submit([] { return 11; }).get(), 11);
}

TEST(ThreadPoolTest, InWorkerIsTrueOnlyOnWorkerThreads) {
  EXPECT_FALSE(ThreadPool::InWorker());
  ThreadPool pool(1);
  EXPECT_TRUE(pool.Submit([] { return ThreadPool::InWorker(); }).get());
  EXPECT_FALSE(ThreadPool::InWorker());
}

// --------------------------------------------------------------------------
// PartitionLanes
// --------------------------------------------------------------------------

TEST(PartitionLanesTest, CoversRangeContiguouslyAndNearEvenly) {
  for (size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    for (size_t lanes : {1u, 2u, 3u, 8u, 200u}) {
      auto parts = PartitionLanes(n, lanes);
      ASSERT_EQ(parts.size(), std::min(n, lanes));
      size_t expect_begin = 0;
      size_t min_len = n, max_len = 0;
      for (size_t i = 0; i < parts.size(); ++i) {
        EXPECT_EQ(parts[i].lane, i);
        EXPECT_EQ(parts[i].begin, expect_begin);
        ASSERT_GT(parts[i].size(), 0u);
        min_len = std::min(min_len, parts[i].size());
        max_len = std::max(max_len, parts[i].size());
        expect_begin = parts[i].end;
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_LE(max_len - min_len, 1u);
    }
  }
  EXPECT_TRUE(PartitionLanes(0, 4).empty());
}

// --------------------------------------------------------------------------
// ParallelExecutor
// --------------------------------------------------------------------------

TEST(ParallelExecutorTest, PooledAndInlineRunsProduceTheSameOutput) {
  const size_t n = 103;
  std::vector<int> input(n);
  std::iota(input.begin(), input.end(), 0);

  auto run = [&](ThreadPool* pool, size_t lanes) {
    std::vector<int> out(n, -1);
    ParallelExecutor executor(pool);
    Status status = executor.Run(
        PartitionLanes(n, lanes), [&](const LaneRange& lane) {
          for (size_t i = lane.begin; i < lane.end; ++i) {
            out[i] = input[i] * 3;
          }
          return Status::OK();
        });
    EXPECT_TRUE(status.ok());
    return out;
  };

  std::vector<int> inline_out = run(nullptr, 4);
  ThreadPool pool(4);
  std::vector<int> pooled_out = run(&pool, 4);
  EXPECT_EQ(inline_out, pooled_out);
}

TEST(ParallelExecutorTest, ReportsFirstFailingLaneInLaneOrder) {
  ThreadPool pool(4);
  ParallelExecutor executor(&pool);
  std::atomic<int> ran{0};
  Status status = executor.Run(
      PartitionLanes(8, 8), [&](const LaneRange& lane) {
        ran.fetch_add(1);
        if (lane.lane == 2 || lane.lane == 5) {
          return Status::InvalidArgument("lane " +
                                         std::to_string(lane.lane));
        }
        return Status::OK();
      });
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("lane 2"), std::string::npos);
  EXPECT_EQ(ran.load(), 8);  // every lane ran despite the failures
}

TEST(ParallelExecutorTest, LaneExceptionsBecomeInternalStatus) {
  ThreadPool pool(2);
  ParallelExecutor executor(&pool);
  Status status = executor.Run(
      PartitionLanes(4, 4), [&](const LaneRange& lane) -> Status {
        if (lane.lane == 1) throw std::runtime_error("boom");
        return Status::OK();
      });
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.ToString().find("boom"), std::string::npos);
}

TEST(ParallelExecutorTest, NestedRunFromWorkerFallsBackInline) {
  // A fan-out issued from inside a pool task must not block on pool
  // capacity — with one worker this would deadlock if it did.
  ThreadPool pool(1);
  ParallelExecutor outer(&pool);
  Status status = outer.Run(PartitionLanes(1, 1), [&](const LaneRange&) {
    ParallelExecutor inner(&pool);
    return inner.Run(PartitionLanes(4, 4),
                     [](const LaneRange&) { return Status::OK(); });
  });
  EXPECT_TRUE(status.ok());
}

// --------------------------------------------------------------------------
// Engine acceptance: serial vs parallel ExecuteBatch
// --------------------------------------------------------------------------

neuro::Circuit MakeCircuit(uint32_t neurons, uint64_t seed) {
  neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  auto circuit = neuro::CircuitGenerator(params).Generate();
  EXPECT_TRUE(circuit.ok());
  return std::move(circuit).value();
}

engine::EngineOptions BatchOptions(size_t num_threads) {
  engine::EngineOptions options;
  options.flat.elems_per_page = 64;
  options.grid.elems_per_page = 64;
  options.num_threads = num_threads;
  return options;
}

// The acceptance run: a seeded 1000-query mixed Range/Knn workload executed
// as one cold batch against every backend, serially and with four worker
// threads — byte-identical reports, request order preserved. Scaled up by
// the nightly registration through NEURODB_DIFF_QUERIES.
TEST(ParallelBatchTest, ParallelBatchIsByteIdenticalToSerial) {
  neuro::Circuit circuit = MakeCircuit(12, 7);
  engine::QueryEngine serial_db(BatchOptions(1));
  engine::QueryEngine parallel_db(BatchOptions(4));
  ASSERT_TRUE(serial_db.LoadCircuit(circuit).ok());
  ASSERT_TRUE(parallel_db.LoadCircuit(circuit).ok());
  ASSERT_NE(parallel_db.thread_pool(), nullptr);
  geom::ElementVec elements = circuit.FlattenSegments().Elements();

  neuro::MixedWorkloadOptions options;
  options.knn_fraction = 0.35;
  size_t queries = ::neurodb::testing::EnvOr("NEURODB_DIFF_QUERIES", 1000);
  ::neurodb::testing::DiffOutcome outcome = ::neurodb::testing::RunBatchParity(
      &serial_db, &parallel_db, elements, options, queries,
      ::neurodb::testing::EnvOr("NEURODB_DIFF_SEED", 20260730));
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_EQ(outcome.queries_run, queries);
  EXPECT_GT(outcome.ranges, 0u);
  EXPECT_GT(outcome.knns, 0u);
}

// Scheduling must never leak into the output: the same batch through the
// same multi-threaded engine twice is bit-identical, including per-query
// stats and the lane-merged aggregate.
TEST(ParallelBatchTest, RepeatedParallelRunsAreDeterministic) {
  neuro::Circuit circuit = MakeCircuit(10, 19);
  engine::QueryEngine db(BatchOptions(4));
  ASSERT_TRUE(db.LoadCircuit(circuit).ok());
  geom::ElementVec elements = circuit.FlattenSegments().Elements();

  neuro::MixedWorkloadOptions options;
  options.knn_fraction = 0.4;
  std::vector<neuro::WorkloadQuery> workload =
      neuro::MixedWorkload(db.domain(), elements, options, 200, 23);
  // Warm requests: lanes share pool state *within* the run — the adversarial
  // case for determinism across runs.
  std::vector<engine::QueryRequest> batch;
  for (neuro::WorkloadQuery& query : workload) {
    if (query.kind == neuro::QueryKind::kRange) {
      engine::RangeRequest request;
      request.box = query.box;
      request.cache = engine::CachePolicy::kWarm;
      batch.emplace_back(request);
    } else if (query.kind == neuro::QueryKind::kKnn) {
      engine::KnnRequest request;
      request.point = query.point;
      request.k = query.k;
      request.cache = engine::CachePolicy::kWarm;
      batch.emplace_back(request);
    }
  }

  auto first = db.ExecuteBatch(std::span<const engine::QueryRequest>(batch));
  auto second = db.ExecuteBatch(std::span<const engine::QueryRequest>(batch));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->reports.size(), second->reports.size());
  EXPECT_GT(first->aggregate.lanes, 1u);
  EXPECT_EQ(first->aggregate.pages_read, second->aggregate.pages_read);
  EXPECT_EQ(first->aggregate.time_us, second->aggregate.time_us);
  EXPECT_EQ(first->aggregate.critical_path_us,
            second->aggregate.critical_path_us);
  EXPECT_EQ(first->aggregate.pool_hits, second->aggregate.pool_hits);
  for (size_t i = 0; i < first->reports.size(); ++i) {
    ASSERT_EQ(first->reports[i].index(), second->reports[i].index());
    if (const auto* a =
            std::get_if<engine::RangeReport>(&first->reports[i])) {
      const auto& b = std::get<engine::RangeReport>(second->reports[i]);
      EXPECT_EQ(a->results, b.results) << "request " << i;
      EXPECT_TRUE(::neurodb::testing::SameRows(a->rows, b.rows))
          << "request " << i;
    } else {
      const auto& a_knn = std::get<engine::KnnReport>(first->reports[i]);
      const auto& b_knn = std::get<engine::KnnReport>(second->reports[i]);
      EXPECT_EQ(a_knn.hits, b_knn.hits) << "request " << i;
      EXPECT_TRUE(::neurodb::testing::SameRows(a_knn.rows, b_knn.rows))
          << "request " << i;
    }
  }
}

// The aggregate invariants of the lane merge: time_us is the sum of lane
// clocks, critical_path_us the slowest lane, and both reduce to the serial
// reading when there is one lane.
TEST(ParallelBatchTest, AggregateTracksLanesAndCriticalPath) {
  neuro::Circuit circuit = MakeCircuit(8, 31);
  engine::QueryEngine db(BatchOptions(3));
  ASSERT_TRUE(db.LoadCircuit(circuit).ok());

  auto boxes = neuro::DataCenteredQueries(
      circuit.FlattenSegments().Elements(), 30.0f, 9, 41);
  std::vector<engine::RangeRequest> batch;
  for (const geom::Aabb& box : boxes) {
    engine::RangeRequest request;
    request.box = box;
    request.backend = engine::BackendChoice::kFlat;
    batch.push_back(request);
  }
  auto result = db.ExecuteBatch(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->aggregate.lanes, 3u);
  EXPECT_GE(result->aggregate.time_us, result->aggregate.critical_path_us);
  EXPECT_GT(result->aggregate.critical_path_us, 0u);
  // Three near-equal lanes: the critical path cannot exceed the total but
  // must cover at least a lane's share of it.
  EXPECT_GE(result->aggregate.critical_path_us,
            result->aggregate.time_us / 3);
}

}  // namespace
}  // namespace exec
}  // namespace neurodb
