// NeuroDB — wall-clock timer.
//
// Runtime counters live in typed structs sampled at snapshot time
// (storage::BufferPoolCounters, cache::CacheStats, ...) and in the
// thread-safe obs::MetricsRegistry (src/obs/metrics.h); modeled I/O time
// runs on SimClock (common/sim_clock.h). Timer measures real elapsed time.

#ifndef NEURODB_COMMON_STATS_H_
#define NEURODB_COMMON_STATS_H_

#include <chrono>
#include <cstdint>

namespace neurodb {

/// Wall-clock stopwatch with nanosecond resolution.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Nanoseconds since construction or the last Restart().
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace neurodb

#endif  // NEURODB_COMMON_STATS_H_
