// NeuroDB — statistics registry (RocksDB-style named tickers) and timers.
//
// Every subsystem reports its runtime behaviour (pages read, nodes visited,
// comparisons performed, ...) through a Stats object so the demo-style live
// statistics panels (paper Figures 3, 6, 7) can be reproduced as tables.

#ifndef NEURODB_COMMON_STATS_H_
#define NEURODB_COMMON_STATS_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace neurodb {

/// A monotonically increasing named counter store.
///
/// ## Single-writer contract
///
/// Stats is NOT thread-safe, by design: each experiment, session or batch
/// lane owns its own instance, mutated by at most one thread at a time.
/// Ownership may move between threads, but two threads must never mutate —
/// or mutate-while-reading — the same instance concurrently. That keeps
/// increments branch-free and lock-free on hot paths. (Buffer pools, which
/// concurrent readers share, count into typed storage::BufferPoolCounters
/// under their own latch instead.)
///
/// Cross-thread aggregation therefore happens by merging *quiesced*
/// instances after the fact (`Merge`), never by sharing one instance
/// across live writers. For
/// metrics that genuinely need concurrent multi-thread recording, use
/// `obs::MetricsRegistry` (src/obs/metrics.h) — that is the thread-safe,
/// engine-wide registry; Stats is the single-owner experiment ledger.
///
/// Debug builds enforce the contract probabilistically: every mutator
/// sets an atomic in-flight flag and asserts it was clear, so two writers
/// racing the same instance trip an assert instead of corrupting the map.
class Stats {
 public:
  Stats() = default;
  // The write-detector flag is per-instance state, not data: copies and
  // moves transfer tickers only. (Explicit because the atomic member
  // suppresses the implicit copy/move operations.)
  Stats(const Stats& other) : tickers_(other.tickers_) {}
  Stats(Stats&& other) noexcept : tickers_(std::move(other.tickers_)) {}
  Stats& operator=(const Stats& other) {
    tickers_ = other.tickers_;
    return *this;
  }
  Stats& operator=(Stats&& other) noexcept {
    tickers_ = std::move(other.tickers_);
    return *this;
  }

  /// Add `delta` to the named ticker (creating it at zero if absent).
  void Add(const std::string& name, uint64_t delta) {
    const WriterCheck check(this);
    tickers_[name] += delta;
  }

  /// Increment the named ticker by one.
  void Bump(const std::string& name) { Add(name, 1); }

  /// Overwrite the named ticker (for gauges such as peak memory).
  void Set(const std::string& name, uint64_t value) {
    const WriterCheck check(this);
    tickers_[name] = value;
  }

  /// Record the maximum seen for a gauge.
  void SetMax(const std::string& name, uint64_t value) {
    const WriterCheck check(this);
    uint64_t& slot = tickers_[name];
    if (value > slot) slot = value;
  }

  /// Current value of a ticker (0 if never touched).
  uint64_t Get(const std::string& name) const {
    auto it = tickers_.find(name);
    return it == tickers_.end() ? 0 : it->second;
  }

  /// All tickers in name order.
  const std::map<std::string, uint64_t>& tickers() const { return tickers_; }

  /// Reset all tickers to zero (keeps names).
  void Reset() {
    const WriterCheck check(this);
    for (auto& kv : tickers_) kv.second = 0;
  }

  /// Remove all tickers.
  void Clear() {
    const WriterCheck check(this);
    tickers_.clear();
  }

  /// Merge another Stats into this one (ticker-wise addition). `other`
  /// must be quiesced (no live writer) — see the single-writer contract.
  void Merge(const Stats& other) {
    const WriterCheck check(this);
    for (const auto& kv : other.tickers()) tickers_[kv.first] += kv.second;
  }

  /// "name=value name=value ..." in name order.
  std::string ToString() const;

 private:
#ifndef NDEBUG
  /// RAII concurrent-write detector: trips an assert when two threads
  /// mutate the same Stats at once (sequential cross-thread handoff stays
  /// legal). Compiled out in release builds.
  class WriterCheck {
   public:
    explicit WriterCheck(const Stats* stats) : stats_(stats) {
      const bool was_writing =
          stats_->writing_.exchange(true, std::memory_order_acquire);
      assert(!was_writing &&
             "common/Stats is single-writer: concurrent mutation detected "
             "(use obs::MetricsRegistry for shared multi-thread metrics)");
      (void)was_writing;
    }
    ~WriterCheck() {
      stats_->writing_.store(false, std::memory_order_release);
    }
    WriterCheck(const WriterCheck&) = delete;
    WriterCheck& operator=(const WriterCheck&) = delete;

   private:
    const Stats* stats_;
  };
  mutable std::atomic<bool> writing_{false};
#else
  class WriterCheck {
   public:
    explicit WriterCheck(const Stats*) {}
  };
#endif

  std::map<std::string, uint64_t> tickers_;
};

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

  double ElapsedMicros() const { return ElapsedNanos() / 1e3; }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// RAII helper: adds the elapsed nanoseconds to `stats[ticker]` on scope exit.
class ScopedTimer {
 public:
  ScopedTimer(Stats* stats, std::string ticker)
      : stats_(stats), ticker_(std::move(ticker)) {}
  ~ScopedTimer() {
    if (stats_ != nullptr) stats_->Add(ticker_, timer_.ElapsedNanos());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Stats* stats_;
  std::string ticker_;
  Timer timer_;
};

}  // namespace neurodb

#endif  // NEURODB_COMMON_STATS_H_
