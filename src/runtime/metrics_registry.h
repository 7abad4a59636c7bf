// Unified metrics layer for the serving stack: named counters, gauges, and
// reservoir-sampled histograms behind one registry with a JSON snapshot.
//
// Usage pattern: look a metric up once (registration takes the registry
// mutex) and keep the returned reference — references stay valid for the
// registry's lifetime. Updates are then lock-free for counters/gauges
// (relaxed atomics) and a short mutex for histograms, so metrics can sit on
// the per-request serving path.
//
// The scheduler, the serving front end, and the benches all record into
// this layer (scheduler.* / pool.* / serve.* namespaces); `doinn_serve
// --metrics-out metrics.json` dumps the global registry on shutdown and on
// SIGUSR1. Histograms reuse the bounded-reservoir + nearest-rank-percentile
// approach of src/runtime/percentile.h, so a long-lived server keeps O(1)
// memory per metric.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace litho::runtime {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value, with a max-tracking helper for
/// high-water marks.
class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to @p v if larger (queue high-water marks).
  void update_max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Distribution summary: exact count/sum/min/max plus nearest-rank
/// percentiles over a bounded reservoir sample (Vitter's algorithm R, fixed
/// seed — sampling never influences computation results).
class Histogram {
 public:
  explicit Histogram(size_t reservoir_capacity = 4096)
      : capacity_(reservoir_capacity == 0 ? 1 : reservoir_capacity) {}

  void record(double v);

  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  Snapshot snapshot() const;
  /// Nearest-rank percentile (q in [0,1]) over the current reservoir.
  double percentile(double q) const;
  void reset();

 private:
  mutable std::mutex mutex_;
  const size_t capacity_;
  std::vector<double> reservoir_;
  std::mt19937_64 rng_{0x5eedfULL};
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metric registry. Thread-safe; returned references remain valid and
/// writable for the registry's lifetime (reset() clears values but keeps
/// every registered metric object alive).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by doinn_serve and the benches.
  static MetricsRegistry& global();

  /// Finds or creates the named metric. Names are dot-paths by convention
  /// ("scheduler.requests_submitted"). A histogram's reservoir capacity is
  /// fixed by its first registration.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       size_t reservoir_capacity = 4096);

  /// JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, min, max, p50, p90, p99}}}.
  std::string dump_json() const;
  /// dump_json() to a file; false (and stderr report) on I/O failure.
  bool write_json(const std::string& path) const;

  /// Zeroes every registered metric (tests, bench phases). References
  /// handed out earlier stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  // node-based maps: values never move, so references are stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace litho::runtime
