// Dynamic-batching request scheduler for the serving runtime.
//
// A serving front end receives requests one at a time, while
// InferenceEngine::predict_batch runs a batch as per-sample batch-1 replays
// across its pool lanes: a lone request runs with its kernels parallel
// inside it, a batch keeps every lane on a whole sample. The Scheduler sits
// between the two: clients hand it single masks and get a std::future
// back; a dispatcher thread coalesces queued training-tile-sized masks into
// predict_batch calls, flushing a batch as soon as it is full (`max_batch`)
// or the oldest queued request has waited `max_delay_us`. Oversized masks
// are routed to predict_large individually.
//
// Determinism: per-sample predict_batch results are bitwise identical to the
// unbatched path (see InferenceEngine), so every coalescing pattern — any
// batch composition, any flush timing, any client thread count — yields
// bitwise identical per-request results.
//
// Observability: all counters and the latency distribution live in a
// MetricsRegistry (scheduler.* names; private to this scheduler unless
// SchedulerOptions.metrics points at a shared registry), and when runtime
// tracing is on (src/runtime/trace.h) the dispatcher records per-request
// queue-wait spans (async, correlated by request id), per-batch dispatch
// spans carrying batch id / size / flush reason, and enqueue instants.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/engine.h"
#include "runtime/metrics_registry.h"
#include "tensor/tensor.h"

namespace litho::runtime {

/// Scheduler tuning knobs. Defaults suit an interactive server: small
/// batches, low added latency, enough queue for one burst.
struct SchedulerOptions {
  /// Flush a batch once this many same-shape requests are pending.
  /// Must be >= 1.
  int max_batch = 8;
  /// Flush deadline: a batch is dispatched at the latest this many
  /// microseconds after its oldest request was queued, even if not full.
  /// 0 means "never wait": every flush happens as soon as the dispatcher
  /// sees work. Must be >= 0; values above 60 s are clamped to 60 s (which
  /// already means "hold until full"), keeping the deadline arithmetic far
  /// from steady_clock overflow.
  int64_t max_delay_us = 2000;
  /// Bounded-queue capacity. submit() blocks (backpressure) while this many
  /// requests are queued and not yet handed to the engine; try_submit()
  /// rejects instead. Must be >= max_batch so a full batch can ever form.
  int queue_cap = 64;
  /// Registry the scheduler.* metrics are registered in. nullptr (the
  /// default) gives the scheduler a private registry, so concurrently
  /// live schedulers never mix counts; doinn_serve's engine pool passes
  /// &MetricsRegistry::global() so one dump covers the whole process.
  MetricsRegistry* metrics = nullptr;
  /// Name prefix for this scheduler's metrics. The default "scheduler."
  /// serves in-process schedulers (tests, benches); the engine pool gives
  /// each replica scheduler its own "pool.<model>.r<k>." prefix so several
  /// schedulers can share one registry without their counters colliding.
  std::string metric_prefix = "scheduler.";
  /// Model name attached to this scheduler's trace spans (sched.dispatch
  /// "model" arg) so multi-model traces correlate batches to models.
  /// Empty = omit the arg (in-process schedulers, tests).
  std::string trace_model;
};

/// Counters and latency summary exposed by Scheduler::stats(), snapshotted
/// from the scheduler's metrics registry.
struct SchedulerStats {
  int64_t submitted = 0;        ///< requests accepted by submit()
  int64_t completed = 0;        ///< futures fulfilled with a contour
  int64_t failed = 0;           ///< futures fulfilled with an exception
  int64_t batches = 0;          ///< predict_batch dispatches
  int64_t batched_requests = 0; ///< requests served through predict_batch
  int64_t large = 0;            ///< predict_large dispatches (one request each)
  int64_t rejected = 0;         ///< try_submit() refusals (queue full / draining)
  int64_t max_queue_depth = 0;  ///< high-water mark of the bounded queue
  int64_t queue_depth = 0;      ///< requests queued right now
  int64_t effective_delay_us = 0;  ///< hold deadline of the last batch (max_delay_us)
  /// Per-request wall time from submit() to promise fulfillment, including
  /// queueing delay. Percentiles are nearest-rank over the histogram's
  /// bounded reservoir; mean is exact over all completed requests. 0 when
  /// nothing completed.
  double latency_ms_p50 = 0.0;
  double latency_ms_p99 = 0.0;
  double latency_ms_mean = 0.0;
};

/// Asynchronous dynamic-batching front end over an InferenceEngine.
///
/// Thread-safe: any number of client threads may call submit()
/// concurrently. A single dispatcher thread owns all engine calls; the
/// engine's own pool parallelizes each call internally, so the scheduler
/// adds exactly one thread.
///
/// Lifecycle: the dispatcher starts in the constructor and is stopped by
/// shutdown() (also called by the destructor), which drains every queued
/// request before the thread exits — pending futures always resolve.
class Scheduler {
 public:
  /// @param engine Engine the dispatcher calls into. Must outlive the
  ///   scheduler. Masks with height or width above engine.config().tile are
  ///   routed to predict_large, everything else to predict_batch.
  /// @param opts Batching knobs; throws std::invalid_argument when
  ///   max_batch < 1, max_delay_us < 0, or queue_cap < max_batch.
  explicit Scheduler(InferenceEngine& engine, SchedulerOptions opts = {});

  /// Drains and stops the dispatcher (equivalent to shutdown()).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Queues a 2-D mask for prediction and returns a future for its
  /// binarized contour. Blocks while the queue holds queue_cap requests
  /// (backpressure). Throws std::invalid_argument for non-2-D masks and
  /// std::runtime_error after shutdown() has begun. The future carries any
  /// exception the engine threw for this request's dispatch.
  ///
  /// Tensor storage is shared, not copied: the caller must not mutate the
  /// mask's elements until the future resolves.
  ///
  /// The two-argument form threads an externally assigned correlation id
  /// (the socket server's per-request ingest id) through the trace spans;
  /// the single-argument form assigns ids from an internal counter.
  std::future<Tensor> submit(Tensor mask);
  std::future<Tensor> submit(Tensor mask, uint64_t request_id);

  /// Non-blocking submit for event-loop callers (the socket front end):
  /// returns std::nullopt — immediately, never waiting — when the queue
  /// already holds queue_cap requests or shutdown() has begun, so a full
  /// queue maps to an instant BUSY reject instead of a stalled event loop.
  /// On success the returned future behaves exactly like submit()'s, and
  /// the accepted request is bitwise identical to the blocking path.
  /// Still throws std::invalid_argument for non-2-D masks (malformed
  /// input is a caller bug, not backpressure).
  std::optional<std::future<Tensor>> try_submit(Tensor mask);
  std::optional<std::future<Tensor>> try_submit(Tensor mask,
                                                uint64_t request_id);

  /// Stops accepting new requests, waits until every queued request has
  /// been dispatched and its promise fulfilled, then joins the dispatcher.
  /// Idempotent and safe to call concurrently with submit() (late
  /// submitters get std::runtime_error).
  void shutdown();

  /// Snapshot of the counters and the latency distribution.
  SchedulerStats stats() const;

  /// Requests queued right now (cheap: one lock, no metric snapshots).
  /// The engine pool polls this per submit for least-queue-depth routing.
  int64_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(queue_.size());
  }

  /// Registry holding the scheduler.* metrics (the options-provided one,
  /// else the scheduler's private registry).
  MetricsRegistry& metrics() const { return *metrics_; }

  const SchedulerOptions& options() const { return opts_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    Tensor mask;
    std::promise<Tensor> promise;
    Clock::time_point enqueued;
    uint64_t id = 0;  // trace correlation id
  };

  /// Front-of-queue dispatch plan, computed under the lock.
  struct FrontRun {
    int count = 0;      // requests to pop (>= 1 when queue non-empty)
    bool large = false; // route to predict_large (count == 1)
    bool closed = false;// run cannot grow: blocked by a different shape
  };

  FrontRun front_run_locked() const;
  std::future<Tensor> enqueue(std::unique_lock<std::mutex> lock, Tensor mask,
                              uint64_t request_id);
  void dispatch_loop();
  void fulfill(std::vector<Request>& batch, bool large);
  void record_outcome(const Request& req, Counter& counter);

  InferenceEngine& engine_;
  const SchedulerOptions opts_;
  const int64_t tile_;

  // Metrics live in *metrics_ (owned unless SchedulerOptions.metrics was
  // set); the references below are resolved once at construction.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Counter& m_submitted_;
  Counter& m_completed_;
  Counter& m_failed_;
  Counter& m_batches_;
  Counter& m_batched_requests_;
  Counter& m_large_;
  Counter& m_rejected_;
  Gauge& m_max_queue_depth_;
  Gauge& m_effective_delay_us_;
  Histogram& m_latency_ms_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;     // dispatcher waits for work / drain
  std::condition_variable space_cv_;    // submitters wait for queue space
  std::condition_variable shutdown_cv_; // late shutdown() callers wait here
  std::deque<Request> queue_;
  bool draining_ = false;
  bool join_claimed_ = false;     // a shutdown() caller owns the join
  bool dispatcher_exited_ = false;
  std::atomic<uint64_t> next_request_id_{0};  // ids for the 1-arg submit()
  uint64_t batch_seq_ = 0;  // trace batch correlation ids (dispatcher only)

  std::thread dispatcher_;
};

}  // namespace litho::runtime
