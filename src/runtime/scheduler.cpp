#include "runtime/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/trace.h"

namespace litho::runtime {

namespace {

/// Clamps the batch-hold deadline to 60 s: semantically "hold until full",
/// and small enough that enqueued + microseconds(delay) can never overflow
/// steady_clock's int64 nanosecond range.
SchedulerOptions clamp_options(SchedulerOptions opts) {
  constexpr int64_t kMaxDelayUs = 60'000'000;
  if (opts.max_delay_us > kMaxDelayUs) opts.max_delay_us = kMaxDelayUs;
  return opts;
}

}  // namespace

Scheduler::Scheduler(InferenceEngine& engine, SchedulerOptions opts)
    : engine_(engine),
      opts_(clamp_options(opts)),
      tile_(engine.config().tile),
      owned_metrics_(opts.metrics != nullptr ? nullptr
                                             : new MetricsRegistry),
      metrics_(opts.metrics != nullptr ? opts.metrics : owned_metrics_.get()),
      m_submitted_(metrics_->counter(opts_.metric_prefix +
                                     "requests_submitted")),
      m_completed_(metrics_->counter(opts_.metric_prefix +
                                     "requests_completed")),
      m_failed_(metrics_->counter(opts_.metric_prefix + "requests_failed")),
      m_batches_(metrics_->counter(opts_.metric_prefix +
                                   "batches_dispatched")),
      m_batched_requests_(metrics_->counter(opts_.metric_prefix +
                                            "batched_requests")),
      m_large_(metrics_->counter(opts_.metric_prefix + "large_dispatches")),
      m_rejected_(metrics_->counter(opts_.metric_prefix +
                                    "requests_rejected")),
      m_max_queue_depth_(metrics_->gauge(opts_.metric_prefix +
                                         "queue_depth_max")),
      m_effective_delay_us_(metrics_->gauge(opts_.metric_prefix +
                                            "effective_delay_us")),
      m_latency_ms_(metrics_->histogram(opts_.metric_prefix +
                                        "request_latency_ms")) {
  if (opts_.max_batch < 1) {
    throw std::invalid_argument("Scheduler: max_batch must be >= 1");
  }
  if (opts_.max_delay_us < 0) {
    throw std::invalid_argument("Scheduler: max_delay_us must be >= 0");
  }
  if (opts_.queue_cap < opts_.max_batch) {
    throw std::invalid_argument(
        "Scheduler: queue_cap must be >= max_batch (a full batch could "
        "never form)");
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Scheduler::~Scheduler() { shutdown(); }

std::future<Tensor> Scheduler::submit(Tensor mask) {
  // Internal ids share the u64 space with doinn_serve's small external
  // ids; the high bit keeps traces mixing both unambiguous.
  return submit(std::move(mask),
                (uint64_t{1} << 63) |
                    (next_request_id_.fetch_add(1, std::memory_order_relaxed) +
                     1));
}

std::future<Tensor> Scheduler::submit(Tensor mask, uint64_t request_id) {
  if (mask.dim() != 2) {
    throw std::invalid_argument("Scheduler::submit expects a 2-D mask");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [this] {
    return draining_ ||
           queue_.size() < static_cast<size_t>(opts_.queue_cap);
  });
  if (draining_) {
    throw std::runtime_error("Scheduler::submit after shutdown");
  }
  return enqueue(std::move(lock), std::move(mask), request_id);
}

std::optional<std::future<Tensor>> Scheduler::try_submit(Tensor mask) {
  return try_submit(std::move(mask),
                    (uint64_t{1} << 63) |
                        (next_request_id_.fetch_add(
                             1, std::memory_order_relaxed) +
                         1));
}

std::optional<std::future<Tensor>> Scheduler::try_submit(Tensor mask,
                                                         uint64_t request_id) {
  if (mask.dim() != 2) {
    throw std::invalid_argument("Scheduler::try_submit expects a 2-D mask");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_ || queue_.size() >= static_cast<size_t>(opts_.queue_cap)) {
    m_rejected_.add();
    if (trace::enabled()) {
      trace::emit_instant(
          "sched.reject", "sched",
          {{"req", static_cast<int64_t>(request_id)},
           {"queue_depth", static_cast<int64_t>(queue_.size())}},
          "reason", draining_ ? "draining" : "queue_full");
    }
    return std::nullopt;
  }
  return enqueue(std::move(lock), std::move(mask), request_id);
}

/// Shared tail of submit()/try_submit(): takes mutex_ held, with space in
/// the queue. Queues the request, wakes the dispatcher and releases the
/// lock before tracing: a client thread's first event creates its trace
/// ring, which must not happen while the scheduler is locked.
std::future<Tensor> Scheduler::enqueue(std::unique_lock<std::mutex> lock,
                                       Tensor mask, uint64_t request_id) {
  Request req;
  req.mask = std::move(mask);
  req.enqueued = Clock::now();
  req.id = request_id;
  std::future<Tensor> future = req.promise.get_future();
  queue_.push_back(std::move(req));
  m_submitted_.add();
  const int64_t depth = static_cast<int64_t>(queue_.size());
  m_max_queue_depth_.update_max(depth);
  lock.unlock();
  work_cv_.notify_one();
  if (trace::enabled()) {
    trace::emit_instant(
        "sched.enqueue", "sched",
        {{"req", static_cast<int64_t>(request_id)}, {"queue_depth", depth}});
  }
  return future;
}

void Scheduler::shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  work_cv_.notify_all();
  space_cv_.notify_all();
  // Exactly one caller performs the join; every other concurrent caller
  // (including the destructor) blocks until the dispatcher has actually
  // exited, so no shutdown() ever returns while dispatch_loop may still
  // touch this object.
  if (!join_claimed_) {
    join_claimed_ = true;
    lock.unlock();
    dispatcher_.join();
    lock.lock();
    dispatcher_exited_ = true;
    shutdown_cv_.notify_all();
  } else {
    shutdown_cv_.wait(lock, [this] { return dispatcher_exited_; });
  }
}

Scheduler::FrontRun Scheduler::front_run_locked() const {
  FrontRun run;
  if (queue_.empty()) return run;
  const Tensor& front = queue_.front().mask;
  if (front.size(0) > tile_ || front.size(1) > tile_) {
    run.count = 1;
    run.large = true;
    run.closed = true;  // dispatches alone; nothing to wait for
    return run;
  }
  const int64_t h = front.size(0), w = front.size(1);
  for (const Request& r : queue_) {
    if (run.count >= opts_.max_batch) break;
    const bool oversized = r.mask.size(0) > tile_ || r.mask.size(1) > tile_;
    if (oversized || r.mask.size(0) != h || r.mask.size(1) != w) {
      // FIFO order is preserved, so a shape break means this batch can
      // never grow further — flush it without waiting out the deadline.
      run.closed = true;
      break;
    }
    ++run.count;
  }
  return run;
}

void Scheduler::record_outcome(const Request& req, Counter& counter) {
  counter.add();
  m_latency_ms_.record(
      std::chrono::duration<double, std::milli>(Clock::now() - req.enqueued)
          .count());
}

void Scheduler::fulfill(std::vector<Request>& batch, bool large) {
  std::vector<Tensor> results;
  std::exception_ptr error;
  try {
    if (large) {
      results.push_back(engine_.predict_large(batch.front().mask));
    } else {
      std::vector<Tensor> masks;
      masks.reserve(batch.size());
      for (Request& r : batch) masks.push_back(std::move(r.mask));
      results = engine_.predict_batch(masks);
    }
  } catch (...) {
    error = std::current_exception();
  }
  // All metrics land before any promise resolves: a caller that wakes on
  // future.get() and immediately reads stats() must already see this batch
  // (the counters are lock-free, so resolution order is the only fence).
  for (const Request& r : batch) {
    record_outcome(r, error ? m_failed_ : m_completed_);
  }
  if (large) {
    m_large_.add();
  } else {
    m_batches_.add();
    m_batched_requests_.add(static_cast<int64_t>(batch.size()));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (error) {
      batch[i].promise.set_exception(error);
    } else {
      batch[i].promise.set_value(std::move(results[i]));
    }
  }
}

void Scheduler::dispatch_loop() {
  trace::set_thread_name("sched-dispatcher");
  for (;;) {
    std::vector<Request> batch;
    bool large = false;
    const char* flush_reason = "deadline";
    uint64_t batch_id = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and nothing left
      // Hold the batch open until it fills, closes, or the oldest request
      // has waited max_delay_us. While draining, flush immediately.
      m_effective_delay_us_.set(opts_.max_delay_us);
      const auto deadline = queue_.front().enqueued +
                            std::chrono::microseconds(opts_.max_delay_us);
      work_cv_.wait_until(lock, deadline, [this] {
        if (draining_) return true;
        const FrontRun run = front_run_locked();
        return run.closed || run.count >= opts_.max_batch;
      });
      const FrontRun run = front_run_locked();
      large = run.large;
      if (run.large) {
        flush_reason = "large";
      } else if (run.count >= opts_.max_batch) {
        flush_reason = "full";
      } else if (run.closed) {
        flush_reason = "shape_break";
      } else if (draining_) {
        flush_reason = "drain";
      }
      batch_id = ++batch_seq_;
      batch.reserve(static_cast<size_t>(run.count));
      for (int i = 0; i < run.count; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      // Queue space freed before the engine runs, so producers refill the
      // next batch while this one computes.
      space_cv_.notify_all();
    }
    if (trace::enabled()) {
      // Per-request queue-wait intervals overlap within a batch, so they go
      // out as async spans correlated by request id rather than nested
      // stack spans on the dispatcher tid.
      const int64_t popped_ns = trace::now_ns();
      for (const Request& r : batch) {
        const int64_t enq_ns = trace::to_trace_ns(r.enqueued);
        trace::emit_async("sched.queue_wait", "sched", r.id, enq_ns,
                          popped_ns - enq_ns,
                          {{"req", static_cast<int64_t>(r.id)},
                           {"batch", static_cast<int64_t>(batch_id)}});
      }
    }
    {
      trace::ScopedSpan span("sched.dispatch", "sched", "batch",
                             static_cast<int64_t>(batch_id), "batch_size",
                             static_cast<int64_t>(batch.size()));
      span.sarg("flush", flush_reason);
      if (!opts_.trace_model.empty()) {
        span.sarg("model", opts_.trace_model.c_str());
      }
      fulfill(batch, large);
    }
  }
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  s.submitted = m_submitted_.value();
  s.completed = m_completed_.value();
  s.failed = m_failed_.value();
  s.batches = m_batches_.value();
  s.batched_requests = m_batched_requests_.value();
  s.large = m_large_.value();
  s.rejected = m_rejected_.value();
  s.max_queue_depth = m_max_queue_depth_.value();
  s.effective_delay_us = m_effective_delay_us_.value();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.queue_depth = static_cast<int64_t>(queue_.size());
  }
  const Histogram::Snapshot lat = m_latency_ms_.snapshot();
  s.latency_ms_p50 = lat.p50;
  s.latency_ms_p99 = lat.p99;
  s.latency_ms_mean = lat.mean;
  return s;
}

}  // namespace litho::runtime
