// Inference runtime thread pool.
//
// A fixed-size pool of workers whose only work is chunked static-partition
// parallel_for loops. Design points:
//
//  - Sizing: DOINN_NUM_THREADS env var wins, else
//    std::thread::hardware_concurrency(). A size of 1 means "no workers":
//    every loop runs inline on the submitting thread.
//  - parallel_for(n, body) splits [0, n) into at most size() contiguous
//    chunks and calls body(begin, end) once per chunk, so the body can keep
//    per-chunk scratch buffers (im2col columns, FFT line buffers) alive
//    across iterations. Chunk boundaries depend only on (n, size(), grain),
//    never on scheduling, and chunks write disjoint ranges — results are
//    bitwise deterministic for any thread count.
//  - Nesting: a parallel_for issued from inside one of the SAME pool's
//    workers runs inline (single chunk) instead of broadcasting a new job,
//    so data-level parallelism composes without deadlock. Workers also
//    propagate their pool as the current_pool() override, so nested kernel
//    loops target the pool executing them rather than the global pool.
//  - Exceptions: the first exception thrown by any chunk is captured and
//    rethrown on the submitting thread after all chunks finish; the pool
//    stays usable.
//  - Grad mode: the submitting thread's ag::GradMode flag is propagated
//    into every chunk (PyTorch's ThreadLocalState idiom), so NoGradGuard
//    held around a parallel region applies to the workers too.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace litho::runtime {

/// Non-owning type-erased reference to a parallel_for body (a lightweight
/// function_ref). parallel_for is synchronous — the referenced callable
/// always outlives the call — so no heap-allocating std::function is ever
/// materialized on the dispatch path; the graph executor's zero-allocation
/// replay contract depends on this.
class ParallelBody {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ParallelBody> &&
                std::is_invocable_v<const F&, int64_t, int64_t>>>
  ParallelBody(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, int64_t b, int64_t e) {
          (*static_cast<const F*>(o))(b, e);
        }) {}

  void operator()(int64_t begin, int64_t end) const { call_(obj_, begin, end); }

 private:
  void* obj_;
  void (*call_)(void*, int64_t, int64_t);
};

class ThreadPool {
 public:
  /// Creates @p num_threads - 1 workers (the submitting thread acts as the
  /// remaining lane). num_threads <= 0 means default_num_threads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism degree (worker count + 1 for the submitting thread).
  int size() const { return size_; }

  /// Chunked static-partition loop over [0, n): body(begin, end) is invoked
  /// for at most min(size(), n / grain) contiguous chunks, each of at least
  /// @p grain iterations. Runs inline when that bound is one chunk,
  /// size() == 1, or this thread is already executing this pool's work (one
  /// of its workers or a parallel_for chunk). Chunk *boundaries* depend only
  /// on (n, size(), grain); which thread executes which chunk is dynamic (a
  /// stack-allocated job broadcast — no per-chunk heap traffic), which is
  /// invisible to results because chunks write disjoint ranges.
  void parallel_for(int64_t n, ParallelBody body, int64_t grain = 1);

  /// Pool size implied by the environment: DOINN_NUM_THREADS if set to a
  /// positive integer, else std::thread::hardware_concurrency().
  static int default_num_threads();

  /// True when called from inside a ThreadPool worker thread.
  static bool in_worker_thread();

 private:
  struct ParallelJob;

  void worker_loop();
  /// Claims and runs chunks of @p job until none remain.
  void run_job_chunks(ParallelJob& job);
  /// First job with unclaimed chunks, or nullptr. Caller holds mutex_.
  ParallelJob* runnable_job_locked();

  int size_;
  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  std::condition_variable started_cv_;
  ParallelJob* jobs_ = nullptr;  // live parallel_for broadcasts (stack-owned)
  int started_ = 0;  // workers past their startup (started_cv_ signals it)
  bool stopping_ = false;
};

/// Process-wide pool used by the parallel kernels (FFT batches, conv im2col,
/// SOCS accumulation). Created on first use with default_num_threads().
ThreadPool& global_pool();

/// Pool the free parallel_for below dispatches to: the innermost ScopedPool
/// override on this thread, else the global pool.
ThreadPool& current_pool();

/// Thread-local RAII override of current_pool(), used by InferenceEngine to
/// route the parallel kernels through its own pool for the duration of a
/// prediction. Nests; passing nullptr is a no-op (keeps the previous pool).
class ScopedPool {
 public:
  /// Makes @p pool the current_pool() for this thread until destruction.
  explicit ScopedPool(ThreadPool* pool);
  /// Restores the previously current pool.
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* prev_;
};

/// parallel_for on current_pool().
void parallel_for(int64_t n, ParallelBody body, int64_t grain = 1);

}  // namespace litho::runtime
