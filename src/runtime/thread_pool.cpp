#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "autograd/grad_mode.h"
#include "runtime/trace.h"

namespace litho::runtime {

namespace {

/// Pool owning the worker this thread belongs to (nullptr off-pool). A
/// parallel_for on the SAME pool from one of its workers runs inline
/// (deadlock safety); a different pool's loop may still fan out.
thread_local ThreadPool* worker_owner = nullptr;
thread_local ThreadPool* current_pool_override = nullptr;
/// Pool whose parallel_for chunk this thread is currently executing (set on
/// the submitting thread for chunk 0 too, not just workers). A nested loop
/// on the same pool runs inline rather than queueing behind busy workers.
thread_local ThreadPool* active_chunk_pool = nullptr;

/// Scoped thread-local state applied around every chunk: nested kernel
/// loops target the pool executing them (instead of lazily instantiating
/// the global pool) and recognize it as already-parallel.
struct ChunkScope {
  explicit ChunkScope(ThreadPool* pool)
      : prev_override(current_pool_override), prev_active(active_chunk_pool) {
    current_pool_override = pool;
    active_chunk_pool = pool;
  }
  ~ChunkScope() {
    current_pool_override = prev_override;
    active_chunk_pool = prev_active;
  }
  ThreadPool* prev_override;
  ThreadPool* prev_active;
};

}  // namespace

// One in-flight parallel_for broadcast. Lives on the submitting thread's
// stack for the duration of the (synchronous) call; workers reach it through
// the pool's jobs_ list and claim chunks via the atomic cursor, so the
// dispatch allocates nothing. `finished`, `refs` and `error` are guarded by
// the pool mutex; the submitter may not return (and destroy the job) until
// finished == nchunks and refs == 0.
struct ThreadPool::ParallelJob {
  ParallelBody body;
  int64_t base = 0, extra = 0;  // even split: first `extra` chunks +1 long
  int64_t nchunks = 0;
  bool grad_mode = false;
  std::atomic<int64_t> next{0};  // chunk claim cursor
  int64_t finished = 0;          // chunks completed
  int refs = 0;                  // workers currently inside run_job_chunks
  std::exception_ptr error;
  ParallelJob* next_job = nullptr;

  explicit ParallelJob(ParallelBody b) : body(b) {}
};

ThreadPool::ThreadPool(int num_threads) {
  size_ = num_threads > 0 ? num_threads : default_num_threads();
  workers_.reserve(static_cast<size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  // A worker's startup allocates (its trace ring). Waiting for it here
  // keeps those allocations out of any later allocation-free window.
  std::unique_lock<std::mutex> lock(mutex_);
  started_cv_.wait(lock, [this] { return started_ == size_ - 1; });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::ParallelJob* ThreadPool::runnable_job_locked() {
  for (ParallelJob* j = jobs_; j != nullptr; j = j->next_job) {
    if (j->next.load(std::memory_order_relaxed) < j->nchunks) return j;
  }
  return nullptr;
}

void ThreadPool::run_job_chunks(ParallelJob& job) {
  for (;;) {
    const int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.nchunks) return;
    const int64_t begin = c * job.base + std::min(c, job.extra);
    const int64_t end = (c + 1) * job.base + std::min(c + 1, job.extra);
    const bool prev = ag::GradMode::is_enabled();
    ag::GradMode::set_enabled(job.grad_mode);
    try {
      ChunkScope chunk_scope(this);
      job.body(begin, end);
    } catch (...) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    ag::GradMode::set_enabled(prev);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (++job.finished == job.nchunks) job_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  worker_owner = this;
  trace::set_thread_name("pool-worker");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++started_;
  }
  started_cv_.notify_all();
  for (;;) {
    ParallelJob* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [this] {
        return stopping_ || runnable_job_locked() != nullptr;
      });
      job = runnable_job_locked();
      if (job == nullptr) return;  // stopping and drained
      ++job->refs;
    }
    run_job_chunks(*job);
    std::unique_lock<std::mutex> lock(mutex_);
    if (--job->refs == 0 && job->finished == job->nchunks) {
      job_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(int64_t n, ParallelBody body, int64_t grain) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  // Floor division keeps every chunk at >= grain iterations (the documented
  // contract); ranges below 2*grain run as a single inline chunk.
  const int64_t max_chunks =
      std::max<int64_t>(1, std::min<int64_t>(size_, n / grain));
  if (max_chunks <= 1 || worker_owner == this || active_chunk_pool == this) {
    body(0, n);
    return;
  }

  // Even split with the first (n % chunks) chunks one element longer.
  // Results depend only on these boundaries: chunks write disjoint ranges.
  ParallelJob job(body);
  job.base = n / max_chunks;
  job.extra = n % max_chunks;
  job.nchunks = max_chunks;
  job.grad_mode = ag::GradMode::is_enabled();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job.next_job = jobs_;
    jobs_ = &job;
  }
  job_ready_.notify_all();

  // The submitting thread claims chunks alongside the workers.
  run_job_chunks(job);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&job] {
      return job.finished == job.nchunks && job.refs == 0;
    });
    ParallelJob** p = &jobs_;
    while (*p != &job) p = &(*p)->next_job;
    *p = job.next_job;
  }
  if (job.error) std::rethrow_exception(job.error);
}

int ThreadPool::default_num_threads() {
  if (const char* env = std::getenv("DOINN_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(std::min<long>(v, 256));
    }
    std::fprintf(stderr,
                 "warning: ignoring invalid DOINN_NUM_THREADS=\"%s\"\n", env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool ThreadPool::in_worker_thread() { return worker_owner != nullptr; }

ThreadPool& global_pool() {
  static ThreadPool pool(ThreadPool::default_num_threads());
  return pool;
}

ThreadPool& current_pool() {
  return current_pool_override != nullptr ? *current_pool_override
                                          : global_pool();
}

ScopedPool::ScopedPool(ThreadPool* pool) : prev_(current_pool_override) {
  if (pool != nullptr) current_pool_override = pool;
}

ScopedPool::~ScopedPool() { current_pool_override = prev_; }

void parallel_for(int64_t n, ParallelBody body, int64_t grain) {
  if (n <= 0) return;
  if (n < 2 * std::max<int64_t>(1, grain)) {
    // Ranges below two grains can never split (floor-division chunking), so
    // they run inline without resolving a pool — a small kernel never
    // instantiates the global pool as a side effect.
    body(0, n);
    return;
  }
  current_pool().parallel_for(n, body, grain);
}

}  // namespace litho::runtime
