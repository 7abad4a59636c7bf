// Pooled scratch buffers for parallel kernels: complex<double> buffers for
// the FFT kernels, float buffers for the packed GEMM / convolution engine.
//
// The FFT kernels need per-worker complex scratch (line buffers, Bluestein
// convolution pads, per-plane staging); the packed GEMM engine needs float
// scratch (A/B panel packing, conv gradient columns). Before this pool each
// parallel_for chunk heap-allocated fresh vectors per batch element; a
// serving process doing thousands of predictions per second spent
// measurable time in the allocator and fragmented it. The pool keeps a
// small mutex-guarded free list of previously used buffers, rounded up to
// power-of-two capacities so nearby request sizes hit the same buffer
// class. The list is bounded in both count and total bytes, so plane-sized
// scratch from a huge tile is dropped instead of staying pinned after the
// burst that needed it.
//
// Usage is RAII: a Workspace lease acquires on construction and returns the
// buffer on destruction. Contents are UNSPECIFIED on acquisition — leases
// recycle dirty buffers; callers must fully overwrite (or explicitly zero)
// what they read.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

namespace litho::runtime {

/// Smallest power of two >= n (>= 1). Shared by the workspace pool's buffer
/// size classes and the FFT plan cache's Bluestein pad length.
inline size_t next_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Process-wide recycling pool of T buffers. One independent pool (free
/// list, byte budget, stats) exists per element type.
template <typename T>
class BasicWorkspacePool {
 public:
  /// Global instance used by the BasicWorkspace lease below.
  static BasicWorkspacePool& instance();

  /// A buffer with size() >= min_size (capacity rounded up to a power of
  /// two). Reuses a pooled buffer when one is large enough, else allocates.
  std::vector<T> acquire(size_t min_size);

  /// Returns a buffer to the free list (dropped if the list is full, by
  /// count or total bytes).
  void release(std::vector<T> buf);

  struct Stats {
    size_t acquires = 0;  // total acquire() calls
    size_t reuses = 0;    // acquires served from the free list
  };
  Stats stats() const;

  /// Drops every pooled buffer (tests / memory-pressure hook).
  void clear();

 private:
  struct Impl;
  Impl& impl() const;
};

extern template class BasicWorkspacePool<std::complex<double>>;
extern template class BasicWorkspacePool<float>;
extern template class BasicWorkspacePool<int8_t>;

/// Complex scratch pool used by the FFT kernels.
using WorkspacePool = BasicWorkspacePool<std::complex<double>>;
/// Float scratch pool used by the GEMM engine and the conv kernels.
using FloatWorkspacePool = BasicWorkspacePool<float>;
/// Byte scratch pool used by the int8 inference path (quantized B panels,
/// and the int32 partial sums parked between K chunks, viewed as int32).
using Int8WorkspacePool = BasicWorkspacePool<int8_t>;

/// A private free list for every element type, in front of the
/// process-wide pools. While a ScopedLeaseCache names it, the leases made
/// on that thread are served from it (from the pool when none fits) and
/// returned to it. A graph-executor context owns one: its replays lease the
/// same buffers in the same order every time, so after its first replay a
/// context allocates no scratch, however other threads' leases interleave.
/// Released buffers beyond kMaxCachedBytes go back to the pool, whose own
/// budget then bounds plane-sized scratch. Not thread-safe: one thread at a
/// time.
class LeaseCache {
 public:
  static constexpr size_t kMaxCachedBytes = size_t{16} << 20;

  /// As BasicWorkspacePool::acquire, from this cache's buffers first.
  template <typename T>
  std::vector<T> acquire(size_t min_size);
  /// Keeps @p buf for a later acquire, or returns it to the pool when the
  /// cache would exceed kMaxCachedBytes.
  template <typename T>
  void release(std::vector<T> buf);
  /// Bytes of the size classes its acquires drew from the pools because no
  /// cached buffer fit, over the cache's lifetime: on a fresh cache, an
  /// upper bound on the scratch the thread's leases asked for at once.
  size_t drawn_bytes() const { return drawn_bytes_; }

 private:
  template <typename T>
  std::vector<std::vector<T>>& list() {
    return std::get<std::vector<std::vector<T>>>(lists_);
  }
  std::tuple<std::vector<std::vector<std::complex<double>>>,
             std::vector<std::vector<float>>, std::vector<std::vector<int8_t>>>
      lists_;
  size_t bytes_ = 0;  // capacity held in lists_
  size_t drawn_bytes_ = 0;
};

/// Routes the calling thread's leases to @p cache (nullptr: the pools) for
/// its lifetime.
class ScopedLeaseCache {
 public:
  explicit ScopedLeaseCache(LeaseCache* cache);
  ~ScopedLeaseCache();
  ScopedLeaseCache(const ScopedLeaseCache&) = delete;
  ScopedLeaseCache& operator=(const ScopedLeaseCache&) = delete;
  /// The cache the calling thread's leases go to, or nullptr.
  static LeaseCache* current();

 private:
  LeaseCache* prev_;
};

/// RAII lease of pooled scratch, from the thread's LeaseCache when one is
/// installed. Not thread-safe itself (one lease per worker chunk); the
/// underlying pool is.
template <typename T>
class BasicWorkspace {
 public:
  explicit BasicWorkspace(size_t n)
      : cache_(ScopedLeaseCache::current()),
        buf_(cache_ != nullptr ? cache_->acquire<T>(n)
                               : BasicWorkspacePool<T>::instance().acquire(n)),
        n_(n) {}
  ~BasicWorkspace() {
    if (cache_ != nullptr) {
      cache_->release(std::move(buf_));
    } else {
      BasicWorkspacePool<T>::instance().release(std::move(buf_));
    }
  }
  BasicWorkspace(const BasicWorkspace&) = delete;
  BasicWorkspace& operator=(const BasicWorkspace&) = delete;

  /// The leased buffer; contents are unspecified on acquisition.
  T* data() { return buf_.data(); }
  const T* data() const { return buf_.data(); }
  /// The size requested at construction (the buffer may be larger).
  size_t size() const { return n_; }

 private:
  LeaseCache* cache_;
  std::vector<T> buf_;
  size_t n_;
};

using Workspace = BasicWorkspace<std::complex<double>>;
using FloatWorkspace = BasicWorkspace<float>;
using Int8Workspace = BasicWorkspace<int8_t>;

}  // namespace litho::runtime
