#include "runtime/workspace.h"

#include <algorithm>
#include <mutex>

namespace litho::runtime {
namespace {

// Bounded free list: enough for every worker of a wide pool to hold a lease
// plus a few spares, and a byte budget so plane-sized scratch from a huge
// tile doesn't stay pinned after the burst that needed it.
constexpr size_t kMaxPooled = 64;
constexpr size_t kMaxPooledBytes = 64u << 20;  // 64 MiB across the free list

thread_local LeaseCache* current_cache = nullptr;

// Removes and returns the smallest buffer in @p list whose capacity holds
// @p want elements (an empty vector if none does), so big buffers stay
// available for big requests.
template <typename T>
std::vector<T> take_smallest_fit(std::vector<std::vector<T>>& list,
                                 size_t want) {
  size_t best = list.size();
  for (size_t i = 0; i < list.size(); ++i) {
    const size_t cap = list[i].capacity();
    if (cap >= want &&
        (best == list.size() || cap < list[best].capacity())) {
      best = i;
    }
  }
  if (best == list.size()) return {};
  std::vector<T> buf = std::move(list[best]);
  list[best] = std::move(list.back());
  list.pop_back();
  return buf;
}

// Grow-only resize: buffers keep their high-watermark size across leases,
// so the value-initializing fill is paid at most once per size class per
// buffer, never on steady-state reuse. Lease contents stay unspecified
// either way.
template <typename T>
void fit(std::vector<T>& buf, size_t want) {
  if (buf.size() < want) buf.resize(want);
}

}  // namespace

template <typename T>
struct BasicWorkspacePool<T>::Impl {
  mutable std::mutex mu;
  std::vector<std::vector<T>> free_list;
  size_t free_bytes = 0;  // sum of free_list capacities, in bytes
  Stats stats;
};

template <typename T>
typename BasicWorkspacePool<T>::Impl& BasicWorkspacePool<T>::impl() const {
  // Leaked on purpose: leases held by pool workers may release during
  // static destruction.
  static Impl* i = new Impl;
  return *i;
}

template <typename T>
BasicWorkspacePool<T>& BasicWorkspacePool<T>::instance() {
  static BasicWorkspacePool pool;
  return pool;
}

template <typename T>
std::vector<T> BasicWorkspacePool<T>::acquire(size_t min_size) {
  const size_t want = next_pow2(std::max<size_t>(min_size, 1));
  Impl& im = impl();
  std::vector<T> buf;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    ++im.stats.acquires;
    buf = take_smallest_fit(im.free_list, want);
    if (buf.capacity() > 0) {
      ++im.stats.reuses;
      im.free_bytes -= buf.capacity() * sizeof(T);
    }
  }
  fit(buf, want);  // outside the lock
  return buf;
}

template <typename T>
void BasicWorkspacePool<T>::release(std::vector<T> buf) {
  const size_t bytes = buf.capacity() * sizeof(T);
  if (bytes == 0) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.free_list.size() < kMaxPooled &&
      im.free_bytes + bytes <= kMaxPooledBytes) {
    im.free_bytes += bytes;
    im.free_list.push_back(std::move(buf));
  }
}

template <typename T>
typename BasicWorkspacePool<T>::Stats BasicWorkspacePool<T>::stats() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.stats;
}

template <typename T>
void BasicWorkspacePool<T>::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.free_list.clear();
  im.free_bytes = 0;
}

template class BasicWorkspacePool<std::complex<double>>;
template class BasicWorkspacePool<float>;
template class BasicWorkspacePool<int8_t>;

ScopedLeaseCache::ScopedLeaseCache(LeaseCache* cache) : prev_(current_cache) {
  current_cache = cache;
}

ScopedLeaseCache::~ScopedLeaseCache() { current_cache = prev_; }

LeaseCache* ScopedLeaseCache::current() { return current_cache; }

template <typename T>
std::vector<T> LeaseCache::acquire(size_t min_size) {
  const size_t want = next_pow2(std::max<size_t>(min_size, 1));
  std::vector<T> buf = take_smallest_fit(list<T>(), want);
  if (buf.capacity() == 0) {
    drawn_bytes_ += want * sizeof(T);
    return BasicWorkspacePool<T>::instance().acquire(min_size);
  }
  bytes_ -= buf.capacity() * sizeof(T);
  fit(buf, want);
  return buf;
}

template <typename T>
void LeaseCache::release(std::vector<T> buf) {
  const size_t bytes = buf.capacity() * sizeof(T);
  if (bytes_ + bytes > kMaxCachedBytes) {
    BasicWorkspacePool<T>::instance().release(std::move(buf));
    return;
  }
  bytes_ += bytes;
  list<T>().push_back(std::move(buf));
}

template std::vector<std::complex<double>>
LeaseCache::acquire<std::complex<double>>(size_t);
template std::vector<float> LeaseCache::acquire<float>(size_t);
template std::vector<int8_t> LeaseCache::acquire<int8_t>(size_t);
template void LeaseCache::release(std::vector<std::complex<double>>);
template void LeaseCache::release(std::vector<float>);
template void LeaseCache::release(std::vector<int8_t>);

}  // namespace litho::runtime
