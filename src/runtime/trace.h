// Low-overhead per-request trace recorder for the serving stack.
//
// Every instrumented thread owns a private lock-free ring buffer of
// fixed-size events (complete spans, async spans, instants). Recording an
// event is a couple of steady-clock reads plus a handful of stores into the
// thread's own ring — no locks, no allocation after the ring exists — so
// spans can sit on the scheduler dispatch path and the FFT/GEMM kernel
// entries without perturbing the measurement. The serializer merges all
// rings into Chrome Trace Event Format JSON (the `{"traceEvents": [...]}`
// form) loadable in chrome://tracing or https://ui.perfetto.dev, and
// `scripts/trace_summary.py` validates + summarizes the same files.
//
// Overhead contract (the instrumentation is always compiled in):
//  - Runtime off (the default): each instrumentation site costs one store
//    and one predicted branch on a relaxed atomic load. No ring is ever
//    allocated until a thread records its first event while enabled.
//  - Runtime on: an event is two clock reads plus ~100 bytes written to a
//    per-thread ring (oldest events are overwritten on wrap).
//  - Tracing only observes timestamps; it never reorders work or touches
//    tensor data, so traced and untraced runs are bitwise identical (the
//    repo-wide determinism contract; see docs/ARCHITECTURE.md).
//
// String lifetime: event names, categories, arg keys and string arg values
// are stored as raw pointers and must be string literals (or otherwise
// outlive the recorder).
//
// Dump consistency: snapshot()/dump_json() may run while other threads
// record. Events landing during the dump can be dropped, and on a ring
// that is actively wrapping the oldest retained events may tear; dump at
// quiescence (shutdown, drained scheduler) for exact traces. Dumps taken
// mid-load (SIGUSR1) are best-effort.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace litho::runtime::trace {

enum class Kind : uint8_t {
  kSpan,     // complete span: ph "X" (ts + dur)
  kAsync,    // async span: ph "b"/"e" pair correlated by `id` (cross-thread
             // per-request intervals that may overlap on one tid)
  kInstant,  // ph "i"
};

/// One recorded event, exactly as stored in a ring slot. POD on purpose:
/// ring writes are plain struct assignments.
struct Event {
  const char* name;
  const char* cat;
  int64_t ts_ns;   // steady-clock ns since the process trace epoch
  int64_t dur_ns;  // span length; 0 for instants
  uint64_t id;     // async correlation id (kAsync only)
  Kind kind;
  const char* akey[3];  // integer args (nullptr key = unused slot)
  int64_t aval[3];
  const char* skey;  // optional string-valued arg (e.g. flush reason)
  const char* sval;
};

/// Integer arg for the emit_* helpers.
struct ArgI {
  const char* key;
  int64_t value;
};

/// Snapshot of one thread's ring: events in timestamp order plus how many
/// older events the ring overwrote.
struct ThreadEvents {
  int tid = 0;
  std::string thread_name;  // empty when never named
  uint64_t dropped = 0;
  std::vector<Event> events;
};

/// True when runtime tracing is on (relaxed atomic load).
bool enabled();
/// Turns runtime recording on/off. Off is the default at process start.
void set_enabled(bool on);

/// Clears every ring (drops all recorded events and thread names are kept).
/// With @p ring_capacity > 0 also re-sizes all rings and makes that the
/// capacity for rings created later. Call at quiescence: no other thread
/// may be recording. Default capacity is 1<<14 events per thread, or the
/// DOINN_TRACE_BUFFER env var (events per thread, clamped to [64, 1<<22]).
void reset(size_t ring_capacity = 0);

/// Nanoseconds since the process trace epoch (first recorder use).
int64_t now_ns();
/// Converts a steady_clock time point to trace-epoch nanoseconds, so spans
/// timed with steady_clock elsewhere (scheduler queue waits) can be emitted
/// retroactively.
int64_t to_trace_ns(std::chrono::steady_clock::time_point tp);

/// Names this thread's ring ("dispatcher", "writer", ...) for the trace
/// viewer's thread labels. Cheap; safe to call before any event.
void set_thread_name(const char* name);

/// Records a complete span with explicit timing (for retroactive spans).
/// No-op while disabled. At most 3 integer args plus one string arg.
void emit_span(const char* name, const char* cat, int64_t ts_ns,
               int64_t dur_ns, std::initializer_list<ArgI> args = {},
               const char* skey = nullptr, const char* sval = nullptr);
/// Records an async span (ph "b"/"e" correlated by @p id across threads).
void emit_async(const char* name, const char* cat, uint64_t id,
                int64_t ts_ns, int64_t dur_ns,
                std::initializer_list<ArgI> args = {});
/// Records an instant event at now_ns().
void emit_instant(const char* name, const char* cat,
                  std::initializer_list<ArgI> args = {},
                  const char* skey = nullptr, const char* sval = nullptr);

/// Copies every ring's retained events (per-thread, timestamp-sorted).
std::vector<ThreadEvents> snapshot();
/// Serializes all rings as a Chrome Trace Event Format JSON document.
std::string dump_json();
/// dump_json() to a file; returns false (and reports to stderr) on I/O
/// failure.
bool write_json(const std::string& path);

/// RAII complete-span: records one kSpan event covering its lifetime.
/// Constructing while disabled costs one branch; the span then stays inert
/// even if tracing is enabled before the destructor runs.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat) {
    ev_.name = nullptr;
    if (enabled()) open(name, cat);
  }
  ScopedSpan(const char* name, const char* cat, const char* k0, int64_t v0) {
    ev_.name = nullptr;
    if (enabled()) {
      open(name, cat);
      ev_.akey[0] = k0;
      ev_.aval[0] = v0;
    }
  }
  ScopedSpan(const char* name, const char* cat, const char* k0, int64_t v0,
             const char* k1, int64_t v1) {
    ev_.name = nullptr;
    if (enabled()) {
      open(name, cat);
      ev_.akey[0] = k0;
      ev_.aval[0] = v0;
      ev_.akey[1] = k1;
      ev_.aval[1] = v1;
    }
  }
  ScopedSpan(const char* name, const char* cat, const char* k0, int64_t v0,
             const char* k1, int64_t v1, const char* k2, int64_t v2) {
    ev_.name = nullptr;
    if (enabled()) {
      open(name, cat);
      ev_.akey[0] = k0;
      ev_.aval[0] = v0;
      ev_.akey[1] = k1;
      ev_.aval[1] = v1;
      ev_.akey[2] = k2;
      ev_.aval[2] = v2;
    }
  }
  ~ScopedSpan() {
    if (ev_.name != nullptr) close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches/overwrites an integer arg on the pending span (first free of
  /// the 3 slots). No-op when the span is inert.
  void arg(const char* key, int64_t value) {
    if (ev_.name == nullptr) return;
    for (auto& k : ev_.akey) {
      if (k == nullptr || k == key) {
        const auto slot = &k - ev_.akey;
        k = key;
        ev_.aval[slot] = value;
        return;
      }
    }
  }
  /// Attaches the span's string arg (e.g. a flush reason).
  void sarg(const char* key, const char* value) {
    if (ev_.name == nullptr) return;
    ev_.skey = key;
    ev_.sval = value;
  }

 private:
  void open(const char* name, const char* cat);
  void close();

  Event ev_;  // ev_.name == nullptr => inert (disabled at construction)
};

#define DOINN_TRACE_CONCAT_IMPL(a, b) a##b
#define DOINN_TRACE_CONCAT(a, b) DOINN_TRACE_CONCAT_IMPL(a, b)
/// Scoped span covering the rest of the enclosing block:
///   DOINN_TRACE_SCOPE("engine.predict_batch", "engine", "batch_size", n);
/// Args: name, category, then up to 3 (const char* key, int64_t value)
/// pairs. One branch when tracing is off at runtime.
#define DOINN_TRACE_SCOPE(...)                       \
  ::litho::runtime::trace::ScopedSpan DOINN_TRACE_CONCAT( \
      doinn_trace_scope_, __LINE__)(__VA_ARGS__)

}  // namespace litho::runtime::trace
