#include "runtime/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

namespace litho::runtime::trace {

namespace {

constexpr size_t kDefaultRingCapacity = size_t{1} << 14;
constexpr size_t kMinRingCapacity = 64;
constexpr size_t kMaxRingCapacity = size_t{1} << 22;

std::atomic<bool> g_enabled{false};

/// Single-producer ring: the owning thread writes slots and publishes via
/// `head` (release); snapshot readers load `head` (acquire) and copy the
/// retained tail. A reader racing an actively wrapping writer can tear the
/// oldest slots — see the header's dump-consistency note. The slots are
/// default-initialized (Event is trivial), so a new ring's pages are
/// touched only as events are written: creating a thread's ring costs an
/// allocation, not a 1.7 MB zero-fill.
struct Ring {
  explicit Ring(size_t capacity) : slots(new Event[capacity]), cap(capacity) {}

  std::unique_ptr<Event[]> slots;
  size_t cap;
  std::atomic<uint64_t> head{0};  // total events ever written
  int tid = 0;
  std::string thread_name;  // guarded by the registry mutex
};

/// All rings ever registered. Rings are never destroyed before reset():
/// events from exited threads must survive until the dump.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Ring>> rings;
  size_t capacity = 0;  // resolved on first registration

  size_t resolve_capacity() {
    if (capacity != 0) return capacity;
    capacity = kDefaultRingCapacity;
    if (const char* env = std::getenv("DOINN_TRACE_BUFFER")) {
      char* end = nullptr;
      const long long v = std::strtoll(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        capacity = std::min(kMaxRingCapacity,
                            std::max(kMinRingCapacity,
                                     static_cast<size_t>(v)));
      } else {
        std::fprintf(stderr,
                     "warning: ignoring invalid DOINN_TRACE_BUFFER=\"%s\"\n",
                     env);
      }
    }
    return capacity;
  }
};

Registry& registry() {
  static Registry* reg = new Registry;  // leaked: threads may record at exit
  return *reg;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

thread_local Ring* t_ring = nullptr;

Ring& local_ring() {
  if (t_ring == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto ring = std::make_unique<Ring>(reg.resolve_capacity());
    ring->tid = static_cast<int>(reg.rings.size());
    t_ring = ring.get();
    reg.rings.push_back(std::move(ring));
  }
  return *t_ring;
}

void write_event(const Event& ev) {
  Ring& ring = local_ring();
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.slots[head % ring.cap] = ev;
  ring.head.store(head + 1, std::memory_order_release);
}

void fill_args(Event& ev, std::initializer_list<ArgI> args) {
  size_t i = 0;
  for (const ArgI& a : args) {
    if (i >= 3) break;
    ev.akey[i] = a.key;
    ev.aval[i] = a.value;
    ++i;
  }
  for (; i < 3; ++i) {
    ev.akey[i] = nullptr;
    ev.aval[i] = 0;
  }
}

/// Appends a JSON string value. Names and keys are library-chosen literals,
/// but escape the JSON-significant characters anyway so a stray name can
/// never produce an unparseable file.
void append_json_string(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_args(std::string& out, const Event& ev) {
  bool any = false;
  for (size_t i = 0; i < 3; ++i) {
    if (ev.akey[i] == nullptr) continue;
    out += any ? "," : ",\"args\":{";
    any = true;
    append_json_string(out, ev.akey[i]);
    out += ':';
    out += std::to_string(ev.aval[i]);
  }
  if (ev.skey != nullptr && ev.sval != nullptr) {
    out += any ? "," : ",\"args\":{";
    any = true;
    append_json_string(out, ev.skey);
    out += ':';
    append_json_string(out, ev.sval);
  }
  if (any) out += '}';
}

void append_ts(std::string& out, const char* key, int64_t ns) {
  char buf[48];
  // Trace Event ts/dur are microseconds; %.3f keeps full ns resolution.
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.3f", key,
                static_cast<double>(ns) / 1e3);
  out += buf;
}

void append_event_json(std::string& out, const Event& ev, int tid) {
  auto header = [&](const char* ph) {
    out += "{\"name\":";
    append_json_string(out, ev.name);
    out += ",\"cat\":";
    append_json_string(out, ev.cat != nullptr ? ev.cat : "doinn");
    out += ",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
  };
  switch (ev.kind) {
    case Kind::kSpan:
      header("X");
      append_ts(out, "ts", ev.ts_ns);
      append_ts(out, "dur", ev.dur_ns);
      append_args(out, ev);
      out += "},\n";
      break;
    case Kind::kAsync:
      // Async begin/end pair correlated by cat+id; intervals may overlap
      // freely on one tid (per-request spans recorded by the dispatcher).
      header("b");
      out += ",\"id\":" + std::to_string(ev.id);
      append_ts(out, "ts", ev.ts_ns);
      append_args(out, ev);
      out += "},\n";
      header("e");
      out += ",\"id\":" + std::to_string(ev.id);
      append_ts(out, "ts", ev.ts_ns + ev.dur_ns);
      out += "},\n";
      break;
    case Kind::kInstant:
      header("i");
      out += ",\"s\":\"t\"";
      append_ts(out, "ts", ev.ts_ns);
      append_args(out, ev);
      out += "},\n";
      break;
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  trace_epoch();  // pin the epoch no later than the first enable
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset(size_t ring_capacity) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (ring_capacity > 0) {
    reg.capacity = std::min(kMaxRingCapacity,
                            std::max(kMinRingCapacity, ring_capacity));
  }
  for (auto& ring : reg.rings) {
    if (ring_capacity > 0 && ring->cap != reg.capacity) {
      ring->slots.reset(new Event[reg.capacity]);
      ring->cap = reg.capacity;
    }
    ring->head.store(0, std::memory_order_release);
  }
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

int64_t to_trace_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp -
                                                              trace_epoch())
      .count();
}

void set_thread_name(const char* name) {
  Ring& ring = local_ring();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  ring.thread_name = name;
}

void emit_span(const char* name, const char* cat, int64_t ts_ns,
               int64_t dur_ns, std::initializer_list<ArgI> args,
               const char* skey, const char* sval) {
  if (!enabled()) return;
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.id = 0;
  ev.kind = Kind::kSpan;
  fill_args(ev, args);
  ev.skey = skey;
  ev.sval = sval;
  write_event(ev);
}

void emit_async(const char* name, const char* cat, uint64_t id,
                int64_t ts_ns, int64_t dur_ns,
                std::initializer_list<ArgI> args) {
  if (!enabled()) return;
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.id = id;
  ev.kind = Kind::kAsync;
  fill_args(ev, args);
  ev.skey = nullptr;
  ev.sval = nullptr;
  write_event(ev);
}

void emit_instant(const char* name, const char* cat,
                  std::initializer_list<ArgI> args, const char* skey,
                  const char* sval) {
  if (!enabled()) return;
  Event ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = now_ns();
  ev.dur_ns = 0;
  ev.id = 0;
  ev.kind = Kind::kInstant;
  fill_args(ev, args);
  ev.skey = skey;
  ev.sval = sval;
  write_event(ev);
}

void ScopedSpan::open(const char* name, const char* cat) {
  ev_.name = name;
  ev_.cat = cat;
  ev_.ts_ns = now_ns();
  ev_.dur_ns = 0;
  ev_.id = 0;
  ev_.kind = Kind::kSpan;
  ev_.akey[0] = ev_.akey[1] = ev_.akey[2] = nullptr;
  ev_.aval[0] = ev_.aval[1] = ev_.aval[2] = 0;
  ev_.skey = nullptr;
  ev_.sval = nullptr;
}

void ScopedSpan::close() {
  ev_.dur_ns = now_ns() - ev_.ts_ns;
  write_event(ev_);
}

std::vector<ThreadEvents> snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<ThreadEvents> out;
  out.reserve(reg.rings.size());
  for (const auto& ring : reg.rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head == 0 && ring->thread_name.empty()) continue;
    ThreadEvents te;
    te.tid = ring->tid;
    te.thread_name = ring->thread_name;
    const size_t cap = ring->cap;
    uint64_t begin = 0;
    if (head > cap) {
      // Wrapped: the oldest `head - cap` events are gone. Skip an extra
      // margin so a writer racing this copy lands in slots we ignore.
      const uint64_t margin = cap / 8;
      begin = head - cap + margin;
      te.dropped = begin;
    }
    te.events.reserve(static_cast<size_t>(head - begin));
    for (uint64_t i = begin; i < head; ++i) {
      te.events.push_back(ring->slots[i % cap]);
    }
    // Ring order is event-completion order; spans nest parent-after-child.
    // Timestamp order (ties: longest span first, i.e. parents before
    // children) is what both the serializer and the validator want.
    std::stable_sort(te.events.begin(), te.events.end(),
                     [](const Event& a, const Event& b) {
                       if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                       return a.dur_ns > b.dur_ns;
                     });
    out.push_back(std::move(te));
  }
  return out;
}

std::string dump_json() {
  const std::vector<ThreadEvents> threads = snapshot();
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"doinn\"}},\n";
  for (const ThreadEvents& te : threads) {
    if (!te.thread_name.empty()) {
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
             std::to_string(te.tid) + ",\"args\":{\"name\":";
      append_json_string(out, te.thread_name.c_str());
      out += "}},\n";
    }
    for (const Event& ev : te.events) {
      if (ev.name == nullptr) continue;  // torn slot from a racing writer
      append_event_json(out, ev, te.tid);
    }
  }
  // Drop the trailing ",\n" so the array is valid JSON.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

bool write_json(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "trace: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string json = dump_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "trace: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace litho::runtime::trace
