// Tests for the observability layer: the per-thread trace recorder (ring
// wrap, concurrent recording, Chrome Trace Event JSON shape, span nesting,
// the determinism contract) and the metrics registry (counter/gauge
// semantics, histogram percentiles against a sorted-vector oracle).
//
// The trace recorder is process-global state, so every test that records
// starts from trace::reset() and leaves tracing disabled on exit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/doinn.h"
#include "runtime/engine.h"
#include "runtime/metrics_registry.h"
#include "runtime/trace.h"
#include "test_util.h"

namespace litho {
namespace {

namespace trace = runtime::trace;

/// Minimal JSON well-formedness checker (objects, arrays, strings with
/// escapes, numbers, literals). Returns false on any syntax error — enough
/// to catch an emitter that forgets a comma, quote, or brace.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // {
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // [
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t count_occurrences(const std::string& haystack,
                         const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// RAII guard: every recording test starts clean and cannot leak an
/// enabled recorder (or a shrunken ring) into the next test.
struct TraceSandbox {
  explicit TraceSandbox(size_t ring_capacity = 0) {
    trace::set_enabled(false);
    trace::reset(ring_capacity);
  }
  ~TraceSandbox() {
    trace::set_enabled(false);
    trace::reset(1 << 14);  // restore the default ring capacity
  }
};

TEST(Trace, DisabledRecorderEmitsNothing) {
  TraceSandbox sandbox;
  { DOINN_TRACE_SCOPE("t.noop", "test"); }
  trace::emit_instant("t.instant", "test");
  trace::emit_async("t.async", "test", 1, 0, 10);
  for (const trace::ThreadEvents& te : trace::snapshot()) {
    EXPECT_TRUE(te.events.empty());
  }
  const std::string json = trace::dump_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 0u);
}

TEST(Trace, RecordsSpansInstantsAndAsync) {
  TraceSandbox sandbox;
  trace::set_enabled(true);
  {
    DOINN_TRACE_SCOPE("t.outer", "test", "k", 7);
    DOINN_TRACE_SCOPE("t.inner", "test");
    trace::emit_instant("t.mark", "test", {{"v", 3}}, "note", "hello");
  }
  trace::emit_async("t.wait", "test", /*id=*/42, /*ts_ns=*/100,
                    /*dur_ns=*/200, {{"req", 42}});
  trace::set_enabled(false);

  std::vector<trace::Event> all;
  for (const trace::ThreadEvents& te : trace::snapshot()) {
    all.insert(all.end(), te.events.begin(), te.events.end());
  }
  ASSERT_EQ(all.size(), 4u);

  const std::string json = trace::dump_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // One complete span per scope, a b/e pair for the async event, one
  // instant with the scope "t" marker.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"e\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"t.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":7"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"hello\""), std::string::npos);
}

TEST(Trace, ScopedSpansNestByTimestamp) {
  TraceSandbox sandbox;
  trace::set_enabled(true);
  {
    DOINN_TRACE_SCOPE("t.a", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      DOINN_TRACE_SCOPE("t.b", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  trace::set_enabled(false);

  const std::vector<trace::ThreadEvents> threads = trace::snapshot();
  const trace::Event* outer = nullptr;
  const trace::Event* inner = nullptr;
  for (const trace::ThreadEvents& te : threads) {
    for (const trace::Event& ev : te.events) {
      if (std::string(ev.name) == "t.a") outer = &ev;
      if (std::string(ev.name) == "t.b") inner = &ev;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Inner begins after outer and ends before it: [a.ts, a.ts+a.dur] must
  // contain [b.ts, b.ts+b.dur].
  EXPECT_GE(inner->ts_ns, outer->ts_ns);
  EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);
}

TEST(Trace, ConcurrentThreadsRecordWithoutLoss) {
  TraceSandbox sandbox;
  trace::set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;  // well under the default ring
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      trace::set_thread_name("trace-test-worker");
      for (int i = 0; i < kSpansPerThread; ++i) {
        DOINN_TRACE_SCOPE("t.work", "test", "i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  trace::set_enabled(false);

  size_t total = 0;
  size_t named_rings = 0;
  for (const trace::ThreadEvents& te : trace::snapshot()) {
    EXPECT_EQ(te.dropped, 0u);
    if (te.thread_name == "trace-test-worker") ++named_rings;
    for (const trace::Event& ev : te.events) {
      if (std::string(ev.name) == "t.work") ++total;
    }
    // Per-ring timestamps come back sorted.
    for (size_t i = 1; i < te.events.size(); ++i) {
      EXPECT_LE(te.events[i - 1].ts_ns, te.events[i].ts_ns);
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(named_rings, static_cast<size_t>(kThreads));
  EXPECT_TRUE(JsonChecker(trace::dump_json()).valid());
}

TEST(Trace, RingWrapKeepsNewestEventsAndCountsDrops) {
  TraceSandbox sandbox(/*ring_capacity=*/64);
  trace::set_enabled(true);
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    trace::emit_instant("t.seq", "test", {{"i", i}});
  }
  trace::set_enabled(false);

  // Keep the snapshot alive: `mine` points into it.
  const std::vector<trace::ThreadEvents> snap = trace::snapshot();
  const trace::ThreadEvents* mine = nullptr;
  for (const trace::ThreadEvents& te : snap) {
    for (const trace::Event& ev : te.events) {
      if (std::string(ev.name) == "t.seq") {
        mine = &te;
        break;
      }
    }
    if (mine != nullptr) break;
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_LE(mine->events.size(), 64u);
  EXPECT_FALSE(mine->events.empty());
  EXPECT_EQ(mine->events.size() + mine->dropped,
            static_cast<size_t>(kEvents));
  // The retained suffix is the newest events, still in order.
  const int64_t newest = mine->events.back().aval[0];
  EXPECT_EQ(newest, kEvents - 1);
  for (size_t i = 1; i < mine->events.size(); ++i) {
    EXPECT_EQ(mine->events[i].aval[0], mine->events[i - 1].aval[0] + 1);
  }
  EXPECT_TRUE(JsonChecker(trace::dump_json()).valid());
}

TEST(Trace, PredictBatchBitwiseIdenticalWithTracingEnabled) {
  core::DoinnConfig cfg = core::DoinnConfig::small();
  cfg.tile = 64;
  cfg.modes = 4;
  cfg.gp_channels = 4;
  runtime::InferenceEngine engine(cfg, /*seed=*/5, runtime::EngineOptions{2});
  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < 3; ++s) {
    auto rng = test::rng(s);
    Tensor mask = Tensor::rand({cfg.tile, cfg.tile}, rng);
    mask.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
    masks.push_back(std::move(mask));
  }

  TraceSandbox sandbox;
  const std::vector<Tensor> untraced = engine.predict_batch(masks);
  trace::set_enabled(true);
  const std::vector<Tensor> traced = engine.predict_batch(masks);
  trace::set_enabled(false);

  ASSERT_EQ(untraced.size(), traced.size());
  for (size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(test::max_abs_diff(untraced[i], traced[i]), 0.f)
        << "mask " << i << " differs with tracing enabled";
  }
  // The traced run actually recorded the engine spans.
  size_t forwards = 0;
  for (const trace::ThreadEvents& te : trace::snapshot()) {
    for (const trace::Event& ev : te.events) {
      if (std::string(ev.name) == "engine.forward") ++forwards;
    }
  }
  EXPECT_EQ(forwards, 1u);
}

TEST(Trace, DumpJsonIsWellFormed) {
  // Whatever the rings hold, dump_json() returns a loadable trace document.
  const std::string json = trace::dump_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Metrics, CounterAndGaugeBasics) {
  runtime::MetricsRegistry reg;
  runtime::Counter& c = reg.counter("t.count");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(&reg.counter("t.count"), &c);  // same name, same object

  runtime::Gauge& g = reg.gauge("t.depth");
  g.update_max(3);
  g.update_max(9);
  g.update_max(6);  // lower: no effect
  EXPECT_EQ(g.value(), 9);
  g.set(2);
  EXPECT_EQ(g.value(), 2);

  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, ConcurrentCounterAddsAreLossless) {
  runtime::MetricsRegistry reg;
  runtime::Counter& c = reg.counter("t.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kAdds);
}

TEST(Metrics, HistogramMatchesSortedVectorOracleBelowReservoirCap) {
  runtime::MetricsRegistry reg;
  runtime::Histogram& h = reg.histogram("t.lat", /*reservoir_capacity=*/4096);
  // Below the reservoir cap nothing is sampled away, so percentiles are
  // exact nearest-rank over the full data.
  std::vector<double> values;
  auto rng = test::rng(77);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<double>(rng() % 100000) / 100.0);
    h.record(values.back());
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  auto oracle = [&sorted](double q) {
    const auto rank = static_cast<size_t>(std::max<long long>(
        0, static_cast<long long>(
               std::ceil(q * static_cast<double>(sorted.size()))) -
               1));
    return sorted[std::min(rank, sorted.size() - 1)];
  };

  const runtime::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(snap.min, sorted.front());
  EXPECT_EQ(snap.max, sorted.back());
  EXPECT_EQ(snap.p50, oracle(0.50));
  EXPECT_EQ(snap.p90, oracle(0.90));
  EXPECT_EQ(snap.p99, oracle(0.99));
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_NEAR(snap.mean, sum / 1000.0, 1e-9);
}

TEST(Metrics, DumpJsonIsWellFormed) {
  runtime::MetricsRegistry reg;
  reg.counter("t.a").add(3);
  reg.gauge("t.b").set(-4);
  reg.histogram("t.c\"quoted\\name").record(1.5);  // name needs escaping
  const std::string json = reg.dump_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"t.a\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"t.b\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace litho
