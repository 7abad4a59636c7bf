// bench_graph_exec — op-walk vs compiled static-graph-executor serving
// comparison on the DOINN forward (runtime/graph_exec.h).
//
//   bench_graph_exec [pairs] [--quick] [--trace-out trace.json]
//
// Builds two fp32 engines over identical weights — one with the executor
// disabled (per-op walk) and one with it enabled (arena-planned buffers,
// fused GEMM epilogues, per-shape autotuned kernels) — and times
// predict_batch end to end. Exit status is 0 iff every gate holds:
//
//   - executor contours are bitwise identical to the op walk (batched, and
//     through the large-tile path on a steady replay of its LP+IR plan);
//   - the steady-state replay window performs zero heap allocations (this
//     binary links the counting operator new from bench/alloc_count_new.cpp,
//     observed through the engine.heap_allocs_per_batch gauge);
//   - no plan fell back to the op walk (plan validation passed);
//   - executor speedup >= 1.15x on the batched tile forward: the median,
//     over at least 7 alternating pairs, of the per-pair op-walk/executor
//     time ratio, so one contended pair cannot decide it (--quick keeps the
//     same floor on the smaller model). Table rows are per-side medians.
//
// Tracing is enabled while the executor engine compiles and for the warmup
// replays — so a --trace-out file carries the exec.capture / exec.plan /
// exec.replay spans CI validates with scripts/trace_summary.py — then
// disabled for the timed phase. The results are merged into BENCH_gemm.json
// in the working directory as a "graph_exec" section with its own host
// block (run bench_gemm_micro first to get the GEMM sections; this bench
// only rewrites its own section).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/doinn.h"
#include "runtime/alloc_hooks.h"
#include "runtime/engine.h"
#include "runtime/metrics_registry.h"
#include "runtime/percentile.h"
#include "runtime/trace.h"

namespace {

using litho::Tensor;
using litho::bench::max_abs_diff;
namespace core = litho::core;
namespace runtime = litho::runtime;

struct Row {
  std::string op;
  std::string shape;
  double legacy_ms;  // op walk
  double new_ms;     // graph executor
};

std::vector<Row> g_rows;

void report(const std::string& op, const std::string& shape, double legacy_s,
            double new_s) {
  g_rows.push_back({op, shape, legacy_s * 1e3, new_s * 1e3});
  std::printf("%-26s %-18s %9.2f ms %9.2f ms %7.2fx\n", op.c_str(),
              shape.c_str(), legacy_s * 1e3, new_s * 1e3, legacy_s / new_s);
}

// Times of @p walk and @p exec over @p pairs alternating pairs (the order
// flips every pair), so both runs of a pair sample the same host load.
struct Pairs {
  std::vector<double> walk, exec;
};

template <typename W, typename E>
Pairs time_pairs(int pairs, W&& walk, E&& exec) {
  Pairs p;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      p.walk.push_back(litho::bench::seconds(walk));
      p.exec.push_back(litho::bench::seconds(exec));
    } else {
      p.exec.push_back(litho::bench::seconds(exec));
      p.walk.push_back(litho::bench::seconds(walk));
    }
  }
  return p;
}

double median(std::vector<double> v) {
  return runtime::nearest_rank_percentile(std::move(v), 0.5);
}

// Median over pairs of walk / exec: one contended pair cannot decide it.
double median_ratio(const Pairs& p) {
  std::vector<double> r;
  for (size_t i = 0; i < p.walk.size(); ++i) r.push_back(p.walk[i] / p.exec[i]);
  return median(std::move(r));
}

// Alternating pairs per timed case: the default and the floor of the
// pairs argument.
constexpr int kMinPairs = 7;

core::DoinnConfig bench_config(bool quick) {
  core::DoinnConfig cfg = core::DoinnConfig::small();  // 128 px tile
  if (quick) {
    cfg.tile = 64;
    cfg.modes = 4;
    cfg.gp_channels = 4;
  }
  return cfg;
}

Tensor random_mask(int64_t side, uint32_t seed) {
  std::mt19937 rng(seed);
  Tensor mask = Tensor::rand({side, side}, rng);
  mask.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
  return mask;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// -- BENCH_gemm.json merge ------------------------------------------------
// bench_gemm_micro owns the file (rewrites it wholesale); this bench only
// splices its own "graph_exec" section in before the final brace, replacing
// any section a previous run left. A missing or non-object file (e.g. the
// pre-sectioned flat-array format) is replaced by a fresh object holding
// just this section.

std::string slurp(const char* path) {
  FILE* f = std::fopen(path, "rb");
  if (!f) return "";
  std::string s;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, n);
  std::fclose(f);
  return s;
}

void merge_graph_exec_section(const char* path, const std::string& section) {
  std::string doc = slurp(path);
  const size_t prior = doc.find("\"graph_exec\"");
  if (prior != std::string::npos) {
    const size_t comma = doc.rfind(',', prior);
    doc.resize(comma == std::string::npos ? 0 : comma);
    doc += "\n}\n";
  }
  const size_t first = doc.find_first_not_of(" \t\r\n");
  const size_t close = doc.find_last_of('}');
  std::string out;
  if (first == std::string::npos || doc[first] != '{' ||
      close == std::string::npos || close <= first) {
    out = "{\n  \"graph_exec\": " + section + "\n}\n";
  } else {
    const size_t end = doc.find_last_not_of(" \t\r\n", close - 1);
    out = doc.substr(0, end + 1);
    if (doc[end] != '{') out += ",";
    out += "\n  \"graph_exec\": " + section + "\n}\n";
  }
  FILE* f = std::fopen(path, "w");
  if (!f) return;
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

std::string json_rows() {
  std::string s;
  char buf[256];
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::snprintf(buf, sizeof buf,
                  "      {\"op\": \"%s\", \"shape\": \"%s\", "
                  "\"legacy_ms\": %.3f, \"new_ms\": %.3f, "
                  "\"speedup\": %.3f}%s\n",
                  r.op.c_str(), r.shape.c_str(), r.legacy_ms, r.new_ms,
                  r.legacy_ms / r.new_ms, i + 1 < g_rows.size() ? "," : "");
    s += buf;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = kMinPairs;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if ((reps = litho::bench::parse_reps(argv[i])) == 0) {
      std::fprintf(stderr, "usage: bench_graph_exec [pairs] [--quick] "
                           "[--trace-out trace.json]\n");
      return 2;
    }
  }

  litho::bench::banner(
      "bench_graph_exec: op walk vs compiled static-graph executor");
  const core::DoinnConfig cfg = bench_config(quick);
  const int64_t tile = cfg.tile;
  constexpr int kBatch = 8;
  const int pairs = std::max(reps, kMinPairs);
  std::printf("tile=%lld threads=%d pairs=%d%s\n\n",
              static_cast<long long>(tile),
              runtime::ThreadPool::default_num_threads(), pairs,
              quick ? " (quick)" : "");

  bool ok = true;
  if (runtime::heap_alloc_count() == 0) {
    std::printf("counting operator new not linked -- rebuild\n");
    return 1;
  }

  runtime::EngineOptions walk_opts;
  walk_opts.use_graph_executor = false;
  runtime::InferenceEngine walk(cfg, /*seed=*/42, walk_opts);

  // Compile the executor engine (and its first replays) under tracing so the
  // trace file carries the exec.capture / exec.plan / exec.replay spans.
  runtime::trace::reset();
  runtime::trace::set_enabled(true);
  runtime::EngineOptions exec_opts;
  exec_opts.use_graph_executor = true;
  exec_opts.autotune = true;
  const double build_s = litho::bench::seconds(
      [&] { runtime::InferenceEngine probe(cfg, /*seed=*/42, exec_opts); });
  std::printf("executor engine build (capture+plan+autotune): %.1f ms\n",
              build_s * 1e3);
  runtime::InferenceEngine exec(cfg, /*seed=*/42, exec_opts);

  std::vector<Tensor> masks;
  for (int i = 0; i < kBatch; ++i) {
    masks.push_back(random_mask(tile, 100 + static_cast<uint32_t>(i)));
  }
  const Tensor large_mask = random_mask(tile * 3 / 2, 7);  // 2x2 clip grid

  // Traced warmups: one batch of 8, each sample a replay of the tile plan
  // built at load. The large mask's first call is the LP+IR capture (an op
  // walk), its second the replay validated against the op walk.
  const std::vector<Tensor> exec_batch = exec.predict_batch(masks);
  for (int i = 0; i < 2; ++i) exec.predict(large_mask);
  runtime::trace::set_enabled(false);

  // -- Parity gates -------------------------------------------------------
  const std::vector<Tensor> walk_batch = walk.predict_batch(masks);
  bool bitwise = walk_batch.size() == exec_batch.size();
  for (size_t i = 0; bitwise && i < walk_batch.size(); ++i) {
    bitwise = bitwise_equal(walk_batch[i], exec_batch[i]);
  }
  std::printf("batched contours bitwise identical to op walk: %s\n",
              bitwise ? "yes" : "NO");
  ok = ok && bitwise;

  // The third call is the first trusted replay of the large plan.
  const Tensor exec_large = exec.predict(large_mask);
  const Tensor walk_large = walk.predict(large_mask);
  const bool large_bitwise = bitwise_equal(walk_large, exec_large);
  std::printf("large-tile contour bitwise identical to op walk: %s\n",
              large_bitwise ? "yes" : "NO");
  ok = ok && large_bitwise;

  const int64_t fallbacks = exec.plan_fallbacks();
  std::printf("plan validation fallbacks: %lld (== 0: %s)\n",
              static_cast<long long>(fallbacks), fallbacks == 0 ? "yes" : "NO");
  ok = ok && fallbacks == 0;

  // -- Zero-allocation steady state ---------------------------------------
  for (int i = 0; i < 2; ++i) exec.predict_batch(masks);  // settle pools
  auto& allocs_gauge =
      runtime::MetricsRegistry::global().gauge("engine.heap_allocs_per_batch");
  int64_t steady_allocs = 0;
  for (int i = 0; i < 3; ++i) {
    exec.predict_batch(masks);
    steady_allocs = std::max(steady_allocs, allocs_gauge.value());
  }
  std::printf("steady-state replay heap allocations: %lld (== 0: %s)\n",
              static_cast<long long>(steady_allocs),
              steady_allocs == 0 ? "yes" : "NO");
  ok = ok && steady_allocs == 0;

  // -- Timing -------------------------------------------------------------
  std::printf("\n%-26s %-18s %12s %12s %8s\n", "case", "shape", "op walk",
              "executor", "speedup");
  char shape[64];
  walk.predict_batch({masks[0]});  // warm the batch-1 walk path
  exec.predict_batch({masks[0]});
  std::snprintf(shape, sizeof shape, "1x1x%lldx%lld",
                static_cast<long long>(tile), static_cast<long long>(tile));
  const Pairs b1 =
      time_pairs(pairs, [&] { walk.predict_batch({masks[0]}); },
                 [&] { exec.predict_batch({masks[0]}); });
  report("forward tile batch1", shape, median(b1.walk), median(b1.exec));

  std::snprintf(shape, sizeof shape, "%dx1x%lldx%lld", kBatch,
                static_cast<long long>(tile), static_cast<long long>(tile));
  const Pairs b8 = time_pairs(pairs, [&] { walk.predict_batch(masks); },
                              [&] { exec.predict_batch(masks); });
  report("forward tile batch8", shape, median(b8.walk), median(b8.exec));

  std::snprintf(shape, sizeof shape, "%lldx%lld (2x2 clips)",
                static_cast<long long>(large_mask.size(0)),
                static_cast<long long>(large_mask.size(1)));
  const Pairs bl = time_pairs(pairs, [&] { walk.predict(large_mask); },
                              [&] { exec.predict(large_mask); });
  report("predict_large", shape, median(bl.walk), median(bl.exec));

  const double headline = median_ratio(b8);
  const double gate = 1.15;
  std::printf(
      "\nexecutor speedup (batch%d tile forward, median of %d pair ratios): "
      "%.2fx (>= %.2fx: %s)\n",
      kBatch, pairs, headline, gate, headline >= gate ? "yes" : "NO");
  ok = ok && headline >= gate;

  const int64_t arena_bytes =
      runtime::MetricsRegistry::global().gauge("engine.arena_bytes").value();
  std::printf("arena bytes (all plans): %lld\n",
              static_cast<long long>(arena_bytes));

  // -- Artifacts ----------------------------------------------------------
  char gates[512];
  std::snprintf(gates, sizeof gates,
                "    \"gates\": {\"executor_speedup\": %.3f, "
                "\"executor_min\": %.2f, \"pairs\": %d, "
                "\"steady_state_heap_allocs\": %lld, "
                "\"bitwise\": %s, \"plan_fallbacks\": %lld, "
                "\"arena_bytes\": %lld}\n",
                headline, gate, pairs, static_cast<long long>(steady_allocs),
                bitwise && large_bitwise ? "true" : "false",
                static_cast<long long>(fallbacks),
                static_cast<long long>(arena_bytes));
  merge_graph_exec_section(
      "BENCH_gemm.json",
      std::string("{\n    \"host\": ") + litho::bench::host_json() +
          ",\n    \"rows\": [\n" + json_rows() + "    ],\n" + gates + "  }");
  std::printf("merged graph_exec section into BENCH_gemm.json (%zu rows)\n",
              g_rows.size());

  if (!trace_out.empty()) {
    runtime::trace::write_json(trace_out);
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return ok ? 0 : 1;
}
