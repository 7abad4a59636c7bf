// Tests for the static inference graph executor (runtime/graph_exec.h) and
// its engine integration: executor replays must be bitwise identical to the
// op walk for every precision, thread count and batch composition; arena
// planning must be aliasing-safe under any allocation order; plans must be
// cached per shape; and steady-state replays must not touch the heap (this
// binary links the counting operator new from bench/alloc_count_new.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/grad_mode.h"
#include "core/doinn.h"
#include "runtime/alloc_hooks.h"
#include "runtime/engine.h"
#include "runtime/graph_exec.h"
#include "runtime/metrics_registry.h"
#include "tensor/prepack.h"
#include "test_util.h"

namespace litho {
namespace {

core::DoinnConfig tiny_config() {
  core::DoinnConfig cfg = core::DoinnConfig::small();
  cfg.tile = 64;
  cfg.modes = 4;
  cfg.gp_channels = 4;
  return cfg;
}

Tensor random_mask(int64_t side, uint32_t seed) {
  auto rng = test::rng(seed);
  Tensor mask = Tensor::rand({side, side}, rng);
  mask.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
  return mask;
}

::testing::AssertionResult bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) {
    return ::testing::AssertionFailure()
           << "numel " << a.numel() << " vs " << b.numel();
  }
  if (std::memcmp(a.data(), b.data(),
                  sizeof(float) * static_cast<size_t>(a.numel())) != 0) {
    for (int64_t i = 0; i < a.numel(); ++i) {
      if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first mismatch at flat index " << i << ": " << a.data()[i]
               << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

runtime::EngineOptions engine_opts(Precision prec, int threads,
                                   bool use_exec) {
  runtime::EngineOptions opts;
  opts.precision = prec;
  opts.num_threads = threads;
  opts.use_graph_executor = use_exec;
  return opts;
}

// -- Engine parity ------------------------------------------------------------

// The tentpole contract: for every precision mode, the compiled executor
// path produces bitwise identical contours to the op walk, across thread
// counts and across batch compositions. Engines share one process, so the
// autotune / int8-decision caches apply identically to all of them.
TEST(GraphExec, BitwiseParityAcrossPrecisionsThreadsAndBatches) {
  const core::DoinnConfig cfg = tiny_config();
  const std::vector<Tensor> masks = {random_mask(64, 1), random_mask(64, 2),
                                     random_mask(64, 3)};
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    runtime::InferenceEngine walk(cfg, 7, engine_opts(prec, 1, false));
    runtime::InferenceEngine serial(cfg, 7, engine_opts(prec, 1, true));
    runtime::InferenceEngine wide(cfg, 7, engine_opts(prec, 4, true));
    EXPECT_EQ(serial.plan_fallbacks(), 0) << precision_name(prec);
    EXPECT_EQ(wide.plan_fallbacks(), 0) << precision_name(prec);

    const std::vector<Tensor> ref = walk.predict_batch(masks);
    const std::vector<Tensor> got1 = serial.predict_batch(masks);
    const std::vector<Tensor> got4 = wide.predict_batch(masks);
    ASSERT_EQ(ref.size(), got1.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(ref[i], got1[i]))
          << precision_name(prec) << " serial sample " << i;
      EXPECT_TRUE(bitwise_equal(ref[i], got4[i]))
          << precision_name(prec) << " wide sample " << i;
    }

    // Batch composition invariance: a sample's contour must not depend on
    // which batch it arrived in (the executor builds one plan per batch
    // size, so this crosses plans).
    for (size_t i = 0; i < masks.size(); ++i) {
      const Tensor solo = serial.predict_batch({masks[i]}).front();
      EXPECT_TRUE(bitwise_equal(ref[i], solo))
          << precision_name(prec) << " solo sample " << i;
    }
  }
}

TEST(GraphExec, PredictLargeMatchesOpWalkAcrossThreadCounts) {
  const core::DoinnConfig cfg = tiny_config();
  const Tensor mask = random_mask(96, 11);  // 2x2 half-overlap clip grid
  runtime::InferenceEngine walk(cfg, 9, engine_opts(Precision::kFp32, 1,
                                                    false));
  runtime::InferenceEngine serial(cfg, 9,
                                  engine_opts(Precision::kFp32, 1, true));
  runtime::InferenceEngine wide(cfg, 9,
                                engine_opts(Precision::kFp32, 4, true));
  const Tensor ref = walk.predict(mask);
  EXPECT_TRUE(bitwise_equal(ref, serial.predict(mask)));
  EXPECT_TRUE(bitwise_equal(ref, wide.predict(mask)));
  // The clip fan-out must have compiled (and kept) a GP plan.
  EXPECT_EQ(serial.plan_fallbacks(), 0);
  EXPECT_GE(serial.plan_count(), 2);  // tile plan + gp plan
}

TEST(GraphExec, PlanCacheBuildsOncePerShapeAndReuses) {
  const core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, 5,
                                  engine_opts(Precision::kFp32, 1, true));
  const int64_t at_load = engine.plan_count();
  EXPECT_GE(at_load, 1);  // the serving-tile plan is built eagerly

  const Tensor tile_mask = random_mask(64, 21);
  engine.predict_batch({tile_mask});
  EXPECT_EQ(engine.plan_count(), at_load);  // reused the eager plan

  engine.predict_batch({tile_mask, tile_mask});
  const int64_t after_pair = engine.plan_count();
  EXPECT_EQ(after_pair, at_load + 1);  // new batch size => one new plan

  engine.predict_batch({tile_mask, tile_mask});
  EXPECT_EQ(engine.plan_count(), after_pair);  // second hit reuses it

  engine.predict_batch({tile_mask, tile_mask, tile_mask});
  EXPECT_EQ(engine.plan_count(), after_pair + 1);  // new shape => new plan
  EXPECT_EQ(engine.plan_fallbacks(), 0);
}

// -- Arena planning -----------------------------------------------------------

// Aliasing safety: whatever order the planner assigns offsets in, live
// ranges must never overlap. Seeded shuffles exercise arbitrary orders; the
// replay output must be bitwise identical to the op walk for each.
TEST(GraphExec, ArenaPlanIsAliasingSafeUnderRandomizedOrders) {
  const core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(31);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  model.prepack_forward(Precision::kFp32);
  runtime::ThreadPool pool(2);
  runtime::ScopedPool scope(&pool);
  auto fwd = [&model](const ag::Variable& v) { return model.forward(v); };

  Tensor probe = Tensor::rand({1, 1, 64, 64}, rng);
  Tensor ref;
  {
    ag::NoGradGuard no_grad;
    ref = fwd(ag::Variable(probe.clone(), false)).value();
  }

  int64_t unshuffled_arena = 0;
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                        uint64_t{0xdeadbeef}}) {
    runtime::ExecutorOptions eo;
    eo.autotune = false;
    eo.arena_seed = seed;
    runtime::GraphExecutor exec(runtime::capture_graph(probe, fwd), eo);
    if (seed == 0) unshuffled_arena = exec.arena_bytes();
    EXPECT_GT(exec.arena_bytes(), 0);
    EXPECT_GT(exec.fused_nodes(), 0);  // DOINN has conv+BN/LeakyReLU chains

    auto ctx = exec.acquire();
    std::copy(probe.data(), probe.data() + probe.numel(), ctx->input(0));
    exec.run(*ctx);
    ASSERT_EQ(ctx->output_numel(0), ref.numel());
    EXPECT_EQ(std::memcmp(ctx->output(0), ref.data(),
                          sizeof(float) * static_cast<size_t>(ref.numel())),
              0)
        << "arena seed " << seed;
    exec.release(std::move(ctx));
  }
  // Size-descending best-fit should never lose to a random order.
  EXPECT_GT(unshuffled_arena, 0);
}

// The arena must be meaningfully smaller than the sum of all intermediate
// buffers — that is the point of liveness-based reuse.
TEST(GraphExec, ArenaReusesDisjointLifetimes) {
  const core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(33);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  model.prepack_forward(Precision::kFp32);
  runtime::ThreadPool pool(1);
  runtime::ScopedPool scope(&pool);

  Tensor probe = Tensor::rand({1, 1, 64, 64}, rng);
  auto graph = runtime::capture_graph(
      probe, [&model](const ag::Variable& v) { return model.forward(v); });
  int64_t total_bytes = 0;
  for (const ag::CaptureSlot& slot : graph->slots) {
    if (slot.constant.numel() > 0) continue;
    total_bytes += slot.numel * static_cast<int64_t>(sizeof(float));
  }
  runtime::ExecutorOptions eo;
  eo.autotune = false;
  runtime::GraphExecutor exec(std::move(graph), eo);
  EXPECT_LT(exec.arena_bytes(), total_bytes / 2)
      << "arena " << exec.arena_bytes() << " of " << total_bytes
      << " total intermediate bytes";
}

// -- Zero-allocation steady state ---------------------------------------------

// This binary links the counting operator new, so heap_alloc_count()
// observes every allocation. After warmup, the replay window of
// predict_batch (copy-in + executor run) must allocate nothing; the engine
// exports the same observable as the engine.heap_allocs_per_batch gauge.
TEST(GraphExec, SteadyStateReplayAllocatesNothing) {
  ASSERT_GT(runtime::heap_alloc_count(), 0)
      << "counting operator new not linked";
  const core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, 17,
                                  engine_opts(Precision::kFp32, 2, true));
  ASSERT_EQ(engine.plan_fallbacks(), 0);
  const std::vector<Tensor> masks = {random_mask(64, 41), random_mask(64, 42)};
  for (int warm = 0; warm < 3; ++warm) engine.predict_batch(masks);

  auto& gauge =
      runtime::MetricsRegistry::global().gauge("engine.heap_allocs_per_batch");
  // Assert the minimum across several replays, not every replay: worker
  // threads may lazily grow thread-local state (libc TLS, pool wakeup
  // paths) on an early post-warmup batch under machine load, which is not
  // an executor leak. A genuine per-replay allocation shows up in every
  // iteration and keeps the minimum above zero.
  int64_t min_allocs = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 5; ++i) {
    engine.predict_batch(masks);
    min_allocs = std::min(min_allocs, gauge.value());
  }
  EXPECT_EQ(min_allocs, 0) << "every steady-state replay allocated";
  EXPECT_GT(runtime::MetricsRegistry::global()
                .gauge("engine.arena_bytes")
                .value(),
            0);
}

}  // namespace
}  // namespace litho
