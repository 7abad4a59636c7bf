// Tests for the static inference graph executor (runtime/graph_exec.h) and
// its engine integration: executor replays must be bitwise identical to the
// op walk for every precision, thread count and batch composition; arena
// planning must be aliasing-safe under any allocation order; the engine must
// build its two plans at load and no more; and steady-state replays must
// not touch the heap (this binary links the counting operator new from
// bench/alloc_count_new.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "core/doinn.h"
#include "nn/layers.h"
#include "runtime/alloc_hooks.h"
#include "runtime/engine.h"
#include "runtime/graph_exec.h"
#include "runtime/metrics_registry.h"
#include "runtime/trace.h"
#include "runtime/workspace.h"
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
// counts and across batch compositions. Every int8 engine here, op walk or
// executor, packs every conv int8, so the int8 pass compares all-int8
// against all-int8; the kernel-knob autotune cache is process-wide and
// bitwise-neutral.
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
    // which batch it arrived in (the lanes of a batch split differently at
    // every batch size and thread count).
    for (size_t i = 0; i < masks.size(); ++i) {
      const Tensor solo = serial.predict_batch({masks[i]}).front();
      EXPECT_TRUE(bitwise_equal(ref[i], solo))
          << precision_name(prec) << " solo sample " << i;
    }
  }
}

// The large path compiles the LP+IR pass of the latest large shape: the
// first request of a shape is the capture, the second replays and checks
// the replay against the op walk, the third only replays, and a new shape
// replaces the slot (so returning to the old shape captures again). Every
// step must match the op walk bit for bit.
TEST(GraphExec, PredictLargeMatchesOpWalkAcrossThreadCounts) {
  const core::DoinnConfig cfg = tiny_config();
  const Tensor a = random_mask(96, 11);   // 2x2 half-overlap clip grid
  const Tensor b = random_mask(128, 12);  // 3x3 clip grid
  const std::vector<const Tensor*> sequence = {&a, &a, &a, &b, &a};
  // Plans built by each call (the GP clip plan is built at load): A, B and
  // the return to A one capture each.
  const std::vector<int64_t> new_plans = {1, 0, 0, 1, 1};
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    runtime::EngineOptions walk_opts = engine_opts(prec, 1, false);
    walk_opts.autotune = false;
    runtime::InferenceEngine walk(cfg, 9, walk_opts);
    const Tensor ref_a = walk.predict(a);
    const Tensor ref_b = walk.predict(b);
    for (int threads : {1, 3}) {
      runtime::EngineOptions opts = engine_opts(prec, threads, true);
      opts.autotune = false;
      runtime::InferenceEngine engine(cfg, 9, opts);
      int64_t plans = engine.plan_count();
      for (size_t i = 0; i < sequence.size(); ++i) {
        const Tensor got = engine.predict(*sequence[i]);
        EXPECT_TRUE(bitwise_equal(sequence[i] == &b ? ref_b : ref_a, got))
            << precision_name(prec) << " t" << threads << " call " << i;
        EXPECT_EQ(engine.plan_count() - plans, new_plans[i])
            << precision_name(prec) << " t" << threads << " call " << i;
        plans = engine.plan_count();
      }
      EXPECT_EQ(engine.plan_fallbacks(), 0)
          << precision_name(prec) << " t" << threads;
    }
  }
}

// A mask over 1024 x 1024 px never compiles its LP+IR pass (the plan's
// arena would stay resident): it takes the op walk, adds no plan, and leaves
// the latest compiled shape in the slot.
TEST(GraphExec, PredictLargeOverPixelCapTakesOpWalk) {
  const core::DoinnConfig cfg = tiny_config();
  const Tensor a = random_mask(96, 13);
  auto rng = test::rng(14);
  Tensor big = Tensor::rand({64, 16416}, rng);  // 1'050'624 px
  big.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });

  runtime::EngineOptions walk_opts = engine_opts(Precision::kFp32, 2, false);
  walk_opts.autotune = false;
  runtime::InferenceEngine walk(cfg, 9, walk_opts);
  const Tensor ref_big = walk.predict(big);
  const Tensor ref_a = walk.predict(a);

  runtime::EngineOptions opts = engine_opts(Precision::kFp32, 2, true);
  opts.autotune = false;
  runtime::InferenceEngine engine(cfg, 9, opts);
  engine.predict(a);  // the capture of `a`
  const int64_t plans = engine.plan_count();
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(bitwise_equal(ref_big, engine.predict(big))) << "call " << i;
    EXPECT_EQ(engine.plan_count(), plans) << "call " << i;
  }
  EXPECT_TRUE(bitwise_equal(ref_a, engine.predict(a)));  // validating replay
  EXPECT_EQ(engine.plan_count(), plans);
  EXPECT_EQ(engine.plan_fallbacks(), 0);
}

// The large plan's two-input graph (mask, stitched GP features) replays
// bitwise equal to Doinn::forward_from_gp on inputs it was not captured on.
TEST(GraphExec, TwoInputCaptureReplaysOnOtherInputs) {
  const core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(35);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  model.prepack_forward(Precision::kFp32);
  runtime::ThreadPool pool(2);
  runtime::ScopedPool scope(&pool);
  auto gp_of = [&model](const Tensor& x) {
    ag::NoGradGuard no_grad;
    return model.gp_features(ag::Variable(x.clone(), false)).value();
  };
  const Tensor x0 = Tensor::rand({1, 1, 96, 96}, rng);
  const Tensor x1 = Tensor::rand({1, 1, 96, 96}, rng);
  const Tensor gp0 = gp_of(x0), gp1 = gp_of(x1);

  Tensor captured;
  auto graph = runtime::capture_graph(
      {x0, gp0},
      [&model](const std::vector<ag::Variable>& in) {
        return model.forward_from_gp(in[1], in[0]);
      },
      &captured);
  ASSERT_EQ(graph->inputs.size(), 2u);
  EXPECT_TRUE(runtime::froze_only_parameters(*graph));
  Tensor ref;
  {
    ag::NoGradGuard no_grad;
    ref = model
              .forward_from_gp(ag::Variable(gp1.clone(), false),
                               ag::Variable(x1.clone(), false))
              .value();
  }
  EXPECT_FALSE(bitwise_equal(captured, ref));  // the inputs really differ

  runtime::ExecutorOptions eo;
  eo.autotune = false;
  runtime::GraphExecutor exec(std::move(graph), eo);
  auto ctx = exec.acquire();
  std::copy(x1.data(), x1.data() + x1.numel(), ctx->input(0));
  std::copy(gp1.data(), gp1.data() + gp1.numel(), ctx->input(1));
  exec.run(*ctx);
  ASSERT_EQ(ctx->output_numel(0), ref.numel());
  EXPECT_EQ(std::memcmp(ctx->output(0), ref.data(),
                        sizeof(float) * static_cast<size_t>(ref.numel())),
            0);
  exec.release(std::move(ctx));
}

// Structural plan check: real DOINN captures freeze only parameters, while
// a forward with an op the recorder cannot see (a raw Tensor::apply_)
// freezes that op's output on the capture input as a constant — a graph
// that would pass validation on its own capture input and be wrong on any
// other.
TEST(GraphExec, FrozenNonParameterConstantFailsStructuralCheck) {
  const core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(37);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  runtime::ThreadPool pool(1);
  runtime::ScopedPool scope(&pool);
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    model.prepack_forward(prec);
    for (int64_t n : {1, 2}) {
      EXPECT_TRUE(runtime::froze_only_parameters(*runtime::capture_graph(
          Tensor({n, 1, 64, 64}),
          [&model](const ag::Variable& v) { return model.forward(v); })))
          << precision_name(prec) << " batch " << n;
    }
    EXPECT_TRUE(runtime::froze_only_parameters(*runtime::capture_graph(
        Tensor({1, 1, 64, 64}),
        [&model](const ag::Variable& v) { return model.gp_features(v); })))
        << precision_name(prec) << " gp";
  }

  auto graph = runtime::capture_graph(
      Tensor::rand({1, 1, 64, 64}, rng), [](const ag::Variable& v) {
        Tensor t = v.value().clone();
        t.apply_([](float f) { return 2.f * f; });
        return ag::tanh(ag::Variable(t, false));
      });
  EXPECT_FALSE(runtime::froze_only_parameters(*graph));
}

// The engine builds two plans at load, the batch-1 tile forward and the GP
// path, and no request builds another: every batch size replays the tile
// plan once per sample across the pool's lanes, other shapes take the op
// walk, and a shape the model cannot run throws without counting a plan or
// a fallback.
TEST(GraphExec, TwoPlansAtLoadServeEveryBatchAndShape) {
  const core::DoinnConfig cfg = tiny_config();
  runtime::EngineOptions walk_opts = engine_opts(Precision::kFp32, 1, false);
  walk_opts.autotune = false;
  runtime::InferenceEngine walk(cfg, 5, walk_opts);
  runtime::EngineOptions opts = engine_opts(Precision::kFp32, 3, true);
  opts.autotune = false;
  runtime::InferenceEngine engine(cfg, 5, opts);
  EXPECT_EQ(engine.plan_count(), 2);
  EXPECT_EQ(engine.plan_fallbacks(), 0);

  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < 5; ++s) masks.push_back(random_mask(64, 21 + s));
  for (size_t n = 1; n <= masks.size(); ++n) {
    const std::vector<Tensor> batch(masks.begin(), masks.begin() + n);
    const std::vector<Tensor> ref = walk.predict_batch(batch);
    const std::vector<Tensor> got = engine.predict_batch(batch);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bitwise_equal(ref[i], got[i]))
          << "batch " << n << " sample " << i;
    }
    EXPECT_EQ(engine.plan_count(), 2) << "batch " << n;
  }

  auto rng = test::rng(26);
  auto rect_mask = [&rng](int64_t h, int64_t w) {
    Tensor m = Tensor::rand({h, w}, rng);
    m.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
    return m;
  };
  const Tensor sub_tile = rect_mask(32, 64);
  EXPECT_TRUE(bitwise_equal(walk.predict(sub_tile), engine.predict(sub_tile)));
  EXPECT_EQ(engine.plan_count(), 2);

  for (const Tensor& bad : {rect_mask(16, 16), rect_mask(64, 32)}) {
    EXPECT_ANY_THROW(engine.predict(bad))
        << bad.size(0) << "x" << bad.size(1);
    EXPECT_EQ(engine.plan_count(), 2) << bad.size(0) << "x" << bad.size(1);
    EXPECT_EQ(engine.plan_fallbacks(), 0)
        << bad.size(0) << "x" << bad.size(1);
  }
}

// Every fp32 inference conv gathers from a zero-bordered band of its input,
// at any width and stride. Training's conv2d, whose bounds-checked gather
// is independent of that feed, is the reference: the op walk and the
// executor replay of conv2d_prepacked must match it bitwise for DOINN's
// conv shapes, on widths around the 32-pixel indirect run and the column
// block, with rows that start mid-block, for batches 1 and 2 and 1 and 3
// threads. The second replay runs on a stale arena.
TEST(GraphExec, PrepackedConvMatchesTrainingConvOnWalkAndReplay) {
  struct Shape {
    int64_t k, stride, padding;
  };
  auto rng = test::rng(61);
  const int64_t cin = 3, cout = 5;
  for (const Shape sh : {Shape{3, 1, 1}, Shape{5, 1, 2}, Shape{4, 2, 1},
                         Shape{1, 1, 0}}) {
    const ag::Variable w(Tensor::randn({cout, cin, sh.k, sh.k}, rng), false);
    const ag::Variable b(Tensor::randn({cout}, rng), false);
    const auto wp = std::make_shared<const PackedWeight>(
        GemmLayout::kNN, w.value().data(), cout, cin * sh.k * sh.k,
        Precision::kFp32);
    auto prepacked = [&](const ag::Variable& x) {
      return ag::conv2d_prepacked(x, w, wp, b, sh.stride, sh.padding);
    };
    for (int threads : {1, 3}) {
      runtime::ThreadPool pool(threads);
      runtime::ScopedPool scope(&pool);
      for (int64_t n : {1, 2}) {
        for (int64_t h : {10, 300}) {
          for (int64_t wd : {8, 20, 32, 64, 96, 256, 288, 512, 513}) {
            const std::string where =
                "k " + std::to_string(sh.k) + " s " +
                std::to_string(sh.stride) + " threads " +
                std::to_string(threads) + " n " + std::to_string(n) + " " +
                std::to_string(h) + "x" + std::to_string(wd);
            ag::NoGradGuard no_grad;
            auto graph = runtime::capture_graph(
                Tensor::rand({n, cin, h, wd}, rng), prepacked);
            runtime::ExecutorOptions eo;
            eo.autotune = false;
            runtime::GraphExecutor exec(std::move(graph), eo);
            for (int rep = 0; rep < 2; ++rep) {
              const ag::Variable x(Tensor::rand({n, cin, h, wd}, rng), false);
              const Tensor ref =
                  ag::conv2d(x, w, b, sh.stride, sh.padding).value();
              EXPECT_TRUE(bitwise_equal(prepacked(x).value(), ref))
                  << "op walk " << where;
              auto ctx = exec.acquire();
              auto spare = exec.acquire();  // rep 1 replays on a used arena
              std::copy(x.value().data(), x.value().data() + x.value().numel(),
                        ctx->input(0));
              exec.run(*ctx);
              ASSERT_EQ(ctx->output_numel(0), ref.numel()) << where;
              EXPECT_EQ(std::memcmp(ctx->output(0), ref.data(),
                                    sizeof(float) *
                                        static_cast<size_t>(ref.numel())),
                        0)
                  << "replay " << where << " rep " << rep;
              exec.release(std::move(spare));
              exec.release(std::move(ctx));
            }
          }
        }
      }
    }
  }
}

// Training's conv_transpose2d (a full column buffer scattered by col2im into
// a zero-filled plane, then a bias pass) is the reference: the op walk and
// the executor replay of conv_transpose2d_prepacked, which GEMM one output
// row band at a time into a column tile and gather each pixel's taps,
// must match it bitwise. Shapes cover DOINN's 4x4 s2 p1, a stride-1 3x3,
// a tap-disjoint 2x2 s2 and an odd-output 3x3 s2. Height 1 runs as one
// band, 9 as one or two, 300 as several, the last one ragged at most
// widths. The second replay runs on a stale arena.
TEST(GraphExec, PrepackedTransposedConvMatchesTrainingConvOnWalkAndReplay) {
  struct Shape {
    int64_t k, stride, padding;
  };
  auto rng = test::rng(63);
  const int64_t cin = 3, cout = 5;
  for (const Shape sh : {Shape{4, 2, 1}, Shape{3, 1, 1}, Shape{2, 2, 0},
                         Shape{3, 2, 1}}) {
    const ag::Variable w(Tensor::randn({cin, cout, sh.k, sh.k}, rng), false);
    const ag::Variable b(Tensor::randn({cout}, rng), false);
    const auto wp = std::make_shared<const PackedWeight>(
        GemmLayout::kTN, w.value().data(), cout * sh.k * sh.k, cin,
        Precision::kFp32);
    auto prepacked = [&](const ag::Variable& x) {
      return ag::conv_transpose2d_prepacked(x, w, wp, b, sh.stride,
                                            sh.padding);
    };
    for (int threads : {1, 3}) {
      runtime::ThreadPool pool(threads);
      runtime::ScopedPool scope(&pool);
      for (int64_t n : {1, 2}) {
        for (int64_t h : {1, 9, 300}) {
          for (int64_t wd : {1, 7, 16, 33, 64, 256}) {
            const std::string where =
                "k " + std::to_string(sh.k) + " s " +
                std::to_string(sh.stride) + " p " +
                std::to_string(sh.padding) + " threads " +
                std::to_string(threads) + " n " + std::to_string(n) + " " +
                std::to_string(h) + "x" + std::to_string(wd);
            ag::NoGradGuard no_grad;
            auto graph = runtime::capture_graph(
                Tensor::rand({n, cin, h, wd}, rng), prepacked);
            runtime::ExecutorOptions eo;
            eo.autotune = false;
            runtime::GraphExecutor exec(std::move(graph), eo);
            for (int rep = 0; rep < 2; ++rep) {
              const ag::Variable x(Tensor::randn({n, cin, h, wd}, rng), false);
              const Tensor ref =
                  ag::conv_transpose2d(x, w, b, sh.stride, sh.padding)
                      .value();
              EXPECT_TRUE(bitwise_equal(prepacked(x).value(), ref))
                  << "op walk " << where;
              auto ctx = exec.acquire();
              auto spare = exec.acquire();  // rep 1 replays on a used arena
              std::copy(x.value().data(), x.value().data() + x.value().numel(),
                        ctx->input(0));
              exec.run(*ctx);
              ASSERT_EQ(ctx->output_numel(0), ref.numel()) << where;
              EXPECT_EQ(std::memcmp(ctx->output(0), ref.data(),
                                    sizeof(float) *
                                        static_cast<size_t>(ref.numel())),
                        0)
                  << "replay " << where << " rep " << rep;
              exec.release(std::move(spare));
              exec.release(std::move(ctx));
            }
          }
        }
      }
    }
  }
}

// A transposed conv holds one band's column tile, not a column buffer for
// the whole plane: the 512 px ir.dconv3 shape (12 -> 4 channels, 4x4 s2
// p1 over a 256^2 input), whose full buffer is 16 MiB, draws at most
// 1 MiB of scratch.
TEST(GraphExec, TransposedConvScratchIsOneBandTile) {
  auto rng = test::rng(64);
  const int64_t cin = 12, cout = 4, k = 4;
  const ag::Variable w(Tensor::randn({cin, cout, k, k}, rng), false);
  const ag::Variable b(Tensor::randn({cout}, rng), false);
  const auto wp = std::make_shared<const PackedWeight>(
      GemmLayout::kTN, w.value().data(), cout * k * k, cin, Precision::kFp32);
  const ag::Variable x(Tensor::randn({1, cin, 256, 256}, rng), false);
  runtime::ThreadPool pool(1);  // every lease on this thread
  runtime::ScopedPool scope(&pool);
  // A pooled buffer over the cache's byte budget would not stay cached, and
  // every band would draw again.
  runtime::FloatWorkspacePool::instance().clear();
  runtime::LeaseCache cache;
  {
    runtime::ScopedLeaseCache leases(&cache);
    ag::NoGradGuard no_grad;
    ag::conv_transpose2d_prepacked(x, w, wp, b, 2, 1);
  }
  EXPECT_GT(cache.drawn_bytes(), 0u);
  EXPECT_LE(cache.drawn_bytes(), size_t{1} << 20);
}

// The autotuner times the column-block width of non-transposed convs only:
// a transposed conv's row bands come from its geometry. Shapes no other
// test tunes keep the process-wide tune cache from answering instead.
TEST(GraphExec, AutotuneTimesNoTransposedConv) {
  auto rng = test::rng(65);
  const int64_t cin = 6, mid = 7, cout = 5;
  const ag::Variable wt(Tensor::randn({cin, mid, 4, 4}, rng), false);
  const ag::Variable bt(Tensor::randn({mid}, rng), false);
  const auto wpt = std::make_shared<const PackedWeight>(
      GemmLayout::kTN, wt.value().data(), mid * 16, cin, Precision::kFp32);
  const ag::Variable wc(Tensor::randn({cout, mid, 3, 3}, rng), false);
  const ag::Variable bc(Tensor::randn({cout}, rng), false);
  const auto wpc = std::make_shared<const PackedWeight>(
      GemmLayout::kNN, wc.value().data(), cout, mid * 9, Precision::kFp32);
  auto graph = runtime::capture_graph(
      Tensor::rand({1, cin, 20, 20}, rng), [&](const ag::Variable& x) {
        return ag::conv2d_prepacked(
            ag::conv_transpose2d_prepacked(x, wt, wpt, bt, 2, 1), wc, wpc,
            bc, 1, 1);
      });
  runtime::trace::reset();
  runtime::trace::set_enabled(true);
  runtime::ExecutorOptions eo;
  eo.autotune = true;
  runtime::GraphExecutor exec(std::move(graph), eo);
  runtime::trace::set_enabled(false);
  int transposed = 0, plain = 0;
  for (const runtime::trace::ThreadEvents& te : runtime::trace::snapshot()) {
    for (const runtime::trace::Event& e : te.events) {
      if (std::string(e.name) != "exec.autotune.choice") continue;
      transposed += e.aval[0] == mid * 16;  // arg 0 is the GEMM's m
      plain += e.aval[0] == cout;
    }
  }
  runtime::trace::reset();
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(transposed, 0);
}

// An fp32 conv gathers from a leased band, not from arena scratch: a plan
// of one 3x3 conv holds only its input and output, at any width.
TEST(GraphExec, Fp32ConvPlanHoldsOnlyItsInputAndOutput) {
  auto rng = test::rng(62);
  nn::Conv2d conv(4, 8, 3, 1, 1, rng);
  conv.prepack_forward(Precision::kFp32);
  for (int64_t side : {128, 512}) {
    const Tensor probe = Tensor::rand({1, 4, side, side}, rng);
    auto graph = runtime::capture_graph(
        probe, [&](const ag::Variable& x) { return conv.forward(x); });
    runtime::ExecutorOptions eo;
    eo.autotune = false;
    runtime::GraphExecutor exec(std::move(graph), eo);
    EXPECT_EQ(exec.arena_bytes(), 4 * (4 + 8) * side * side) << side;
  }
}

// -- Epilogue fusion ------------------------------------------------------------

// Exact fusion coverage of DoinnConfig::small(): every leaky_relu, tanh and
// bn_eval stage whose input is a conv output read by nothing else folds
// into that conv's GEMM epilogue. The only one that cannot is the GP
// path's output leaky, which reads the `add` of the spectral and bypass
// branches.
TEST(GraphExec, FusesEveryStageBehindAConvOnDoinnSmall) {
  const core::DoinnConfig cfg = core::DoinnConfig::small();
  auto rng = test::rng(5);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  model.prepack_forward(Precision::kFp32);
  auto fwd = [&model](const ag::Variable& v) { return model.forward(v); };
  const Tensor probe = Tensor::rand({1, 1, cfg.tile, cfg.tile}, rng);
  std::shared_ptr<ag::CapturedGraph> graph = runtime::capture_graph(probe, fwd);
  runtime::ExecutorOptions eo;
  eo.autotune = false;
  runtime::GraphExecutor exec(graph, eo);

  int stages = 0;
  std::vector<const ag::CaptureNode*> unfused;
  for (const ag::CaptureNode& node : graph->nodes) {
    const std::string kind = node.kind;
    if (kind != "leaky_relu" && kind != "tanh" && kind != "bn_eval") continue;
    ++stages;
    ASSERT_NE(node.tuning, nullptr) << kind;
    EXPECT_EQ(node.tuning->post.size(), 1u) << kind;
    if (!node.dead) unfused.push_back(&node);
  }
  EXPECT_EQ(stages, 29);
  EXPECT_EQ(exec.fused_nodes(), 28);
  EXPECT_EQ(exec.live_nodes(), 37);
  ASSERT_EQ(unfused.size(), 1u);
  EXPECT_STREQ(unfused[0]->kind, "leaky_relu");
  const int producer =
      graph->slots[static_cast<size_t>(unfused[0]->ins[0])].producer;
  ASSERT_GE(producer, 0);
  EXPECT_STREQ(graph->nodes[static_cast<size_t>(producer)].kind, "add");
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

// Lanes: a batch wider than the pool replays on one context per lane, taken
// before the fan-out, and each context keeps its kernel scratch. After one
// batch, every batch of that size allocates nothing, however the threads
// claim the lanes.
TEST(GraphExec, LaneReplaysAllocateNothingAfterFirstBatch) {
  const core::DoinnConfig cfg = tiny_config();
  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < 7; ++s) masks.push_back(random_mask(64, 50 + s));
  auto& gauge =
      runtime::MetricsRegistry::global().gauge("engine.heap_allocs_per_batch");
  // Int8 convs keep their quantized input planes in arena scratch.
  for (Precision p : {Precision::kFp32, Precision::kInt8}) {
    runtime::InferenceEngine engine(cfg, 19, engine_opts(p, 3, true));
    ASSERT_EQ(engine.plan_fallbacks(), 0);
    engine.predict_batch(masks);
    for (int i = 0; i < 20; ++i) {
      engine.predict_batch(masks);
      EXPECT_EQ(gauge.value(), 0) << precision_name(p) << " batch " << i;
    }
  }
}

}  // namespace
}  // namespace litho
