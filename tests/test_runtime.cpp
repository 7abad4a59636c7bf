// Tests for the parallel inference runtime: thread pool and parallel_for
// semantics, the thread-local no-grad mode, and serial-vs-parallel parity of
// the InferenceEngine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "core/doinn.h"
#include "core/large_tile.h"
#include "core/trainer.h"
#include "fft/fft.h"
#include "runtime/engine.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "test_util.h"

namespace litho {
namespace {

/// Small DOINN configuration that keeps runtime tests fast: 64 px tiles,
/// 8 px GP grid.
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

// -- ThreadPool ---------------------------------------------------------------

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int count = 0;  // no atomics needed: everything is inline
  pool.parallel_for(10, [&count](int64_t b, int64_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count, 10);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    runtime::ThreadPool pool(threads);
    for (int64_t n : {1, 2, 7, 64, 1000}) {
      std::vector<int> hits(static_cast<size_t>(n), 0);
      pool.parallel_for(n, [&hits](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
      });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)], 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForRespectsGrain) {
  runtime::ThreadPool pool(4);
  // grain >= n forces a single inline chunk.
  int chunks = 0;
  pool.parallel_for(
      100, [&chunks](int64_t, int64_t) { ++chunks; }, /*grain=*/100);
  EXPECT_EQ(chunks, 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  runtime::ThreadPool pool(2);
  pool.parallel_for(0, [](int64_t, int64_t) { FAIL() << "body invoked"; });
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndStaysUsable) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](int64_t b, int64_t) {
                          if (b == 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
  // Exception thrown by a worker chunk (not the submitting thread's own).
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](int64_t b, int64_t) {
                          if (b != 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
  // The pool survives and keeps working.
  std::atomic<int64_t> sum{0};
  pool.parallel_for(100, [&sum](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  runtime::ThreadPool pool(4);
  std::atomic<int> nested_calls{0};
  std::atomic<int> single_chunk_calls{0};
  std::atomic<int> entered{0};
  pool.parallel_for(4, [&pool, &nested_calls, &single_chunk_calls,
                        &entered](int64_t, int64_t) {
    // Hold each chunk until a second thread joins: the submitting thread
    // claims chunks alongside the workers and on a loaded single-core host
    // could otherwise drain all four alone, leaving nothing to observe.
    entered.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (entered.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (!runtime::ThreadPool::in_worker_thread()) return;
    // A nested loop issued from a worker must collapse to one inline chunk
    // instead of broadcasting a new job (deadlock safety).
    nested_calls.fetch_add(1);
    int chunks = 0;  // inline => no races on this local
    pool.parallel_for(100, [&chunks](int64_t, int64_t) { ++chunks; });
    if (chunks == 1) single_chunk_calls.fetch_add(1);
  });
  EXPECT_GT(nested_calls.load(), 0);
  EXPECT_EQ(single_chunk_calls.load(), nested_calls.load());
}

TEST(ThreadPool, DefaultNumThreadsHonorsEnvVar) {
  ASSERT_EQ(setenv("DOINN_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(runtime::ThreadPool::default_num_threads(), 3);
  ASSERT_EQ(setenv("DOINN_NUM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(runtime::ThreadPool::default_num_threads(), 1);
  ASSERT_EQ(unsetenv("DOINN_NUM_THREADS"), 0);
  EXPECT_GE(runtime::ThreadPool::default_num_threads(), 1);
}

// -- Grad mode ----------------------------------------------------------------

TEST(GradMode, NoGradGuardDisablesAndRestores) {
  EXPECT_TRUE(ag::GradMode::is_enabled());
  {
    ag::NoGradGuard guard;
    EXPECT_FALSE(ag::GradMode::is_enabled());
    {
      ag::NoGradGuard nested;
      EXPECT_FALSE(ag::GradMode::is_enabled());
    }
    EXPECT_FALSE(ag::GradMode::is_enabled());
  }
  EXPECT_TRUE(ag::GradMode::is_enabled());
}

TEST(GradMode, NoGradOpsBuildNoGraph) {
  auto rng = test::rng();
  ag::Variable w(Tensor::rand({2, 2}, rng), /*requires_grad=*/true);
  ag::Variable x(Tensor::rand({2, 2}, rng), false);
  {
    ag::NoGradGuard guard;
    ag::Variable y = ag::mul(ag::add(x, w), w);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.state()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(y.state()->backward_fn));
  }
  // Outside the guard the same expression records the tape again.
  ag::Variable y = ag::mul(ag::add(x, w), w);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_FALSE(y.state()->parents.empty());
}

TEST(GradMode, InferenceAllocatesNoTapeNodes) {
  core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(7);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  Tensor mask = random_mask(cfg.tile, 11);
  Tensor x = mask.clone().reshape({1, 1, cfg.tile, cfg.tile});

  // Grad-enabled forward: the tape grows (weights require grad).
  const int64_t before_grad = ag::detail::tape_nodes_created();
  (void)model.forward(ag::Variable(x.clone(), false));
  EXPECT_GT(ag::detail::tape_nodes_created(), before_grad);

  // No-grad forward: not a single tape node.
  ag::NoGradGuard guard;
  const int64_t before = ag::detail::tape_nodes_created();
  ag::Variable out = model.forward(ag::Variable(x.clone(), false));
  EXPECT_EQ(ag::detail::tape_nodes_created(), before);
  EXPECT_TRUE(out.state()->parents.empty());
}

TEST(GradMode, TrainingStillWorksAfterNoGradInference) {
  // A no-grad pass must not poison subsequent gradient computations.
  auto rng = test::rng();
  ag::Variable w(Tensor::rand({3}, rng), true);
  {
    ag::NoGradGuard guard;
    (void)ag::sum(ag::mul(w, w));
  }
  ag::Variable loss = ag::sum(ag::mul(w, w));
  loss.backward();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(w.grad()[i], 2.f * w.value()[i], 1e-5f);
  }
}

// -- InferenceEngine ----------------------------------------------------------

TEST(InferenceEngine, PredictBatchMatchesSerialPredictContour) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/21,
                                  runtime::EngineOptions{/*num_threads=*/2});
  auto rng = test::rng(21);
  core::Doinn reference(cfg, rng);  // same seed => identical weights

  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < 4; ++s) masks.push_back(random_mask(cfg.tile, s));
  const std::vector<Tensor> batched = engine.predict_batch(masks);
  ASSERT_EQ(batched.size(), masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    const Tensor serial = core::predict_contour(reference, masks[i]);
    EXPECT_EQ(test::max_abs_diff(batched[i], serial), 0.f) << "mask " << i;
  }
}

TEST(InferenceEngine, PredictLargeMatchesSerialAcrossThreadCounts) {
  core::DoinnConfig cfg = tiny_config();
  const Tensor mask = random_mask(2 * cfg.tile, 5);

  auto rng = test::rng(33);
  core::Doinn reference(cfg, rng);
  core::LargeTilePredictor serial(reference);
  Tensor expected = serial.predict(mask);
  expected.apply_([](float v) { return v >= 0.f ? 1.f : 0.f; });

  for (int threads : {1, 2, 4}) {
    runtime::InferenceEngine engine(cfg, /*seed=*/33,
                                    runtime::EngineOptions{threads});
    const Tensor parallel = engine.predict_large(mask);
    EXPECT_EQ(test::max_abs_diff(parallel, expected), 0.f)
        << "threads=" << threads;
  }
}

TEST(InferenceEngine, PredictDispatchesOnMaskSize) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, 3, runtime::EngineOptions{2});
  const Tensor small = engine.predict(random_mask(cfg.tile, 1));
  EXPECT_EQ(small.size(0), cfg.tile);
  const Tensor large = engine.predict(random_mask(2 * cfg.tile, 2));
  EXPECT_EQ(large.size(0), 2 * cfg.tile);
}

TEST(InferenceEngine, CheckpointRoundTrip) {
  core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(55);
  core::Doinn model(cfg, rng);
  const std::string path = "test_runtime_ckpt.bin";
  core::save_doinn(path, model);

  runtime::InferenceEngine engine(path, runtime::EngineOptions{2});
  EXPECT_EQ(engine.config().tile, cfg.tile);
  EXPECT_EQ(engine.config().modes, cfg.modes);

  const Tensor mask = random_mask(cfg.tile, 9);
  const Tensor expected = core::predict_contour(model, mask);
  const Tensor got = engine.predict(mask);
  EXPECT_EQ(test::max_abs_diff(got, expected), 0.f);
  std::remove(path.c_str());
}

// -- Workspace pool -----------------------------------------------------------

TEST(WorkspacePool, LeasesRecycleBuffers) {
  runtime::WorkspacePool& pool = runtime::WorkspacePool::instance();
  {
    runtime::Workspace warm(256);  // seed the free list
    warm.data()[0] = {1.0, 2.0};
  }
  const auto before = pool.stats();
  {
    runtime::Workspace ws(200);  // rounds up to 256, must reuse
    ASSERT_GE(ws.size(), 200u);
    ws.data()[199] = {3.0, 4.0};
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_GT(after.reuses, before.reuses);
}

TEST(WorkspacePool, OversizedReleasesAreDroppedNotPinned) {
  runtime::WorkspacePool& pool = runtime::WorkspacePool::instance();
  pool.clear();
  // A buffer past the pool's byte budget must be dropped on release, so the
  // next acquire of that size allocates fresh instead of reusing.
  const size_t huge = (80u << 20) / sizeof(std::complex<double>);
  { runtime::Workspace ws(huge); }
  const auto before = pool.stats();
  { runtime::Workspace ws(huge); }
  const auto after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_EQ(after.reuses, before.reuses);
  pool.clear();
}

// -- Cross-thread-count determinism -------------------------------------------
// The FFT kernels and the engine must produce bitwise-equal outputs whether
// DOINN_NUM_THREADS resolves to 1 or 8. The global pool latches the env var
// at first use, so the tests pin explicit pools of each size instead —
// ScopedPool routes the free parallel_for exactly the way the env var would.

TEST(Determinism, FftKernelsBitwiseEqualAcrossThreadCounts) {
  auto rng = test::rng(91);
  // Batched and single-slice planes, radix-2 and Bluestein extents, odd H.
  const std::vector<Shape> shapes = {{4, 32, 32}, {1, 64, 64}, {3, 33, 20},
                                     {1, 31, 48}};
  for (const Shape& s : shapes) {
    const int64_t w = s[s.size() - 1];
    Tensor x = Tensor::randn(s, rng);
    fft::CTensor xc(Tensor::randn(s, rng), Tensor::randn(s, rng));
    fft::CTensor spec_ref, fft_ref;
    Tensor back_ref;
    {
      runtime::ThreadPool serial(1);
      runtime::ScopedPool sp(&serial);
      spec_ref = fft::rfft2(x);
      back_ref = fft::irfft2(spec_ref, w);
      fft_ref = fft::fft2(xc, false);
    }
    runtime::ThreadPool wide(8);
    runtime::ScopedPool sp(&wide);
    const fft::CTensor spec = fft::rfft2(x);
    EXPECT_EQ(test::max_abs_diff(spec.re, spec_ref.re), 0.f);
    EXPECT_EQ(test::max_abs_diff(spec.im, spec_ref.im), 0.f);
    EXPECT_EQ(test::max_abs_diff(fft::irfft2(spec, w), back_ref), 0.f);
    const fft::CTensor full = fft::fft2(xc, false);
    EXPECT_EQ(test::max_abs_diff(full.re, fft_ref.re), 0.f);
    EXPECT_EQ(test::max_abs_diff(full.im, fft_ref.im), 0.f);
  }
}

TEST(Determinism, PredictBatchBitwiseEqualAcrossThreadCounts) {
  core::DoinnConfig cfg = tiny_config();
  std::vector<Tensor> masks;
  for (uint32_t s = 100; s < 106; ++s) {
    masks.push_back(random_mask(cfg.tile, s));
  }
  runtime::InferenceEngine serial(cfg, /*seed=*/77,
                                  runtime::EngineOptions{/*num_threads=*/1});
  runtime::InferenceEngine wide(cfg, /*seed=*/77,
                                runtime::EngineOptions{/*num_threads=*/8});
  const std::vector<Tensor> a = serial.predict_batch(masks);
  const std::vector<Tensor> b = wide.predict_batch(masks);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(test::max_abs_diff(a[i], b[i]), 0.f) << "mask " << i;
  }
}

}  // namespace
}  // namespace litho
