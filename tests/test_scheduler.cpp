// Tests for the dynamic-batching request scheduler: result correctness and
// ordering, bitwise determinism under randomized submit timing, bounded-queue
// backpressure, large-tile routing, and drain-then-stop shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/doinn.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
#include "test_util.h"

namespace litho {
namespace {

/// Small DOINN configuration that keeps scheduler tests fast: 64 px tiles.
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

TEST(Scheduler, RejectsInvalidOptions) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, 1, runtime::EngineOptions{1});
  runtime::SchedulerOptions bad;
  bad.max_batch = 0;
  EXPECT_THROW(runtime::Scheduler(engine, bad), std::invalid_argument);
  bad = {};
  bad.max_delay_us = -1;
  EXPECT_THROW(runtime::Scheduler(engine, bad), std::invalid_argument);
  bad = {};
  bad.queue_cap = bad.max_batch - 1;
  EXPECT_THROW(runtime::Scheduler(engine, bad), std::invalid_argument);
}

TEST(Scheduler, ResultsMatchUnbatchedPredictInSubmissionOrder) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/21,
                                  runtime::EngineOptions{/*num_threads=*/2});
  runtime::Scheduler scheduler(engine);

  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < 6; ++s) masks.push_back(random_mask(cfg.tile, s));
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& m : masks) futures.push_back(scheduler.submit(m));
  for (size_t i = 0; i < masks.size(); ++i) {
    const Tensor got = futures[i].get();
    const Tensor expected = engine.predict(masks[i]);
    EXPECT_EQ(test::max_abs_diff(got, expected), 0.f) << "request " << i;
  }
  const runtime::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GT(stats.batches, 0);
  EXPECT_EQ(stats.batched_requests, 6);
  EXPECT_GT(stats.latency_ms_p99, 0.0);
}

TEST(Scheduler, HugeMaxDelayIsClampedNotOverflowed) {
  // A "wait forever" delay must clamp (to 60 s), not overflow the
  // steady_clock deadline into the past — which would silently flush every
  // batch at size ~1. With the clamp, four submits under max_batch=4 are
  // held and dispatched as one batch.
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, 1, runtime::EngineOptions{1});
  runtime::SchedulerOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = int64_t{1} << 60;
  runtime::Scheduler scheduler(engine, opts);
  std::vector<std::future<Tensor>> futures;
  for (uint32_t s = 0; s < 4; ++s) {
    futures.push_back(scheduler.submit(random_mask(cfg.tile, s)));
  }
  for (auto& f : futures) (void)f.get();
  const runtime::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.batches, 1) << "deadline overflow split the batch";
}

TEST(Scheduler, SubmitRejectsNon2DMasks) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, 1, runtime::EngineOptions{1});
  runtime::Scheduler scheduler(engine);
  EXPECT_THROW(scheduler.submit(Tensor({2, 3, 4})), std::invalid_argument);
}

// The determinism contract: for a fixed engine, every coalescing pattern —
// whatever batches happen to form under random client timing, batch knobs
// and thread counts — yields bitwise the per-request predict result.
TEST(Scheduler, BitwiseDeterministicUnderRandomSubmitTiming) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/77,
                                  runtime::EngineOptions{/*num_threads=*/2});

  constexpr size_t kRequests = 12;
  std::vector<Tensor> masks;
  std::vector<Tensor> expected;
  for (uint32_t s = 0; s < kRequests; ++s) {
    masks.push_back(random_mask(cfg.tile, 100 + s));
    expected.push_back(engine.predict(masks.back()));
  }

  std::mt19937 timing_rng(13);
  for (int trial = 0; trial < 3; ++trial) {
    runtime::SchedulerOptions opts;
    opts.max_batch = 1 + static_cast<int>(timing_rng() % 8);
    opts.max_delay_us = static_cast<int64_t>(timing_rng() % 3000);
    opts.queue_cap = opts.max_batch + static_cast<int>(timing_rng() % 16);
    runtime::Scheduler scheduler(engine, opts);

    std::vector<Tensor> got(kRequests);
    std::vector<std::thread> clients;
    std::vector<unsigned> delays;
    for (size_t i = 0; i < kRequests; ++i) {
      delays.push_back(timing_rng() % 2000);
    }
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < kRequests; i += 4) {
          std::this_thread::sleep_for(std::chrono::microseconds(delays[i]));
          got[i] = scheduler.submit(masks[i]).get();
        }
      });
    }
    for (auto& t : clients) t.join();
    for (size_t i = 0; i < kRequests; ++i) {
      EXPECT_EQ(test::max_abs_diff(got[i], expected[i]), 0.f)
          << "trial " << trial << " request " << i << " (max_batch "
          << opts.max_batch << ", max_delay_us " << opts.max_delay_us << ")";
    }
  }
}

TEST(Scheduler, MixedShapesCoalesceOnlyWithinShape) {
  // 96 px tile so a second, smaller shape exists that satisfies the model's
  // input constraints (extent divisible by 32, pooled spectrum >= modes).
  core::DoinnConfig cfg = tiny_config();
  cfg.tile = 96;
  runtime::InferenceEngine engine(cfg, /*seed=*/5,
                                  runtime::EngineOptions{1});
  runtime::SchedulerOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 50000;  // force flushes to come from shape breaks
  runtime::Scheduler scheduler(engine, opts);

  // Alternate two shapes; predict_batch requires equal shapes, so the
  // dispatcher must break batches at every boundary.
  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < 8; ++s) {
    masks.push_back(random_mask(s % 2 == 0 ? cfg.tile : 64, s));
  }
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& m : masks) futures.push_back(scheduler.submit(m));
  for (size_t i = 0; i < masks.size(); ++i) {
    const Tensor got = futures[i].get();
    const Tensor expected = engine.predict(masks[i]);
    EXPECT_EQ(test::max_abs_diff(got, expected), 0.f) << "request " << i;
  }
}

TEST(Scheduler, RoutesOversizedMasksToLargeTilePath) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/33,
                                  runtime::EngineOptions{2});
  runtime::Scheduler scheduler(engine);

  const Tensor small = random_mask(cfg.tile, 1);
  const Tensor big = random_mask(2 * cfg.tile, 2);
  auto f_small = scheduler.submit(small);
  auto f_big = scheduler.submit(big);
  EXPECT_EQ(test::max_abs_diff(f_small.get(), engine.predict(small)), 0.f);
  EXPECT_EQ(test::max_abs_diff(f_big.get(), engine.predict_large(big)), 0.f);
  const runtime::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.large, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(Scheduler, BackpressureBoundsTheQueue) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/9, runtime::EngineOptions{1});
  runtime::SchedulerOptions opts;
  opts.max_batch = 2;
  opts.queue_cap = 3;
  opts.max_delay_us = 0;
  runtime::Scheduler scheduler(engine, opts);

  constexpr size_t kRequests = 16;
  std::vector<std::future<Tensor>> futures;
  const Tensor mask = random_mask(cfg.tile, 3);
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(scheduler.submit(mask));  // blocks while queue is full
  }
  for (auto& f : futures) (void)f.get();
  const runtime::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(kRequests));
  // The bounded queue never held more than queue_cap requests even though
  // the producer ran far ahead of the dispatcher.
  EXPECT_LE(stats.max_queue_depth, static_cast<int64_t>(opts.queue_cap));
  EXPECT_GT(stats.max_queue_depth, 0);
}

TEST(Scheduler, ShutdownDrainsPendingWork) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/11, runtime::EngineOptions{1});
  auto scheduler = std::make_unique<runtime::Scheduler>(engine);

  std::vector<Tensor> masks;
  std::vector<std::future<Tensor>> futures;
  for (uint32_t s = 0; s < 5; ++s) {
    masks.push_back(random_mask(cfg.tile, 40 + s));
    futures.push_back(scheduler->submit(masks.back()));
  }
  scheduler->shutdown();  // must resolve every pending future first
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " left unresolved by shutdown";
    EXPECT_EQ(test::max_abs_diff(futures[i].get(), engine.predict(masks[i])),
              0.f);
  }
  EXPECT_THROW(scheduler->submit(masks[0]), std::runtime_error);
  scheduler->shutdown();  // idempotent
  scheduler.reset();      // destructor after explicit shutdown is fine
}

TEST(Scheduler, ShutdownUnblocksBackpressuredSubmitters) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/2, runtime::EngineOptions{1});
  runtime::SchedulerOptions opts;
  opts.max_batch = 1;
  opts.queue_cap = 1;
  runtime::Scheduler scheduler(engine, opts);

  const Tensor mask = random_mask(cfg.tile, 8);
  std::atomic<int> accepted{0}, rejected{0};
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) {
      try {
        (void)scheduler.submit(mask);
        accepted.fetch_add(1);
      } catch (const std::runtime_error&) {
        rejected.fetch_add(1);
        return;  // shutdown reached while (possibly) blocked in submit
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.shutdown();
  producer.join();
  // Either the producer finished all 50 before shutdown or it was cut off
  // with the documented exception — never a hang or a crash.
  EXPECT_TRUE(rejected.load() == 1 || accepted.load() == 50);
}

TEST(Scheduler, TrySubmitMatchesSubmitBitwise) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/55, runtime::EngineOptions{1});
  runtime::Scheduler scheduler(engine);

  std::vector<Tensor> masks;
  std::vector<std::future<Tensor>> futures;
  for (uint32_t s = 0; s < 4; ++s) {
    masks.push_back(random_mask(cfg.tile, 200 + s));
    auto f = scheduler.try_submit(masks.back());
    ASSERT_TRUE(f.has_value()) << "uncontended try_submit rejected request "
                               << s;
    futures.push_back(std::move(*f));
  }
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(test::max_abs_diff(futures[i].get(), engine.predict(masks[i])),
              0.f)
        << "request " << i;
  }
  const runtime::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(Scheduler, TrySubmitRejectsWhenQueueFullInsteadOfBlocking) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/55, runtime::EngineOptions{1});
  runtime::SchedulerOptions opts;
  opts.max_batch = 1;
  opts.queue_cap = 1;
  opts.max_delay_us = 0;
  runtime::Scheduler scheduler(engine, opts);

  // Submissions outrun a 1-deep queue draining through single predicts:
  // some must come back rejected, and every try_submit must return
  // immediately (the whole point of the non-blocking path) rather than
  // stalling like submit() does.
  const Tensor mask = random_mask(cfg.tile, 4);
  std::vector<std::future<Tensor>> accepted;
  int64_t rejected = 0;
  for (int i = 0; i < 32; ++i) {
    auto f = scheduler.try_submit(mask);
    if (f.has_value()) {
      accepted.push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }
  for (auto& f : accepted) (void)f.get();
  EXPECT_GT(rejected, 0) << "32 instant submits never found the queue full";
  EXPECT_GT(static_cast<int64_t>(accepted.size()), 0);
  const runtime::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(accepted.size()));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(accepted.size()));
}

TEST(Scheduler, TrySubmitAfterShutdownRejectsInsteadOfThrowing) {
  core::DoinnConfig cfg = tiny_config();
  runtime::InferenceEngine engine(cfg, /*seed=*/6, runtime::EngineOptions{1});
  runtime::Scheduler scheduler(engine);
  scheduler.shutdown();
  EXPECT_FALSE(scheduler.try_submit(random_mask(cfg.tile, 1)).has_value());
  // Malformed input is still a caller bug, not backpressure.
  EXPECT_THROW(scheduler.try_submit(Tensor({2, 3, 4})), std::invalid_argument);
}

}  // namespace
}  // namespace litho
