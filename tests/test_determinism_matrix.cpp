// Bitwise-determinism matrix: one fixed workload pushed through every
// combination of {fp32, int8} x {1, 4 threads} x {graph executor on/off} —
// 8 configurations. Within a precision, every configuration must produce
// bitwise-identical contours — thread count, executor compilation, and
// batch composition are latency knobs only (the repo-wide determinism
// contract). Precisions legitimately
// differ from each other, so each precision group has its own reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/doinn.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
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

struct MatrixPoint {
  Precision precision;
  int num_threads;
  bool graph_executor;
};

std::string point_name(const MatrixPoint& p) {
  std::string s = precision_name(p.precision);
  s += p.num_threads == 1 ? "/t1" : "/t4";
  s += p.graph_executor ? "/graph" : "/opwalk";
  return s;
}

/// Runs the fixed workload through an engine+scheduler built for one matrix
/// point and returns the contours in request order.
std::vector<Tensor> run_point(const std::string& checkpoint,
                              const MatrixPoint& p,
                              const std::vector<Tensor>& workload) {
  runtime::EngineOptions eng;
  eng.num_threads = p.num_threads;
  eng.precision = p.precision;
  eng.use_graph_executor = p.graph_executor;
  eng.autotune = false;  // bitwise-neutral; keeps 8 engine builds fast
  runtime::InferenceEngine engine(checkpoint, eng);

  runtime::SchedulerOptions sched;
  sched.max_batch = 4;
  runtime::Scheduler scheduler(engine, sched);

  std::vector<std::future<Tensor>> futures;
  futures.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    futures.push_back(scheduler.submit(workload[i], i + 1));
  }
  std::vector<Tensor> contours;
  contours.reserve(workload.size());
  for (auto& f : futures) contours.push_back(f.get());
  scheduler.shutdown();
  return contours;
}

TEST(DeterminismMatrix, EveryConfigurationIsBitwiseIdenticalPerPrecision) {
  const std::string checkpoint = "test_determinism_matrix.bin";
  {
    auto rng = test::rng(77);
    core::Doinn model(tiny_config(), rng);
    core::save_doinn(checkpoint, model);
  }

  // Mixed-shape workload so batches of different compositions form: the
  // scheduler only batches same-shape requests — which may not change a
  // single bit.
  std::vector<Tensor> workload;
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    workload.push_back(random_mask(64, seed));
  }
  // Three large masks of one shape: with the executor on, the first is the
  // LP+IR capture, the second its validating replay, the third a trusted
  // replay.
  workload.push_back(random_mask(96, 5));
  workload.push_back(random_mask(96, 6));
  workload.push_back(random_mask(96, 7));

  const Precision precisions[] = {Precision::kFp32, Precision::kInt8};
  for (const Precision precision : precisions) {
    std::vector<Tensor> reference;
    std::string reference_name;
    for (const int threads : {1, 4}) {
      for (const bool graph : {false, true}) {
        const MatrixPoint p{precision, threads, graph};
        const std::vector<Tensor> got = run_point(checkpoint, p, workload);
        ASSERT_EQ(got.size(), workload.size()) << point_name(p);
        if (reference.empty()) {
          reference = got;
          reference_name = point_name(p);
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(test::max_abs_diff(got[i], reference[i]), 0.f)
              << point_name(p) << " request " << i << " differs from "
              << reference_name;
        }
      }
    }
  }

  std::remove(checkpoint.c_str());
}

}  // namespace
}  // namespace litho
