// Inference engine: loads a DOINN checkpoint
// once, owns the thread pool, and serves batched and large-tile predictions
// on the no-grad fast path. This is the long-lived object behind
// apps/doinn_serve.cpp and the serve-throughput benchmark.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/doinn.h"
#include "core/large_tile.h"
#include "runtime/graph_exec.h"
#include "runtime/thread_pool.h"
#include "tensor/prepack.h"

namespace litho::runtime {

struct EngineOptions {
  /// Parallelism degree; <= 0 means ThreadPool::default_num_threads()
  /// (DOINN_NUM_THREADS env var, else hardware concurrency).
  int num_threads = 0;
  /// Inference storage precision (tensor/prepack.h). kFp32 keeps the engine
  /// bitwise identical to the per-call-packing path; kInt8 packs every conv
  /// int8, trading accuracy for speed with its own determinism guarantee.
  /// No other option changes which convs run int8.
  litho::Precision precision = litho::Precision::kFp32;
  /// Compile forwards into the static graph executor (per-shape capture,
  /// arena-planned buffers, fused GEMM epilogues); every plan is validated
  /// bitwise against the op walk once — tile and GP plans at build, the
  /// large-tile LP+IR plan on its first replay — and the engine falls back
  /// to the op walk per shape if validation fails. false = always op-walk.
  bool use_graph_executor = true;
  /// Benchmark per-shape kernel knobs (GEMM column-block width, packed-B
  /// feed) when building tile and GP plans (the large LP+IR plan is built
  /// on a request and never tuned); knobs are bitwise-neutral, so this
  /// trades load time for steady-state speed only and never changes an
  /// output bit.
  bool autotune = true;
};

/// Thread-safe, inference-only front end over a Doinn model. The model is
/// switched to eval mode at construction and never trained through the
/// engine, so concurrent predictions share it without locks.
class InferenceEngine {
 public:
  /// Loads a checkpoint written by core::save_doinn / `doinn_cli train`.
  explicit InferenceEngine(const std::string& checkpoint_path,
                           EngineOptions opts = {});

  /// Fresh (untrained) model — used by tests and benchmarks where weight
  /// values don't matter, only the compute.
  InferenceEngine(core::DoinnConfig cfg, uint32_t seed,
                  EngineOptions opts = {});

  /// Replica constructor: an engine over a model another engine already
  /// owns. @p model must be in eval mode with every conv prepacked at
  /// opts.precision (the primary's constructor does both); this constructor
  /// never touches the model, so every replica reads the same immutable
  /// weight tensors and PackedWeight panels — the primary's bits at ~1x
  /// weight memory for N replicas.
  /// Each replica still owns its thread pool, plan cache, and arenas;
  /// concurrent predictions across replicas are safe because the shared
  /// state is read-only after construction (runtime::EnginePool drives one
  /// dispatcher thread per replica on top of this).
  InferenceEngine(std::shared_ptr<core::Doinn> model, EngineOptions opts = {});

  /// The model this engine runs, shareable with replica engines.
  const std::shared_ptr<core::Doinn>& shared_model() const { return model_; }

  /// Configuration embedded in the loaded checkpoint (tile size, modes,
  /// channel widths); requests are routed on config().tile.
  const core::DoinnConfig& config() const { return model_->config(); }
  /// The engine-owned pool every prediction's parallel kernels run on.
  ThreadPool& pool() { return *pool_; }
  /// The inference storage precision this engine was built with.
  litho::Precision precision() const { return opts_.precision; }

  /// Binarized contours for training-tile-sized masks (each [tile, tile]).
  /// The masks are stacked into one [N,1,H,W] batch and pushed through a
  /// single no-grad forward pass, so the batched conv / FFT kernels
  /// parallelize across samples. Per-sample results are bitwise identical
  /// to core::predict_contour.
  std::vector<Tensor> predict_batch(const std::vector<Tensor>& masks);

  /// Binarized contour for a mask larger than the training tile: the
  /// half-overlap clip GP passes of the Section 3.2 scheme fan out across
  /// the pool, then the stitched LP + IR pass runs on the full tile.
  /// Bitwise identical to the serial LargeTilePredictor::predict for any
  /// thread count. With the executor on, the LP + IR pass of the latest
  /// large shape of at most 1024 x 1024 px is compiled: the first request
  /// of a shape is the capture, the second replays and checks the replay
  /// against the op walk, later ones only replay. Larger masks run the op
  /// walk.
  Tensor predict_large(const Tensor& mask);

  /// Dispatches on mask size: plain batched path for masks up to the
  /// training tile, large-tile scheme above it.
  Tensor predict(const Tensor& mask);

  /// Plans built so far: one per distinct forward kind x input shape, plus
  /// one per large-tile LP+IR capture (a replaced large plan stays counted).
  int64_t plan_count() const;
  /// Shapes where executor validation failed and the op walk serves instead.
  int64_t plan_fallbacks() const;

 private:
  // One compiled plan per (forward kind, input shape). exec == nullptr means
  // the shape runs the op walk (executor disabled, or validation failed).
  struct Plan {
    std::unique_ptr<GraphExecutor> exec;
  };
  enum PlanKind : int { kForwardPlan = 0, kGpPlan = 1 };
  using PlanKey = std::tuple<int, int64_t, int64_t, int64_t>;

  // The compiled LP+IR pass of the latest large (h, w).
  struct LargePlan {
    int64_t h = 0, w = 0;
    std::unique_ptr<GraphExecutor> exec;
    bool validated = false;
  };
  // Larger masks keep the op walk: a large plan's arena stays resident
  // until another shape replaces it, about 96 B/px for DoinnConfig::small()
  // (96 MB at this cap).
  static constexpr int64_t kMaxLargePlanPixels = int64_t{1024} * 1024;

  Plan& plan_for(PlanKind kind, int64_t n, int64_t h, int64_t w);
  // Stitched LP + IR pass over @p x ([1,1,H,W]) and its stitched GP
  // features @p gp: capture, first-replay validation or replay of the large
  // slot, else the op walk (executor off, mask over kMaxLargePlanPixels, or
  // a shape whose plan failed).
  Tensor large_lp_ir(const Tensor& gp, const Tensor& x);
  void count_fallback();  // caller holds plan_mutex_
  void set_arena_gauge();  // caller holds plan_mutex_

  std::shared_ptr<core::Doinn> model_;
  std::unique_ptr<core::LargeTilePredictor> large_;
  std::unique_ptr<ThreadPool> pool_;
  EngineOptions opts_;
  // Guards the plan tables and counters below, held across plan builds and
  // the whole large LP + IR pass: an engine has one calling thread, and its
  // clip workers only look up the GP plan built before the fan-out.
  mutable std::mutex plan_mutex_;
  std::map<PlanKey, std::unique_ptr<Plan>> plans_;
  std::unique_ptr<LargePlan> large_plan_;
  std::set<std::pair<int64_t, int64_t>> large_failed_;  // never recompiled
  int64_t large_captures_ = 0;
  int64_t arena_bytes_total_ = 0;  // tile and GP plans
  int64_t plan_fallbacks_ = 0;
};

}  // namespace litho::runtime
