// Inference engine: loads a DOINN checkpoint
// once, owns the thread pool, and serves batched and large-tile predictions
// on the no-grad fast path. This is the long-lived object behind
// apps/doinn_serve.cpp and the serve-throughput benchmark.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
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
  /// Compile forwards into the static graph executor (capture,
  /// arena-planned buffers, fused GEMM epilogues): the batch-1 tile forward
  /// and GP path at load, the large-tile LP+IR pass on request. Every plan
  /// is validated bitwise against the op walk once — tile and GP plans at
  /// load, the large plan on its first replay — and a plan that fails is
  /// replaced by the op walk. false = always op-walk.
  bool use_graph_executor = true;
  /// Time each conv's GEMM column-block width (128 and 512 against the
  /// default) when building tile and GP plans (the large LP+IR plan is
  /// built on a request and never tuned); the width is bitwise-neutral, so
  /// this trades load time for steady-state speed only and never changes
  /// an output bit.
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
  /// Each replica still owns its thread pool, plans, and arenas;
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

  /// Binarized contours for equally shaped 2-D masks, normally [tile, tile]
  /// (predict routes larger ones to predict_large). Each sample is its own
  /// batch-1 forward: the samples split into one contiguous chunk per pool
  /// lane (a single sample runs inline with the kernels parallel inside
  /// it), and a chunk runs its samples one after another. A [tile, tile]
  /// mask replays the tile plan on its lane's context, taken before the
  /// fan-out; any other shape takes the op walk. Per-sample results are
  /// bitwise identical to core::predict_contour.
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

  /// Plans built so far: the tile and GP plans built at load (2 with the
  /// executor on, a fallback still counts), plus one per large-tile LP+IR
  /// capture (a replaced large plan stays counted).
  int64_t plan_count() const;
  /// Plans whose executor validation failed, so the op walk serves instead.
  int64_t plan_fallbacks() const;

 private:
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

  // Captures @p fwd on a [1, 1, tile, tile] probe and validates the plan
  // bitwise against the op walk on a second probe; nullptr, counted as a
  // fallback, if either fails. Constructor only.
  std::unique_ptr<GraphExecutor> build_tile_plan(
      const std::function<ag::Variable(const ag::Variable&)>& fwd);
  // Stitched LP + IR pass over @p x ([1,1,H,W]) and its stitched GP
  // features @p gp: capture, first-replay validation or replay of the large
  // slot, else the op walk (executor off, mask over kMaxLargePlanPixels, or
  // a shape whose plan failed).
  Tensor large_lp_ir(const Tensor& gp, const Tensor& x);
  // Caller holds plan_mutex_ or is the constructor.
  void count_fallback();
  void set_arena_gauge();

  std::shared_ptr<core::Doinn> model_;
  std::unique_ptr<core::LargeTilePredictor> large_;
  std::unique_ptr<ThreadPool> pool_;
  EngineOptions opts_;
  // The batch-1 whole forward and GP path at (tile, tile), built in the
  // constructor and immutable after it, so replays need no lock. nullptr
  // means that path runs the op walk (executor off, or validation failed).
  std::unique_ptr<GraphExecutor> tile_plan_;
  std::unique_ptr<GraphExecutor> gp_plan_;
  // Guards the large slot and the counters below, held across the whole
  // large LP + IR pass.
  mutable std::mutex plan_mutex_;
  std::unique_ptr<LargePlan> large_plan_;
  std::set<std::pair<int64_t, int64_t>> large_failed_;  // never recompiled
  int64_t large_captures_ = 0;
  int64_t plan_fallbacks_ = 0;
};

}  // namespace litho::runtime
