// Inference engine: loads a DOINN checkpoint
// once, owns the thread pool, and serves batched and large-tile predictions
// on the no-grad fast path. This is the long-lived object behind
// apps/doinn_serve.cpp and the serve-throughput benchmark.
#pragma once

#include <map>
#include <memory>
#include <mutex>
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
  /// bitwise identical to the per-call-packing path; kInt8 trades
  /// accuracy for speed with its own determinism guarantee. With autotune
  /// on, a kInt8 engine times fp32 vs int8 per conv GEMM shape and packs
  /// the shapes where quantization doesn't pay in fp32; with autotune off
  /// every conv is packed int8.
  litho::Precision precision = litho::Precision::kFp32;
  /// Compile forwards into the static graph executor (per-shape capture,
  /// arena-planned buffers, fused GEMM epilogues); every plan is validated
  /// bitwise against the op walk once at build and the engine falls back to
  /// the op walk per shape if validation fails. false = always op-walk.
  bool use_graph_executor = true;
  /// Benchmark per-shape kernel knobs (GEMM column-block width, packed-B
  /// feed) when building plans; knobs are bitwise-neutral, so this trades
  /// load time for steady-state speed only.
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
  /// owns. @p model must be in eval mode with weights prepacked at
  /// opts.precision (the primary replica's checkpoint constructor does
  /// both, including the int8 per-shape repack); this constructor never
  /// touches the model, so every replica reads the same immutable weight
  /// tensors and PackedWeight panels — N replicas cost ~1x weight memory.
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
  litho::Precision precision() const { return precision_; }

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
  /// thread count.
  Tensor predict_large(const Tensor& mask);

  /// Dispatches on mask size: plain batched path for masks up to the
  /// training tile, large-tile scheme above it.
  Tensor predict(const Tensor& mask);

  /// Plans built so far (one per distinct forward kind x input shape).
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

  void init_graph_executor(bool owns_model_prepack);
  Plan& plan_for(PlanKind kind, int64_t n, int64_t h, int64_t w);

  std::shared_ptr<core::Doinn> model_;
  std::unique_ptr<core::LargeTilePredictor> large_;
  std::unique_ptr<ThreadPool> pool_;
  litho::Precision precision_ = litho::Precision::kFp32;
  EngineOptions opts_;
  mutable std::mutex plan_mutex_;
  std::map<PlanKey, std::unique_ptr<Plan>> plans_;
  int64_t arena_bytes_total_ = 0;
  int64_t plan_fallbacks_ = 0;
};

}  // namespace litho::runtime
