#include "runtime/engine.h"

#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "autograd/grad_mode.h"
#include "runtime/alloc_hooks.h"
#include "runtime/metrics_registry.h"
#include "runtime/trace.h"

namespace litho::runtime {

namespace {

std::unique_ptr<ThreadPool> make_pool(const EngineOptions& opts) {
  return std::make_unique<ThreadPool>(
      opts.num_threads > 0 ? opts.num_threads
                           : ThreadPool::default_num_threads());
}

Tensor binarize(Tensor t) {
  t.apply_([](float v) { return v >= 0.f ? 1.f : 0.f; });
  return t;
}

// Deterministic probe values for plan capture and validation: the same bits
// every build, so op-walk-vs-executor comparisons never depend on when a
// plan is built.
constexpr uint32_t kCaptureProbeSeed = 0x00d011a5u;
// Plans are validated on a different probe than they were captured on, so a
// graph that is right only on its capture input cannot pass.
constexpr uint32_t kValidateProbeSeed = 0x7e57da7au;

void fill_probe(Tensor& t, uint32_t seed) {
  uint32_t lcg = seed;
  for (int64_t i = 0; i < t.numel(); ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    t.data()[i] = static_cast<float>(lcg >> 8) / 16777216.f;  // [0, 1)
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// Copies @p inputs into a pooled context of @p exec, replays, and returns a
// copy of graph output 0 shaped like its slot.
Tensor replay(GraphExecutor& exec,
              std::initializer_list<const Tensor*> inputs) {
  std::unique_ptr<ExecContext> ctx = exec.acquire();
  int i = 0;
  for (const Tensor* t : inputs) {
    std::copy(t->data(), t->data() + t->numel(), ctx->input(i++));
  }
  exec.run(*ctx);
  Tensor out(exec.graph().slots[exec.graph().outputs[0]].shape);
  std::copy(ctx->output(0), ctx->output(0) + ctx->output_numel(0),
            out.data());
  exec.release(std::move(ctx));
  return out;
}

// Switches @p model to eval and packs every conv weight once into the GEMM
// panel layout at @p precision, so the serving hot path never rebuilds
// panels per call.
std::shared_ptr<core::Doinn> prepared(std::shared_ptr<core::Doinn> model,
                                      litho::Precision precision) {
  model->set_training(false);
  model->prepack_forward(precision);
  return model;
}

std::shared_ptr<core::Doinn> fresh_model(const core::DoinnConfig& cfg,
                                         uint32_t seed) {
  std::mt19937 rng(seed);
  return std::make_shared<core::Doinn>(cfg, rng);
}

}  // namespace

InferenceEngine::InferenceEngine(const std::string& checkpoint_path,
                                 EngineOptions opts)
    : InferenceEngine(prepared(core::load_doinn(checkpoint_path),
                               opts.precision),
                      opts) {}

InferenceEngine::InferenceEngine(core::DoinnConfig cfg, uint32_t seed,
                                 EngineOptions opts)
    : InferenceEngine(prepared(fresh_model(cfg, seed), opts.precision),
                      opts) {}

InferenceEngine::InferenceEngine(std::shared_ptr<core::Doinn> model,
                                 EngineOptions opts)
    : model_(std::move(model)),
      large_(std::make_unique<core::LargeTilePredictor>(*model_)),
      pool_(make_pool(opts)),
      opts_(opts) {
  // The model arrives prepared, by the constructors above or by the
  // primary replica whose model this is. Re-packing here would both waste
  // the load time and break the N-replicas-1x-weights contract, so only
  // per-engine state (pool, plan cache, arenas) is built.
  if (!opts_.use_graph_executor) return;
  const int64_t tile = config().tile;

  // The serving shape is known now; build its plan at load instead of on the
  // first request.
  plan_for(kForwardPlan, 1, tile, tile);

  // Route the large-tile clip fan-out through the per-shape plan cache: each
  // worker replays the compiled GP plan for its clips instead of re-walking
  // the op graph clip by clip. The clip buffer is reused by the caller, so
  // the replay copies it into the context's arena up front.
  large_->set_gp_clip_fn([this](const Tensor& clip) -> Tensor {
    Plan& p = plan_for(kGpPlan, 1, config().tile, config().tile);
    if (p.exec == nullptr) {
      return model_->gp_features(ag::Variable(clip.clone(), false)).value();
    }
    return replay(*p.exec, {&clip});
  });
}

InferenceEngine::Plan& InferenceEngine::plan_for(PlanKind kind, int64_t n,
                                                 int64_t h, int64_t w) {
  const PlanKey key{kind, n, h, w};
  std::lock_guard<std::mutex> lock(plan_mutex_);
  auto it = plans_.find(key);
  if (it != plans_.end()) return *it->second;

  auto plan = std::make_unique<Plan>();
  if (opts_.use_graph_executor) {
    auto fwd = [this, kind](const ag::Variable& v) {
      return kind == kGpPlan ? model_->gp_features(v) : model_->forward(v);
    };
    Tensor probe({n, 1, h, w});
    fill_probe(probe, kCaptureProbeSeed);
    Tensor check({n, 1, h, w});
    fill_probe(check, kValidateProbeSeed);
    try {
      ScopedPool scope(pool_.get());
      std::shared_ptr<ag::CapturedGraph> graph = capture_graph(probe, fwd);
      // A frozen non-parameter constant is an uninstrumented op's output on
      // the probe: fall back without building.
      if (froze_only_parameters(*graph)) {
        ExecutorOptions eo;
        eo.autotune = opts_.autotune;
        auto exec = std::make_unique<GraphExecutor>(std::move(graph), eo);
        // Validate the plan bitwise against the op walk before trusting it.
        Tensor ref;
        {
          ag::NoGradGuard no_grad;
          ref = fwd(ag::Variable(check.clone(), false)).value();
        }
        if (bitwise_equal(replay(*exec, {&check}), ref)) {
          arena_bytes_total_ += exec->arena_bytes();
          plan->exec = std::move(exec);
          set_arena_gauge();
        }
      }
    } catch (const std::exception&) {
      plan->exec.reset();
    }
    if (plan->exec == nullptr) count_fallback();
  }
  return *plans_.emplace(key, std::move(plan)).first->second;
}

void InferenceEngine::count_fallback() {
  ++plan_fallbacks_;
  MetricsRegistry::global().counter("engine.plan_fallbacks").add(1);
}

void InferenceEngine::set_arena_gauge() {
  MetricsRegistry::global().gauge("engine.arena_bytes").set(
      arena_bytes_total_ +
      (large_plan_ != nullptr ? large_plan_->exec->arena_bytes() : 0));
}

int64_t InferenceEngine::plan_count() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return static_cast<int64_t>(plans_.size()) + large_captures_;
}

int64_t InferenceEngine::plan_fallbacks() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_fallbacks_;
}

std::vector<Tensor> InferenceEngine::predict_batch(
    const std::vector<Tensor>& masks) {
  if (masks.empty()) return {};
  const int64_t h = masks.front().size(0), w = masks.front().size(1);
  const int64_t n = static_cast<int64_t>(masks.size());
  DOINN_TRACE_SCOPE("engine.predict_batch", "engine", "batch_size", n, "h", h,
                    "w", w);
  for (const Tensor& m : masks) {
    if (m.dim() != 2 || m.size(0) != h || m.size(1) != w) {
      throw std::invalid_argument(
          "predict_batch requires equally-shaped 2-D masks");
    }
  }

  if (opts_.use_graph_executor) {
    Plan& p = plan_for(kForwardPlan, n, h, w);
    if (p.exec != nullptr) {
      std::unique_ptr<ExecContext> ctx = p.exec->acquire();
      for (int64_t i = 0; i < n; ++i) {
        const Tensor& m = masks[static_cast<size_t>(i)];
        std::copy(m.data(), m.data() + h * w, ctx->input(0) + i * h * w);
      }
      {
        DOINN_TRACE_SCOPE("engine.forward", "engine", "batch_size", n);
        ScopedPool scope(pool_.get());
        // Steady-state replays must not touch the heap; the gauge is the
        // observable for that contract (nonzero only in binaries that link
        // the counting operator new — bench_graph_exec, test_graph_exec).
        static Gauge& allocs_gauge =
            MetricsRegistry::global().gauge("engine.heap_allocs_per_batch");
        const int64_t allocs_before = heap_alloc_count();
        p.exec->run(*ctx);
        allocs_gauge.set(heap_alloc_count() - allocs_before);
      }
      std::vector<Tensor> contours;
      contours.reserve(masks.size());
      const float* out = ctx->output(0);
      for (int64_t i = 0; i < n; ++i) {
        Tensor c({h, w});
        std::copy(out + i * h * w, out + (i + 1) * h * w, c.data());
        contours.push_back(binarize(std::move(c)));
      }
      p.exec->release(std::move(ctx));
      return contours;
    }
  }

  Tensor x({n, 1, h, w});
  for (int64_t i = 0; i < n; ++i) {
    const Tensor& m = masks[static_cast<size_t>(i)];
    std::copy(m.data(), m.data() + h * w, x.data() + i * h * w);
  }

  ag::NoGradGuard no_grad;
  ScopedPool scope(pool_.get());
  ag::Variable out = [&] {
    DOINN_TRACE_SCOPE("engine.forward", "engine", "batch_size", n);
    return model_->forward(ag::Variable(std::move(x), false));
  }();
  std::vector<Tensor> contours;
  contours.reserve(masks.size());
  for (int64_t i = 0; i < n; ++i) {
    Tensor c({h, w});
    std::copy(out.value().data() + i * h * w,
              out.value().data() + (i + 1) * h * w, c.data());
    contours.push_back(binarize(std::move(c)));
  }
  return contours;
}

Tensor InferenceEngine::predict_large(const Tensor& mask) {
  DOINN_TRACE_SCOPE("engine.predict_large", "engine", "h", mask.size(0), "w",
                    mask.size(1));
  if (opts_.use_graph_executor) {
    // Build (and validate) the GP clip plan on this thread before the clip
    // fan-out so workers replay a ready plan instead of racing to build it.
    plan_for(kGpPlan, 1, config().tile, config().tile);
  }
  ag::NoGradGuard no_grad;
  ScopedPool scope(pool_.get());
  const int64_t h = mask.size(0), w = mask.size(1);
  const Tensor gp = large_->stitched_gp(mask, pool_.get()).value();
  Tensor out = large_lp_ir(gp, mask.clone().reshape({1, 1, h, w}));
  return binarize(out.reshape({h, w}));
}

Tensor InferenceEngine::large_lp_ir(const Tensor& gp, const Tensor& x) {
  const int64_t h = x.size(2), w = x.size(3);
  DOINN_TRACE_SCOPE("large_tile.lp_ir", "large_tile", "h", h, "w", w);
  auto op_walk = [&] {
    return model_
        ->forward_from_gp(ag::Variable(gp, false), ag::Variable(x, false))
        .value();
  };
  if (!opts_.use_graph_executor || h * w > kMaxLargePlanPixels) {
    return op_walk();
  }

  std::lock_guard<std::mutex> lock(plan_mutex_);
  if (large_failed_.count({h, w}) != 0) return op_walk();
  if (large_plan_ == nullptr || large_plan_->h != h || large_plan_->w != w) {
    // First request of this shape: the capture is its op walk, so its
    // output is the reply. The old shape's plan (and arena) goes first.
    // Inputs are (mask, gp) so the exec.capture span carries the mask's
    // extent. No autotune: the knobs are bitwise-neutral and their budget
    // would land on this request.
    large_plan_.reset();
    Tensor out;
    std::shared_ptr<ag::CapturedGraph> graph = capture_graph(
        {x, gp},
        [this](const std::vector<ag::Variable>& in) {
          return model_->forward_from_gp(in[1], in[0]);
        },
        &out);
    ++large_captures_;
    std::unique_ptr<GraphExecutor> exec;
    if (froze_only_parameters(*graph)) {
      try {
        ExecutorOptions eo;
        eo.autotune = false;
        exec = std::make_unique<GraphExecutor>(std::move(graph), eo);
      } catch (const std::exception&) {
        // exec stays null: counted as a fallback below.
      }
    }
    if (exec != nullptr) {
      large_plan_ = std::make_unique<LargePlan>();
      large_plan_->h = h;
      large_plan_->w = w;
      large_plan_->exec = std::move(exec);
    } else {
      large_failed_.emplace(h, w);
      count_fallback();
    }
    set_arena_gauge();
    return out;
  }

  Tensor got = replay(*large_plan_->exec, {&x, &gp});
  if (large_plan_->validated) return got;
  // First replay of this plan: trust it only once it matches the op walk
  // bit for bit.
  Tensor ref = op_walk();
  if (bitwise_equal(got, ref)) {
    large_plan_->validated = true;
  } else {
    large_plan_.reset();
    large_failed_.emplace(h, w);
    count_fallback();
    set_arena_gauge();
  }
  return ref;
}

Tensor InferenceEngine::predict(const Tensor& mask) {
  if (mask.dim() != 2) {
    throw std::invalid_argument("predict expects a 2-D mask");
  }
  if (mask.size(0) > config().tile || mask.size(1) > config().tile) {
    return predict_large(mask);
  }
  return predict_batch({mask}).front();
}

}  // namespace litho::runtime
