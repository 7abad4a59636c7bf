#include "runtime/engine.h"

#include <algorithm>
#include <atomic>
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

void binarize(Tensor& t) {
  t.apply_([](float v) { return v >= 0.f ? 1.f : 0.f; });
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

// Copies @p inputs into @p ctx, replays, and copies graph output 0 to @p out.
void replay(GraphExecutor& exec, ExecContext& ctx,
            std::initializer_list<const Tensor*> inputs, float* out) {
  int i = 0;
  for (const Tensor* t : inputs) {
    std::copy(t->data(), t->data() + t->numel(), ctx.input(i++));
  }
  exec.run(ctx);
  std::copy(ctx.output(0), ctx.output(0) + ctx.output_numel(0), out);
}

// As above through a pooled context, into a new tensor shaped like graph
// output 0's slot.
Tensor replay(GraphExecutor& exec,
              std::initializer_list<const Tensor*> inputs) {
  Tensor out(exec.graph().slots[exec.graph().outputs[0]].shape);
  std::unique_ptr<ExecContext> ctx = exec.acquire();
  replay(exec, *ctx, inputs, out.data());
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
  // per-engine state (pool, plans, arenas) is built.
  if (!opts_.use_graph_executor) return;

  // Both serving plans are known now, so they are built at load and no
  // request ever pays for a capture: predict_batch replays the tile
  // plan once per sample, and predict_large's clip fan-out replays the GP
  // plan once per clip (the clip buffer is reused by the caller, so the
  // replay copies it into the context's arena up front).
  tile_plan_ = build_tile_plan(
      [this](const ag::Variable& v) { return model_->forward(v); });
  gp_plan_ = build_tile_plan(
      [this](const ag::Variable& v) { return model_->gp_features(v); });
  if (gp_plan_ != nullptr) {
    large_->set_gp_clip_fn(
        [this](const Tensor& clip) { return replay(*gp_plan_, {&clip}); });
  }
  set_arena_gauge();
}

std::unique_ptr<GraphExecutor> InferenceEngine::build_tile_plan(
    const std::function<ag::Variable(const ag::Variable&)>& fwd) {
  const int64_t tile = config().tile;
  Tensor probe({1, 1, tile, tile});
  fill_probe(probe, kCaptureProbeSeed);
  Tensor check({1, 1, tile, tile});
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
      if (bitwise_equal(replay(*exec, {&check}), ref)) return exec;
    }
  } catch (const std::exception&) {
    // Counted as a fallback below.
  }
  count_fallback();
  return nullptr;
}

void InferenceEngine::count_fallback() {
  ++plan_fallbacks_;
  MetricsRegistry::global().counter("engine.plan_fallbacks").add(1);
}

void InferenceEngine::set_arena_gauge() {
  int64_t bytes = 0;
  for (const GraphExecutor* exec :
       {tile_plan_.get(), gp_plan_.get(),
        large_plan_ != nullptr ? large_plan_->exec.get() : nullptr}) {
    if (exec != nullptr) bytes += exec->arena_bytes();
  }
  MetricsRegistry::global().gauge("engine.arena_bytes").set(bytes);
}

int64_t InferenceEngine::plan_count() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return (opts_.use_graph_executor ? 2 : 0) + large_captures_;
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

  std::vector<Tensor> contours;
  contours.reserve(masks.size());
  for (int64_t i = 0; i < n; ++i) contours.emplace_back(Shape{h, w});
  GraphExecutor* plan =
      h == config().tile && w == config().tile ? tile_plan_.get() : nullptr;
  // One context per lane (parallel_for runs at most pool-size chunks),
  // taken before the fan-out: batches of a size replay on the same warm
  // contexts whichever thread claims which lane, so their steady state
  // allocates nothing.
  std::vector<std::unique_ptr<ExecContext>> lanes(
      plan != nullptr ? static_cast<size_t>(std::min<int64_t>(n, pool_->size()))
                      : 0);
  for (std::unique_ptr<ExecContext>& ctx : lanes) ctx = plan->acquire();
  std::atomic<size_t> next_lane{0};
  // One lane's samples, each replayed (or walked) as a batch of one straight
  // into its preallocated contour.
  auto forward = [&](int64_t begin, int64_t end) {
    ExecContext* ctx = plan != nullptr ? lanes[next_lane++].get() : nullptr;
    for (int64_t i = begin; i < end; ++i) {
      const Tensor& m = masks[static_cast<size_t>(i)];
      Tensor& c = contours[static_cast<size_t>(i)];
      if (ctx != nullptr) {
        replay(*plan, *ctx, {&m}, c.data());
      } else {
        const ag::Variable x(m.clone().reshape({1, 1, h, w}), false);
        const Tensor y = model_->forward(x).value();
        std::copy(y.data(), y.data() + h * w, c.data());
      }
      binarize(c);
    }
  };

  ag::NoGradGuard no_grad;
  ScopedPool scope(pool_.get());
  DOINN_TRACE_SCOPE("engine.forward", "engine", "batch_size", n);
  const int64_t allocs_before = heap_alloc_count();
  pool_->parallel_for(n, forward);
  // Steady-state replays must not touch the heap; the gauge is the
  // observable for that contract (nonzero only in binaries that link the
  // counting operator new — bench_graph_exec, test_graph_exec).
  if (plan != nullptr) {
    static Gauge& allocs_gauge =
        MetricsRegistry::global().gauge("engine.heap_allocs_per_batch");
    allocs_gauge.set(heap_alloc_count() - allocs_before);
  }
  for (std::unique_ptr<ExecContext>& ctx : lanes) plan->release(std::move(ctx));
  return contours;
}

Tensor InferenceEngine::predict_large(const Tensor& mask) {
  DOINN_TRACE_SCOPE("engine.predict_large", "engine", "h", mask.size(0), "w",
                    mask.size(1));
  ag::NoGradGuard no_grad;
  ScopedPool scope(pool_.get());
  const int64_t h = mask.size(0), w = mask.size(1);
  const Tensor gp = large_->stitched_gp(mask, pool_.get()).value();
  Tensor out = large_lp_ir(gp, mask.clone().reshape({1, 1, h, w}));
  binarize(out);
  return out.reshape({h, w});
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
