#include "runtime/graph_exec.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "autograd/grad_mode.h"
#include "runtime/trace.h"
#include "tensor/gemm.h"

namespace litho::runtime {

namespace {

// Arena offsets are 64-byte aligned (16 floats) so replayed kernels see the
// same alignment class as freshly allocated tensors.
constexpr int64_t kAlignFloats = 16;

int64_t align_floats(int64_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

double best_of(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

std::shared_ptr<ag::CapturedGraph> capture_graph(
    const std::vector<Tensor>& example_inputs,
    const std::function<ag::Variable(const std::vector<ag::Variable>&)>&
        forward,
    Tensor* result) {
  const Tensor& first = example_inputs.at(0);
  const int64_t rank = first.dim();
  DOINN_TRACE_SCOPE("exec.capture", "exec", "inputs",
                    static_cast<int64_t>(example_inputs.size()), "h",
                    rank >= 2 ? first.size(rank - 2) : int64_t{1}, "w",
                    rank >= 1 ? first.size(rank - 1) : int64_t{1});
  ag::NoGradGuard no_grad;
  ag::GraphRecorder rec;
  std::vector<ag::Variable> ins;
  ins.reserve(example_inputs.size());
  for (const Tensor& t : example_inputs) {
    ins.emplace_back(t.clone(), false);
    rec.add_input(ins.back());
  }
  ag::Variable out = forward(ins);
  rec.mark_output(out);
  if (result != nullptr) *result = out.value();
  return rec.finish();
}

std::shared_ptr<ag::CapturedGraph> capture_graph(
    const Tensor& example_input,
    const std::function<ag::Variable(const ag::Variable&)>& forward) {
  return capture_graph(
      std::vector<Tensor>{example_input},
      [&forward](const std::vector<ag::Variable>& in) {
        return forward(in[0]);
      });
}

bool froze_only_parameters(const ag::CapturedGraph& graph) {
  return std::all_of(graph.slots.begin(), graph.slots.end(),
                     [](const ag::CaptureSlot& s) {
                       return s.producer >= 0 || s.is_input || s.parameter;
                     });
}

// -- ExecContext --------------------------------------------------------------

ExecContext::ExecContext(const GraphExecutor& exec) : exec_(&exec) {
  const ag::CapturedGraph& g = *exec.graph_;
  arena_.resize(static_cast<size_t>(exec.arena_floats_));
  float* arena = arena_.data();

  auto read_ptr = [&](int slot) -> const float* {
    const ag::CaptureSlot& s = g.slots[slot];
    if (s.constant.numel() > 0) return exec.graph_->slots[slot].constant.data();
    return arena + exec.slot_offset_[slot];
  };

  ins_.reserve(static_cast<size_t>(exec.ins_total_));
  outs_.reserve(static_cast<size_t>(exec.outs_total_));
  scratch_.reserve(exec.schedule_.size());
  for (size_t si = 0; si < exec.schedule_.size(); ++si) {
    const ag::CaptureNode& node = g.nodes[exec.schedule_[si]];
    for (int s : node.ins) ins_.push_back(read_ptr(s));
    for (int s : node.outs) outs_.push_back(arena + exec.slot_offset_[s]);
    const int64_t off = exec.scratch_offset_[si];
    scratch_.push_back(off >= 0 ? arena + off : nullptr);
  }
  inputs_.reserve(g.inputs.size());
  for (int s : g.inputs) inputs_.push_back(arena + exec.slot_offset_[s]);
  outputs_.reserve(g.outputs.size());
  for (int s : g.outputs) outputs_.push_back(read_ptr(s));
}

float* ExecContext::input(int i) { return inputs_[static_cast<size_t>(i)]; }

const float* ExecContext::output(int i) const {
  return outputs_[static_cast<size_t>(i)];
}

int64_t ExecContext::output_numel(int i) const {
  const ag::CapturedGraph& g = *exec_->graph_;
  return g.slots[g.outputs[static_cast<size_t>(i)]].numel;
}

// -- GraphExecutor ------------------------------------------------------------

GraphExecutor::GraphExecutor(std::shared_ptr<ag::CapturedGraph> graph,
                             ExecutorOptions opts)
    : graph_(std::move(graph)) {
  if (graph_ == nullptr || graph_->nodes.empty()) {
    throw std::invalid_argument("GraphExecutor: empty capture");
  }
  {
    DOINN_TRACE_SCOPE("exec.plan", "exec", "nodes",
                      static_cast<int64_t>(graph_->nodes.size()));
    fuse_epilogues();

    schedule_.clear();
    in_off_.clear();
    out_off_.clear();
    ins_total_ = outs_total_ = 0;
    for (int i = 0; i < static_cast<int>(graph_->nodes.size()); ++i) {
      const ag::CaptureNode& node = graph_->nodes[static_cast<size_t>(i)];
      if (node.dead) continue;
      schedule_.push_back(i);
      in_off_.push_back(static_cast<int>(ins_total_));
      out_off_.push_back(static_cast<int>(outs_total_));
      ins_total_ += static_cast<int64_t>(node.ins.size());
      outs_total_ += static_cast<int64_t>(node.outs.size());
    }
    live_nodes_ = static_cast<int64_t>(schedule_.size());

    plan_arena(opts.arena_seed);
  }
  if (opts.autotune) autotune();
}

GraphExecutor::~GraphExecutor() = default;

std::unique_ptr<ExecContext> GraphExecutor::acquire() {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      std::unique_ptr<ExecContext> ctx = std::move(pool_.back());
      pool_.pop_back();
      return ctx;
    }
  }
  return std::unique_ptr<ExecContext>(new ExecContext(*this));
}

void GraphExecutor::release(std::unique_ptr<ExecContext> ctx) {
  if (ctx == nullptr) return;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(ctx));
}

void GraphExecutor::run(ExecContext& ctx) const {
  DOINN_TRACE_SCOPE("exec.replay", "exec", "nodes", live_nodes_);
  ScopedLeaseCache leases(&ctx.leases_);
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const ag::CaptureNode& node =
        graph_->nodes[static_cast<size_t>(schedule_[i])];
    ag::ReplayIO io;
    io.ins = ctx.ins_.data() + in_off_[i];
    io.outs = ctx.outs_.data() + out_off_[i];
    io.scratch = ctx.scratch_[i];
    node.run(io);
  }
}

// Folds single-consumer elementwise chains behind a non-transposed conv into
// the conv's GEMM epilogue by copying each stage node's EpiloguePostStage
// (and its shared handles on the buffers the stage points into) onto the
// conv. The op, its unfused
// replay and the epilogue all run that stage through apply_gemm_post, so
// the fold changes which loop walks the output but not a single bit of it.
void GraphExecutor::fuse_epilogues() {
  ag::CapturedGraph& g = *graph_;
  auto is_graph_output = [&](int slot) {
    return std::find(g.outputs.begin(), g.outputs.end(), slot) !=
           g.outputs.end();
  };

  for (int ci = 0; ci < static_cast<int>(g.nodes.size()); ++ci) {
    ag::CaptureNode& conv = g.nodes[static_cast<size_t>(ci)];
    if (conv.dead || !conv.conv.valid || conv.conv.transposed ||
        conv.tuning == nullptr || conv.outs.size() != 1) {
      continue;
    }
    for (;;) {
      const int slot = conv.outs[0];
      // The chain value must die into exactly one elementwise consumer; a
      // second reader (or the graph output) still needs the pre-activation
      // value, which no longer exists once the stage folds into the GEMM.
      if (is_graph_output(slot)) break;
      int consumer = -1;
      bool multi = false;
      for (int ni = 0; ni < static_cast<int>(g.nodes.size()); ++ni) {
        const ag::CaptureNode& n = g.nodes[static_cast<size_t>(ni)];
        if (n.dead) continue;
        for (int s : n.ins) {
          if (s != slot) continue;
          if (consumer != -1 && consumer != ni) multi = true;
          consumer = ni;
        }
      }
      if (consumer < 0 || multi) break;
      // An elementwise-stage node carries its one stage in its tuning. A
      // kBnAffine stage indexes its arrays by channel, and the consumer
      // reads this conv's [n, m, oh, ow] output, so its channels are the
      // conv's GEMM rows.
      ag::CaptureNode& next = g.nodes[static_cast<size_t>(consumer)];
      if (next.conv.valid || next.tuning == nullptr ||
          next.tuning->post.size() != 1 || next.ins.size() != 1 ||
          next.outs.size() != 1 ||
          g.slots[static_cast<size_t>(next.outs[0])].numel !=
              g.slots[static_cast<size_t>(slot)].numel) {
        break;
      }

      ag::NodeTuning& from = *next.tuning;
      ag::NodeTuning& to = *conv.tuning;
      to.post.push_back(from.post.front());
      to.keepalive.insert(to.keepalive.end(), from.keepalive.begin(),
                          from.keepalive.end());
      next.dead = true;
      ++fused_nodes_;
      // The conv now writes the chain's output slot directly; its original
      // output slot is orphaned and the planner will skip it.
      conv.outs[0] = next.outs[0];
      g.slots[static_cast<size_t>(next.outs[0])].producer = ci;
    }
  }
}

// Liveness analysis + greedy best-fit offset assignment. A slot is live from
// the node that writes it (inputs: before node 0) through its last reader
// (graph outputs: past the end); two slots may share arena bytes iff their
// intervals are disjoint. Allocation order is by size descending — or
// seed-shuffled, since correctness must not depend on the order.
void GraphExecutor::plan_arena(uint64_t seed) {
  const ag::CapturedGraph& g = *graph_;
  const int nslots = static_cast<int>(g.slots.size());
  const int kEnd = static_cast<int>(g.nodes.size()) + 1;
  // Items 0..nslots-1 are slots; item nslots + si is the scratch of the
  // node scheduled at si (NodeTuning::scratch_floats), live only while
  // that node runs.
  const int nitems = nslots + static_cast<int>(schedule_.size());
  std::vector<int64_t> numel(static_cast<size_t>(nitems), 0);
  for (int s = 0; s < nslots; ++s) {
    numel[static_cast<size_t>(s)] = g.slots[static_cast<size_t>(s)].numel;
  }

  std::vector<int> start(static_cast<size_t>(nitems), -2);  // -2 = unused
  std::vector<int> last(static_cast<size_t>(nitems), -2);
  for (size_t si = 0; si < schedule_.size(); ++si) {
    const int ni = schedule_[si];
    const ag::CaptureNode& node = g.nodes[static_cast<size_t>(ni)];
    if (node.tuning != nullptr && node.tuning->scratch_floats > 0) {
      const size_t item = static_cast<size_t>(nslots) + si;
      numel[item] = node.tuning->scratch_floats;
      start[item] = last[item] = ni;
    }
    for (int s : node.outs) {
      start[static_cast<size_t>(s)] = ni;
      last[static_cast<size_t>(s)] = std::max(last[static_cast<size_t>(s)], ni);
    }
    for (int s : node.ins) {
      if (g.slots[static_cast<size_t>(s)].constant.numel() > 0) continue;
      last[static_cast<size_t>(s)] = std::max(last[static_cast<size_t>(s)], ni);
    }
  }
  for (int s : g.inputs) {
    start[static_cast<size_t>(s)] = -1;
    last[static_cast<size_t>(s)] =
        std::max(last[static_cast<size_t>(s)], -1);
  }
  for (int s : g.outputs) {
    if (g.slots[static_cast<size_t>(s)].constant.numel() > 0) continue;
    last[static_cast<size_t>(s)] = kEnd;
  }

  std::vector<int> order;
  for (int s = 0; s < nitems; ++s) {
    if (s < nslots && g.slots[static_cast<size_t>(s)].constant.numel() > 0) {
      continue;
    }
    // Orphaned by fusion, or a node without scratch.
    if (start[static_cast<size_t>(s)] == -2) continue;
    order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int64_t na = numel[static_cast<size_t>(a)];
    const int64_t nb = numel[static_cast<size_t>(b)];
    return na != nb ? na > nb : a < b;
  });
  if (seed != 0) {
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
  }

  struct Placed {
    int64_t off, size;
    int start, last;
  };
  std::vector<Placed> placed;
  slot_offset_.assign(static_cast<size_t>(nslots), -1);
  scratch_offset_.assign(schedule_.size(), -1);
  arena_floats_ = 0;

  for (int s : order) {
    const int64_t size =
        align_floats(std::max<int64_t>(numel[static_cast<size_t>(s)], 1));
    const int s0 = start[static_cast<size_t>(s)];
    const int s1 = std::max(last[static_cast<size_t>(s)], s0);

    std::vector<std::pair<int64_t, int64_t>> busy;  // (off, size)
    for (const Placed& p : placed) {
      if (p.last < s0 || s1 < p.start) continue;  // disjoint lifetimes
      busy.emplace_back(p.off, p.size);
    }
    std::sort(busy.begin(), busy.end());

    // Best fit: smallest gap between obstacles that holds the slot; the
    // open-ended tail is the fallback.
    int64_t cursor = 0;
    int64_t best_off = -1, best_gap = std::numeric_limits<int64_t>::max();
    for (const auto& [off, bsize] : busy) {
      if (off > cursor) {
        const int64_t gap = off - cursor;
        if (gap >= size && gap < best_gap) {
          best_gap = gap;
          best_off = cursor;
        }
      }
      cursor = std::max(cursor, off + bsize);
    }
    if (best_off < 0) best_off = cursor;

    (s < nslots ? slot_offset_[static_cast<size_t>(s)]
                : scratch_offset_[static_cast<size_t>(s - nslots)]) = best_off;
    placed.push_back(Placed{best_off, size, s0, s1});
    arena_floats_ = std::max(arena_floats_, best_off + size);
  }
}

// -- Autotuning ---------------------------------------------------------------

namespace {

// Process-wide per-shape column-block widths, keyed WITHOUT the thread
// count: the width is bitwise-neutral, so sharing one decision across
// engines with different pool widths costs nothing and keeps every engine
// in a process on the identical plan.
using TuneKey = std::tuple<int, int64_t, int64_t, int64_t, int64_t>;

// Wall-clock budget for the autotune pass, per executor build.
constexpr int64_t kAutotuneBudgetMs = 250;

std::mutex tune_mutex;
std::map<TuneKey, int64_t>& tune_cache() {
  static std::map<TuneKey, int64_t> cache;
  return cache;
}

}  // namespace

void GraphExecutor::autotune() {
  DOINN_TRACE_SCOPE("exec.autotune", "exec");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kAutotuneBudgetMs);

  std::unique_ptr<ExecContext> ctx = acquire();
  // Benign fill: tuning replays run over whatever is in the arena, and
  // uninitialized memory could hold denormals that skew kernel timings.
  std::fill(ctx->arena_.begin(), ctx->arena_.end(), 0.25f);

  for (size_t si = 0; si < schedule_.size(); ++si) {
    ag::CaptureNode& node =
        graph_->nodes[static_cast<size_t>(schedule_[si])];
    // A transposed conv's band height comes from its geometry: it reads no
    // column-block width.
    if (!node.conv.valid || node.conv.transposed || node.tuning == nullptr) {
      continue;
    }

    const TuneKey key{static_cast<int>(node.conv.prec), node.conv.m,
                      node.conv.k, node.conv.l, node.conv.batch};
    {
      std::lock_guard<std::mutex> lock(tune_mutex);
      auto it = tune_cache().find(key);
      if (it != tune_cache().end()) {
        node.tuning->nc = it->second;
        continue;
      }
    }

    ag::ReplayIO io;
    io.ins = ctx->ins_.data() + in_off_[si];
    io.outs = ctx->outs_.data() + out_off_[si];
    io.scratch = ctx->scratch_[si];
    auto time_with = [&](int64_t nc) {
      node.tuning->nc = nc;
      node.run(io);  // warm caches / pooled scratch
      return best_of(2, [&] { node.run(io); });
    };

    // Each width is timed once against the default (nc 0 = kGemmNC).
    int64_t best = 0;
    const double base = time_with(best);
    double best_time = base;
    for (int64_t nc : {int64_t{128}, int64_t{512}}) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      const double t = time_with(nc);
      if (t < best_time) {
        best_time = t;
        best = nc;
      }
    }
    // Hysteresis: keep the default unless the winner is a clear (>3%) win —
    // sub-noise deltas should not flap plans between loads.
    if (best_time > base * 0.97) best = 0;
    node.tuning->nc = best;
    {
      std::lock_guard<std::mutex> lock(tune_mutex);
      tune_cache().emplace(key, best);
    }
    trace::emit_instant("exec.autotune.choice", "exec",
                        {{"m", node.conv.m},
                         {"l", node.conv.l},
                         {"nc", best}});
    if (std::chrono::steady_clock::now() >= deadline) break;
  }

  release(std::move(ctx));
}

}  // namespace litho::runtime
