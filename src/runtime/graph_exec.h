// Static-graph inference executor: replays a captured DOINN forward
// (autograd/capture.h) as a flat list of kernel closures over one
// arena-planned buffer, with epilogue fusion and optional load-time
// per-shape autotuning.
//
// Pipeline per (input shape, precision):
//   capture  — record the op walk once into a CapturedGraph (the engine
//              drives this; see capture_graph below).
//   fuse     — move the stages of single-consumer elementwise chains
//              (BN-eval affine, LeakyReLU, Tanh) that follow a
//              non-transposed conv into its packed-GEMM epilogue. Each
//              stage node already holds its EpiloguePostStage, and the op
//              walk, the unfused replay and the epilogue all run it through
//              apply_gemm_post, so fusion is bitwise-neutral by
//              construction.
//   plan     — liveness analysis over slots, then greedy best-fit offset
//              assignment into a single arena so disjoint-lifetime
//              intermediates share memory. A node's scratch
//              (NodeTuning::scratch_floats) is planned as a slot that
//              lives only while the node runs.
//   autotune — time the bitwise-neutral GEMM column-block width per
//              non-transposed conv node against real arena buffers and bake
//              the winner into the node's NodeTuning (a transposed conv's
//              row bands come from its geometry).
//   replay   — run(ctx): iterate live nodes calling their closures against
//              prebuilt pointer tables. Steady-state replays perform zero
//              heap allocations (contexts are pooled, and each keeps the
//              kernel scratch its replays lease in its own LeaseCache).
//
// Determinism: every replay closure runs the same compute core as the op
// walk, and every tuning knob is bitwise-neutral, so executor output is
// bit-identical to the op-walk path for any DOINN_NUM_THREADS and batch
// composition. The engine still rejects any graph that froze a
// non-parameter constant (froze_only_parameters below: an uninstrumented op
// slipped into the forward) and validates each plan bitwise against the op
// walk once, falling back to the op walk on a mismatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "autograd/capture.h"
#include "runtime/workspace.h"

namespace litho::runtime {

/// Records @p forward once over @p example_inputs and returns the captured
/// graph. Runs under NoGradGuard with a thread-local GraphRecorder
/// installed; graph input i is example_inputs[i]'s slot, the single graph
/// output is the forward result's slot. The capture is an op walk: with
/// @p result non-null it receives the forward's output on the examples.
/// Traced as an `exec.capture` span with the input count and the trailing
/// (h, w) extent of input 0.
std::shared_ptr<ag::CapturedGraph> capture_graph(
    const std::vector<Tensor>& example_inputs,
    const std::function<ag::Variable(const std::vector<ag::Variable>&)>&
        forward,
    Tensor* result = nullptr);

/// Single-input form of the above.
std::shared_ptr<ag::CapturedGraph> capture_graph(
    const Tensor& example_input,
    const std::function<ag::Variable(const ag::Variable&)>& forward);

/// True iff every frozen constant of @p graph is a requires_grad()
/// parameter. Any other constant is the value of an op the recorder does
/// not know, computed from the capture's inputs: replaying it would be
/// stale on every other input, and validating on the capture's own inputs
/// would not notice. The engine treats such a graph as a fallback.
bool froze_only_parameters(const ag::CapturedGraph& graph);

struct ExecutorOptions {
  /// Benchmark per-shape kernel knobs at build time (otherwise defaults).
  bool autotune = false;
  /// Non-zero: shuffle the arena planner's allocation order with this seed
  /// (aliasing-safety tests — any order must produce a correct plan).
  uint64_t arena_seed = 0;
};

class GraphExecutor;

/// One in-flight replay's buffers: the arena plus per-node pointer tables
/// resolved against it at construction, and the kernel scratch its replays
/// lease on the replaying thread. Acquire from the executor, fill input(),
/// run, read output(), release — contexts recycle through a free list, and
/// a context's second and later replays allocate nothing.
class ExecContext {
 public:
  /// Writable buffer of graph input @p i (arena-backed, sized to the slot).
  float* input(int i);
  /// Result buffer of graph output @p i after run().
  const float* output(int i) const;
  /// Element count of graph output @p i.
  int64_t output_numel(int i) const;

 private:
  friend class GraphExecutor;
  explicit ExecContext(const GraphExecutor& exec);

  std::vector<float> arena_;
  LeaseCache leases_;
  // Flat pointer tables; node i's operands are the slices
  // ins_[in_off_[i] .. ) and outs_[out_off_[i] .. ).
  std::vector<const float*> ins_;
  std::vector<float*> outs_;
  std::vector<float*> scratch_;  // per scheduled node; nullptr = none
  std::vector<float*> inputs_;
  std::vector<const float*> outputs_;
  const GraphExecutor* exec_ = nullptr;
};

/// Compiled form of one captured graph. Thread-safe: any number of contexts
/// may replay concurrently (nodes only touch their context's arena plus
/// immutable packs/constants).
class GraphExecutor {
 public:
  explicit GraphExecutor(std::shared_ptr<ag::CapturedGraph> graph,
                         ExecutorOptions opts = {});
  ~GraphExecutor();
  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  /// Borrows a pooled context (allocates only when the pool is empty).
  std::unique_ptr<ExecContext> acquire();
  /// Returns a context to the pool.
  void release(std::unique_ptr<ExecContext> ctx);

  /// Replays the graph over the context's buffers.
  void run(ExecContext& ctx) const;

  /// Planned arena size in bytes.
  int64_t arena_bytes() const { return arena_floats_ * int64_t{4}; }
  /// Nodes surviving fusion (dead nodes excluded).
  int64_t live_nodes() const { return live_nodes_; }
  /// Elementwise nodes folded into conv epilogues by the fusion pass.
  int64_t fused_nodes() const { return fused_nodes_; }
  const ag::CapturedGraph& graph() const { return *graph_; }

 private:
  friend class ExecContext;

  void fuse_epilogues();
  void plan_arena(uint64_t seed);
  void autotune();

  std::shared_ptr<ag::CapturedGraph> graph_;
  // Execution schedule: indices of live nodes, in capture order.
  std::vector<int> schedule_;
  // Per scheduled node: offsets of its operand slices in a context's flat
  // ins_/outs_ pointer tables (identical across contexts).
  std::vector<int> in_off_, out_off_;
  int64_t ins_total_ = 0, outs_total_ = 0;
  // Per-slot arena offset in floats; -1 = constant (points into its frozen
  // tensor) or unused.
  std::vector<int64_t> slot_offset_;
  // Per scheduled node: arena offset of its scratch, -1 = none.
  std::vector<int64_t> scratch_offset_;
  int64_t arena_floats_ = 0;
  int64_t live_nodes_ = 0;
  int64_t fused_nodes_ = 0;

  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<ExecContext>> pool_;
};

}  // namespace litho::runtime
