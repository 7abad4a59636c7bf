// Static-graph capture of the no-grad inference op walk.
//
// The graph executor (runtime/graph_exec.h) replays the DOINN forward as a
// flat list of kernel closures over arena-planned buffers. This header is
// the recording half: while a GraphRecorder is installed on the current
// thread, every instrumented inference op — after computing its result
// normally — appends a CaptureNode holding (a) the slots it read and wrote
// and (b) a replay closure that re-runs the *same* compute core against
// resolved buffer pointers. Op walk and replay share one arithmetic
// implementation per op, so replay output is bitwise identical to the op
// walk by construction (the executor still validates this per plan and
// falls back when an uninstrumented op sneaks into a forward). The
// elementwise ops (leaky_relu, tanh, eval-mode batch_norm2d) go one step
// further: each is described by one EpiloguePostStage in its node's
// NodeTuning and computed by apply_gemm_post (tensor/gemm.h) on the op
// walk, on unfused replay and, once the executor folds the stage into the
// producing conv, in that conv's GEMM epilogue.
//
// Slot semantics: a slot is one dense float buffer. Variables produced by
// recorded nodes (or registered via add_input) map to planned slots; any
// other Variable an op consumes is frozen as a constant slot that keeps the
// underlying tensor storage alive. Weights and biases land here (eval-mode
// BN statistics ride in their node's NodeTuning::keepalive instead), which
// is correct because the engine captures only eval-mode forwards whose
// parameters are immutable for the plan lifetime. A frozen constant that is
// *not* a requires_grad() parameter is the output of an op the recorder
// does not know, computed from the capture input; the executor's
// froze_only_parameters() check rejects such graphs.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autograd/variable.h"
#include "tensor/gemm.h"
#include "tensor/prepack.h"

namespace litho::ag {

/// Resolved buffer pointers for one node at replay time. The arrays are
/// owned by the executor context and ordered exactly as the Variables were
/// passed to GraphRecorder::record.
struct ReplayIO {
  const float* const* ins = nullptr;
  float* const* outs = nullptr;
  // The node's NodeTuning::scratch_floats of arena scratch (nullptr when it
  // asked for none); contents are unspecified on entry.
  float* scratch = nullptr;
  const float* in(int i) const { return ins[i]; }
  float* out(int i) const { return outs[i]; }
};

using ReplayFn = std::function<void(const ReplayIO&)>;

/// Mutable per-node knobs the planner and autotuner write after capture and
/// the replay closure reads on every run: the elementwise stages, the int8
/// scratch size and a non-transposed conv's GEMM column-block width.
/// Closures hold this by shared_ptr so rewrites reach them without
/// rebuilding the closure.
struct NodeTuning {
  // Elementwise stages (tensor/gemm.h), the only description of a leaky,
  // tanh or eval-BN op: a stage node holds its own one stage, a conv the
  // chain the fusion pass folded into its GEMM epilogue.
  std::vector<EpiloguePostStage> post;
  std::vector<Tensor> keepalive;  // buffers the stages point into
  // Arena scratch the replay closure needs (ReplayIO::scratch), in floats:
  // an int8 conv's quantized input bytes.
  int64_t scratch_floats = 0;
  int64_t nc = 0;  // GEMM column-block width (0 = default)
};

/// Metadata of a GEMM-backed conv node, for the fusion pass (which may only
/// append stages to non-transposed convs — a transposed conv GEMMs into a
/// column tile and sums each output pixel's taps after it) and the
/// per-shape autotuner (which skips transposed convs: their row bands come
/// from the geometry, not from a column-block width).
struct ConvInfo {
  bool valid = false;
  bool transposed = false;
  int64_t m = 0, k = 0, l = 0, batch = 0;
  Precision prec = Precision::kFp32;
};

struct CaptureNode {
  const char* kind = "";  // string literal, for traces and debugging
  std::vector<int> ins, outs;
  ReplayFn run;
  std::shared_ptr<NodeTuning> tuning;  // conv and elementwise-stage nodes
  ConvInfo conv;
  bool dead = false;  // set by the fusion pass when folded into a producer
};

struct CaptureSlot {
  Shape shape;
  int64_t numel = 0;
  int producer = -1;  // producing node index; -1 for inputs and constants
  bool is_input = false;
  Tensor constant;         // numel() > 0 => frozen constant backing buffer
  bool parameter = false;  // frozen from a requires_grad() Variable
};

/// The recorded forward: nodes in execution order over a slot table.
struct CapturedGraph {
  std::vector<CaptureNode> nodes;
  std::vector<CaptureSlot> slots;
  std::vector<int> inputs;   // slot ids, in add_input order
  std::vector<int> outputs;  // slot ids, in mark_output order
};

/// Thread-local graph recorder. Construct to start recording on this
/// thread, call finish() to detach the graph; the destructor uninstalls.
/// Slots are keyed by VarState::serial, which is never reused, so the
/// recorder pins nothing but the storage of frozen constants: intermediates
/// die as the recorded op walk goes, and a capture peaks at the memory of
/// one op walk.
class GraphRecorder {
 public:
  GraphRecorder();
  ~GraphRecorder();
  GraphRecorder(const GraphRecorder&) = delete;
  GraphRecorder& operator=(const GraphRecorder&) = delete;

  /// Recorder installed on this thread, or nullptr (the common case: one
  /// relaxed thread-local read on every instrumented op).
  static GraphRecorder* current();

  /// Registers @p v as the next graph input slot.
  void add_input(const Variable& v);

  /// Marks @p v (input, constant, or a recorded node's output) as the next
  /// graph output slot.
  void mark_output(const Variable& v);

  /// Appends a node for an op that read @p ins and wrote @p outs. Returns
  /// the node so callers can attach ConvInfo / NodeTuning.
  CaptureNode& record(const char* kind, const std::vector<Variable>& ins,
                      const std::vector<Variable>& outs, ReplayFn fn);

  /// Detaches and returns the recorded graph; the recorder becomes inert.
  std::shared_ptr<CapturedGraph> finish();

 private:
  int slot_for_read(const Variable& v);
  int slot_for_write(const Variable& v, int node);
  int new_slot(const Variable& v);

  std::shared_ptr<CapturedGraph> graph_;
  std::unordered_map<uint64_t, int> slot_of_;  // VarState::serial -> slot
  GraphRecorder* prev_ = nullptr;
};

}  // namespace litho::ag
