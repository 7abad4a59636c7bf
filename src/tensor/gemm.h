// Packed, register-blocked single-precision GEMM engine.
//
// One micro-kernel serves every dense contraction in the stack: the three
// layout variants the autograd conv kernels need (NN, AᵀB, ABᵀ), the
// implicit-im2col convolution fast path (ag::conv2d packs B panels straight
// from the padded input through the BPanelPacker interface below, so the
// full Cin·K·K × L column buffer is never materialized), and the Fourier
// Unit's spectral mixing (clift via split real/imaginary GEMMs,
// cmode_matmul via the mode-blocked kernel at the bottom of this header).
// Prepacked inference convs gather from a band: each (sample, column block)
// task copies the input rows its block reads, every channel, into a
// zero-bordered buffer, so no gather needs a bounds check. At stride 1 the
// indirect convolution feed (M. Dukhan, "The Indirect Convolution
// Algorithm", 2019) then runs the micro-kernel straight on the band
// through a per-row offset table (Im2colStep), so B panels whose pixels
// share an output row are never packed at all.
//
// Blocking scheme (see README "GEMM & convolution kernels"):
//  - C is computed in kMR x kNR register tiles; A and B are repacked into
//    panel buffers leased from runtime::FloatWorkspacePool so the
//    micro-kernel reads both operands contiguously.
//  - K is walked in kKC-sized steps; each step packs one B panel
//    (kKC x kNC) and streams A panels (kMC x kKC) over it. Partial C tiles
//    are parked in C itself between K steps, and the micro-kernel resumes
//    accumulation from the parked value, so per-element arithmetic is one
//    running fp32 sum in strictly increasing k order.
//  - N is split into fixed kNC-column blocks; parallel_for distributes
//    whole blocks, so every C element is produced by exactly one task with
//    a schedule-independent operation order.
//
// Determinism contract: results are bitwise identical for any
// DOINN_NUM_THREADS (K is never split across tasks, block boundaries do not
// depend on the thread count) and — because the per-element operation
// sequence above is exactly the seed's naive loop order — each engine call
// is bitwise identical to the corresponding pre-engine kernel call for
// finite inputs. Callers that restructured *around* the engine keep the
// thread-count guarantee but not seed parity: conv2d forward is bitwise
// the seed's output end-to-end, while the rewritten conv backward
// accumulates weight gradients in a different (still deterministic) order.
#pragma once

#include <cstdint>

#include "runtime/workspace.h"

namespace litho {

/// Operand layouts routed through the packed kernel. A and B are always
/// given as row-major storage; the layout says which side is transposed.
enum class GemmLayout {
  kNN,  // C = A(MxK) · B(KxN)
  kTN,  // C = Aᵀ · B with A stored (KxM), B stored (KxN)
  kNT,  // C = A · Bᵀ with A stored (MxK), B stored (NxK)
};

// Blocking parameters. Fixed constants: they define the packed-panel ABI
// and the parallel block grid, which must not depend on the machine or the
// thread count (determinism contract above).
inline constexpr int64_t kGemmMR = 4;    // micro-tile rows
inline constexpr int64_t kGemmNR = 8;    // micro-tile columns
inline constexpr int64_t kGemmKC = 512;  // K step per packed panel
inline constexpr int64_t kGemmMC = 64;   // A panel rows per pack
inline constexpr int64_t kGemmNC = 256;  // columns per parallel block

/// One elementwise stage: the only description of the leaky-ReLU, tanh and
/// eval-mode BatchNorm ops, whose op walk, unfused replay and fused GEMM
/// epilogue (per finished column block, after the final K step and bias)
/// all run apply_gemm_post. One loop per stage, no cross-element
/// interaction: fusing changes no bit, only how often the output is walked.
struct EpiloguePostStage {
  enum class Kind : int8_t {
    kBnAffine,  // x -> gamma[i]*((x - mu[i]) * inv_std[i]) + beta[i], row i
    kLeaky,     // x -> x < 0 ? x * slope : x   (slope 0 == relu)
    kTanh,      // x -> std::tanh(x)
  };
  Kind kind = Kind::kLeaky;
  float slope = 0.f;  // kLeaky only
  // kBnAffine per-row (channel) arrays, kept alive by the owner.
  const float* mu = nullptr;
  const float* inv_std = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
};

/// One logical B row of an implicit im2col operand: row kk = (channel, ki,
/// kj) reads the source at the fixed flat offset `off` from its output
/// pixel's base. The source is a plane (or band) in which every tap lies,
/// so a conv of kh x kw taps over planes `plane` elements apart with row
/// pitch `pitch` has off = channel*plane + ki*pitch + kj (conv_rows). The
/// fp32 indirect micro-kernel reads B(kk, j) = base[off + j] from such a
/// table, and the int8 gather builds its u8 tiles through one.
struct Im2colStep {
  int64_t off;
};

/// Fills dst[0, klen) with the Im2colStep rows [k0, k0 + klen) of a
/// kh x kw conv over planes @p plane elements apart with row pitch
/// @p pitch.
void conv_rows(int64_t kh, int64_t kw, int64_t plane, int64_t pitch,
               int64_t k0, int64_t klen, Im2colStep* dst);

/// Epilogue applied by the micro-kernel on write-back.
struct GemmEpilogue {
  /// false: C = A·B (beta = 0). true: C += A·B.
  bool accumulate = false;
  /// Negates the product: C -= A·B (requires accumulate). Used by the
  /// complex split (re·re - im·im) so no temporary difference buffer is
  /// needed.
  bool subtract = false;
  /// Optional per-row bias (length M), added once after the final K step —
  /// the fused bias epilogue of the convolution forward pass.
  const float* bias = nullptr;
  /// Optional fused elementwise chain (post[0..post_count)) applied to the
  /// block after the contraction completes. Requires !accumulate.
  const EpiloguePostStage* post = nullptr;
  int post_count = 0;
  /// Column-block width override (multiple of kGemmNR); 0 = kGemmNC.
  /// Callers enumerating blocks must pass the same value to
  /// gemm_col_blocks. Tiling width never changes per-element K order.
  int64_t nc = 0;
};

/// Applies post[0..count) in order to rows [0,m) x columns [j0,j1) of a
/// row-major block with row stride n, reading @p src first and @p dst
/// after the first stage. src and dst are the same buffer (the fp32 and
/// int8 GEMM epilogues) or do not overlap (the autograd ops and replay).
void apply_gemm_post(const EpiloguePostStage* post, int count,
                     const float* src, float* dst, int64_t n, int64_t m,
                     int64_t j0, int64_t j1);

/// Supplies packed B micro-panels to the engine. pack() must fill @p dst
/// with ceil((j1-j0)/kGemmNR) consecutive micro-panels for logical B rows
/// [k0,k1) and columns [j0,j1); each micro-panel is (k1-k0) x kGemmNR
/// floats, k-major, with columns beyond j1 zero-filled. Implementations
/// must be thread-safe (const pack() is called from parallel workers).
class BPanelPacker {
 public:
  virtual ~BPanelPacker() = default;
  virtual void pack(int64_t k0, int64_t k1, int64_t j0, int64_t j1,
                    float* dst) const = 0;

  /// If logical B rows are already contiguous with a fixed stride, report
  /// the base pointer of B(0,0) and the row stride and return true: the
  /// engine then streams B in place instead of packing, which matters for
  /// short-and-wide GEMMs where each B element is reused only m/kGemmMR
  /// times (reads are the same values in the same order, so the bitwise
  /// contract is unaffected). Default: false (gather through pack()).
  virtual bool direct_view(const float** base, int64_t* row_stride) const {
    (void)base;
    (void)row_stride;
    return false;
  }

  /// Indirect feed. A packer whose logical B row kk sits at a fixed offset
  /// rows[kk].off from a per-column base pointer (stride-1 implicit im2col
  /// over a bordered band) returns that row table here; the engine then
  /// reads in place every column run indirect_base() accepts. Default:
  /// nullptr (pack only).
  virtual const Im2colStep* indirect_rows() const { return nullptr; }

  /// For a packer with indirect_rows(): the base pointer of the run of
  /// 2*kGemmNR logical columns starting at @p j, such that
  /// B(kk, j + jj) = base[rows[kk].off + jj] — or nullptr when the run is
  /// not in place (it crosses an output row), in which case the engine
  /// packs that run instead.
  virtual const float* indirect_base(int64_t j) const {
    (void)j;
    return nullptr;
  }
};

/// Packer over plain strided storage: the B side of all three GemmLayout
/// variants. transposed=false reads B(k,j) = b[k*ld + j] (B stored KxN);
/// transposed=true reads B(k,j) = b[j*ld + k] (B stored NxK).
class StridedBPacker final : public BPanelPacker {
 public:
  StridedBPacker(const float* b, int64_t ld, bool transposed)
      : b_(b), ld_(ld), transposed_(transposed) {}
  void pack(int64_t k0, int64_t k1, int64_t j0, int64_t j1,
            float* dst) const override;
  bool direct_view(const float** base, int64_t* row_stride) const override {
    if (transposed_) return false;
    *base = b_;
    *row_stride = ld_;
    return true;
  }

 private:
  const float* b_;
  int64_t ld_;
  bool transposed_;
};

namespace detail {
/// Packs A rows [i0, i0+rows) x K range [k0, k0+klen) into ceil(rows/MR)
/// micro-panels of klen x kGemmMR floats (k-major, padded rows
/// zero-filled). Exact copies only — packing never changes a value. Shared
/// by the per-call PackedA and the load-time PackedWeight so both produce
/// the identical panel bytes.
void pack_a_panels(GemmLayout layout, const float* a, int64_t m, int64_t k,
                   int64_t i0, int64_t rows, int64_t k0, int64_t klen,
                   float* dst);
}  // namespace detail

/// Non-owning view of an A operand already packed into kGemmMR row panels
/// (k-major, padded rows zero-filled). The engine consumes views, so packed
/// panels can come from a per-call PackedA lease or from a load-time
/// PackedWeight held by the inference engine (tensor/prepack.h) — the
/// arithmetic is identical either way.
struct PackedPanelsView {
  const float* buf = nullptr;
  int64_t m = 0, k = 0;

  /// Panel for rows [mtile*kGemmMR, ...), K range starting at k0:
  /// (k - k0) x kGemmMR floats, k-major.
  const float* panel(int64_t mtile, int64_t k0) const {
    return buf + mtile * k * kGemmMR + k0 * kGemmMR;
  }
};

/// A operand pre-packed into kGemmMR row panels, k-major, padded rows
/// zero-filled. Pack once, reuse across many GEMMs against the same A —
/// conv2d packs its weights once per call and shares them across every
/// (sample, column block) task. The panel buffer is a FloatWorkspace
/// lease, so it comes from the constructing thread's LeaseCache when one is
/// installed (a replaying executor context) and the pool otherwise.
class PackedA {
 public:
  PackedA(GemmLayout layout, const float* a, int64_t m, int64_t k);
  PackedA(const PackedA&) = delete;
  PackedA& operator=(const PackedA&) = delete;

  int64_t m() const { return m_; }
  int64_t k() const { return k_; }
  /// Panel for rows [mtile*kGemmMR, ...), K range starting at k0:
  /// (k - k0) x kGemmMR floats, k-major.
  const float* panel(int64_t mtile, int64_t k0) const {
    return buf_.data() + mtile * k_ * kGemmMR + k0 * kGemmMR;
  }
  PackedPanelsView view() const {
    return PackedPanelsView{buf_.data(), m_, k_};
  }

 private:
  runtime::FloatWorkspace buf_;
  int64_t m_, k_;
};

/// Number of fixed-size column blocks the engine splits N into. The
/// (block index -> column range) map is stable: callers that schedule their
/// own parallelism (conv2d fans out over samples x blocks) enumerate
/// [0, gemm_col_blocks(n)) and call gemm_col_block per index.
int64_t gemm_col_blocks(int64_t n);

/// Same with an explicit column-block width (GemmEpilogue::nc); nc <= 0
/// means kGemmNC.
int64_t gemm_col_blocks(int64_t n, int64_t nc);

/// Runs one column block of C = op(A)·op(B) with a pre-packed A. @p c is
/// the full M x N output (row stride n); only columns of @p block are
/// written. Thread-safe for distinct blocks.
void gemm_col_block(const PackedA& a, const BPanelPacker& b, int64_t n,
                    int64_t block, float* c, const GemmEpilogue& ep = {});

/// Same, over any packed-panel view (e.g. a load-time PackedWeight).
void gemm_col_block(const PackedPanelsView& a, const BPanelPacker& b,
                    int64_t n, int64_t block, float* c,
                    const GemmEpilogue& ep = {});

/// Same, packing A panels on the fly from raw storage (per K step, into
/// pooled scratch) — for A operands too large or short-lived to pre-pack,
/// e.g. the Cout x L cotangent in the conv2d weight gradient.
void gemm_col_block(GemmLayout layout, const float* a, int64_t m, int64_t k,
                    const BPanelPacker& b, int64_t n, int64_t block, float* c,
                    const GemmEpilogue& ep = {});

/// Full GEMM: packs A once, then distributes column blocks over
/// runtime::parallel_for. C(MxN) = op(A)·op(B) per @p layout and @p ep.
void packed_gemm(GemmLayout layout, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, const GemmEpilogue& ep = {});

/// Name of the micro-kernel tier this process dispatches to ("avxvnni",
/// "avx2" or "baseline"); every tier computes the same bits.
const char* gemm_kernel_tier();

// -- Legacy-compatible entry points -------------------------------------------
// The seed's three naive kernels, now thin wrappers over the packed engine
// (same signatures, bitwise-identical results for finite inputs).

/// C = A(MxK) * B(KxN), row-major; beta=0 semantics (C is overwritten).
/// Sizes are explicit so callers can GEMM into reshaped views.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);

/// C += A(MxK) * B(KxN).
void gemm_accumulate(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n);

/// C = A^T(KxM stored as MxK) * B(KxN)  -> (M x N) where a is (K x M).
void gemm_at_b(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n);

/// C = A(MxK) * B^T (N x K)  -> (M x N).
void gemm_a_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n);

// -- Spectral mixing kernel ---------------------------------------------------

/// Per-mode complex contraction (torch.einsum("bixy,ioxy->boxy")):
///   z[b,o,p] = sum_i v[b,i,p] * w[i,o,p]   (complex, split storage)
/// for b in [0,bsz), o in [0,co), i in [0,ci), p in [0,xy). Outputs are
/// overwritten. The per-(b,o) planes are distributed over parallel_for;
/// within a plane, i is blocked for register reuse but accumulated in
/// strictly increasing order into one running sum per element, so results
/// are bitwise identical to the naive serial loop and across thread counts.
void cmode_mix(int64_t bsz, int64_t ci, int64_t co, int64_t xy,
               const float* vr, const float* vi, const float* wr,
               const float* wi, float* zr, float* zi);

}  // namespace litho
