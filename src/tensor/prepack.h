// Load-time weight prepacking and int8 inference storage.
//
// packed_gemm re-packs its A (weight) operand into the 4x8 panel layout on
// every call, even though inference weights are immutable after load. A
// PackedWeight is the one-time alternative: built once per conv/linear
// weight when the InferenceEngine loads a checkpoint (exemplar: PyTorch's
// mkldnn ConvPrepack contexts), owned immutably by the layer, and handed to
// the conv forward so the per-call PackedA construction disappears from the
// serving hot path.
//
// Precision modes (EngineOptions::precision, default kFp32):
//  - kFp32: panels are exact copies in the PackedA layout. The forward pass
//    runs the unchanged fp32 engine, so results are bitwise identical to
//    the per-call packing path — prepacking only removes work.
//  - kInt8: weights are quantized per output row (symmetric, zero-point 0:
//    scale[i] = max|row i| / 127) and stored as signed k-quads. Each
//    sample's input is quantized once, with one dynamic per-sample scale
//    (127 / max|sample|), into UNSIGNED bytes q+128 (I8Source), and the
//    im2col B panels are gathered from those bytes as k-quads — the
//    u8 x s8 layout vpdpbusd contracts four k per instruction. The scale
//    covers the whole sample, so quantizing before the gather yields the
//    bytes a gather of fp32 values quantized afterwards would. The
//    micro-kernel accumulates in int32 — integer arithmetic is exact, so
//    any summation schedule yields the same sums — then the write-back
//    removes the 128 * rowsum(weights) shift in integer math and applies
//    scale[i]*b_scale (+bias) in fp32. Bitwise deterministic for any
//    thread count or batch split.
//
// Both modes keep their own bitwise-determinism guarantee; only kFp32
// additionally guarantees identity with the non-prepacked engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/gemm.h"

namespace litho {

/// Inference storage precision for prepacked weights and B panels.
enum class Precision { kFp32, kInt8 };

/// "fp32" / "int8" (CLI flag values).
const char* precision_name(Precision p);

/// Parses a --precision flag value; throws std::invalid_argument otherwise.
Precision parse_precision(const std::string& name);

/// A GEMM A operand packed once into the engine's panel layout at a chosen
/// storage precision. Immutable after construction and safe to share across
/// threads; unlike PackedA the buffers are owned (not pool-leased), so the
/// object can live as long as the engine.
///
/// Layouts per mode (m rows, k depth, MR = kGemmMR):
///  - kFp32: identical to PackedA — ceil(m/MR) panels of k x MR floats.
///  - kInt8: per m-tile, ceil(k/4) k-quads x MR signed int8 quads
///    ([a(r,4q) .. a(r,4q+3)] contiguous per row — one int32-sized
///    broadcast unit — trailing k zero-padded), plus a per-row fp32
///    dequantization scale and an integer row sum sum_k q(i,k) (both
///    length m); the row sums cancel the +128 activation shift exactly in
///    the write-back.
class PackedWeight {
 public:
  /// Packs op(A) per @p layout from row-major storage (see GemmLayout);
  /// m and k are the logical GEMM extents after the transposition.
  PackedWeight(GemmLayout layout, const float* a, int64_t m, int64_t k,
               Precision precision);

  /// Process-wide running total of bytes held by every PackedWeight built
  /// so far (panels + int8 scale/rowsum sidecars; monotone — destruction
  /// does not subtract). The engine-pool tests use the delta of this
  /// counter to assert that N replicas of a model share one set of packed
  /// weights instead of rebuilding them per replica.
  static int64_t total_allocated_bytes();

  Precision precision() const { return precision_; }
  int64_t m() const { return m_; }
  int64_t k() const { return k_; }

  /// fp32 panel view for gemm_col_block (kFp32 only).
  PackedPanelsView fp32_view() const {
    return PackedPanelsView{f32_.data(), m_, k_};
  }

  /// Number of packed k-quads per int8 panel (ceil(k/4)).
  int64_t k_quads() const { return (k_ + 3) / 4; }
  /// Int8-mode panel for rows [mtile*MR, ...): k_quads() x MR x 4 signed
  /// bytes.
  const int8_t* i8_panel(int64_t mtile) const {
    return i8_.data() + mtile * k_quads() * kGemmMR * 4;
  }
  /// Per-output-row dequantization scales, length m (kInt8 only).
  const float* row_scales() const { return scales_.data(); }
  /// Per-output-row quantized-weight sums sum_k q(i,k), length m (kInt8
  /// only) — multiplied by the activation zero-point 128 they remove the
  /// unsigned shift from the raw accumulators.
  const int32_t* row_sums() const { return rowsum_.data(); }

 private:
  Precision precision_;
  int64_t m_, k_;
  std::vector<float> f32_;      // kFp32 panels
  std::vector<int8_t> i8_;      // kInt8 panels (signed k-quads)
  std::vector<int32_t> rowsum_;  // kInt8 per-row quantized sums
  std::vector<float> scales_;   // kInt8 per-row scales
};

/// The B operand of the int8 GEMM, already quantized to unsigned bytes
/// q+128 (KernelTable::I8QuantFn): one sample's input planes, in which
/// every tap of every output pixel lies, so no gather needs a bounds check.
/// Logical row kk = (channel, ki, kj) and column j = (oy, ox) read
///   base[channel*h*w + (oy*stride + ki)*w + ox*stride + kj]
/// with ox = j % ow, oy = j / ow. A conv passes its input bordered with
/// the zero-point 128 (h, w the bordered extent, padding 0); a dense
/// [k x n] operand (pointwise and transposed convs) is the 1x1 case
/// I8Source::dense(base, n).
struct I8Source {
  const uint8_t* base = nullptr;
  int64_t kh = 1, kw = 1;  // taps per channel
  int64_t h = 1, w = 1;    // plane extent; w is the row pitch in bytes
  int64_t stride = 1;
  int64_t ow = 1;          // output pixels per output row
  static I8Source dense(const uint8_t* base, int64_t n) {
    return I8Source{base, 1, 1, 1, n, 1, n};
  }
};

/// Quantizes one h x w plane with @p inv_scale (KernelTable::I8QuantFn)
/// into the interior of the (h + 2*pad) x (w + 2*pad) byte plane at @p dst,
/// bordered with the zero-point 128 — one channel of an I8Source.
void quantize_plane_u8(const float* x, int64_t h, int64_t w, int64_t pad,
                       float inv_scale, uint8_t* dst);

/// One column block of C(f32) = dequant(A8 · B) [+ bias]: the int8
/// inference GEMM. B tiles are gathered as unsigned k-quads (the kernels'
/// native u8 x s8 panel format) straight from @p b and contracted against
/// the prepacked int8 weight in int32, chunking K so the active B panels
/// stay L1-resident (partial sums park in int32 — exact, so the chunking
/// never changes a bit). The write-back removes the 128 * row_sums()[i]
/// shift in integer math, then applies @p combined_scales (length m,
/// row_scales[i] * b_scale) with optional @p bias in fp32. Thread-safe for
/// distinct blocks; bitwise deterministic for any thread count (integer
/// accumulation is exact).
/// @p ep supplies only the fused post chain and the column-block width nc;
/// ep.bias is unused, bias comes in via @p bias because the int8
/// write-back needs it separate from the dequant scales.
void gemm_col_block_i8(const PackedWeight& a, const I8Source& b,
                       const float* combined_scales, int64_t n, int64_t block,
                       float* c, const float* bias,
                       const GemmEpilogue& ep = {});

/// Same over a dense row-major fp32 B (k x n, not transposed): the block's
/// columns are quantized once with @p inv_b_scale (127/max|B|, or 0 for an
/// all-zero operand) into a leased byte copy, then run as above. For
/// callers holding an fp32 GEMM operand rather than a conv input.
void gemm_col_block_i8(const PackedWeight& a, const StridedBPacker& b,
                       float inv_b_scale, const float* combined_scales,
                       int64_t n, int64_t block, float* c, const float* bias,
                       const GemmEpilogue& ep = {});

/// Largest |v| over n floats, NaNs skipped (0 when every value is NaN or
/// n == 0). Exact: max is order-independent, so the loop runs branch-free
/// over several lanes and callers may parallelize it without touching the
/// determinism contract.
float max_abs(const float* v, int64_t n);

}  // namespace litho
