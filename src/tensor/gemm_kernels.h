// Internal micro-kernel dispatch table for the packed GEMM engine.
//
// The register micro-kernels are the only part of the engine whose speed
// depends on the ISA, so their one body (gemm_kernels_body.inc) is compiled
// once per tier, each TU with its own flags:
//  - baseline: the portable ISA (SSE2 on x86-64), always runnable;
//  - avx2:     -mavx2 but NOT FMA — 8-wide vmulps/vaddps round each lane
//              exactly like their scalar/SSE counterparts, whereas a fused
//              multiply-add would round differently and break the engine's
//              bitwise contract;
//  - avxvnni:  -mavx2 -mavxvnni — the same fp32 bodies as avx2, plus the
//              int8 hot loop as one vpdpbusd per u8 x s8 k-quad where avx2
//              needs a widen and two vpmaddwd partial sums.
// Every tier computes identical bits (fp32: one running sum per C element
// in strictly increasing k order; int8: exact int32 sums), so the dispatch
// choice changes throughput only. kernels() picks the widest runnable tier
// once per process.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"

namespace litho::detail {

struct KernelTable {
  // -- fp32 ------------------------------------------------------------------
  // Full MR x NR tile: C directly read/written with row stride ldc.
  using Fn = void (*)(int64_t klen, const float* ap, const float* bp,
                      int64_t bstride, float* c, int64_t ldc, bool init,
                      const float* bias);
  // Ragged tile: only the mr x nr valid sub-block of C is touched.
  using EdgeFn = void (*)(int64_t klen, const float* ap, const float* bp,
                          int64_t bstride, float* c, int64_t ldc, int64_t mr,
                          int64_t nr, bool init, const float* bias);
  // Paired tile: MR x 2*NR from two adjacent B micro-panels — wide-ISA
  // tables only (the register tile would spill at baseline width). Each
  // half accumulates independently in k order, so results stay bitwise
  // identical to two single-tile calls.
  using PairFn = void (*)(int64_t klen, const float* ap, const float* b0,
                          const float* b1, int64_t bstride, float* c,
                          int64_t ldc, bool init, const float* bias);
  // Fused pack+compute: like PairFn, but B is read from its strided source
  // and each loaded row is also stored to the packed panels pack0/pack1 for
  // the remaining row tiles — the separate packing pass (and its second
  // walk of B) disappears.
  using PairPackFn = void (*)(int64_t klen, const float* ap, const float* b0,
                              const float* b1, int64_t bstride, float* pack0,
                              float* pack1, float* c, int64_t ldc, bool init,
                              const float* bias);
  // Indirect paired tile (every tier): like PairFn, but B is read in place
  // through an offset table — B(kk, jj) = base[rows[kk].off + jj] for the
  // 2*NR columns jj — so no panel is packed. Same values in the same k
  // order as add_pair over panels packed from those rows; the baseline
  // tier runs it as two single-tile loops.
  using PairIndFn = void (*)(int64_t klen, const float* ap, const float* base,
                             const Im2colStep* rows, float* c, int64_t ldc,
                             bool init, const float* bias);

  // -- int8 (prepacked inference path, tensor/prepack.h) ---------------------
  // One MR x NR int8 tile over one K chunk (kquads packed k-quads):
  // acc[r*ldacc + j] += SUM_k a(r,k) * bu(k,j), exact in int32, where `ap`
  // holds kquads x MR x 4 signed weight bytes (one int32-sized broadcast
  // unit per row and quad) and `bp` kquads x NR x 4 activation bytes
  // quantized UNSIGNED as q+128 — the u8 x s8 layout vpdpbusd consumes
  // directly, contracting four k per instruction. The +128 shift adds
  // exactly 128 * sum_k a(r,k) to every output lane; the caller removes it
  // in the write-back using the weight row sums PackedWeight records
  // (integer arithmetic end to end, so the shift round-trips bit-exactly).
  // Callers chunk K so the active B panels stay L1-resident and park
  // partial sums in int32 between chunks — integer addition is
  // associative-exact, so chunking (or any schedule) gives identical sums.
  // The fp32 dequantization C = float(acc - 128*rowsum) * scale (+ bias)
  // happens once in the caller's write-back pass, which also handles ragged
  // edges (padded A rows contribute zero, and padded B lanes quantize to
  // the bias value 128 that the rowsum correction cancels exactly, so full
  // tiles are always safe to compute). |acc| <= K * 255 * 127 keeps K up to
  // 2^16 inside the int32 budget — far above any conv CKK in the stack.
  using I8Fn = void (*)(int64_t kquads, const int8_t* ap, const uint8_t* bp,
                        int32_t* acc, int64_t ldacc);
  // Two adjacent j-tiles in one pass over A: acc is MR x 16 row-major, with
  // the second tile's B panel at bp + kquads*32 (panels packed back to
  // back). Exactly the arithmetic of two i8 calls — int32 sums are exact,
  // so pairing (which only reuses the A broadcasts) cannot change a bit.
  using I8PairFn = void (*)(int64_t kquads, const int8_t* ap,
                            const uint8_t* bp, int32_t* acc);
  // Quantizes n floats of an activation plane into unsigned bytes,
  // dst[i] = rne(clamp(src[i] * inv_scale, -127, 127)) + 128, in [1, 255].
  // inv_scale = 127/max|x| keeps every finite product inside the clamp, so
  // the clamp only pins NaN (to -127) and infinities; it is applied before
  // rounding so every tier agrees on those too. Rounding is cvtps2dq /
  // lrintf under the default RNE mode: the bytes do not depend on the
  // dispatched table. A conv quantizes each sample's input once with this
  // (the transposed and pointwise convs into a dense [cin x l] copy, the
  // others into a plane bordered with the zero-point 128) and gathers
  // bytes from it with i8_gather.
  using I8QuantFn = void (*)(const float* src, int64_t n, float inv_scale,
                             uint8_t* dst);
  // Builds one B tile in the I8Fn layout from quantized bytes: for k < klen
  // and j < ncols, dst[(k/4)*32 + j*4 + k%4] = src[rows[k].off + j*cstride]
  // — the indirect feed of add_pair_ind, for u8 k-quads. Lanes j >= ncols
  // and the trailing k of the last quad hold the zero-point 128, which the
  // write-back's row-sum correction cancels. ncols <= kGemmNR.
  using I8GatherFn = void (*)(const uint8_t* src, const Im2colStep* rows,
                              int64_t klen, int64_t cstride, int64_t ncols,
                              uint8_t* dst);
  // Largest |v| over n floats with NaNs skipped (0 for none): the value of
  // the scalar loop `a = |v[i]|; if (a > m) m = a;` from m = +0, whatever
  // the input. The per-sample activation scale of the int8 convs.
  using MaxAbsFn = float (*)(const float* v, int64_t n);

  Fn add = nullptr;        // C (+)= A·B
  Fn sub = nullptr;        // C -= A·B
  EdgeFn add_edge = nullptr;
  EdgeFn sub_edge = nullptr;
  PairFn add_pair = nullptr;
  PairFn sub_pair = nullptr;
  PairPackFn add_pair_pack = nullptr;
  PairIndFn add_pair_ind = nullptr;
  I8Fn i8 = nullptr;
  I8PairFn i8x2 = nullptr;
  I8QuantFn i8_quant = nullptr;
  I8GatherFn i8_gather = nullptr;
  MaxAbsFn max_abs = nullptr;
  const char* name = nullptr;  // tier: "baseline", "avx2" or "avxvnni"
};

/// One table per tier TU. Each returns nullptr unless its TU was built for
/// the tier's ISA and the running CPU reports the feature; the baseline
/// tier is always available.
namespace baseline {
const KernelTable* tier();
}
namespace avx2 {
const KernelTable* tier();
}
namespace avxvnni {
const KernelTable* tier();
}

/// Every tier this process can run, widest first; the baseline tier is
/// always last.
std::vector<const KernelTable*> runnable_tiers();

/// The table for this machine (the front of runnable_tiers()), resolved
/// once per process.
const KernelTable& kernels();

}  // namespace litho::detail
