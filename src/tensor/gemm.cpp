#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>

#include "runtime/thread_pool.h"
#include "runtime/trace.h"
#include "runtime/workspace.h"
#include "tensor/gemm_kernels.h"

namespace litho {
namespace {

constexpr int64_t MR = kGemmMR;
constexpr int64_t NR = kGemmNR;

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

namespace detail {

void pack_a_panels(GemmLayout layout, const float* a, int64_t m, int64_t k,
                   int64_t i0, int64_t rows, int64_t k0, int64_t klen,
                   float* dst) {
  const int64_t tiles = ceil_div(rows, MR);
  for (int64_t t = 0; t < tiles; ++t) {
    float* p = dst + t * klen * MR;
    const int64_t r0 = i0 + t * MR;
    const int64_t mr = std::min(MR, i0 + rows - r0);
    if (layout == GemmLayout::kTN) {
      // A stored (K x M): A(i,kk) = a[kk*m + i]; rows are contiguous.
      for (int64_t kk = 0; kk < klen; ++kk) {
        const float* src = a + (k0 + kk) * m + r0;
        float* d = p + kk * MR;
        int64_t r = 0;
        for (; r < mr; ++r) d[r] = src[r];
        for (; r < MR; ++r) d[r] = 0.f;
      }
    } else {
      // A stored (M x K): A(i,kk) = a[i*k + kk]; walk each row once.
      for (int64_t r = 0; r < MR; ++r) {
        if (r < mr) {
          const float* src = a + (r0 + r) * k + k0;
          for (int64_t kk = 0; kk < klen; ++kk) p[kk * MR + r] = src[kk];
        } else {
          for (int64_t kk = 0; kk < klen; ++kk) p[kk * MR + r] = 0.f;
        }
      }
    }
  }
}

}  // namespace detail

namespace {

// One column block [block*kNC, ...) of C = op(A)·op(B). Either `pa`
// (pre-packed A panels) or `a_raw` (+layout) must be provided; with raw A,
// panels are packed per (K step, MC stripe) into pooled scratch.
void run_col_block(const PackedPanelsView* pa, GemmLayout layout,
                   const float* a_raw, int64_t m, int64_t k,
                   const BPanelPacker& bp, int64_t n, int64_t block, float* c,
                   const GemmEpilogue& ep) {
  const detail::KernelTable& kern = detail::kernels();
  const int64_t nc = ep.nc > 0 ? ep.nc : kGemmNC;
  const int64_t j0 = block * nc;
  const int64_t j1 = std::min(j0 + nc, n);
  if (m <= 0 || j0 >= j1) return;
  // Coarse pack+compute span per column block; runs on whichever pool
  // worker owns the block, so traces show the GEMM fan-out.
  DOINN_TRACE_SCOPE("gemm.col_block", "gemm", "m", m, "k", k, "cols",
                    j1 - j0);
  if (k <= 0) {
    // beta=0 with an empty contraction: C is the bias (or zero), exactly as
    // the legacy kernels' std::fill produced.
    if (!ep.accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        const float v = ep.bias ? ep.bias[i] : 0.f;
        for (int64_t j = j0; j < j1; ++j) c[i * n + j] = v;
      }
      apply_gemm_post(ep.post, ep.post_count, c, c, n, m, j0, j1);
    }
    return;
  }

  const int64_t jt_count = ceil_div(j1 - j0, NR);
  // Four ways to feed B to the micro-kernel, picked per operand:
  //  - direct: stream row-contiguous B in place. Worth it only while the K
  //    extent keeps the strided row streams prefetcher-sized (deep K plus a
  //    power-of-two stride aliases the same cache sets on every tile
  //    re-walk), or when each B element is used once anyway (m <= MR).
  //  - fused: strided-viewable B with deep K — the first row tile's kernel
  //    pass reads B from its source and stores the packed panels on the way
  //    past (no separate packing walk); later tiles read the panels.
  //  - indirect: a packer with an offset table (stride-1 implicit im2col
  //    over a bordered band), one K step, one A stripe and a plain
  //    C = A·B (+ bias) — each paired run the packer accepts is read in
  //    place by add_pair_ind; the other runs are packed tile-wise (below)
  //    just before their kernels.
  //  - packed: everything else (transposed layouts, every other im2col)
  //    gathers panels through the virtual pack() up front.
  const float* bbase = nullptr;
  int64_t brstride = 0;
  const bool viewable = bp.direct_view(&bbase, &brstride);
  const bool direct = viewable && (k <= 64 || m <= MR);
  const bool fused =
      !direct && viewable && !ep.subtract && kern.add_pair_pack != nullptr;
  // The indirect feed packs the runs it cannot read in place tile-wise:
  // each panel goes into one reused two-panel buffer immediately before
  // the kernels that consume it (the single MC stripe means no later row
  // pass rereads it), so packed B lives in L1 instead of round-tripping a
  // whole NC block through L2. Same gathered values, same kernel order.
  const Im2colStep* ind_rows = !viewable && !ep.accumulate && !ep.subtract &&
                                       k <= kGemmKC && m <= kGemmMC
                                   ? bp.indirect_rows()
                                   : nullptr;
  const bool tile_pack = ind_rows != nullptr;
  std::optional<runtime::FloatWorkspace> bws;
  if (!direct) {
    bws.emplace(static_cast<size_t>(
        tile_pack ? 2 * kGemmKC * NR : kGemmKC * jt_count * NR));
  }
  std::optional<runtime::FloatWorkspace> aws;
  if (!pa) {
    const int64_t arows = std::min(kGemmMC, m);
    aws.emplace(static_cast<size_t>(ceil_div(arows, MR) * MR * kGemmKC));
  }
  // Staging for the (at most one) ragged column tile of a direct-view B:
  // reading NR-wide past j1 could run past B's allocation, so that tile is
  // packed with zero padding like the workspace path.
  float bedge[kGemmKC * NR];

  for (int64_t k0 = 0; k0 < k; k0 += kGemmKC) {
    const int64_t klen = std::min(kGemmKC, k - k0);
    const bool init = (k0 == 0) && !ep.accumulate;
    const bool last = (k0 + klen == k);
    const float* bias = last ? ep.bias : nullptr;
    if (!direct && !fused && !tile_pack) {
      bp.pack(k0, k0 + klen, j0, j1, bws->data());
    }
    bool bedge_filled = false;
    for (int64_t i0 = 0; i0 < m; i0 += kGemmMC) {
      const int64_t rows = std::min(kGemmMC, m - i0);
      const float* apanels;
      int64_t panel_stride;  // floats between consecutive m-tiles
      if (pa) {
        apanels = pa->panel(i0 / MR, k0);
        panel_stride = k * MR;
      } else {
        detail::pack_a_panels(layout, a_raw, m, k, i0, rows, k0, klen,
                              aws->data());
        apanels = aws->data();
        panel_stride = klen * MR;
      }
      const int64_t mtiles = ceil_div(rows, MR);
      for (int64_t t = 0; t < jt_count;) {
        const int64_t c0 = j0 + t * NR;
        const int64_t nr = std::min(NR, j1 - c0);
        const bool full_pair =
            nr == NR && t + 1 < jt_count && j1 - (c0 + NR) >= NR;
        const float* ibase =
            ind_rows != nullptr && full_pair ? bp.indirect_base(c0) : nullptr;
        if (ibase != nullptr) {
          // Indirect pair: B rows come straight from the input. The gate
          // above means one K step with beta = 0, so init is always set.
          for (int64_t it = 0; it < mtiles; ++it) {
            const int64_t r0 = i0 + it * MR;
            const int64_t mr = std::min(MR, m - r0);
            float* ct = c + r0 * n + c0;
            const float* brow = bias ? bias + r0 : nullptr;
            const float* apan = apanels + it * panel_stride;
            if (mr == MR) {
              kern.add_pair_ind(klen, apan, ibase, ind_rows + k0, ct, n, init,
                                brow);
              continue;
            }
            // Ragged M: the full tile goes to local scratch (padded A rows
            // are zero) and only the mr valid rows are copied out, with the
            // bias added as micro_kernel_edge adds it.
            float cbuf[MR * 2 * NR];
            kern.add_pair_ind(klen, apan, ibase, ind_rows + k0, cbuf, 2 * NR,
                              /*init=*/true, nullptr);
            for (int64_t r = 0; r < mr; ++r) {
              for (int64_t j = 0; j < 2 * NR; ++j) {
                ct[r * n + j] = brow ? cbuf[r * 2 * NR + j] + brow[r]
                                     : cbuf[r * 2 * NR + j];
              }
            }
          }
          t += 2;
          continue;
        }
        const float* bpan;
        int64_t bstride;
        if (direct && nr == NR) {
          bpan = bbase + k0 * brstride + c0;
          bstride = brstride;
        } else if (direct) {
          if (!bedge_filled) {
            for (int64_t kk = 0; kk < klen; ++kk) {
              const float* src = bbase + (k0 + kk) * brstride + c0;
              float* d = bedge + kk * NR;
              int64_t j = 0;
              for (; j < nr; ++j) d[j] = src[j];
              for (; j < NR; ++j) d[j] = 0.f;
            }
            bedge_filled = true;
          }
          bpan = bedge;
          bstride = NR;
        } else {
          bpan = bws->data() + (tile_pack ? 0 : t * klen * NR);
          bstride = NR;
        }
        // Fused mode packs lazily: paired full tiles are packed by the
        // first row tile's fused kernel call; leftover tiles fall back to
        // the virtual pack() once per K step (i0 == 0 pass).
        const bool pair = kern.add_pair && full_pair;
        if (tile_pack) {
          bp.pack(k0, k0 + klen, c0, std::min(c0 + NR, j1),
                  const_cast<float*>(bpan));
          if (pair) {
            bp.pack(k0, k0 + klen, c0 + NR, c0 + 2 * NR,
                    bws->data() + klen * NR);
          }
        }
        if (fused) {
          bpan = bws->data() + t * klen * NR;
          bstride = NR;
          if (!pair && i0 == 0) {
            bp.pack(k0, k0 + klen, c0, std::min(c0 + NR, j1), bws->data() + t * klen * NR);
          }
        }
        const float* bpan1 =
            pair ? (direct ? bpan + NR : bpan + klen * NR) : nullptr;
        for (int64_t it = 0; it < mtiles; ++it) {
          const float* apan = apanels + it * panel_stride;
          const int64_t r0 = i0 + it * MR;
          const int64_t mr = std::min(MR, m - r0);
          float* ct = c + r0 * n + c0;
          const float* brow = bias ? bias + r0 : nullptr;
          if (pair && mr == MR) {
            if (fused && i0 == 0 && it == 0) {
              // m > kGemmMR here (else the direct path), so the first row
              // tile of the first stripe is always a full MR tile: it
              // reads B from the source and fills both panels.
              kern.add_pair_pack(klen, apan, bbase + k0 * brstride + c0,
                                 bbase + k0 * brstride + c0 + NR, brstride,
                                 const_cast<float*>(bpan),
                                 const_cast<float*>(bpan1), ct, n, init, brow);
            } else {
              (ep.subtract ? kern.sub_pair : kern.add_pair)(
                  klen, apan, bpan, bpan1, bstride, ct, n, init, brow);
            }
          } else if (pair) {
            (ep.subtract ? kern.sub_edge : kern.add_edge)(
                klen, apan, bpan, bstride, ct, n, mr, NR, init, brow);
            (ep.subtract ? kern.sub_edge : kern.add_edge)(
                klen, apan, bpan1, bstride, ct + NR, n, mr, NR, init, brow);
          } else if (mr == MR && nr == NR) {
            (ep.subtract ? kern.sub : kern.add)(klen, apan, bpan, bstride, ct,
                                               n, init, brow);
          } else {
            (ep.subtract ? kern.sub_edge : kern.add_edge)(
                klen, apan, bpan, bstride, ct, n, mr, nr, init, brow);
          }
        }
        t += pair ? 2 : 1;
      }
    }
  }
  apply_gemm_post(ep.post, ep.post_count, c, c, n, m, j0, j1);
}

// dst[j] = f(src[j]) over [j0, j1). Each case is a restrict-qualified loop
// the compiler vectorizes as is; one loop over possibly-aliasing pointers
// would get a runtime overlap check that sends the in-place epilogue down
// its scalar fallback.
template <typename F>
inline void map_row(const float* src, float* dst, int64_t j0, int64_t j1,
                    F f) {
  if (src == dst) {
    float* __restrict p = dst;
    for (int64_t j = j0; j < j1; ++j) p[j] = f(p[j]);
  } else {
    const float* __restrict s = src;
    float* __restrict d = dst;
    for (int64_t j = j0; j < j1; ++j) d[j] = f(s[j]);
  }
}

}  // namespace

void apply_gemm_post(const EpiloguePostStage* post, int count,
                     const float* src, float* dst, int64_t n, int64_t m,
                     int64_t j0, int64_t j1) {
  // Every stage runs over a row while it is still in L1, as a branch-free
  // loop the compiler vectorizes.
  for (int64_t i = 0; i < m; ++i) {
    const float* in = src + i * n;
    float* out = dst + i * n;
    for (int s = 0; s < count; ++s, in = out) {
      const EpiloguePostStage& st = post[s];
      switch (st.kind) {
        case EpiloguePostStage::Kind::kBnAffine: {
          const float mu = st.mu[i];
          const float is = st.inv_std[i];
          const float ga = st.gamma[i];
          const float be = st.beta[i];
          map_row(in, out, j0, j1, [=](float v) {
            const float xh = (v - mu) * is;
            return ga * xh + be;
          });
          break;
        }
        case EpiloguePostStage::Kind::kLeaky: {
          // v * (v < 0 ? slope : 1) equals v < 0 ? v * slope : v for every
          // non-NaN v, signed zeros included. The factor is picked with a
          // bit mask: GCC will not if-convert a float select under its
          // default -ftrapping-math, and the branchy loop stays scalar.
          uint32_t slope_bits, one_bits;
          const float one = 1.f;
          std::memcpy(&slope_bits, &st.slope, sizeof slope_bits);
          std::memcpy(&one_bits, &one, sizeof one_bits);
          map_row(in, out, j0, j1, [=](float v) {
            const uint32_t neg = 0u - static_cast<uint32_t>(v < 0.f);
            const uint32_t bits = (slope_bits & neg) | (one_bits & ~neg);
            float factor;
            std::memcpy(&factor, &bits, sizeof factor);
            return v * factor;
          });
          break;
        }
        case EpiloguePostStage::Kind::kTanh:
          map_row(in, out, j0, j1, [](float v) { return std::tanh(v); });
          break;
      }
    }
  }
}

void StridedBPacker::pack(int64_t k0, int64_t k1, int64_t j0, int64_t j1,
                          float* dst) const {
  const int64_t klen = k1 - k0;
  const int64_t jt_count = ceil_div(j1 - j0, NR);
  for (int64_t t = 0; t < jt_count; ++t) {
    float* __restrict p = dst + t * klen * NR;
    const int64_t c0 = j0 + t * NR;
    const int64_t nr = std::min(NR, j1 - c0);
    if (!transposed_) {
      // B stored (K x N): rows are contiguous runs; the block's rows stay
      // cached across panels, so later panels of the same rows hit L1/L2.
      // The row walk is strided (ld_ apart), so prefetch a few rows ahead —
      // the first panel of each block is otherwise latency-bound.
      for (int64_t kk = 0; kk < klen; ++kk) {
        const float* __restrict src = b_ + (k0 + kk) * ld_ + c0;
        if (kk + 8 < klen) __builtin_prefetch(src + 8 * ld_);
        float* d = p + kk * NR;
        int64_t j = 0;
        for (; j < nr; ++j) d[j] = src[j];
        for (; j < NR; ++j) d[j] = 0.f;
      }
    } else {
      // B stored (N x K): each logical column is a contiguous run.
      for (int64_t j = 0; j < NR; ++j) {
        if (j < nr) {
          const float* __restrict src = b_ + (c0 + j) * ld_ + k0;
          for (int64_t kk = 0; kk < klen; ++kk) p[kk * NR + j] = src[kk];
        } else {
          for (int64_t kk = 0; kk < klen; ++kk) p[kk * NR + j] = 0.f;
        }
      }
    }
  }
}

PackedA::PackedA(GemmLayout layout, const float* a, int64_t m, int64_t k)
    : buf_(static_cast<size_t>(ceil_div(std::max<int64_t>(m, 1), MR) * MR *
                               std::max<int64_t>(k, 1))),
      m_(m),
      k_(k) {
  if (m > 0 && k > 0) {
    detail::pack_a_panels(layout, a, m, k, 0, m, 0, k, buf_.data());
  }
}

void conv_rows(int64_t kh, int64_t kw, int64_t plane, int64_t pitch,
               int64_t k0, int64_t klen, Im2colStep* dst) {
  const int64_t taps = kh * kw;
  int64_t ch = k0 / taps, ki = (k0 % taps) / kw, kj = k0 % kw;
  for (int64_t kk = 0; kk < klen; ++kk) {
    dst[kk] = {ch * plane + ki * pitch + kj};
    if (++kj == kw) {
      kj = 0;
      if (++ki == kh) {
        ki = 0;
        ++ch;
      }
    }
  }
}

int64_t gemm_col_blocks(int64_t n) { return n > 0 ? ceil_div(n, kGemmNC) : 0; }

int64_t gemm_col_blocks(int64_t n, int64_t nc) {
  return n > 0 ? ceil_div(n, nc > 0 ? nc : kGemmNC) : 0;
}

void gemm_col_block(const PackedA& a, const BPanelPacker& b, int64_t n,
                    int64_t block, float* c, const GemmEpilogue& ep) {
  const PackedPanelsView v = a.view();
  run_col_block(&v, GemmLayout::kNN, nullptr, v.m, v.k, b, n, block, c, ep);
}

void gemm_col_block(const PackedPanelsView& a, const BPanelPacker& b,
                    int64_t n, int64_t block, float* c,
                    const GemmEpilogue& ep) {
  run_col_block(&a, GemmLayout::kNN, nullptr, a.m, a.k, b, n, block, c, ep);
}

void gemm_col_block(GemmLayout layout, const float* a, int64_t m, int64_t k,
                    const BPanelPacker& b, int64_t n, int64_t block, float* c,
                    const GemmEpilogue& ep) {
  run_col_block(nullptr, layout, a, m, k, b, n, block, c, ep);
}

void packed_gemm(GemmLayout layout, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, const GemmEpilogue& ep) {
  if (m <= 0 || n <= 0) return;
  DOINN_TRACE_SCOPE("gemm.packed", "gemm", "m", m, "k", k, "n", n);
  const StridedBPacker bp(b, layout == GemmLayout::kNT ? k : n,
                          layout == GemmLayout::kNT);
  const int64_t blocks = gemm_col_blocks(n, ep.nc);
  // Pre-pack A when the packed copy is modest (reused by every block);
  // otherwise each block packs panels per K step from raw storage.
  constexpr int64_t kPrepackLimit = 1 << 21;  // 2M floats = 8 MiB
  if (ceil_div(std::max<int64_t>(m, 1), MR) * MR * std::max<int64_t>(k, 1) <=
      kPrepackLimit) {
    const PackedA pa(layout, a, m, k);
    runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
      for (int64_t blk = b0; blk < b1; ++blk) {
        gemm_col_block(pa, bp, n, blk, c, ep);
      }
    });
  } else {
    runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
      for (int64_t blk = b0; blk < b1; ++blk) {
        gemm_col_block(layout, a, m, k, bp, n, blk, c, ep);
      }
    });
  }
}

const char* gemm_kernel_tier() { return detail::kernels().name; }

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  packed_gemm(GemmLayout::kNN, a, b, c, m, k, n);
}

void gemm_accumulate(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n) {
  GemmEpilogue ep;
  ep.accumulate = true;
  packed_gemm(GemmLayout::kNN, a, b, c, m, k, n, ep);
}

void gemm_at_b(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  packed_gemm(GemmLayout::kTN, a, b, c, m, k, n);
}

void gemm_a_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  packed_gemm(GemmLayout::kNT, a, b, c, m, k, n);
}

namespace {

// One i-block of the per-mode contraction: for every mode p, continues the
// running complex sum over channels [i0, i0+IB). The expression matches the
// seed's serial loop term-for-term (ar += vr*wr - vi*wi; ai += vr*wi +
// vi*wr, i ascending), so blocking changes register traffic, not results.
template <bool First, int IB>
void cmode_block(const float* __restrict vr, const float* __restrict vi,
                 const float* __restrict wr, const float* __restrict wi,
                 int64_t vstride, int64_t wstride, int64_t xy,
                 float* __restrict zr, float* __restrict zi) {
  for (int64_t p = 0; p < xy; ++p) {
    float ar = First ? 0.f : zr[p];
    float ai = First ? 0.f : zi[p];
    for (int i = 0; i < IB; ++i) {
      const float a = vr[i * vstride + p];
      const float b = vi[i * vstride + p];
      const float cr = wr[i * wstride + p];
      const float ci = wi[i * wstride + p];
      ar += a * cr - b * ci;
      ai += a * ci + b * cr;
    }
    zr[p] = ar;
    zi[p] = ai;
  }
}

}  // namespace

void cmode_mix(int64_t bsz, int64_t ci, int64_t co, int64_t xy,
               const float* vr, const float* vi, const float* wr,
               const float* wi, float* zr, float* zi) {
  runtime::parallel_for(bsz * co, [&](int64_t lo, int64_t hi) {
    for (int64_t idx = lo; idx < hi; ++idx) {
      const int64_t b = idx / co;
      const int64_t o = idx % co;
      float* zrp = zr + idx * xy;
      float* zip = zi + idx * xy;
      if (ci == 0) {
        std::fill(zrp, zrp + xy, 0.f);
        std::fill(zip, zip + xy, 0.f);
        continue;
      }
      constexpr int64_t IB = 2;
      for (int64_t i0 = 0; i0 < ci; i0 += IB) {
        const float* vrb = vr + (b * ci + i0) * xy;
        const float* vib = vi + (b * ci + i0) * xy;
        const float* wrb = wr + (i0 * co + o) * xy;
        const float* wib = wi + (i0 * co + o) * xy;
        const bool first = (i0 == 0);
        if (ci - i0 >= IB) {
          if (first) {
            cmode_block<true, 2>(vrb, vib, wrb, wib, xy, co * xy, xy, zrp, zip);
          } else {
            cmode_block<false, 2>(vrb, vib, wrb, wib, xy, co * xy, xy, zrp, zip);
          }
        } else {
          if (first) {
            cmode_block<true, 1>(vrb, vib, wrb, wib, xy, co * xy, xy, zrp, zip);
          } else {
            cmode_block<false, 1>(vrb, vib, wrb, wib, xy, co * xy, xy, zrp, zip);
          }
        }
      }
    }
  });
}

}  // namespace litho
