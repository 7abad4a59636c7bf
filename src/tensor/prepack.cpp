#include "tensor/prepack.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "runtime/trace.h"
#include "runtime/workspace.h"
#include "tensor/gemm_kernels.h"

namespace litho {
namespace {

constexpr int64_t MR = kGemmMR;
constexpr int64_t NR = kGemmNR;

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "fp32";
}

Precision parse_precision(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "int8") return Precision::kInt8;
  throw std::invalid_argument("unknown precision '" + name +
                              "' (expected fp32 or int8)");
}

float max_abs(const float* v, int64_t n) {
  return detail::kernels().max_abs(v, n);
}

void quantize_plane_u8(const float* x, int64_t h, int64_t w, int64_t pad,
                       float inv_scale, uint8_t* dst) {
  const detail::KernelTable& kern = detail::kernels();
  const int64_t pw = w + 2 * pad;
  std::memset(dst, 128, static_cast<size_t>(pad * pw));
  for (int64_t y = 0; y < h; ++y) {
    uint8_t* row = dst + (pad + y) * pw;
    std::memset(row, 128, static_cast<size_t>(pad));
    kern.i8_quant(x + y * w, w, inv_scale, row + pad);
    std::memset(row + pad + w, 128, static_cast<size_t>(pad));
  }
  std::memset(dst + (pad + h) * pw, 128, static_cast<size_t>(pad * pw));
}

namespace {
// Running total for PackedWeight::total_allocated_bytes(): monotone so a
// reader never sees a transient dip while an engine rebuilds a pack.
std::atomic<int64_t> g_packed_weight_bytes{0};
}  // namespace

int64_t PackedWeight::total_allocated_bytes() {
  return g_packed_weight_bytes.load(std::memory_order_relaxed);
}

PackedWeight::PackedWeight(GemmLayout layout, const float* a, int64_t m,
                           int64_t k, Precision precision)
    : precision_(precision), m_(std::max<int64_t>(m, 0)), k_(std::max<int64_t>(k, 0)) {
  // Both exit paths (fp32 / int8) land the final buffer sizes in
  // the process-wide byte counter via this scope guard.
  struct BytesGuard {
    const PackedWeight& w;
    ~BytesGuard() {
      g_packed_weight_bytes.fetch_add(
          static_cast<int64_t>(w.f32_.capacity() * sizeof(float) +
                               w.i8_.capacity() * sizeof(int8_t) +
                               w.rowsum_.capacity() * sizeof(int32_t) +
                               w.scales_.capacity() * sizeof(float)),
          std::memory_order_relaxed);
    }
  } bytes_guard{*this};
  const int64_t tiles = ceil_div(std::max<int64_t>(m_, 1), MR);
  const int64_t panel_floats = tiles * MR * std::max<int64_t>(k_, 1);
  if (precision_ == Precision::kFp32) {
    f32_.resize(static_cast<size_t>(panel_floats), 0.f);
    if (m_ > 0 && k_ > 0) {
      detail::pack_a_panels(layout, a, m_, k_, 0, m_, 0, k_, f32_.data());
    }
    return;
  }
  // Int8: pack the exact fp32 panels into pooled scratch first, then
  // quantize — the panel walk is identical to the fp32 mode, so every
  // quantized value derives from the same packed layout.
  runtime::FloatWorkspace tmp(static_cast<size_t>(panel_floats));
  std::fill(tmp.data(), tmp.data() + panel_floats, 0.f);
  if (m_ > 0 && k_ > 0) {
    detail::pack_a_panels(layout, a, m_, k_, 0, m_, 0, k_, tmp.data());
  }
  // Symmetric per-output-row quantization (zero-point 0). All-zero
  // rows get scale 0 and quantize to 0. Rounding is nearest-even — the same
  // mode the activation quantizer uses. K is capped by the int32
  // accumulator budget of the micro-kernel (see KernelTable::I8Fn).
  if (k_ > (int64_t{1} << 16)) {
    throw std::invalid_argument(
        "int8 prepacking supports K extents up to 2^16");
  }
  const int64_t kquads = k_quads();
  scales_.assign(static_cast<size_t>(m_), 0.f);
  rowsum_.assign(static_cast<size_t>(m_), 0);
  i8_.assign(static_cast<size_t>(std::max<int64_t>(tiles * kquads * MR * 4,
                                                   1)),
             0);
  for (int64_t i = 0; i < m_; ++i) {
    const int64_t t = i / MR;
    const int64_t r = i % MR;
    const float* panel = tmp.data() + t * k_ * MR;
    float mx = 0.f;
    for (int64_t kk = 0; kk < k_; ++kk) {
      const float v = std::fabs(panel[kk * MR + r]);
      if (v > mx) mx = v;
    }
    scales_[static_cast<size_t>(i)] = mx / 127.f;
    const float inv = mx > 0.f ? 127.f / mx : 0.f;
    int8_t* dst = i8_.data() + t * kquads * MR * 4;
    int32_t sum = 0;
    for (int64_t kk = 0; kk < k_; ++kk) {
      int32_t q = static_cast<int32_t>(
          std::lrintf(panel[kk * MR + r] * inv));
      q = std::min<int32_t>(127, std::max<int32_t>(-127, q));
      sum += q;
      dst[(kk / 4) * MR * 4 + r * 4 + (kk % 4)] = static_cast<int8_t>(q);
    }
    rowsum_[static_cast<size_t>(i)] = sum;
  }
}

namespace {

// Gathers the nr B columns from output pixel (oy, ox) on as one u8 tile at
// @p dst. Columns on one output row are one i8_gather; a tile that crosses
// output rows is gathered a row segment at a time through @p tmp and its
// lanes spliced into place.
void gather_tile(const detail::KernelTable& kern, const I8Source& b,
                 const Im2colStep* rows, int64_t klen, int64_t oy, int64_t ox,
                 int64_t nr, uint8_t* dst, uint8_t* tmp) {
  const int64_t first = std::min(nr, b.ow - ox);
  kern.i8_gather(b.base + (oy * b.w + ox) * b.stride, rows, klen, b.stride,
                 first, dst);
  const int64_t kq = (klen + 3) / 4;
  for (int64_t j = first; j < nr;) {
    const int64_t len = std::min(nr - j, b.ow);
    kern.i8_gather(b.base + ++oy * b.w * b.stride, rows, klen, b.stride, len,
                   tmp);
    for (int64_t q = 0; q < kq; ++q) {
      std::memcpy(dst + q * 32 + j * 4, tmp + q * 32,
                  static_cast<size_t>(len * 4));
    }
    j += len;
  }
}

// Columns [j0, j1) of C (row stride ldc) from B columns [j0, j1) of @p b.
void i8_columns(const PackedWeight& a, const I8Source& b,
                const float* combined_scales, int64_t j0, int64_t j1,
                float* c, int64_t ldc, const float* bias,
                const GemmEpilogue& ep) {
  const detail::KernelTable& kern = detail::kernels();
  const int64_t m = a.m(), k = a.k();
  if (m <= 0 || j0 >= j1) return;
  DOINN_TRACE_SCOPE("gemm.col_block_i8", "gemm", "m", m, "k", k, "cols",
                    j1 - j0);
  if (k <= 0) {
    for (int64_t i = 0; i < m; ++i) {
      const float v = bias ? bias[i] : 0.f;
      for (int64_t j = j0; j < j1; ++j) c[i * ldc + j] = v;
    }
    apply_gemm_post(ep.post, ep.post_count, c, c, ldc, m, j0, j1);
    return;
  }
  const int64_t mtiles = ceil_div(m, MR);
  // Two j-tiles at a time, K in kKC chunks: each chunk's pair of u8 B
  // tiles (k-quads, see KernelTable::I8Fn) is gathered from the source
  // bytes, fits L1 and stays hot across the whole m extent, while partial
  // sums park per m-tile in int32 scratch — integer addition is exact, so
  // the chunked schedule produces the same sums as one full-K pass. The
  // write-back removes the +128 activation shift (128 * weight row sum,
  // integer) and converts once per element, handling ragged edges by
  // skipping padded lanes. Padded B lanes hold the zero-point 128, whose
  // contribution the shift correction cancels exactly, so full tiles are
  // always safe to compute.
  const int64_t ckq = kGemmKC / 4;  // k-quads per full chunk (4 | kKC)
  runtime::Int8Workspace bq(static_cast<size_t>(3 * ckq * 32));
  uint8_t* bq8 = reinterpret_cast<uint8_t*>(bq.data());
  uint8_t* tmp = bq8 + 2 * ckq * 32;  // row-crossing tile segments
  runtime::Int8Workspace parkws(static_cast<size_t>(
      mtiles * MR * 2 * NR * static_cast<int64_t>(sizeof(int32_t))));
  int32_t* park = reinterpret_cast<int32_t*>(parkws.data());
  Im2colStep rows[kGemmKC];
  int64_t rows_k0 = -1;  // chunk whose rows are in `rows`
  int64_t oy = j0 / b.ow, ox = j0 % b.ow;  // output pixel of the next tile
  const int64_t jt_count = ceil_div(j1 - j0, NR);
  for (int64_t t = 0; t < jt_count; t += 2) {
    const int64_t pair = std::min<int64_t>(2, jt_count - t);
    const int64_t c0 = j0 + t * NR;
    int64_t nr[2] = {0, 0}, ty[2] = {0, 0}, tx[2] = {0, 0};
    for (int64_t u = 0; u < pair; ++u) {
      nr[u] = std::min(NR, j1 - (c0 + u * NR));
      ty[u] = oy;
      tx[u] = ox;
      for (ox += NR; ox >= b.ow; ox -= b.ow) ++oy;
    }
    std::fill(park, park + mtiles * MR * 2 * NR, 0);
    for (int64_t k0 = 0; k0 < k; k0 += kGemmKC) {
      const int64_t klen = std::min(kGemmKC, k - k0);
      const int64_t kq = (klen + 3) / 4;
      if (rows_k0 != k0) {
        conv_rows(b.kh, b.kw, b.h * b.w, b.w, k0, klen, rows);
        rows_k0 = k0;
      }
      // 4 divides kKC, so every chunk start is quad-aligned; only the
      // final chunk can carry a ragged (zero-point-padded) trailing k.
      for (int64_t u = 0; u < pair; ++u) {
        gather_tile(kern, b, rows, klen, ty[u], tx[u], nr[u],
                    bq8 + u * kq * 32, tmp);
      }
      for (int64_t it = 0; it < mtiles; ++it) {
        const int8_t* apan = a.i8_panel(it) + (k0 / 4) * MR * 4;
        int32_t* acc = park + it * MR * 2 * NR;
        if (pair == 2) {
          kern.i8x2(kq, apan, bq8, acc);
        } else {
          kern.i8(kq, apan, bq8, acc, 2 * NR);
        }
      }
    }
    // Only the last tile can be ragged, so the pair's columns are one run
    // in both the park rows and C.
    const int64_t cols = nr[0] + nr[1];
    for (int64_t i = 0; i < m; ++i) {
      const float s = combined_scales[i];
      const int32_t corr = 128 * a.row_sums()[i];
      const int32_t* __restrict arow = park + i * 2 * NR;
      float* __restrict crow = c + i * ldc + c0;
      if (bias != nullptr) {
        const float bi = bias[i];
        for (int64_t j = 0; j < cols; ++j) {
          crow[j] = static_cast<float>(arow[j] - corr) * s + bi;
        }
      } else {
        for (int64_t j = 0; j < cols; ++j) {
          crow[j] = static_cast<float>(arow[j] - corr) * s;
        }
      }
    }
  }
  apply_gemm_post(ep.post, ep.post_count, c, c, ldc, m, j0, j1);
}

}  // namespace

void gemm_col_block_i8(const PackedWeight& a, const I8Source& b,
                       const float* combined_scales, int64_t n, int64_t block,
                       float* c, const float* bias, const GemmEpilogue& ep) {
  const int64_t nc = ep.nc > 0 ? ep.nc : kGemmNC;
  const int64_t j0 = block * nc;
  i8_columns(a, b, combined_scales, j0, std::min(j0 + nc, n), c, n, bias, ep);
}

void gemm_col_block_i8(const PackedWeight& a, const StridedBPacker& b,
                       float inv_b_scale, const float* combined_scales,
                       int64_t n, int64_t block, float* c, const float* bias,
                       const GemmEpilogue& ep) {
  const float* base = nullptr;
  int64_t ld = 0;
  if (!b.direct_view(&base, &ld)) {
    throw std::invalid_argument(
        "gemm_col_block_i8: the fp32 B operand must be stored k x n");
  }
  const int64_t nc = ep.nc > 0 ? ep.nc : kGemmNC;
  const int64_t j0 = block * nc;
  const int64_t cols = std::min(j0 + nc, n) - j0;
  if (cols <= 0) return;
  const int64_t k = a.k();
  runtime::Int8Workspace q(static_cast<size_t>(std::max<int64_t>(k * cols, 1)));
  uint8_t* q8 = reinterpret_cast<uint8_t*>(q.data());
  const detail::KernelTable& kern = detail::kernels();
  for (int64_t kk = 0; kk < k; ++kk) {
    kern.i8_quant(base + kk * ld + j0, cols, inv_b_scale, q8 + kk * cols);
  }
  i8_columns(a, I8Source::dense(q8, cols), combined_scales, 0, cols, c + j0,
             n, bias, ep);
}

}  // namespace litho
