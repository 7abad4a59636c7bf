#include "tensor/prepack.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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
  float m = 0.f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(v[i]);
    if (a > m) m = a;
  }
  return m;
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
  // mode the on-the-fly B quantizer uses. K is capped by the int32
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

void gemm_col_block_i8(const PackedWeight& a, const BPanelPacker& bp,
                       float inv_b_scale, const float* combined_scales,
                       int64_t n, int64_t block, float* c, const float* bias,
                       const GemmEpilogue& ep) {
  const detail::KernelTable& kern = detail::kernels();
  const int64_t m = a.m(), k = a.k();
  const int64_t nc = ep.nc > 0 ? ep.nc : kGemmNC;
  const int64_t j0 = block * nc;
  const int64_t j1 = std::min(j0 + nc, n);
  if (m <= 0 || j0 >= j1) return;
  DOINN_TRACE_SCOPE("gemm.col_block_i8", "gemm", "m", m, "k", k, "cols",
                    j1 - j0);
  if (k <= 0) {
    for (int64_t i = 0; i < m; ++i) {
      const float v = bias ? bias[i] : 0.f;
      for (int64_t j = j0; j < j1; ++j) c[i * n + j] = v;
    }
    apply_gemm_post(ep.post, ep.post_count, c, c, n, m, j0, j1);
    return;
  }
  const int64_t mtiles = ceil_div(m, MR);
  // Two j-tiles at a time, K in kKC chunks: each chunk's quantized pair of
  // B panels (u8 k-quads, see KernelTable::I8Fn) fits L1 and stays hot
  // across the whole m extent, while partial sums park per m-tile in int32
  // scratch — integer addition is exact, so the chunked schedule produces
  // the same sums as one full-K pass. The write-back removes the +128
  // activation shift (128 * weight row sum, integer) and converts once per
  // element, handling ragged edges by skipping padded lanes. Padded B
  // columns quantize to the zero-point 128, whose contribution the shift
  // correction cancels exactly, so full tiles are always safe to compute.
  const int64_t ckq = kGemmKC / 4;  // k-quads per full chunk (4 | kKC)
  runtime::FloatWorkspace fws(static_cast<size_t>(kGemmKC * NR));
  runtime::Int8Workspace bq(static_cast<size_t>(2 * ckq * 32));
  uint8_t* bq8 = reinterpret_cast<uint8_t*>(bq.data());
  runtime::Int8Workspace parkws(static_cast<size_t>(
      mtiles * MR * 2 * NR * static_cast<int64_t>(sizeof(int32_t))));
  int32_t* park = reinterpret_cast<int32_t*>(parkws.data());
  const int64_t jt_count = ceil_div(j1 - j0, NR);
  for (int64_t t = 0; t < jt_count; t += 2) {
    const int64_t pair = std::min<int64_t>(2, jt_count - t);
    const int64_t c0 = j0 + t * NR;
    int64_t nr[2] = {0, 0};
    for (int64_t u = 0; u < pair; ++u) {
      nr[u] = std::min(NR, j1 - (c0 + u * NR));
    }
    std::fill(park, park + mtiles * MR * 2 * NR, 0);
    for (int64_t k0 = 0; k0 < k; k0 += kGemmKC) {
      const int64_t klen = std::min(kGemmKC, k - k0);
      const int64_t kq = (klen + 3) / 4;
      for (int64_t u = 0; u < pair; ++u) {
        const int64_t cu = c0 + u * NR;
        bp.pack(k0, k0 + klen, cu, cu + nr[u], fws.data());
        // 4 divides kKC, so every chunk start is quad-aligned; only the
        // final chunk can carry a ragged (zero-point-padded) trailing k.
        kern.i8_quant(fws.data(), klen, inv_b_scale, bq8 + u * kq * 32);
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
    for (int64_t it = 0; it < mtiles; ++it) {
      const int64_t r0 = it * MR;
      const int64_t mr = std::min(MR, m - r0);
      for (int64_t r = 0; r < mr; ++r) {
        const int64_t i = r0 + r;
        const float s = combined_scales[i];
        const int32_t corr = 128 * a.row_sums()[i];
        const int32_t* arow = park + (it * MR + r) * 2 * NR;
        float* crow = c + i * n + c0;
        for (int64_t u = 0; u < pair; ++u) {
          for (int64_t j = 0; j < nr[u]; ++j) {
            const float v = static_cast<float>(arow[u * NR + j] - corr) * s;
            crow[u * NR + j] = bias ? v + bias[i] : v;
          }
        }
      }
    }
  }
  apply_gemm_post(ep.post, ep.post_count, c, c, n, m, j0, j1);
}

}  // namespace litho
