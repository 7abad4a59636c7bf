// GEMM micro-benchmark: packed tiled engine + implicit-im2col
// convolution vs the pre-PR kernels, which are reproduced verbatim below
// under `legacy` so the comparison stays honest as the library moves on.
// The headline number is the batched conv-shaped GEMM (Cout x CKK x L of
// the 256x256 DOINN refine convs); the table also covers the three layout
// variants, the full conv2d forward (explicit im2col vs implicit packing),
// the 1x1 fast path, the DOINN ir.dconv3 transposed conv (row bands vs the
// column buffer + col2im scatter, fp32 and int8, gated bitwise) and the
// Fourier Unit's per-mode spectral mixing. Finishes by checking that
// conv2d outputs are bitwise identical to the pre-PR formulation and
// across thread counts, and writes the table as machine-readable
// BENCH_gemm.json for cross-PR perf tracking.
//
// A second section covers the load-time prepacking path (tensor/prepack.h):
// PackedWeight vs per-call PackedA on pack-bound serving GEMM shapes, plus
// the int8 storage mode against the prepacked fp32 baseline. The
// fp32 prepacked result is gated bitwise-identical to the per-call path;
// the speedup gates are >= 1.15x prepack and >= 2x int8 (>= 1.0x / 1.2x
// under --quick, whose single rep is too noisy for the tight bounds). A
// last row times the DOINN convr2 conv per call vs prepacked (the serving
// path, indirect feed included), gated bitwise only, and the same conv at
// int8 against the prepacked fp32 one, gated bitwise against a naive
// quantized reference (legacy::conv2d_int8). The JSON opens with
// the host block (CPU, threads, kernel tier, build, git revision; see
// bench_util.h) and names the dispatched micro-kernel tier ("kernel_tier").
//
// Usage: bench_gemm_micro [reps] [--quick]   (exit 0 iff parity,
// determinism and the speedup gates hold; --quick is the CI smoke mode)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "bench_util.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/gemm.h"
#include "tensor/prepack.h"
#include "tensor/tensor.h"

namespace legacy {
// -- Pre-PR kernels (seed src/tensor/tensor.cpp + src/autograd/ops.cpp),
// kept bit-for-bit --------------------------------------------------------

constexpr int64_t kBlock = 64;

void gemm_accumulate(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n) {
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const int64_t k1 = std::min(k0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* ci = c + i * n;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float aik = a[i * k + kk];
          if (aik == 0.f) continue;
          const float* bk = b + kk * n;
          for (int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
        }
      }
    }
  }
}

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  std::fill(c, c + m * n, 0.f);
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_at_b(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  std::fill(c, c + m * n, 0.f);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* ak = a + kk * m;
    const float* bk = b + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float aik = ak[i];
      if (aik == 0.f) continue;
      float* ci = c + i * n;
      for (int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.f;
      for (int64_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] = acc;
    }
  }
}

void im2col(const float* x, int64_t c, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t padding, float* col) {
  const int64_t oh = litho::ag::conv_out_size(h, k, stride, padding);
  const int64_t ow = litho::ag::conv_out_size(w, k, stride, padding);
  const int64_t l = oh * ow;
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ki = 0; ki < k; ++ki) {
      for (int64_t kj = 0; kj < k; ++kj) {
        float* dst = col + ((ch * k + ki) * k + kj) * l;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride + ki - padding;
          if (iy < 0 || iy >= h) {
            for (int64_t ox = 0; ox < ow; ++ox) dst[oy * ow + ox] = 0.f;
            continue;
          }
          const float* src_row = x + (ch * h + iy) * w;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride + kj - padding;
            dst[oy * ow + ox] = (ix >= 0 && ix < w) ? src_row[ix] : 0.f;
          }
        }
      }
    }
  }
}

// Seed conv2d forward: per-sample explicit im2col + naive GEMM + bias pass
// (the seed parallelized over samples; run through the same parallel_for so
// thread counts compare fairly).
litho::Tensor conv2d_forward(const litho::Tensor& x, const litho::Tensor& w,
                             const litho::Tensor& b, int64_t stride,
                             int64_t padding) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
  const int64_t cout = w.size(0), k = w.size(2);
  const int64_t oh = litho::ag::conv_out_size(h, k, stride, padding);
  const int64_t ow = litho::ag::conv_out_size(ww, k, stride, padding);
  const int64_t ckk = cin * k * k, l = oh * ow;
  litho::Tensor out({n, cout, oh, ow});
  litho::runtime::parallel_for(n, [&](int64_t n0, int64_t n1) {
    std::vector<float> col(static_cast<size_t>(ckk * l));
    for (int64_t s = n0; s < n1; ++s) {
      im2col(x.data() + s * cin * h * ww, cin, h, ww, k, stride, padding,
             col.data());
      gemm(w.data(), col.data(), out.data() + s * cout * l, cout, ckk, l);
      if (b.numel() > 0) {
        for (int64_t c = 0; c < cout; ++c) {
          float* p = out.data() + (s * cout + c) * l;
          const float bias = b[c];
          for (int64_t i = 0; i < l; ++i) p[i] += bias;
        }
      }
    }
  });
  return out;
}

// Naive int8 conv2d: explicit zero-padded im2col of each sample quantized
// with its own scale (lrintf(v * 127/max|x_s|) clamped to +-127, plus 128),
// exact integer dots with the PackedWeight bytes, then
// float(acc - 128*rowsum) * scale + bias — what the int8 engine must
// reproduce bit for bit.
litho::Tensor conv2d_int8(const litho::Tensor& x, const litho::PackedWeight& pw,
                          const litho::Tensor& b, int64_t k, int64_t stride,
                          int64_t padding) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
  const int64_t cout = pw.m();
  const int64_t oh = litho::ag::conv_out_size(h, k, stride, padding);
  const int64_t ow = litho::ag::conv_out_size(ww, k, stride, padding);
  const int64_t ckk = cin * k * k, l = oh * ow;
  litho::Tensor out({n, cout, oh, ow});
  std::vector<float> col(static_cast<size_t>(ckk * l));
  std::vector<int32_t> q(static_cast<size_t>(ckk * l));
  for (int64_t s = 0; s < n; ++s) {
    const float* xs = x.data() + s * cin * h * ww;
    float amax = 0.f;
    for (int64_t i = 0; i < cin * h * ww; ++i) {
      amax = std::max(amax, std::fabs(xs[i]));
    }
    const float inv = amax > 0.f ? 127.f / amax : 0.f;
    im2col(xs, cin, h, ww, k, stride, padding, col.data());
    for (size_t i = 0; i < col.size(); ++i) {
      const long v = std::lrintf(col[i] * inv);
      q[i] = static_cast<int32_t>(std::min(127L, std::max(-127L, v))) + 128;
    }
    for (int64_t i = 0; i < cout; ++i) {
      const int8_t* panel = pw.i8_panel(i / litho::kGemmMR);
      const int64_t r = i % litho::kGemmMR;
      const float scale = pw.row_scales()[i] * (amax / 127.f);
      for (int64_t j = 0; j < l; ++j) {
        int32_t acc = 0;
        for (int64_t kk = 0; kk < ckk; ++kk) {
          acc += panel[(kk / 4) * litho::kGemmMR * 4 + r * 4 + kk % 4] *
                 q[static_cast<size_t>(kk * l + j)];
        }
        out.data()[(s * cout + i) * l + j] =
            static_cast<float>(acc - 128 * pw.row_sums()[i]) * scale + b[i];
      }
    }
  }
  return out;
}

// Pre-band col2im: scatters columns [c*k*k, l] onto the zero-filled output
// planes x [c, h, w], parallel over the (disjoint) channels.
void col2im(const float* col, int64_t c, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t padding, float* x) {
  const int64_t oh = litho::ag::conv_out_size(h, k, stride, padding);
  const int64_t ow = litho::ag::conv_out_size(w, k, stride, padding);
  const int64_t l = oh * ow;
  litho::runtime::parallel_for(c, [&](int64_t c0, int64_t c1) {
    for (int64_t ch = c0; ch < c1; ++ch) {
      for (int64_t ki = 0; ki < k; ++ki) {
        for (int64_t kj = 0; kj < k; ++kj) {
          const float* src = col + ((ch * k + ki) * k + kj) * l;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * stride + ki - padding;
            if (iy < 0 || iy >= h) continue;
            float* dst_row = x + (ch * h + iy) * w;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const int64_t ix = ox * stride + kj - padding;
              if (ix >= 0 && ix < w) dst_row[ix] += src[oy * ow + ox];
            }
          }
        }
      }
    }
  });
}

// Pre-band conv_transpose2d_prepacked: per sample, a GEMM into a full
// [cout*k*k x h*w] column buffer (parallel over column blocks; at int8 the
// sample is first quantized once into a dense byte copy), then the col2im
// scatter into a zero-filled output and a separate bias pass.
litho::Tensor conv_transpose2d_cols(const litho::Tensor& x,
                                    const litho::PackedWeight& pw,
                                    const litho::Tensor& b, int64_t k,
                                    int64_t stride, int64_t padding) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t ckk = pw.m(), cout = ckk / (k * k);
  const int64_t oh = (h - 1) * stride - 2 * padding + k;
  const int64_t ow = (w - 1) * stride - 2 * padding + k;
  const int64_t l = h * w, plane = oh * ow;
  const bool int8 = pw.precision() == litho::Precision::kInt8;
  litho::Tensor out({n, cout, oh, ow});
  litho::runtime::FloatWorkspace col(static_cast<size_t>(ckk * l));
  std::vector<float> scales(static_cast<size_t>(ckk));
  std::vector<uint8_t> q(int8 ? static_cast<size_t>(cin * l) : 0);
  std::fill(out.data(), out.data() + out.numel(), 0.f);
  const int64_t blocks = litho::gemm_col_blocks(l);
  for (int64_t s = 0; s < n; ++s) {
    const float* xs = x.data() + s * cin * l;
    if (int8) {
      const float amax = litho::max_abs(xs, cin * l);
      for (int64_t i = 0; i < ckk; ++i) {
        scales[i] = pw.row_scales()[i] * (amax / 127.f);
      }
      litho::quantize_plane_u8(xs, 1, cin * l, 0,
                               amax > 0.f ? 127.f / amax : 0.f, q.data());
    }
    litho::runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
      for (int64_t blk = b0; blk < b1; ++blk) {
        if (int8) {
          litho::gemm_col_block_i8(pw, litho::I8Source::dense(q.data(), l),
                                   scales.data(), l, blk, col.data(),
                                   nullptr);
        } else {
          litho::gemm_col_block(pw.fp32_view(),
                                litho::StridedBPacker(xs, l, false), l, blk,
                                col.data());
        }
      }
    });
    col2im(col.data(), cout, oh, ow, k, stride, padding,
           out.data() + s * cout * plane);
    for (int64_t c = 0; c < cout; ++c) {
      float* p = out.data() + (s * cout + c) * plane;
      for (int64_t i = 0; i < plane; ++i) p[i] += b[c];
    }
  }
  return out;
}

// Seed per-mode complex contraction (serial bixy,ioxy->boxy loop).
void cmode(int64_t bsz, int64_t ci, int64_t co, int64_t xy, const float* vr,
           const float* vi, const float* wr, const float* wi, float* zr,
           float* zi) {
  std::fill(zr, zr + bsz * co * xy, 0.f);
  std::fill(zi, zi + bsz * co * xy, 0.f);
  for (int64_t b = 0; b < bsz; ++b) {
    for (int64_t o = 0; o < co; ++o) {
      float* zrp = zr + (b * co + o) * xy;
      float* zip = zi + (b * co + o) * xy;
      for (int64_t i = 0; i < ci; ++i) {
        const float* vrp = vr + (b * ci + i) * xy;
        const float* vip = vi + (b * ci + i) * xy;
        const float* wrp = wr + (i * co + o) * xy;
        const float* wip = wi + (i * co + o) * xy;
        for (int64_t p = 0; p < xy; ++p) {
          zrp[p] += vrp[p] * wrp[p] - vip[p] * wip[p];
          zip[p] += vrp[p] * wip[p] + vip[p] * wrp[p];
        }
      }
    }
  }
}

}  // namespace legacy

namespace {

using litho::Tensor;

struct Row {
  std::string op;
  std::string shape;
  double legacy_ms;
  double new_ms;
};

std::vector<Row> g_rows;
std::vector<Row> g_prec;  // precision section: legacy_ms = baseline path

using litho::bench::max_abs_diff;

template <typename F>
double best_seconds(int reps, F&& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) best = std::min(best, litho::bench::seconds(fn));
  return best;
}

void report(const std::string& op, const std::string& shape, double legacy_s,
            double new_s) {
  g_rows.push_back({op, shape, legacy_s * 1e3, new_s * 1e3});
  std::printf("%-26s %-18s %9.2f ms %9.2f ms %7.2fx\n", op.c_str(),
              shape.c_str(), legacy_s * 1e3, new_s * 1e3, legacy_s / new_s);
}

void report_prec(const std::string& op, const std::string& shape,
                 double base_s, double new_s) {
  g_prec.push_back({op, shape, base_s * 1e3, new_s * 1e3});
  std::printf("%-26s %-18s %9.3f ms %9.3f ms %7.2fx\n", op.c_str(),
              shape.c_str(), base_s * 1e3, new_s * 1e3, base_s / new_s);
}

void write_rows(FILE* f, const std::vector<Row>& rows, const char* base_key) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"shape\": \"%s\", \"%s\": %.3f, "
                 "\"new_ms\": %.3f, \"speedup\": %.3f}%s\n",
                 r.op.c_str(), r.shape.c_str(), base_key, r.legacy_ms,
                 r.new_ms, r.legacy_ms / r.new_ms,
                 i + 1 < rows.size() ? "," : "");
  }
}

void write_json(const char* path, double prepack_x, double int8_x,
                double prepack_gate, double int8_gate, bool bitwise,
                bool int8_conv_bitwise, bool convt_bitwise) {
  FILE* f = std::fopen(path, "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"host\": %s,\n  \"kernel_tier\": \"%s\",\n"
               "  \"gemm\": [\n",
               litho::bench::host_json().c_str(), litho::gemm_kernel_tier());
  write_rows(f, g_rows, "legacy_ms");
  std::fprintf(f, "  ],\n  \"precision\": [\n");
  write_rows(f, g_prec, "base_ms");
  std::fprintf(f,
               "  ],\n  \"gates\": {\"prepack_fp32_speedup\": %.3f, "
               "\"prepack_fp32_min\": %.2f, \"int8_speedup\": %.3f, "
               "\"int8_min\": %.2f, \"prepack_bitwise\": %s, "
               "\"int8_conv_bitwise\": %s, "
               "\"conv_transpose_bitwise\": %s}\n}\n",
               prepack_x, prepack_gate, int8_x, int8_gate,
               bitwise ? "true" : "false",
               int8_conv_bitwise ? "true" : "false",
               convt_bitwise ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
      reps = 1;
    } else if ((reps = litho::bench::parse_reps(argv[i])) == 0) {
      std::fprintf(stderr, "usage: bench_gemm_micro [reps] [--quick]\n");
      return 2;
    }
  }
  litho::bench::banner("bench_gemm_micro: packed tiled GEMM + implicit im2col");
  std::printf(
      "threads=%d reps=%d  (MR=%lld NR=%lld KC=%lld NC=%lld, kernels %s)\n\n",
      litho::runtime::ThreadPool::default_num_threads(), reps,
      (long long)litho::kGemmMR, (long long)litho::kGemmNR,
      (long long)litho::kGemmKC, (long long)litho::kGemmNC,
      litho::gemm_kernel_tier());
  std::printf("%-26s %-18s %12s %12s %8s\n", "case", "shape", "legacy", "packed",
              "speedup");

  std::mt19937 rng(42);
  bool ok = true;

  // -- Headline: batched conv-shaped GEMM (convr1 of the IR refine stack on
  // a 256x256 clip: Cout=32, CKK=4*3*3=36, L=256*256, batch 4). The legacy
  // side runs through the same sample-parallel harness the seed conv used.
  double headline = 0.0;
  {
    const int64_t bsz = 4, m = 32, k = 36, n = 65536;
    std::vector<Tensor> a, b;
    for (int64_t s = 0; s < bsz; ++s) {
      a.push_back(Tensor::randn({m, k}, rng));
      b.push_back(Tensor::randn({k, n}, rng));
    }
    Tensor cl({bsz, m, n}), cn({bsz, m, n});
    const double leg = best_seconds(reps, [&] {
      litho::runtime::parallel_for(bsz, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          legacy::gemm(a[s].data(), b[s].data(), cl.data() + s * m * n, m, k, n);
        }
      });
    });
    const double neu = best_seconds(reps, [&] {
      for (int64_t s = 0; s < bsz; ++s) {
        litho::gemm(a[s].data(), b[s].data(), cn.data() + s * m * n, m, k, n);
      }
    });
    headline = leg / neu;
    report("gemm NN batched convr1", "4x 32x36x65536", leg, neu);
    ok = ok && max_abs_diff(cl, cn) == 0.0;
  }

  // Deeper refine conv (convr2: Cout=16, CKK=288) — the most memory-bound
  // conv shape in the stack; reported, not gated.
  {
    const int64_t bsz = 2, m = 16, k = 288, n = 65536;
    std::vector<Tensor> a, b;
    for (int64_t s = 0; s < bsz; ++s) {
      a.push_back(Tensor::randn({m, k}, rng));
      b.push_back(Tensor::randn({k, n}, rng));
    }
    Tensor cl({bsz, m, n}), cn({bsz, m, n});
    const double leg = best_seconds(reps, [&] {
      litho::runtime::parallel_for(bsz, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          legacy::gemm(a[s].data(), b[s].data(), cl.data() + s * m * n, m, k, n);
        }
      });
    });
    const double neu = best_seconds(reps, [&] {
      for (int64_t s = 0; s < bsz; ++s) {
        litho::gemm(a[s].data(), b[s].data(), cn.data() + s * m * n, m, k, n);
      }
    });
    report("gemm NN batched convr2", "2x 16x288x65536", leg, neu);
    ok = ok && max_abs_diff(cl, cn) == 0.0;
  }

  // -- Layout variants on conv-backward shapes ----------------------------
  {
    const int64_t m = 64, k = 576, n = 4096;
    Tensor a = Tensor::randn({m, k}, rng), b = Tensor::randn({k, n}, rng);
    Tensor cl({m, n}), cn({m, n});
    const double leg =
        best_seconds(reps, [&] { legacy::gemm(a.data(), b.data(), cl.data(), m, k, n); });
    const double neu =
        best_seconds(reps, [&] { litho::gemm(a.data(), b.data(), cn.data(), m, k, n); });
    report("gemm NN", "64x576x4096", leg, neu);
    ok = ok && max_abs_diff(cl, cn) == 0.0;
  }
  {
    // TN: gcol = w^T gout (input-gradient shape).
    const int64_t m = 288, k = 16, n = 65536;
    Tensor a = Tensor::randn({k, m}, rng), b = Tensor::randn({k, n}, rng);
    Tensor cl({m, n}), cn({m, n});
    const double leg = best_seconds(
        reps, [&] { legacy::gemm_at_b(a.data(), b.data(), cl.data(), m, k, n); });
    const double neu = best_seconds(
        reps, [&] { litho::gemm_at_b(a.data(), b.data(), cn.data(), m, k, n); });
    report("gemm AtB", "288x16x65536", leg, neu);
    ok = ok && max_abs_diff(cl, cn) == 0.0;
  }
  {
    // NT: gw = gout col^T (weight-gradient shape).
    const int64_t m = 16, k = 65536, n = 288;
    Tensor a = Tensor::randn({m, k}, rng), b = Tensor::randn({n, k}, rng);
    Tensor cl({m, n}), cn({m, n});
    const double leg = best_seconds(
        reps, [&] { legacy::gemm_a_bt(a.data(), b.data(), cl.data(), m, k, n); });
    const double neu = best_seconds(
        reps, [&] { litho::gemm_a_bt(a.data(), b.data(), cn.data(), m, k, n); });
    report("gemm ABt", "16x65536x288", leg, neu);
    ok = ok && max_abs_diff(cl, cn) == 0.0;
  }

  // -- Full conv2d forward: explicit im2col vs implicit packing -----------
  Tensor conv_legacy_out, conv_new_out;
  {
    const int64_t bsz = 2, cin = 32, cout = 16, hw = 256;
    Tensor x = Tensor::randn({bsz, cin, hw, hw}, rng);
    Tensor w = Tensor::randn({cout, cin, 3, 3}, rng, 0.f, 0.1f);
    Tensor bias = Tensor::randn({cout}, rng);
    const litho::ag::Variable xv(x), wv(w), bv(bias);
    const double leg = best_seconds(
        reps, [&] { conv_legacy_out = legacy::conv2d_forward(x, w, bias, 1, 1); });
    const double neu = best_seconds(
        reps, [&] { conv_new_out = litho::ag::conv2d(xv, wv, bv, 1, 1).value(); });
    report("conv2d 3x3 fwd", "2x32x256^2->16", leg, neu);
  }
  {
    const int64_t bsz = 2, cin = 16, cout = 16, hw = 256;
    Tensor x = Tensor::randn({bsz, cin, hw, hw}, rng);
    Tensor w = Tensor::randn({cout, cin, 1, 1}, rng, 0.f, 0.1f);
    Tensor bias = Tensor::randn({cout}, rng);
    const litho::ag::Variable xv(x), wv(w), bv(bias);
    Tensor o1, o2;
    const double leg = best_seconds(
        reps, [&] { o1 = legacy::conv2d_forward(x, w, bias, 1, 0); });
    const double neu = best_seconds(
        reps, [&] { o2 = litho::ag::conv2d(xv, wv, bv, 1, 0).value(); });
    report("conv2d 1x1 fast path", "2x16x256^2->16", leg, neu);
    ok = ok && max_abs_diff(o1, o2) == 0.0;
  }

  // -- DOINN ir.dconv3 (DoinnConfig::small(): 12 -> 4 channels, 4x4 s2 p1)
  // on a batch-8 128 px tile: the column-buffer + col2im path vs the
  // row-band path (a column tile per band, taps gathered per output
  // pixel), at fp32 and int8, gated bitwise.
  bool convt_bitwise = true;
  {
    const int64_t bsz = 8, cin = 12, cout = 4, k = 4, hw = 64;
    Tensor x = Tensor::randn({bsz, cin, hw, hw}, rng);
    Tensor w = Tensor::randn({cin, cout, k, k}, rng, 0.f, 0.1f);
    Tensor bias = Tensor::randn({cout}, rng);
    const litho::ag::Variable xv(x), wv(w), bv(bias);
    for (litho::Precision p :
         {litho::Precision::kFp32, litho::Precision::kInt8}) {
      const auto packed = std::make_shared<const litho::PackedWeight>(
          litho::GemmLayout::kTN, w.data(), cout * k * k, cin, p);
      Tensor o_cols, o_bands;
      const double leg = best_seconds(reps, [&] {
        o_cols = legacy::conv_transpose2d_cols(x, *packed, bias, k, 2, 1);
      });
      const double neu = best_seconds(reps, [&] {
        o_bands = litho::ag::conv_transpose2d_prepacked(xv, wv, packed, bv, 2,
                                                        1)
                      .value();
      });
      report(std::string("conv_transpose2d dconv3 ") +
                 litho::precision_name(p),
             "8x12x64^2->4", leg, neu);
      convt_bitwise =
          convt_bitwise && o_cols.numel() == o_bands.numel() &&
          std::memcmp(o_cols.data(), o_bands.data(),
                      sizeof(float) * static_cast<size_t>(o_cols.numel())) ==
              0;
    }
  }

  // -- Fourier Unit spectral mixing (per-mode complex matmul) -------------
  {
    const int64_t bsz = 2, ci = 16, co = 16, modes = 50;
    const int64_t xy = modes * modes;
    Tensor vr = Tensor::randn({bsz, ci, modes, modes}, rng);
    Tensor vi = Tensor::randn({bsz, ci, modes, modes}, rng);
    Tensor wr = Tensor::randn({ci, co, modes, modes}, rng);
    Tensor wi = Tensor::randn({ci, co, modes, modes}, rng);
    Tensor zlr({bsz, co, modes, modes}), zli({bsz, co, modes, modes});
    Tensor znr({bsz, co, modes, modes}), zni({bsz, co, modes, modes});
    const double leg = best_seconds(reps, [&] {
      legacy::cmode(bsz, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
                    zlr.data(), zli.data());
    });
    const double neu = best_seconds(reps, [&] {
      litho::cmode_mix(bsz, ci, co, xy, vr.data(), vi.data(), wr.data(),
                       wi.data(), znr.data(), zni.data());
    });
    report("cmode_matmul mixing", "2x16x16x50^2", leg, neu);
    ok = ok && max_abs_diff(zlr, znr) == 0.0 && max_abs_diff(zli, zni) == 0.0;
  }

  // -- Prepack & precision: load-time PackedWeight vs per-call PackedA and
  // the int8 storage mode (tensor/prepack.h). Gated shapes
  // are pack-bound serving GEMMs — few output pixels per weight element:
  // a deep 3x3 conv and a transposed-layout 2x2 decoder weight, both
  // contracting against an 8x8 feature grid. The 64 px refine conv shape
  // is reported for scale but not gated (its packing cost is negligible,
  // so prepacking is only required not to regress it).
  double prepack_x = 1e30, int8_x = 1e30;
  bool prec_bitwise = true, int8_conv_bitwise = false;
  std::printf("\n%-26s %-18s %12s %12s %8s\n", "precision case", "shape",
              "base", "new", "speedup");
  {
    struct PrecShape {
      const char* label;
      litho::GemmLayout layout;
      int64_t m, k, n;
      bool gated;
    };
    const PrecShape shapes[] = {
        {"conv 3x3 gp-grid", litho::GemmLayout::kNN, 256, 2304, 64, true},
        {"convT 2x2 decoder", litho::GemmLayout::kTN, 512, 256, 64, true},
        {"conv 3x3 refine", litho::GemmLayout::kNN, 32, 288, 4096, false},
    };
    for (const PrecShape& ps : shapes) {
      Tensor a = ps.layout == litho::GemmLayout::kNN
                     ? Tensor::randn({ps.m, ps.k}, rng)
                     : Tensor::randn({ps.k, ps.m}, rng);
      Tensor b = Tensor::randn({ps.k, ps.n}, rng);
      const litho::StridedBPacker bp(b.data(), ps.n, /*transposed=*/false);
      const int64_t blocks = litho::gemm_col_blocks(ps.n);
      char shape[64];
      std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                    (long long)ps.m, (long long)ps.k, (long long)ps.n);
      Tensor c_pc({ps.m, ps.n}), c_pp({ps.m, ps.n});
      Tensor c_i8({ps.m, ps.n});

      const double t_percall = best_seconds(reps, [&] {
        litho::PackedA pa(ps.layout, a.data(), ps.m, ps.k);
        for (int64_t blk = 0; blk < blocks; ++blk) {
          litho::gemm_col_block(pa, bp, ps.n, blk, c_pc.data());
        }
      });
      const litho::PackedWeight pw(ps.layout, a.data(), ps.m, ps.k,
                                   litho::Precision::kFp32);
      const double t_prepack = best_seconds(reps, [&] {
        for (int64_t blk = 0; blk < blocks; ++blk) {
          litho::gemm_col_block(pw.fp32_view(), bp, ps.n, blk, c_pp.data());
        }
      });
      prec_bitwise = prec_bitwise && max_abs_diff(c_pc, c_pp) == 0.0;

      const litho::PackedWeight pw8(ps.layout, a.data(), ps.m, ps.k,
                                    litho::Precision::kInt8);
      std::vector<float> combined(ps.m);
      std::vector<uint8_t> bq(static_cast<size_t>(ps.k * ps.n));
      const double t_i8 = best_seconds(reps, [&] {
        // Per-call activation scan, scale fold and one quantization of B,
        // as the int8 transposed conv does per sample.
        const float bmax = litho::max_abs(b.data(), ps.k * ps.n);
        const float inv_b = bmax > 0.f ? 127.f / bmax : 0.f;
        for (int64_t i = 0; i < ps.m; ++i) {
          combined[i] = pw8.row_scales()[i] * (bmax / 127.f);
        }
        litho::quantize_plane_u8(b.data(), 1, ps.k * ps.n, 0, inv_b,
                                 bq.data());
        const litho::I8Source src = litho::I8Source::dense(bq.data(), ps.n);
        for (int64_t blk = 0; blk < blocks; ++blk) {
          litho::gemm_col_block_i8(pw8, src, combined.data(), ps.n, blk,
                                   c_i8.data(), nullptr);
        }
      });

      report_prec(std::string("prepack fp32 ") + ps.label, shape, t_percall,
                  t_prepack);
      report_prec(std::string("int8 ") + ps.label, shape, t_prepack, t_i8);
      if (ps.gated) {
        prepack_x = std::min(prepack_x, t_percall / t_prepack);
        int8_x = std::min(int8_x, t_prepack / t_i8);
      }
      // Int8 must stay close to fp32 (quantization noise
      // only): a cheap sanity bound, the tight contour-level bound lives
      // in tests/test_precision.cpp.
      const double mag = std::max(1.0, (double)litho::max_abs(
                                           c_pp.data(), c_pp.numel()));
      ok = ok && max_abs_diff(c_i8, c_pp) < 0.05 * mag;
    }
  }

  // DOINN convr2 (DoinnConfig::small(): 16 -> 8 channels, 3x3, stride 1)
  // on a batch-8 128 px tile, as the serving engine runs it: per-call
  // ag::conv2d (packs every B panel) vs conv2d_prepacked (load-time
  // PackedWeight plus the indirect feed, which reads interior B runs
  // straight from the input). Reported and gated bitwise, not on speed.
  {
    const int64_t bsz = 8, cin = 16, cout = 8, hw = 128;
    Tensor x = Tensor::randn({bsz, cin, hw, hw}, rng);
    Tensor w = Tensor::randn({cout, cin, 3, 3}, rng, 0.f, 0.1f);
    Tensor bias = Tensor::randn({cout}, rng);
    const litho::ag::Variable xv(x), wv(w), bv(bias);
    const auto packed = std::make_shared<const litho::PackedWeight>(
        litho::GemmLayout::kNN, w.data(), cout, cin * 9,
        litho::Precision::kFp32);
    Tensor o_pc, o_pp;
    const double t_percall = best_seconds(
        reps, [&] { o_pc = litho::ag::conv2d(xv, wv, bv, 1, 1).value(); });
    const double t_prepack = best_seconds(reps, [&] {
      o_pp = litho::ag::conv2d_prepacked(xv, wv, packed, bv, 1, 1).value();
    });
    report_prec("prepack fp32 conv2d convr2", "8x16x128^2->8", t_percall,
                t_prepack);
    prec_bitwise = prec_bitwise && max_abs_diff(o_pc, o_pp) == 0.0;

    // The same conv at int8 (each sample quantized once, bytes gathered
    // through the im2col steps), timed against the prepacked fp32 conv and
    // gated bitwise against the naive quantized reference.
    const auto packed8 = std::make_shared<const litho::PackedWeight>(
        litho::GemmLayout::kNN, w.data(), cout, cin * 9,
        litho::Precision::kInt8);
    Tensor o_i8;
    const double t_i8 = best_seconds(reps, [&] {
      o_i8 = litho::ag::conv2d_prepacked(xv, wv, packed8, bv, 1, 1).value();
    });
    report_prec("int8 conv2d convr2", "8x16x128^2->8", t_prepack, t_i8);
    const Tensor o_ref = legacy::conv2d_int8(x, *packed8, bias, 3, 1, 1);
    int8_conv_bitwise =
        o_i8.numel() == o_ref.numel() &&
        std::memcmp(o_i8.data(), o_ref.data(),
                    sizeof(float) * static_cast<size_t>(o_ref.numel())) == 0;
  }

  // -- Parity and determinism gates ---------------------------------------
  const double conv_diff = max_abs_diff(conv_legacy_out, conv_new_out);
  std::printf("\nconv2d |new - legacy| max: %.3g (bitwise: %s)\n", conv_diff,
              conv_diff == 0.0 ? "yes" : "NO");
  ok = ok && conv_diff == 0.0;

  bool deterministic = true;
  {
    std::mt19937 drng(7);
    Tensor x = Tensor::randn({3, 8, 40, 40}, drng);
    Tensor w = Tensor::randn({16, 8, 3, 3}, drng, 0.f, 0.1f);
    Tensor bias = Tensor::randn({16}, drng);
    const litho::ag::Variable xv(x), wv(w), bv(bias);
    Tensor o1, o8;
    {
      litho::runtime::ThreadPool p1(1);
      litho::runtime::ScopedPool sp(&p1);
      o1 = litho::ag::conv2d(xv, wv, bv, 1, 1).value();
    }
    {
      litho::runtime::ThreadPool p8(8);
      litho::runtime::ScopedPool sp(&p8);
      o8 = litho::ag::conv2d(xv, wv, bv, 1, 1).value();
    }
    deterministic = max_abs_diff(o1, o8) == 0.0;
  }
  std::printf("conv2d bitwise identical across 1 vs 8 threads: %s\n",
              deterministic ? "yes" : "NO");
  ok = ok && deterministic;

  std::printf("headline speedup (batched convr1 GEMM): %.2fx (>= 3x: %s)\n",
              headline, headline >= 3.0 ? "yes" : "NO");
  ok = ok && headline >= 3.0;

  std::printf("prepacked fp32 bitwise identical to per-call packing: %s\n",
              prec_bitwise ? "yes" : "NO");
  ok = ok && prec_bitwise;
  const double prepack_gate = quick ? 1.0 : 1.15;
  const double int8_gate = quick ? 1.2 : 2.0;
  std::printf("prepack fp32 speedup (gated shapes): %.2fx (>= %.2fx: %s)\n",
              prepack_x, prepack_gate, prepack_x >= prepack_gate ? "yes" : "NO");
  ok = ok && prepack_x >= prepack_gate;
  std::printf("int8 speedup vs prepacked fp32 (gated shapes): %.2fx "
              "(>= %.2fx: %s)\n",
              int8_x, int8_gate, int8_x >= int8_gate ? "yes" : "NO");
  ok = ok && int8_x >= int8_gate;
  std::printf("int8 conv2d bitwise identical to the naive reference: %s\n",
              int8_conv_bitwise ? "yes" : "NO");
  ok = ok && int8_conv_bitwise;
  std::printf("conv_transpose2d row bands bitwise identical to the column "
              "buffer + col2im path: %s\n",
              convt_bitwise ? "yes" : "NO");
  ok = ok && convt_bitwise;

  write_json("BENCH_gemm.json", prepack_x, int8_x, prepack_gate, int8_gate,
             prec_bitwise, int8_conv_bitwise, convt_bitwise);
  std::printf("wrote BENCH_gemm.json (%zu + %zu rows)\n", g_rows.size(),
              g_prec.size());
  return ok ? 0 : 1;
}
