#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "autograd/capture.h"
#include "autograd/grad_mode.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/gemm.h"
#include "tensor/prepack.h"

namespace litho::ag {
namespace {

/// The recorder to append capture nodes to, or nullptr. Ops record only in
/// no-grad mode: a grad-mode forward builds an autograd graph whose node
/// Variables are not the leaf Variables capture keys slots by.
GraphRecorder* active_recorder() {
  GraphRecorder* rec = GraphRecorder::current();
  return (rec != nullptr && !GradMode::is_enabled()) ? rec : nullptr;
}

void check_same_shape(const Variable& a, const Variable& b, const char* op) {
  if (!a.value().same_shape(b.value())) {
    throw std::invalid_argument(std::string(op) + " shape mismatch: " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

struct ConvDims {
  int64_t n, cin, h, w;       // input
  int64_t cout, kh, kw;       // kernel
  int64_t oh, ow;             // output
};

// -- Implicit im2col packers --------------------------------------------------
// The packed GEMM engine pulls B micro-panels through these instead of a
// materialized column matrix: each pack() gathers the requested window of
// the logical im2col matrix straight from the input. Gathered values are
// exact copies, so conv results stay bitwise identical to the explicit
// im2col + GEMM formulation.

/// Logical B = im2col(x): row k = (channel, ki, kj), column j = (oy, ox),
/// gathered from the (virtually padded) input plane with a bounds check
/// per tap. The training conv2d forward and the conv_transpose2d input
/// gradient use it; inference convs gather from a band (BandPacker).
class Im2colPacker final : public BPanelPacker {
 public:
  Im2colPacker(const float* x, int64_t h, int64_t w, int64_t k,
               int64_t stride, int64_t padding, int64_t ow)
      : x_(x), h_(h), w_(w), k_(k), stride_(stride), padding_(padding),
        ow_(ow) {}

  void pack(int64_t k0, int64_t k1, int64_t j0, int64_t j1,
            float* dst) const override {
    const int64_t klen = k1 - k0;
    const int64_t panels = (j1 - j0 + kGemmNR - 1) / kGemmNR;
    for (int64_t t = 0; t < panels; ++t) {
      float* p = dst + t * klen * kGemmNR;
      const int64_t c0 = j0 + t * kGemmNR;
      const int64_t nr = std::min(kGemmNR, j1 - c0);
      // Decode this panel's output pixels once.
      int64_t oy[kGemmNR], ox[kGemmNR];
      int64_t y = c0 / ow_, xo = c0 % ow_;
      for (int64_t j = 0; j < nr; ++j) {
        oy[j] = y;
        ox[j] = xo;
        if (++xo == ow_) {
          xo = 0;
          ++y;
        }
      }
      // Panels whose pixels sit on one output row map to a contiguous run
      // of the input when stride is 1 — the common interior case collapses
      // to a straight vector copy.
      const bool one_row = oy[0] == oy[nr - 1];
      for (int64_t kk = k0; kk < k1; ++kk) {
        const int64_t dx = kk % k_ - padding_;
        const int64_t dy = (kk / k_) % k_ - padding_;
        const float* plane = x_ + (kk / (k_ * k_)) * h_ * w_;
        float* d = p + (kk - k0) * kGemmNR;
        if (one_row && stride_ == 1) {
          const int64_t iy = oy[0] + dy;
          const int64_t ix0 = ox[0] + dx;
          if (iy >= 0 && iy < h_ && ix0 >= 0 && ix0 + nr <= w_) {
            const float* src = plane + iy * w_ + ix0;
            for (int64_t j = 0; j < nr; ++j) d[j] = src[j];
            for (int64_t j = nr; j < kGemmNR; ++j) d[j] = 0.f;
            continue;
          }
        }
        for (int64_t j = 0; j < nr; ++j) {
          const int64_t iy = oy[j] * stride_ + dy;
          const int64_t ix = ox[j] * stride_ + dx;
          d[j] = (iy >= 0 && iy < h_ && ix >= 0 && ix < w_)
                     ? plane[iy * w_ + ix]
                     : 0.f;
        }
        for (int64_t j = nr; j < kGemmNR; ++j) d[j] = 0.f;
      }
    }
  }

 private:
  const float* x_;
  int64_t h_, w_, k_, stride_, padding_, ow_;
};

/// Logical B = im2col(x) for one column block of an inference conv, read
/// from the block's band: the window of every input channel that the
/// block's output pixels read, copied with zero padding (fill_band), so
/// every tap lies inside the band and no read needs a bounds check. The
/// band is bw wide, and its row 0 and column 0 are output row oy0's first
/// tap row and padded column x0. Row kk of column j = (oy, ox) is
/// band[rows[kk].off + (oy - oy0)*stride*bw + ox*stride - x0]. Stride-1
/// runs that stay on one output row are read in place by the indirect
/// micro-kernel; every other panel is packed by an offset copy.
class BandPacker final : public BPanelPacker {
 public:
  BandPacker(const float* band, const Im2colStep* rows, int64_t bw,
             int64_t stride, int64_t ow, int64_t oy0, int64_t x0)
      : band_(band), rows_(rows), bw_(bw), stride_(stride), ow_(ow),
        oy0_(oy0), x0_(x0) {}

  void pack(int64_t k0, int64_t k1, int64_t j0, int64_t j1,
            float* dst) const override {
    const int64_t klen = k1 - k0;
    const int64_t panels = (j1 - j0 + kGemmNR - 1) / kGemmNR;
    for (int64_t t = 0; t < panels; ++t) {
      float* p = dst + t * klen * kGemmNR;
      const int64_t c0 = j0 + t * kGemmNR;
      const int64_t nr = std::min(kGemmNR, j1 - c0);
      // Each pixel's offset from the row table's origin, decoded once.
      int64_t at[kGemmNR];
      int64_t y = c0 / ow_, xo = c0 % ow_;
      const bool run = stride_ == 1 && xo + nr <= ow_;
      for (int64_t j = 0; j < nr; ++j) {
        at[j] = (y - oy0_) * stride_ * bw_ + xo * stride_ - x0_;
        if (++xo == ow_) {
          xo = 0;
          ++y;
        }
      }
      for (int64_t kk = k0; kk < k1; ++kk) {
        const float* src = band_ + rows_[kk].off;
        float* d = p + (kk - k0) * kGemmNR;
        if (run) {
          for (int64_t j = 0; j < nr; ++j) d[j] = src[at[0] + j];
        } else {
          for (int64_t j = 0; j < nr; ++j) d[j] = src[at[j]];
        }
        for (int64_t j = nr; j < kGemmNR; ++j) d[j] = 0.f;
      }
    }
  }

  const Im2colStep* indirect_rows() const override {
    return stride_ == 1 ? rows_ : nullptr;
  }

  /// A stride-1 run of 2*kGemmNR pixels is in place when it stays on one
  /// output row; row kk of the run then starts at
  /// band[off + (oy - oy0)*bw + ox0 - x0].
  const float* indirect_base(int64_t j) const override {
    const int64_t ox0 = j % ow_;
    return ox0 + 2 * kGemmNR <= ow_
               ? band_ + (j / ow_ - oy0_) * bw_ + ox0 - x0_
               : nullptr;
  }

 private:
  const float* band_;
  const Im2colStep* rows_;
  int64_t bw_, stride_, ow_, oy0_, x0_;
};

/// Copies the bh x bw window at input row iy0, column ix0 of each of @p cin
/// h x w planes into @p band (cin planes of bh x bw), reading zero where
/// the window leaves the plane: the conv's zero padding.
void fill_band(const float* x, int64_t cin, int64_t h, int64_t w,
               int64_t iy0, int64_t ix0, int64_t bh, int64_t bw,
               float* band) {
  // Band columns [a, b) lie inside the plane.
  const int64_t a = std::clamp<int64_t>(-ix0, 0, bw);
  const int64_t b = std::clamp<int64_t>(w - ix0, a, bw);
  for (int64_t c = 0; c < cin; ++c) {
    for (int64_t r = 0; r < bh; ++r) {
      float* row = band + (c * bh + r) * bw;
      const int64_t iy = iy0 + r;
      if (iy < 0 || iy >= h) {
        std::fill(row, row + bw, 0.f);
        continue;
      }
      const float* src = x + (c * h + iy) * w + ix0;
      std::fill(row, row + a, 0.f);
      std::copy(src + a, src + b, row + a);
      std::fill(row + b, row + bw, 0.f);
    }
  }
}

/// Logical B = im2col(x)ᵀ: row k = (oy, ox), column j = (channel, ki, kj).
/// Backs the ABᵀ-shaped weight-gradient GEMM without materializing columns.
class Im2colTPacker final : public BPanelPacker {
 public:
  Im2colTPacker(const float* x, int64_t h, int64_t w, int64_t k,
                int64_t stride, int64_t padding, int64_t ow)
      : x_(x), h_(h), w_(w), k_(k), stride_(stride), padding_(padding),
        ow_(ow) {}

  void pack(int64_t k0, int64_t k1, int64_t j0, int64_t j1,
            float* dst) const override {
    const int64_t klen = k1 - k0;
    const int64_t panels = (j1 - j0 + kGemmNR - 1) / kGemmNR;
    for (int64_t t = 0; t < panels; ++t) {
      float* p = dst + t * klen * kGemmNR;
      const int64_t c0 = j0 + t * kGemmNR;
      const int64_t nr = std::min(kGemmNR, j1 - c0);
      // Decode this panel's (channel, ki, kj) columns once.
      int64_t ch[kGemmNR], ki[kGemmNR], kj[kGemmNR];
      for (int64_t j = 0; j < nr; ++j) {
        const int64_t idx = c0 + j;
        kj[j] = idx % k_;
        ki[j] = (idx / k_) % k_;
        ch[j] = idx / (k_ * k_);
      }
      int64_t y = k0 / ow_, xo = k0 % ow_;
      for (int64_t kk = k0; kk < k1; ++kk) {
        float* d = p + (kk - k0) * kGemmNR;
        for (int64_t j = 0; j < nr; ++j) {
          const int64_t iy = y * stride_ + ki[j] - padding_;
          const int64_t ix = xo * stride_ + kj[j] - padding_;
          d[j] = (iy >= 0 && iy < h_ && ix >= 0 && ix < w_)
                     ? x_[(ch[j] * h_ + iy) * w_ + ix]
                     : 0.f;
        }
        for (int64_t j = nr; j < kGemmNR; ++j) d[j] = 0.f;
        if (++xo == ow_) {
          xo = 0;
          ++y;
        }
      }
    }
  }

 private:
  const float* x_;
  int64_t h_, w_, k_, stride_, padding_, ow_;
};

ConvDims conv_dims(const Variable& x, const Variable& w, int64_t stride,
                   int64_t padding, bool transposed) {
  if (x.value().dim() != 4 || w.value().dim() != 4) {
    throw std::invalid_argument("conv expects 4-D activation and weight");
  }
  ConvDims d{};
  d.n = x.value().size(0);
  d.cin = x.value().size(1);
  d.h = x.value().size(2);
  d.w = x.value().size(3);
  if (!transposed) {
    d.cout = w.value().size(0);
    if (w.value().size(1) != d.cin) {
      throw std::invalid_argument("conv2d weight Cin mismatch");
    }
    d.kh = w.value().size(2);
    d.kw = w.value().size(3);
    d.oh = conv_out_size(d.h, d.kh, stride, padding);
    d.ow = conv_out_size(d.w, d.kw, stride, padding);
  } else {
    if (w.value().size(0) != d.cin) {
      throw std::invalid_argument("conv_transpose2d weight Cin mismatch");
    }
    d.cout = w.value().size(1);
    d.kh = w.value().size(2);
    d.kw = w.value().size(3);
    d.oh = (d.h - 1) * stride - 2 * padding + d.kh;
    d.ow = (d.w - 1) * stride - 2 * padding + d.kw;
  }
  if (d.oh <= 0 || d.ow <= 0) {
    throw std::invalid_argument("conv output size is non-positive");
  }
  return d;
}

// -- Shared compute cores ------------------------------------------------------
// Each instrumented inference op computes through one of these, and its
// capture closure (autograd/capture.h) replays the same core against arena
// buffers — op walk and graph replay share per-element arithmetic, so
// executor output is bitwise identical to the op walk by construction.

void add_core(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void sigmoid_core(const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = 1.f / (1.f + std::exp(-x[i]));
}

void avg_pool_core(const float* x, float* o, int64_t planes, int64_t h,
                   int64_t w, int64_t k) {
  const int64_t oh = h / k, ow = w / k;
  const float inv = 1.f / static_cast<float>(k * k);
  for (int64_t nc = 0; nc < planes; ++nc) {
    const float* src = x + nc * h * w;
    float* dst = o + nc * oh * ow;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float acc = 0.f;
        for (int64_t ky = 0; ky < k; ++ky) {
          const float* row = src + (oy * k + ky) * w + ox * k;
          for (int64_t kx = 0; kx < k; ++kx) acc += row[kx];
        }
        dst[oy * ow + ox] = acc * inv;
      }
    }
  }
}

/// The core of leaky_relu, tanh and eval-mode batch_norm2d: runs @p st, by
/// the loop a fused conv epilogue runs, over @p blocks consecutive
/// row-major [rows x cols] blocks. A kBnAffine stage indexes its arrays by
/// row, so BN passes a block per sample and a row per channel.
void stage_core(const EpiloguePostStage& st, const float* x, float* o,
                int64_t blocks, int64_t rows, int64_t cols) {
  for (int64_t b = 0; b < blocks; ++b) {
    const int64_t off = b * rows * cols;
    apply_gemm_post(&st, 1, x + off, o + off, cols, rows, 0, cols);
  }
}

/// Records a stage node whose NodeTuning holds @p st and, in @p keep, the
/// buffers it points into; GraphExecutor::fuse_epilogues may move both
/// onto the producing conv.
void record_stage(const char* kind, const Variable& x, const Variable& out,
                  const EpiloguePostStage& st, std::vector<Tensor> keep,
                  int64_t blocks, int64_t rows, int64_t cols) {
  GraphRecorder* rec = active_recorder();
  if (rec == nullptr) return;
  auto tuning = std::make_shared<NodeTuning>();
  tuning->post.push_back(st);
  tuning->keepalive = std::move(keep);
  CaptureNode& node = rec->record(
      kind, {x}, {out}, [tuning, blocks, rows, cols](const ReplayIO& io) {
        stage_core(tuning->post.front(), io.in(0), io.out(0), blocks, rows,
                   cols);
      });
  node.tuning = std::move(tuning);
}

/// Quantizes each of the @p n samples of @p x (cin planes of h x w) once,
/// with one scale per sample (127 / max|x_s|: it bounds every value the
/// conv gathers, and max is order-independent, so nothing derived from it
/// depends on the schedule), into u8 planes bordered by @p pad pixels of
/// the zero-point 128 at @p q. Writes each sample's dequant scales
/// row_scales[i] * max|x_s| / 127, i < wp.m(), at scales + s * wp.m(). The
/// max runs per plane first, so a large single sample still scans in
/// parallel.
void quantize_samples(const PackedWeight& wp, const float* x, int64_t n,
                      int64_t cin, int64_t h, int64_t w, int64_t pad,
                      uint8_t* q, float* scales) {
  const int64_t planes = n * cin, hw = h * w, m = wp.m();
  const int64_t qplane = (h + 2 * pad) * (w + 2 * pad);
  runtime::FloatWorkspace ws(static_cast<size_t>(planes + n));
  float* plane_max = ws.data();
  float* inv = plane_max + planes;
  runtime::parallel_for(planes, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) plane_max[p] = max_abs(x + p * hw, hw);
  });
  const float* rs = wp.row_scales();
  for (int64_t s = 0; s < n; ++s) {
    const float amax = max_abs(plane_max + s * cin, cin);
    inv[s] = amax > 0.f ? 127.f / amax : 0.f;
    const float bs = amax / 127.f;
    for (int64_t i = 0; i < m; ++i) scales[s * m + i] = rs[i] * bs;
  }
  runtime::parallel_for(planes, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      quantize_plane_u8(x + p * hw, h, w, pad, inv[p / cin], q + p * qplane);
    }
  });
}

/// The int8 half of conv2d_prepacked_run. Each sample's input is quantized
/// once (quantize_samples) into planes bordered with the zero-point, from
/// which the GEMM gathers im2col bytes: the bytes the zero-padded im2col
/// would give if each entry were quantized after the gather. The planes
/// live in @p scratch on replay and in a lease on the op walk, so replay
/// allocates nothing.
void conv2d_int8_run(const ConvDims& d, const PackedWeight& wp,
                     const float* x, const float* bias, int64_t stride,
                     int64_t padding, const GemmEpilogue& ep, float* scratch,
                     float* out) {
  const int64_t l = d.oh * d.ow;
  const bool pointwise = d.kh == 1 && d.kw == 1 && stride == 1 && padding == 0;
  const int64_t qh = d.h + 2 * padding, qw = d.w + 2 * padding;
  const int64_t qplane = d.cin * qh * qw;  // bytes per sample
  std::optional<runtime::Int8Workspace> qws;
  if (scratch == nullptr) qws.emplace(static_cast<size_t>(d.n * qplane));
  uint8_t* q = reinterpret_cast<uint8_t*>(
      scratch != nullptr ? static_cast<void*>(scratch) : qws->data());
  runtime::FloatWorkspace scales(static_cast<size_t>(d.n * d.cout));
  quantize_samples(wp, x, d.n, d.cin, d.h, d.w, padding, q, scales.data());
  const int64_t blocks = gemm_col_blocks(l, ep.nc);
  runtime::parallel_for(d.n * blocks, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t s = t / blocks;
      const uint8_t* qs = q + s * qplane;
      const I8Source src =
          pointwise ? I8Source::dense(qs, l)
                    : I8Source{qs, d.kh, d.kw, qh, qw, stride, d.ow};
      gemm_col_block_i8(wp, src, scales.data() + s * d.cout, l, t % blocks,
                        out + s * d.cout * l, bias, ep);
    }
  });
}

/// The conv2d_prepacked compute body: GEMM fan-out over (sample, column
/// block) tasks. @p tuning (nullable) supplies the executor's fused
/// epilogue chain and column-block width; @p scratch holds an int8 conv's
/// quantized planes. Neither changes a bit. An fp32 task copies the input
/// rows its block reads into a leased band (fill_band) and gathers from
/// it; pointwise convs read their input in place.
void conv2d_prepacked_run(const ConvDims& d, const PackedWeight& wp,
                          const float* x, const float* bias, int64_t stride,
                          int64_t padding, const NodeTuning* tuning,
                          float* scratch, float* out) {
  GemmEpilogue ep;
  ep.bias = bias;
  if (tuning != nullptr) {
    ep.post = tuning->post.data();
    ep.post_count = static_cast<int>(tuning->post.size());
    ep.nc = tuning->nc;
  }
  if (wp.precision() == Precision::kInt8) {
    conv2d_int8_run(d, wp, x, bias, stride, padding, ep, scratch, out);
    return;
  }
  const int64_t l = d.oh * d.ow;
  const int64_t ckk = d.cin * d.kh * d.kw;
  const bool pointwise = d.kh == 1 && d.kw == 1 && stride == 1 && padding == 0;
  const int64_t nc = ep.nc > 0 ? ep.nc : kGemmNC;
  const int64_t blocks = gemm_col_blocks(l, nc);
  runtime::parallel_for(d.n * blocks, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t s = t / blocks;
      const int64_t blk = t % blocks;
      const float* xs = x + s * d.cin * d.h * d.w;
      float* cs = out + s * d.cout * l;
      if (pointwise) {
        gemm_col_block(wp.fp32_view(),
                       StridedBPacker(xs, l, /*transposed=*/false), l, blk,
                       cs, ep);
        continue;
      }
      // The band spans output rows [oy0, oy1]'s tap rows. A block on one
      // output row reads only its own pixels' padded columns [x0, x0 + bw);
      // one that wraps reads whole rows.
      const int64_t j0 = blk * nc, j1 = std::min(j0 + nc, l);
      const int64_t oy0 = j0 / d.ow, oy1 = (j1 - 1) / d.ow;
      const int64_t bh = (oy1 - oy0) * stride + d.kh;
      const bool one_row = oy0 == oy1;
      const int64_t x0 = one_row ? (j0 % d.ow) * stride : 0;
      const int64_t bw = one_row ? ((j1 - 1) % d.ow) * stride + d.kw - x0
                                 : d.w + 2 * padding;
      runtime::FloatWorkspace band(static_cast<size_t>(d.cin * bh * bw));
      fill_band(xs, d.cin, d.h, d.w, oy0 * stride - padding, x0 - padding,
                bh, bw, band.data());
      runtime::Int8Workspace rows_ws(
          static_cast<size_t>(ckk) * sizeof(Im2colStep));
      Im2colStep* rows = reinterpret_cast<Im2colStep*>(rows_ws.data());
      conv_rows(d.kh, d.kw, bh * bw, bw, 0, ckk, rows);
      const BandPacker bp(band.data(), rows, bw, stride, d.ow, oy0, x0);
      gemm_col_block(wp.fp32_view(), bp, l, blk, cs, ep);
    }
  });
}

/// A transposed conv's band holds at least this many input rows; fewer
/// would recompute too much halo (DOINN's 4x4 s2 p1 reads one extra input
/// row on each side of a band).
constexpr int64_t kMinBandRows = 8;
/// Column tile budget per band, in floats (256 KB): a plane whose whole
/// tile fits runs as one band.
constexpr int64_t kBandTileFloats = int64_t{64} << 10;

/// Writes one output row from its stride phases: o[t*stride + r] =
/// acc[r*pitch + t] + bv. Stride 2, DOINN's, gets a loop the compiler
/// vectorizes as an interleaving store.
void store_phases(const float* __restrict acc, int64_t pitch, int64_t stride,
                  int64_t ow, float bv, float* __restrict o) {
  if (stride == 2) {
    const float* __restrict odd = acc + pitch;
    const int64_t pairs = ow / 2;
    for (int64_t t = 0; t < pairs; ++t) {
      o[2 * t] = acc[t] + bv;
      o[2 * t + 1] = odd[t] + bv;
    }
    if (ow % 2 != 0) o[ow - 1] = acc[pairs] + bv;
    return;
  }
  for (int64_t r = 0; r < stride; ++r) {
    for (int64_t t = 0, x = r; x < ow; ++t, x += stride) {
      o[x] = acc[r * pitch + t] + bv;
    }
  }
}

/// The conv_transpose2d_prepacked compute body, as (sample, output-row
/// band) tasks. A task GEMMs the input rows its band reads, W^T x over
/// columns [ya*w, yb*w), into a leased cout*kh*kw x (yb - ya)*w column
/// tile, then gathers each output pixel's taps from the tile: per output
/// row and stride phase, the taps of a phase are contiguous runs of the
/// tile, summed in ascending (ki, kj) order from 0.f, and the bias comes
/// last. That is the per-pixel order of the col2im scatter into a
/// zero-filled plane followed by a bias pass (training's conv_transpose2d),
/// so the bits are the same; a tap that leaves the plane is skipped. The
/// GEMM's per-element arithmetic does not depend on the column range, so
/// neither do the tile's values. At int8 every sample is quantized once
/// (quantize_samples) before the fan-out, into @p scratch on replay and a
/// lease on the op walk. The band height comes from the geometry alone, so
/// NodeTuning::nc is not read.
void conv_transpose2d_prepacked_run(const ConvDims& d, const PackedWeight& wp,
                                    const float* x, const float* bias,
                                    int64_t stride, int64_t padding,
                                    float* scratch, float* out) {
  const int64_t k = d.kh;
  const int64_t ckk = d.cout * k * k;
  const int64_t l = d.h * d.w;
  const int64_t plane = d.oh * d.ow;
  const bool int8 = wp.precision() == Precision::kInt8;
  std::optional<runtime::FloatWorkspace> scales;
  std::optional<runtime::Int8Workspace> qws;
  uint8_t* q = nullptr;
  if (int8) {
    if (scratch == nullptr) qws.emplace(static_cast<size_t>(d.n * d.cin * l));
    q = reinterpret_cast<uint8_t*>(
        scratch != nullptr ? static_cast<void*>(scratch) : qws->data());
    scales.emplace(static_cast<size_t>(d.n * ckk));
    quantize_samples(wp, x, d.n, d.cin, d.h, d.w, 0, q, scales->data());
  }
  // Output rows per band: kMinBandRows or more input rows' worth, or the
  // whole plane when its tile fits the budget.
  const int64_t band_rows =
      ckk * l <= kBandTileFloats
          ? d.oh
          : std::max(kMinBandRows, kBandTileFloats / (ckk * d.w)) * stride;
  const int64_t bands = (d.oh + band_rows - 1) / band_rows;
  // Per stride phase r, the output columns X = r + stride*t: t < pitch for
  // the first `full` phases, t < pitch - 1 for the rest.
  const int64_t pitch = (d.ow + stride - 1) / stride;
  const int64_t full = d.ow - (pitch - 1) * stride;
  // Tap kj reaches phase r = (kj - padding) mod stride, at input column
  // ix = bx + t; both step without a division as kj grows (r0, bx0: kj 0).
  const int64_t r0 = (stride - padding % stride) % stride;
  const int64_t bx0 = (r0 + padding) / stride;
  runtime::parallel_for(d.n * bands, [&](int64_t t0, int64_t t1) {
    for (int64_t task = t0; task < t1; ++task) {
      const int64_t s = task / bands;
      const int64_t y0 = task % bands * band_rows;
      const int64_t y1 = std::min(y0 + band_rows, d.oh);
      // Input rows iy with iy*stride + ki - padding in [y0, y1) for some
      // ki: [ya, yb).
      const int64_t lo = y0 + padding - (k - 1);
      const int64_t ya = lo > 0 ? (lo + stride - 1) / stride : 0;
      const int64_t yb = std::min(d.h, (y1 - 1 + padding) / stride + 1);
      const int64_t n = std::max<int64_t>(yb - ya, 0) * d.w;
      runtime::FloatWorkspace ws(
          static_cast<size_t>(ckk * n + stride * pitch));
      float* tile = ws.data();
      float* acc = tile + ckk * n;
      // Channel c of input row ya sits at (s * cin + c) * l + ya * w.
      const int64_t at = s * d.cin * l + ya * d.w;
      const int64_t blocks = gemm_col_blocks(n);
      for (int64_t blk = 0; blk < blocks; ++blk) {
        if (int8) {
          gemm_col_block_i8(wp, I8Source::dense(q + at, l),
                            scales->data() + s * ckk, n, blk, tile,
                            /*bias=*/nullptr);
        } else {
          gemm_col_block(wp.fp32_view(),
                         StridedBPacker(x + at, l, /*transposed=*/false), n,
                         blk, tile);
        }
      }
      for (int64_t oy = y0; oy < y1; ++oy) {
        // The taps of output row oy: ki = ki0, ki0 + stride, ... reading
        // input rows iy0, iy0 - 1, ...
        const int64_t ki0 = (oy + padding) % stride;
        const int64_t iy0 = (oy + padding) / stride;
        for (int64_t co = 0; co < d.cout; ++co) {
          std::fill(acc, acc + stride * pitch, 0.f);
          for (int64_t ki = ki0, iy = iy0; ki < k && iy >= 0;
               ki += stride, --iy) {
            if (iy >= d.h) continue;
            const float* trow = tile + (co * k + ki) * k * n + (iy - ya) * d.w;
            for (int64_t kj = 0, r = r0, bx = bx0; kj < k; ++kj) {
              const int64_t ta = std::max<int64_t>(0, -bx);
              const int64_t tb = std::min(r < full ? pitch : pitch - 1,
                                          d.w - bx);
              const float* __restrict src = trow + kj * n + bx;
              float* __restrict a = acc + r * pitch;
              for (int64_t t = ta; t < tb; ++t) a[t] += src[t];
              if (++r == stride) {
                r = 0;
                --bx;
              }
            }
          }
          const float bv = bias != nullptr ? bias[co] : 0.f;
          store_phases(acc, pitch, stride, d.ow, bv,
                       out + (s * d.cout + co) * plane + oy * d.ow);
        }
      }
    }
  });
}

}  // namespace

int64_t conv_out_size(int64_t in, int64_t k, int64_t stride, int64_t padding) {
  return (in + 2 * padding - k) / stride + 1;
}

Variable add(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "add");
  const int64_t numel = a.value().numel();
  Tensor out(a.value().shape());
  add_core(a.value().data(), b.value().data(), out.data(), numel);
  Variable out_v =
      Variable::make_node(std::move(out), {a, b}, [a, b](const Tensor& g) {
        a.state()->accumulate(g);
        b.state()->accumulate(g);
      });
  if (GraphRecorder* rec = active_recorder()) {
    rec->record("add", {a, b}, {out_v}, [numel](const ReplayIO& io) {
      add_core(io.in(0), io.in(1), io.out(0), numel);
    });
  }
  return out_v;
}

Variable sub(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a.value().sub(b.value());
  return Variable::make_node(std::move(out), {a, b}, [a, b](const Tensor& g) {
    a.state()->accumulate(g);
    Tensor neg = g.mul(-1.f);
    b.state()->accumulate(neg);
  });
}

Variable mul(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a.value().mul(b.value());
  return Variable::make_node(std::move(out), {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) a.state()->accumulate(g.mul(b.value()));
    if (b.requires_grad()) b.state()->accumulate(g.mul(a.value()));
  });
}

Variable scale(const Variable& a, float s) {
  Tensor out = a.value().mul(s);
  return Variable::make_node(std::move(out), {a}, [a, s](const Tensor& g) {
    a.state()->accumulate(g.mul(s));
  });
}

Variable relu(const Variable& x) { return leaky_relu(x, 0.f); }

Variable leaky_relu(const Variable& x, float negative_slope) {
  const int64_t numel = x.value().numel();
  const EpiloguePostStage st{EpiloguePostStage::Kind::kLeaky, negative_slope};
  Tensor out(x.value().shape());
  stage_core(st, x.value().data(), out.data(), 1, 1, numel);
  Variable out_v = Variable::make_node(
      std::move(out), {x}, [x, negative_slope](const Tensor& g) {
        Tensor gx = g.clone();
        const Tensor& v = x.value();
        for (int64_t i = 0; i < gx.numel(); ++i) {
          if (v[i] < 0.f) gx[i] *= negative_slope;
        }
        x.state()->accumulate(gx);
      });
  record_stage("leaky_relu", x, out_v, st, {}, 1, 1, numel);
  return out_v;
}

Variable tanh(const Variable& x) {
  const int64_t numel = x.value().numel();
  const EpiloguePostStage st{EpiloguePostStage::Kind::kTanh};
  Tensor out(x.value().shape());
  stage_core(st, x.value().data(), out.data(), 1, 1, numel);
  // Capture the forward output for the backward pass: d tanh = 1 - tanh^2.
  Tensor saved = out;
  Variable out_v =
      Variable::make_node(std::move(out), {x}, [x, saved](const Tensor& g) {
        Tensor gx = g.clone();
        for (int64_t i = 0; i < gx.numel(); ++i) {
          gx[i] *= 1.f - saved[i] * saved[i];
        }
        x.state()->accumulate(gx);
      });
  record_stage("tanh", x, out_v, st, {}, 1, 1, numel);
  return out_v;
}

Variable sigmoid(const Variable& x) {
  const int64_t numel = x.value().numel();
  Tensor out(x.value().shape());
  sigmoid_core(x.value().data(), out.data(), numel);
  Tensor saved = out;
  Variable out_v =
      Variable::make_node(std::move(out), {x}, [x, saved](const Tensor& g) {
        Tensor gx = g.clone();
        for (int64_t i = 0; i < gx.numel(); ++i) {
          gx[i] *= saved[i] * (1.f - saved[i]);
        }
        x.state()->accumulate(gx);
      });
  if (GraphRecorder* rec = active_recorder()) {
    rec->record("sigmoid", {x}, {out_v}, [numel](const ReplayIO& io) {
      sigmoid_core(io.in(0), io.out(0), numel);
    });
  }
  return out_v;
}

Variable concat_channels(const std::vector<Variable>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat of zero variables");
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor out = Tensor::concat(values, 1);
  std::vector<Variable> parents(parts.begin(), parts.end());
  Variable out_v = Variable::make_node(std::move(out), parents,
                                       [parts](const Tensor& g) {
                                         int64_t start = 0;
                                         for (const Variable& p : parts) {
                                           const int64_t len = p.value().size(1);
                                           if (p.requires_grad()) {
                                             p.state()->accumulate(
                                                 g.narrow(1, start, len));
                                           }
                                           start += len;
                                         }
                                       });
  if (GraphRecorder* rec = active_recorder()) {
    // Per sample, the channel block of each part is copied in part order —
    // exactly Tensor::concat along dim 1. Copies are bitwise.
    const int64_t n = out_v.value().size(0);
    std::vector<int64_t> per_sample;  // elements per sample, per part
    per_sample.reserve(parts.size());
    for (const Variable& p : parts) per_sample.push_back(p.value().numel() / n);
    rec->record("concat", parts, {out_v},
                [n, per_sample](const ReplayIO& io) {
                  float* o = io.out(0);
                  for (int64_t b = 0; b < n; ++b) {
                    for (size_t p = 0; p < per_sample.size(); ++p) {
                      const int64_t len = per_sample[p];
                      const float* src = io.in(static_cast<int>(p)) + b * len;
                      for (int64_t i = 0; i < len; ++i) o[i] = src[i];
                      o += len;
                    }
                  }
                });
  }
  return out_v;
}

Variable narrow_channels(const Variable& x, int64_t start, int64_t len) {
  Tensor out = x.value().narrow(1, start, len);
  return Variable::make_node(
      std::move(out), {x}, [x, start, len](const Tensor& g) {
        Tensor gx = Tensor::zeros(x.value().shape());
        const int64_t n = gx.size(0), c = gx.size(1);
        const int64_t plane = gx.numel() / (n * c);
        for (int64_t b = 0; b < n; ++b) {
          for (int64_t ch = 0; ch < len; ++ch) {
            const float* src = g.data() + (b * len + ch) * plane;
            float* dst = gx.data() + (b * c + start + ch) * plane;
            for (int64_t i = 0; i < plane; ++i) dst[i] = src[i];
          }
        }
        x.state()->accumulate(gx);
      });
}

Variable sum(const Variable& x) {
  Tensor out({1}, x.value().sum());
  return Variable::make_node(std::move(out), {x}, [x](const Tensor& g) {
    x.state()->accumulate(Tensor::full(x.value().shape(), g[0]));
  });
}

Variable mean(const Variable& x) {
  const float inv_n = 1.f / static_cast<float>(x.value().numel());
  Tensor out({1}, x.value().mean());
  return Variable::make_node(std::move(out), {x}, [x, inv_n](const Tensor& g) {
    x.state()->accumulate(Tensor::full(x.value().shape(), g[0] * inv_n));
  });
}

Variable mse_loss(const Variable& pred, const Tensor& target) {
  if (!pred.value().same_shape(target)) {
    throw std::invalid_argument("mse_loss shape mismatch");
  }
  const int64_t n = pred.value().numel();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - target[i];
    acc += d * d;
  }
  Tensor out({1}, static_cast<float>(acc / static_cast<double>(n)));
  return Variable::make_node(
      std::move(out), {pred}, [pred, target, n](const Tensor& g) {
        Tensor gx(pred.value().shape());
        const float c = 2.f * g[0] / static_cast<float>(n);
        for (int64_t i = 0; i < n; ++i) {
          gx[i] = c * (pred.value()[i] - target[i]);
        }
        pred.state()->accumulate(gx);
      });
}

void im2col(const float* x, int64_t c, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t padding, float* col) {
  const int64_t oh = conv_out_size(h, k, stride, padding);
  const int64_t ow = conv_out_size(w, k, stride, padding);
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

void col2im(const float* col, int64_t c, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t padding, float* x) {
  const int64_t oh = conv_out_size(h, k, stride, padding);
  const int64_t ow = conv_out_size(w, k, stride, padding);
  const int64_t l = oh * ow;
  // Rows of `col` belonging to channel ch scatter only into channel ch of
  // x, so channels partition into disjoint write sets: parallel and bitwise
  // deterministic (the per-channel scatter order is unchanged).
  runtime::parallel_for(c, [&](int64_t c0, int64_t c1) {
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

Variable conv2d(const Variable& x, const Variable& w, const Variable& b,
                int64_t stride, int64_t padding) {
  const ConvDims d = conv_dims(x, w, stride, padding, /*transposed=*/false);
  const bool has_bias = b.defined();
  if (has_bias && (b.value().dim() != 1 || b.value().size(0) != d.cout)) {
    throw std::invalid_argument("conv2d bias shape mismatch");
  }
  const int64_t ckk = d.cin * d.kh * d.kw;
  const int64_t l = d.oh * d.ow;
  Tensor out({d.n, d.cout, d.oh, d.ow});
  {
    // Implicit im2col: the weights (Cout x CKK) are packed once and shared
    // by every task; B panels are gathered straight from the padded input,
    // so the full CKK x L column matrix never exists. Tasks are (sample,
    // column block) pairs — disjoint output tiles, deterministic for any
    // thread count. Bias is fused into the micro-kernel epilogue.
    const PackedA wp(GemmLayout::kNN, w.value().data(), d.cout, ckk);
    const int64_t blocks = gemm_col_blocks(l);
    const bool pointwise =
        d.kh == 1 && d.kw == 1 && stride == 1 && padding == 0;
    GemmEpilogue ep;
    ep.bias = has_bias ? b.value().data() : nullptr;
    runtime::parallel_for(d.n * blocks, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const int64_t s = t / blocks;
        const int64_t blk = t % blocks;
        const float* xs = x.value().data() + s * d.cin * d.h * d.w;
        float* cs = out.data() + s * d.cout * l;
        if (pointwise) {
          // 1x1 stride-1 fast path: B is the sample itself (Cin x HW).
          const StridedBPacker bp(xs, l, /*transposed=*/false);
          gemm_col_block(wp, bp, l, blk, cs, ep);
        } else {
          const Im2colPacker bp(xs, d.h, d.w, d.kh, stride, padding, d.ow);
          gemm_col_block(wp, bp, l, blk, cs, ep);
        }
      }
    });
  }

  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(b);
  return Variable::make_node(
      std::move(out), std::move(parents),
      [x, w, b, has_bias, d, stride, padding, ckk, l](const Tensor& g) {
        const bool need_x = x.requires_grad();
        const bool need_w = w.requires_grad();
        if (need_w) {
          // gw (Cout x CKK) = sum_s gout_s (Cout x L) · im2col(x_s)ᵀ — the
          // ABᵀ shape, with Bᵀ panels gathered straight from x. Parallel
          // over gw column blocks: each task owns a disjoint gw slice and
          // walks samples serially, so the accumulation order never
          // depends on the schedule. (Unlike the forward pass, this order
          // — one running sum across samples and K steps — differs from
          // the seed's per-sample-temporary formulation, so weight
          // gradients are deterministic but not bit-for-bit the seed's.)
          Tensor gw = Tensor::zeros(w.value().shape());
          const int64_t blocks = gemm_col_blocks(ckk);
          GemmEpilogue acc;
          acc.accumulate = true;
          runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
            for (int64_t blk = b0; blk < b1; ++blk) {
              for (int64_t s = 0; s < d.n; ++s) {
                const Im2colTPacker bp(x.value().data() + s * d.cin * d.h * d.w,
                                       d.h, d.w, d.kh, stride, padding, d.ow);
                gemm_col_block(GemmLayout::kNN, g.data() + s * d.cout * l,
                               d.cout, l, bp, ckk, blk, gw.data(), acc);
              }
            }
          });
          w.state()->accumulate(gw);
        }
        if (need_x) {
          // gcol (CKK x L) = wᵀ · gout_s (TN through the packed engine,
          // into one pooled scratch buffer), then col2im scatters into gx.
          Tensor gx = Tensor::zeros(x.value().shape());
          const PackedA wt(GemmLayout::kTN, w.value().data(), ckk, d.cout);
          const int64_t blocks = gemm_col_blocks(l);
          runtime::FloatWorkspace gcol(static_cast<size_t>(ckk * l));
          for (int64_t s = 0; s < d.n; ++s) {
            const StridedBPacker bp(g.data() + s * d.cout * l, l, false);
            runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
              for (int64_t blk = b0; blk < b1; ++blk) {
                gemm_col_block(wt, bp, l, blk, gcol.data(), GemmEpilogue{});
              }
            });
            col2im(gcol.data(), d.cin, d.h, d.w, d.kh, stride, padding,
                   gx.data() + s * d.cin * d.h * d.w);
          }
          x.state()->accumulate(gx);
        }
        if (has_bias && b.requires_grad()) {
          Tensor gb = Tensor::zeros({d.cout});
          for (int64_t n = 0; n < d.n; ++n) {
            for (int64_t c = 0; c < d.cout; ++c) {
              const float* p = g.data() + (n * d.cout + c) * l;
              double acc = 0.0;
              for (int64_t i = 0; i < l; ++i) acc += p[i];
              gb[c] += static_cast<float>(acc);
            }
          }
          b.state()->accumulate(gb);
        }
      });
}

Variable conv2d_prepacked(const Variable& x, const Variable& w,
                          const std::shared_ptr<const PackedWeight>& wp,
                          const Variable& b, int64_t stride, int64_t padding) {
  const ConvDims d = conv_dims(x, w, stride, padding, /*transposed=*/false);
  const bool has_bias = b.defined();
  if (has_bias && (b.value().dim() != 1 || b.value().size(0) != d.cout)) {
    throw std::invalid_argument("conv2d bias shape mismatch");
  }
  const int64_t ckk = d.cin * d.kh * d.kw;
  if (wp == nullptr || wp->m() != d.cout || wp->k() != ckk) {
    throw std::invalid_argument("conv2d prepacked weight shape mismatch");
  }
  Tensor out({d.n, d.cout, d.oh, d.ow});
  conv2d_prepacked_run(d, *wp, x.value().data(),
                       has_bias ? b.value().data() : nullptr, stride, padding,
                       /*tuning=*/nullptr, /*scratch=*/nullptr, out.data());
  Variable out_v(std::move(out));
  if (GraphRecorder* rec = active_recorder()) {
    auto tuning = std::make_shared<NodeTuning>();
    if (wp->precision() == Precision::kInt8) {
      // The quantized, zero-point-bordered input planes (bytes).
      tuning->scratch_floats =
          (d.n * d.cin * (d.h + 2 * padding) * (d.w + 2 * padding) + 3) / 4;
    }
    Tensor bias_t = has_bias ? b.value() : Tensor();
    std::shared_ptr<const PackedWeight> pack = wp;
    CaptureNode& node = rec->record(
        "conv2d", {x}, {out_v},
        [d, pack, bias_t, stride, padding, tuning](const ReplayIO& io) {
          conv2d_prepacked_run(d, *pack, io.in(0),
                               bias_t.numel() > 0 ? bias_t.data() : nullptr,
                               stride, padding, tuning.get(), io.scratch,
                               io.out(0));
        });
    node.tuning = tuning;
    node.conv.valid = true;
    node.conv.transposed = false;
    node.conv.m = d.cout;
    node.conv.k = ckk;
    node.conv.l = d.oh * d.ow;
    node.conv.batch = d.n;
    node.conv.prec = wp->precision();
  }
  return out_v;
}

Variable conv_transpose2d_prepacked(
    const Variable& x, const Variable& w,
    const std::shared_ptr<const PackedWeight>& wp, const Variable& b,
    int64_t stride, int64_t padding) {
  const ConvDims d = conv_dims(x, w, stride, padding, /*transposed=*/true);
  const bool has_bias = b.defined();
  if (has_bias && (b.value().dim() != 1 || b.value().size(0) != d.cout)) {
    throw std::invalid_argument("conv_transpose2d bias shape mismatch");
  }
  const int64_t ckk = d.cout * d.kh * d.kw;
  if (wp == nullptr || wp->m() != ckk || wp->k() != d.cin) {
    throw std::invalid_argument(
        "conv_transpose2d prepacked weight shape mismatch");
  }
  Tensor out({d.n, d.cout, d.oh, d.ow});
  conv_transpose2d_prepacked_run(d, *wp, x.value().data(),
                                 has_bias ? b.value().data() : nullptr, stride,
                                 padding, /*scratch=*/nullptr, out.data());
  Variable out_v(std::move(out));
  if (GraphRecorder* rec = active_recorder()) {
    auto tuning = std::make_shared<NodeTuning>();
    if (wp->precision() == Precision::kInt8) {
      // Every sample's quantized input (bytes).
      tuning->scratch_floats = (d.n * d.cin * d.h * d.w + 3) / 4;
    }
    Tensor bias_t = has_bias ? b.value() : Tensor();
    std::shared_ptr<const PackedWeight> pack = wp;
    CaptureNode& node = rec->record(
        "conv_transpose2d", {x}, {out_v},
        [d, pack, bias_t, stride, padding](const ReplayIO& io) {
          conv_transpose2d_prepacked_run(
              d, *pack, io.in(0),
              bias_t.numel() > 0 ? bias_t.data() : nullptr, stride, padding,
              io.scratch, io.out(0));
        });
    node.tuning = tuning;
    node.conv.valid = true;
    node.conv.transposed = true;
    node.conv.m = ckk;
    node.conv.k = d.cin;
    node.conv.l = d.h * d.w;
    node.conv.batch = d.n;
    node.conv.prec = wp->precision();
  }
  return out_v;
}

Variable conv_transpose2d(const Variable& x, const Variable& w,
                          const Variable& b, int64_t stride, int64_t padding) {
  const ConvDims d = conv_dims(x, w, stride, padding, /*transposed=*/true);
  const bool has_bias = b.defined();
  if (has_bias && (b.value().dim() != 1 || b.value().size(0) != d.cout)) {
    throw std::invalid_argument("conv_transpose2d bias shape mismatch");
  }
  // Forward of conv-transpose == input-gradient of a conv whose input is the
  // output here: columns = W^T(CoutKK x Cin) * x_flat(Cin x hw), scattered by
  // col2im into the (oh, ow) output plane.
  const int64_t ckk = d.cout * d.kh * d.kw;
  const int64_t l = d.h * d.w;  // input spatial size acts as column count
  Tensor out({d.n, d.cout, d.oh, d.ow});
  {
    // col (CoutKK x hw) = wᵀ · x_s through the packed engine (one pooled
    // scratch buffer, GEMM parallel over column blocks), then col2im
    // scatters — itself parallel over the disjoint output channels.
    const PackedA wt(GemmLayout::kTN, w.value().data(), ckk, d.cin);
    const int64_t blocks = gemm_col_blocks(l);
    const int64_t plane = d.oh * d.ow;
    runtime::FloatWorkspace col(static_cast<size_t>(ckk * l));
    for (int64_t s = 0; s < d.n; ++s) {
      const StridedBPacker bp(x.value().data() + s * d.cin * l, l, false);
      runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
        for (int64_t blk = b0; blk < b1; ++blk) {
          gemm_col_block(wt, bp, l, blk, col.data(), GemmEpilogue{});
        }
      });
      col2im(col.data(), d.cout, d.oh, d.ow, d.kh, stride, padding,
             out.data() + s * d.cout * plane);
      if (has_bias) {
        for (int64_t c = 0; c < d.cout; ++c) {
          float* p = out.data() + (s * d.cout + c) * plane;
          const float bias = b.value()[c];
          for (int64_t i = 0; i < plane; ++i) p[i] += bias;
        }
      }
    }
  }

  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(b);
  return Variable::make_node(
      std::move(out), std::move(parents),
      [x, w, b, has_bias, d, stride, padding, ckk, l](const Tensor& g) {
        const bool need_x = x.requires_grad();
        const bool need_w = w.requires_grad();
        // Backward mirrors conv2d forward: the logical column matrix is
        // im2col(gout), supplied implicitly by the conv packers — it is
        // never materialized.
        if (need_x) {
          // gx (Cin x hw) = w (Cin x CoutKK) · im2col(gout_s); tasks are
          // (sample, column block) pairs writing disjoint gx tiles.
          Tensor gx = Tensor::zeros(x.value().shape());
          const PackedA wp(GemmLayout::kNN, w.value().data(), d.cin, ckk);
          const int64_t blocks = gemm_col_blocks(l);
          runtime::parallel_for(d.n * blocks, [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
              const int64_t s = t / blocks;
              const int64_t blk = t % blocks;
              const Im2colPacker bp(g.data() + s * d.cout * d.oh * d.ow, d.oh,
                                    d.ow, d.kh, stride, padding, d.w);
              gemm_col_block(wp, bp, l, blk, gx.data() + s * d.cin * l,
                             GemmEpilogue{});
            }
          });
          x.state()->accumulate(gx);
        }
        if (need_w) {
          // gw (Cin x CoutKK) = sum_s x_s (Cin x hw) · im2col(gout_s)ᵀ;
          // parallel over gw column blocks, samples walked serially.
          Tensor gw = Tensor::zeros(w.value().shape());
          const int64_t blocks = gemm_col_blocks(ckk);
          GemmEpilogue acc;
          acc.accumulate = true;
          runtime::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
            for (int64_t blk = b0; blk < b1; ++blk) {
              for (int64_t s = 0; s < d.n; ++s) {
                const Im2colTPacker bp(g.data() + s * d.cout * d.oh * d.ow,
                                       d.oh, d.ow, d.kh, stride, padding, d.w);
                gemm_col_block(GemmLayout::kNN, x.value().data() + s * d.cin * l,
                               d.cin, l, bp, ckk, blk, gw.data(), acc);
              }
            }
          });
          w.state()->accumulate(gw);
        }
        if (has_bias && b.requires_grad()) {
          Tensor gb = Tensor::zeros({d.cout});
          const int64_t plane = d.oh * d.ow;
          for (int64_t n = 0; n < d.n; ++n) {
            for (int64_t c = 0; c < d.cout; ++c) {
              const float* p = g.data() + (n * d.cout + c) * plane;
              double acc = 0.0;
              for (int64_t i = 0; i < plane; ++i) acc += p[i];
              gb[c] += static_cast<float>(acc);
            }
          }
          b.state()->accumulate(gb);
        }
      });
}

Variable avg_pool2d(const Variable& x, int64_t k) {
  if (x.value().dim() != 4) throw std::invalid_argument("avg_pool2d 4-D only");
  const int64_t n = x.value().size(0), c = x.value().size(1);
  const int64_t h = x.value().size(2), w = x.value().size(3);
  if (h % k != 0 || w % k != 0) {
    throw std::invalid_argument("avg_pool2d requires extents divisible by k");
  }
  const int64_t oh = h / k, ow = w / k;
  Tensor out({n, c, oh, ow});
  const float inv = 1.f / static_cast<float>(k * k);
  avg_pool_core(x.value().data(), out.data(), n * c, h, w, k);
  Variable out_v = Variable::make_node(
      std::move(out), {x}, [x, n, c, h, w, k, oh, ow, inv](const Tensor& g) {
        Tensor gx({n, c, h, w});
        for (int64_t nc = 0; nc < n * c; ++nc) {
          const float* src = g.data() + nc * oh * ow;
          float* dst = gx.data() + nc * h * w;
          for (int64_t oy = 0; oy < oh; ++oy) {
            for (int64_t ox = 0; ox < ow; ++ox) {
              const float v = src[oy * ow + ox] * inv;
              for (int64_t ky = 0; ky < k; ++ky) {
                float* row = dst + (oy * k + ky) * w + ox * k;
                for (int64_t kx = 0; kx < k; ++kx) row[kx] += v;
              }
            }
          }
        }
        x.state()->accumulate(gx);
      });
  if (GraphRecorder* rec = active_recorder()) {
    const int64_t planes = n * c;
    rec->record("avg_pool", {x}, {out_v},
                [planes, h, w, k](const ReplayIO& io) {
                  avg_pool_core(io.in(0), io.out(0), planes, h, w, k);
                });
  }
  return out_v;
}

Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta, Tensor& running_mean,
                      Tensor& running_var, bool training, float momentum,
                      float eps) {
  if (x.value().dim() != 4) throw std::invalid_argument("batch_norm2d 4-D only");
  const int64_t n = x.value().size(0), c = x.value().size(1);
  const int64_t plane = x.value().size(2) * x.value().size(3);
  const int64_t m = n * plane;  // elements per channel

  if (!training && !GradMode::is_enabled()) {
    // No-grad eval fast path: normalize with frozen running statistics in a
    // single kBnAffine pass — the xhat buffer only the backward needs is
    // never materialized. The stage mirrors the general eval path's
    // statements exactly, so both produce identical bits.
    Tensor mu = running_mean.clone();
    Tensor inv_std({c});
    for (int64_t ch = 0; ch < c; ++ch) {
      inv_std[ch] = 1.f / std::sqrt(running_var[ch] + eps);
    }
    const EpiloguePostStage st{EpiloguePostStage::Kind::kBnAffine, 0.f,
                               mu.data(), inv_std.data(),
                               gamma.value().data(), beta.value().data()};
    Tensor out(x.value().shape());
    stage_core(st, x.value().data(), out.data(), n, c, plane);
    Variable out_v(std::move(out));
    record_stage("bn_eval", x, out_v, st,
                 {mu, inv_std, gamma.value(), beta.value()}, n, c, plane);
    return out_v;
  }

  Tensor mean_t({c}), var_t({c});
  if (training) {
    for (int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0, s2 = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* p = x.value().data() + (b * c + ch) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          s += p[i];
          s2 += static_cast<double>(p[i]) * p[i];
        }
      }
      const double mu = s / m;
      mean_t[ch] = static_cast<float>(mu);
      var_t[ch] = static_cast<float>(s2 / m - mu * mu);
    }
    for (int64_t ch = 0; ch < c; ++ch) {
      running_mean[ch] =
          (1.f - momentum) * running_mean[ch] + momentum * mean_t[ch];
      running_var[ch] =
          (1.f - momentum) * running_var[ch] + momentum * var_t[ch];
    }
  } else {
    mean_t = running_mean.clone();
    var_t = running_var.clone();
  }

  Tensor inv_std({c});
  for (int64_t ch = 0; ch < c; ++ch) {
    inv_std[ch] = 1.f / std::sqrt(var_t[ch] + eps);
  }
  Tensor xhat(x.value().shape());
  Tensor out(x.value().shape());
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* p = x.value().data() + (b * c + ch) * plane;
      float* xh = xhat.data() + (b * c + ch) * plane;
      float* o = out.data() + (b * c + ch) * plane;
      const float mu = mean_t[ch], is = inv_std[ch];
      const float ga = gamma.value()[ch], be = beta.value()[ch];
      for (int64_t i = 0; i < plane; ++i) {
        xh[i] = (p[i] - mu) * is;
        o[i] = ga * xh[i] + be;
      }
    }
  }

  return Variable::make_node(
      std::move(out), {x, gamma, beta},
      [x, gamma, beta, xhat, inv_std, training, n, c, plane,
       m](const Tensor& g) {
        // Per-channel reductions of the cotangent.
        Tensor sum_g({c}), sum_gx({c});
        for (int64_t ch = 0; ch < c; ++ch) {
          double sg = 0.0, sgx = 0.0;
          for (int64_t b = 0; b < n; ++b) {
            const float* gp = g.data() + (b * c + ch) * plane;
            const float* xh = xhat.data() + (b * c + ch) * plane;
            for (int64_t i = 0; i < plane; ++i) {
              sg += gp[i];
              sgx += static_cast<double>(gp[i]) * xh[i];
            }
          }
          sum_g[ch] = static_cast<float>(sg);
          sum_gx[ch] = static_cast<float>(sgx);
        }
        if (gamma.requires_grad()) gamma.state()->accumulate(sum_gx);
        if (beta.requires_grad()) beta.state()->accumulate(sum_g);
        if (x.requires_grad()) {
          Tensor gx(x.value().shape());
          const float inv_m = 1.f / static_cast<float>(m);
          for (int64_t b = 0; b < n; ++b) {
            for (int64_t ch = 0; ch < c; ++ch) {
              const float* gp = g.data() + (b * c + ch) * plane;
              const float* xh = xhat.data() + (b * c + ch) * plane;
              float* gxp = gx.data() + (b * c + ch) * plane;
              const float k = gamma.value()[ch] * inv_std[ch];
              if (training) {
                const float mg = sum_g[ch] * inv_m;
                const float mgx = sum_gx[ch] * inv_m;
                for (int64_t i = 0; i < plane; ++i) {
                  gxp[i] = k * (gp[i] - mg - xh[i] * mgx);
                }
              } else {
                for (int64_t i = 0; i < plane; ++i) gxp[i] = k * gp[i];
              }
            }
          }
          x.state()->accumulate(gx);
        }
      });
}

}  // namespace litho::ag
