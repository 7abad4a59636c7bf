// Tests for load-time weight prepacking and the int8 inference path
// (tensor/prepack.h): fp32 prepacked panels must be bitwise identical
// to the per-call packing path, both precision modes must keep the engine's
// cross-thread-count bitwise-determinism contract, the int8 kernels (plane
// quantizer, quad gather, micro-kernels) of every runnable tier must agree
// with the baseline tier, the int8 convs must reproduce a naive quantized
// reference bit for bit, and int8
// inference on a trained checkpoint must stay within a contour-accuracy
// bound of fp32. An int8 engine packs every conv int8 in every
// configuration, so autotune (kernel knobs only) never changes its bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/doinn.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "runtime/engine.h"
#include "runtime/graph_exec.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/prepack.h"
#include "test_util.h"

namespace litho {
namespace {

core::DoinnConfig tiny_config() {
  core::DoinnConfig cfg = core::DoinnConfig::small();
  cfg.tile = 64;
  cfg.modes = 4;
  cfg.gp_channels = 4;
  return cfg;
}

Tensor random_mask(int64_t side, uint32_t seed) {
  auto rng = test::rng(seed);
  Tensor mask = Tensor::rand({side, side}, rng);
  mask.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
  return mask;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// -- Precision flag -----------------------------------------------------------

TEST(Precision, FlagRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("int8"), Precision::kInt8);
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(precision_name(Precision::kInt8), "int8");
  EXPECT_THROW(parse_precision("fp16"), std::invalid_argument);
  EXPECT_THROW(parse_precision("bf16"), std::invalid_argument);
}

// -- PackedWeight layouts -----------------------------------------------------

TEST(PackedWeight, Fp32PanelsBitwiseMatchPackedA) {
  auto rng = test::rng(3);
  const int64_t m = 13, k = 37;  // ragged m-tile, K not a multiple of 2
  Tensor a = Tensor::randn({m, k}, rng);
  for (GemmLayout layout : {GemmLayout::kNN, GemmLayout::kTN}) {
    // kTN consumes a as aᵀ: logical extents swap.
    const int64_t lm = layout == GemmLayout::kNN ? m : k;
    const int64_t lk = layout == GemmLayout::kNN ? k : m;
    PackedA per_call(layout, a.data(), lm, lk);
    PackedWeight load_time(layout, a.data(), lm, lk, Precision::kFp32);
    const int64_t tiles = (lm + kGemmMR - 1) / kGemmMR;
    EXPECT_EQ(std::memcmp(per_call.view().buf, load_time.fp32_view().buf,
                          sizeof(float) * tiles * kGemmMR * lk),
              0);
  }
}

TEST(PackedWeight, Int8RowScalesAndPanelsMatchReference) {
  auto rng = test::rng(7);
  const int64_t m = 6, k = 9;  // ragged tile, K % 4 == 1 (zero-padded quad)
  Tensor a = Tensor::randn({m, k}, rng);
  PackedWeight pw(GemmLayout::kNN, a.data(), m, k, Precision::kInt8);
  ASSERT_EQ(pw.k_quads(), 3);
  for (int64_t i = 0; i < m; ++i) {
    float mx = 0.f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::abs(a[i * k + kk]));
    }
    EXPECT_EQ(pw.row_scales()[i], mx / 127.f) << "row " << i;
    const float inv = mx > 0.f ? 127.f / mx : 0.f;
    const int8_t* panel = pw.i8_panel(i / kGemmMR);
    const int64_t r = i % kGemmMR;
    int32_t sum = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const auto q = static_cast<int8_t>(std::lrintf(a[i * k + kk] * inv));
      EXPECT_EQ(panel[(kk / 4) * kGemmMR * 4 + r * 4 + (kk % 4)], q)
          << "row " << i << " k " << kk;
      sum += q;
    }
    // The recorded row sum (which cancels the +128 activation shift) must
    // total exactly the quantized bytes.
    EXPECT_EQ(pw.row_sums()[i], sum) << "row " << i;
    // K % 4 == 1: the last three slots of the final quad are zero padding.
    for (int64_t pad = k % 4; pad < 4; ++pad) {
      EXPECT_EQ(panel[(k / 4) * kGemmMR * 4 + r * 4 + pad], 0);
    }
  }
}

// -- Activation scale ---------------------------------------------------------

// The scalar loop max_abs replaced: NaNs fail the compare and are skipped.
float max_abs_reference(const float* v, int64_t n) {
  float m = 0.f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(v[i]);
    if (a > m) m = a;
  }
  return m;
}

TEST(QuantKernels, MaxAbsMatchesScalarDefinition) {
  const float specials[] = {0.f,
                            -0.f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            -3e-39f,
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::max(),
                            -2.5f,
                            1.f};
  const int64_t nspecial = static_cast<int64_t>(std::size(specials));
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> pick(0, 3 * static_cast<int>(nspecial));
  std::normal_distribution<float> normal(0.f, 2.f);
  std::vector<float> buf(80);
  for (int trial = 0; trial < 40; ++trial) {
    // Trial 0 is all zeros of both signs, trial 1 all NaN; the rest mix
    // specials into normal values at random positions.
    for (size_t i = 0; i < buf.size(); ++i) {
      const int r = pick(rng);
      if (trial == 0) {
        buf[i] = i % 2 == 0 ? 0.f : -0.f;
      } else if (trial == 1) {
        buf[i] = std::numeric_limits<float>::quiet_NaN();
      } else {
        buf[i] = r < nspecial ? specials[r] : normal(rng);
      }
    }
    for (int64_t start = 0; start < 4; ++start) {
      for (int64_t n = 0; n <= 67; ++n) {
        const float want = max_abs_reference(buf.data() + start, n);
        const float got = max_abs(buf.data() + start, n);
        ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0)
            << "trial " << trial << " start " << start << " n " << n
            << ": " << got << " vs " << want;
        for (const detail::KernelTable* tier : detail::runnable_tiers()) {
          const float t = tier->max_abs(buf.data() + start, n);
          ASSERT_EQ(std::memcmp(&want, &t, sizeof want), 0)
              << tier->name << " trial " << trial << " start " << start
              << " n " << n;
        }
      }
    }
  }
}

// -- Kernel dispatch parity (every runnable tier vs baseline) ---------------

// The plane quantizer's definition: clamp, round to nearest-even, shift.
uint8_t quant_reference(float v, float inv) {
  float x = v * inv;
  x = x > -127.f ? x : -127.f;
  x = x < 127.f ? x : 127.f;
  return static_cast<uint8_t>(std::lrintf(x) + 128);
}

TEST(QuantKernels, DispatchedI8KernelsBitwiseMatchBaseline) {
  auto rng = test::rng(11);
  const std::vector<const detail::KernelTable*> tiers =
      detail::runnable_tiers();
  const detail::KernelTable& base = *tiers.back();

  // Plane quantizer: every length 0..70 (vector bodies plus scalar tails)
  // from unaligned starts, over normal values, exact rounding ties and the
  // values the clamp pins (NaN, infinities, out-of-range magnitudes).
  {
    const float inv = 2.f;  // exact, so the ties below stay ties
    std::vector<float> src(80);
    std::normal_distribution<float> normal(0.f, 30.f);
    for (size_t i = 0; i < src.size(); ++i) src[i] = normal(rng);
    src[3] = 0.25f;    // rounding tie: 0.5 -> 0
    src[9] = 1.25f;    // 2.5 -> 2
    src[17] = -0.75f;  // -1.5 -> -2
    src[21] = 63.5f;   // exactly the maximum magnitude
    src[33] = -63.5f;
    src[40] = std::numeric_limits<float>::quiet_NaN();
    src[47] = std::numeric_limits<float>::infinity();
    src[52] = -std::numeric_limits<float>::infinity();
    src[60] = 1e9f;
    src[61] = -0.f;
    for (int64_t start = 0; start < 3; ++start) {
      for (int64_t n = 0; n <= 70 && start + n <= 80; ++n) {
        std::vector<uint8_t> want(static_cast<size_t>(n) + 1, 7);
        for (int64_t i = 0; i < n; ++i) {
          want[static_cast<size_t>(i)] =
              quant_reference(src[static_cast<size_t>(start + i)], inv);
        }
        for (const detail::KernelTable* tier : tiers) {
          std::vector<uint8_t> got(static_cast<size_t>(n) + 1, 7);
          tier->i8_quant(src.data() + start, n, inv, got.data());
          ASSERT_EQ(got, want) << tier->name << " start " << start << " n "
                               << n;  // the sentinel byte stays untouched
        }
      }
    }
  }

  // Quad gather: random source bytes, random row offsets, K tails of every
  // residue mod 4, column strides 1-3 and every column count 1..NR; the
  // tiers must fill all ceil(klen/4) * 32 bytes exactly as the definition.
  std::vector<uint8_t> plane(4096);
  std::uniform_int_distribution<int> byte(0, 255);
  for (uint8_t& v : plane) v = static_cast<uint8_t>(byte(rng));
  std::uniform_int_distribution<int64_t> offset(0, 4096 - 3 * kGemmNR);
  std::vector<Im2colStep> rows(40);
  for (Im2colStep& r : rows) r = {offset(rng)};
  for (int64_t klen : {1, 2, 3, 4, 5, 7, 21, 38, 40}) {
    const int64_t kquads = (klen + 3) / 4;
    for (int64_t cstride = 1; cstride <= 3; ++cstride) {
      for (int64_t ncols = 1; ncols <= kGemmNR; ++ncols) {
        std::vector<uint8_t> want(static_cast<size_t>(kquads * 32));
        for (int64_t kk = 0; kk < kquads * 4; ++kk) {
          for (int64_t j = 0; j < kGemmNR; ++j) {
            want[static_cast<size_t>((kk / 4) * 32 + j * 4 + kk % 4)] =
                kk < klen && j < ncols
                    ? plane[static_cast<size_t>(
                          rows[static_cast<size_t>(kk)].off + j * cstride)]
                    : 128;
          }
        }
        for (const detail::KernelTable* tier : tiers) {
          std::vector<uint8_t> got(static_cast<size_t>(kquads * 32), 7);
          tier->i8_gather(plane.data(), rows.data(), klen, cstride, ncols,
                          got.data());
          ASSERT_EQ(got, want) << tier->name << " klen " << klen
                               << " cstride " << cstride << " ncols "
                               << ncols;
        }
      }
    }
  }

  // The micro-kernels over a gathered B tile (K % 4 == 1: the padded final
  // quad holds the zero-point).
  const int64_t klen = 21;
  const int64_t kquads = (klen + 3) / 4;
  Tensor af = Tensor::randn({kGemmMR, klen}, rng);
  PackedWeight pw(GemmLayout::kNN, af.data(), kGemmMR, klen, Precision::kInt8);
  std::vector<uint8_t> qb_base(kquads * 32);
  base.i8_gather(plane.data(), rows.data(), klen, 1, kGemmNR, qb_base.data());
  EXPECT_EQ(qb_base[(klen / 4) * 32 + 0 * 4 + klen % 4], 128);

  // The kernels accumulate exact int32 partial sums on top of whatever the
  // caller parked — seed a nonzero park to exercise that contract.
  std::vector<int32_t> acc_seed(kGemmMR * kGemmNR);
  for (size_t i = 0; i < acc_seed.size(); ++i) {
    acc_seed[i] = static_cast<int32_t>(i) * 11 - 40;
  }
  std::vector<int32_t> acc_base = acc_seed;
  base.i8(kquads, pw.i8_panel(0), qb_base.data(), acc_base.data(), kGemmNR);
  EXPECT_NE(std::memcmp(acc_base.data(), acc_seed.data(),
                        sizeof(int32_t) * acc_base.size()),
            0);  // the kernel actually accumulated something

  // Paired-kernel reference: two baseline single-tile calls (second B panel
  // packed back to back at bp + kquads*32; here both tiles reuse qb_base).
  std::vector<uint8_t> qb2(2 * kquads * 32);
  std::copy(qb_base.begin(), qb_base.end(), qb2.begin());
  std::copy(qb_base.begin(), qb_base.end(), qb2.begin() + kquads * 32);
  std::vector<int32_t> acc_two(kGemmMR * 2 * kGemmNR, 5);
  base.i8(kquads, pw.i8_panel(0), qb2.data(), acc_two.data(), 2 * kGemmNR);
  base.i8(kquads, pw.i8_panel(0), qb2.data() + kquads * 32,
          acc_two.data() + kGemmNR, 2 * kGemmNR);

  for (const detail::KernelTable* tier : tiers) {
    SCOPED_TRACE(tier->name);
    std::vector<int32_t> acc = acc_seed;
    tier->i8(kquads, pw.i8_panel(0), qb_base.data(), acc.data(), kGemmNR);
    EXPECT_EQ(std::memcmp(acc_base.data(), acc.data(),
                          sizeof(int32_t) * acc_base.size()),
              0);

    // Paired kernel == two single-tile calls, bit for bit.
    std::vector<int32_t> acc_pair(kGemmMR * 2 * kGemmNR, 5);
    tier->i8x2(kquads, pw.i8_panel(0), qb2.data(), acc_pair.data());
    EXPECT_EQ(std::memcmp(acc_pair.data(), acc_two.data(),
                          sizeof(int32_t) * acc_pair.size()),
              0);
  }
}

// -- Column-block GEMM entry points -------------------------------------------

TEST(QuantGemm, Int8ColBlockMatchesScalarReference) {
  auto rng = test::rng(17);
  const int64_t m = 11, k = 21, n = 13;  // ragged everywhere, odd K
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor bias = Tensor::randn({m}, rng);
  PackedWeight pw(GemmLayout::kNN, a.data(), m, k, Precision::kInt8);

  const float bmax = max_abs(b.data(), k * n);
  const float inv_b = 127.f / bmax;
  std::vector<uint8_t> bq(static_cast<size_t>(k * n));
  detail::kernels().i8_quant(b.data(), k * n, inv_b, bq.data());
  std::vector<float> combined(m);
  for (int64_t i = 0; i < m; ++i) {
    combined[i] = pw.row_scales()[i] * (bmax / 127.f);
  }
  Tensor c({m, n});
  ASSERT_EQ(gemm_col_blocks(n), 1);
  gemm_col_block_i8(pw, I8Source::dense(bq.data(), n), combined.data(), n,
                    /*block=*/0, c.data(), bias.data());

  // Scalar reference over independently re-quantized operands. Integer
  // accumulation is exact, so only the final fp32 dequant (one multiply,
  // one add) can differ — allow a couple of ulps for FMA contraction.
  for (int64_t i = 0; i < m; ++i) {
    float mx = 0.f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::abs(a[i * k + kk]));
    }
    const float mx_inv = mx > 0.f ? 127.f / mx : 0.f;
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const long qa = std::lrintf(a[i * k + kk] * mx_inv);
        const long qb = std::lrintf(b[kk * n + j] * inv_b);
        acc += qa * qb;
      }
      const float want = static_cast<float>(acc) * combined[i] + bias[i];
      EXPECT_NEAR(c[i * n + j], want,
                  1e-5f * std::max(1.f, std::abs(want)))
          << "element (" << i << ", " << j << ")";
    }
  }

  // The fp32-operand entry quantizes the same bytes, so it matches exactly.
  Tensor c2({m, n});
  gemm_col_block_i8(pw, StridedBPacker(b.data(), n, /*transposed=*/false),
                    inv_b, combined.data(), n, 0, c2.data(), bias.data());
  EXPECT_TRUE(bytes_equal(c, c2));
}

TEST(QuantGemm, Int8TracksFp32WithinQuantizationError) {
  auto rng = test::rng(19);
  const int64_t m = 16, k = 600, n = 300;  // two kGemmKC chunks, two blocks
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  PackedWeight pw(GemmLayout::kNN, a.data(), m, k, Precision::kInt8);
  StridedBPacker bp(b.data(), n, false);

  Tensor ref({m, n});
  PackedA pa(GemmLayout::kNN, a.data(), m, k);
  for (int64_t blk = 0; blk < gemm_col_blocks(n); ++blk) {
    gemm_col_block(pa, bp, n, blk, ref.data());
  }

  const float bmax = max_abs(b.data(), k * n);
  std::vector<float> combined(m);
  for (int64_t i = 0; i < m; ++i) {
    combined[i] = pw.row_scales()[i] * (bmax / 127.f);
  }
  Tensor c({m, n});
  for (int64_t blk = 0; blk < gemm_col_blocks(n); ++blk) {
    gemm_col_block_i8(pw, bp, 127.f / bmax, combined.data(), n, blk, c.data(),
                      nullptr);
  }
  // Rounding error per product is <= scale/2 each side; the k-sum stays
  // well under 2% of the output magnitude for randn operands at this K.
  const float mag = std::max(1.f, max_abs(ref.data(), ref.numel()));
  EXPECT_LT(test::max_abs_diff(c, ref), 0.02f * mag);
}

// -- Int8 convolutions against a naive reference -----------------------------

struct ConvCase {
  int64_t k, stride, padding;
  bool transposed;
  int64_t cin, cout;
};

// One uint8 activation: lrintf(v * inv) clamped to +-127, plus 128.
int32_t quant_act(float v, float inv) {
  const long q = std::lrintf(v * inv);
  return static_cast<int32_t>(std::min(127L, std::max(-127L, q))) + 128;
}

// Signed weight byte (i, kk) of an int8 PackedWeight.
int32_t weight_byte(const PackedWeight& pw, int64_t i, int64_t kk) {
  return pw.i8_panel(i / kGemmMR)[(kk / 4) * kGemmMR * 4 +
                                  (i % kGemmMR) * 4 + kk % 4];
}

// dequant(sum_kk qa(i, kk) * qb(kk)) as the int8 write-back computes it.
float dequant(const PackedWeight& pw, int64_t i, int64_t acc, float bscale) {
  const float s = pw.row_scales()[i] * bscale;
  return static_cast<float>(acc - 128 * pw.row_sums()[i]) * s;
}

// Explicit zero-padded im2col over quantized activations, exact int32 dots
// with the packed weight bytes, then float(acc - 128*rowsum) * scale + bias.
Tensor conv2d_int8_reference(const Tensor& x, const PackedWeight& pw,
                             const Tensor& bias, const ConvCase& cc) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t oh = ag::conv_out_size(h, cc.k, cc.stride, cc.padding);
  const int64_t ow = ag::conv_out_size(w, cc.k, cc.stride, cc.padding);
  const int64_t ckk = cin * cc.k * cc.k, l = oh * ow;
  Tensor out({n, cc.cout, oh, ow});
  std::vector<int32_t> col(static_cast<size_t>(ckk * l));
  for (int64_t s = 0; s < n; ++s) {
    const float* xs = x.data() + s * cin * h * w;
    float amax = 0.f;
    for (int64_t i = 0; i < cin * h * w; ++i) {
      amax = std::max(amax, std::fabs(xs[i]));
    }
    const float inv = amax > 0.f ? 127.f / amax : 0.f;
    for (int64_t kk = 0; kk < ckk; ++kk) {
      const int64_t c = kk / (cc.k * cc.k);
      const int64_t ki = (kk / cc.k) % cc.k, kj = kk % cc.k;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const int64_t iy = oy * cc.stride + ki - cc.padding;
          const int64_t ix = ox * cc.stride + kj - cc.padding;
          const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
          col[static_cast<size_t>(kk * l + oy * ow + ox)] =
              quant_act(in ? xs[(c * h + iy) * w + ix] : 0.f, inv);
        }
      }
    }
    for (int64_t i = 0; i < cc.cout; ++i) {
      for (int64_t j = 0; j < l; ++j) {
        int64_t acc = 0;
        for (int64_t kk = 0; kk < ckk; ++kk) {
          acc += weight_byte(pw, i, kk) * col[static_cast<size_t>(kk * l + j)];
        }
        out.data()[(s * cc.cout + i) * l + j] =
            dequant(pw, i, acc, amax / 127.f) + bias[i];
      }
    }
  }
  return out;
}

// Columns W^T x over quantized activations, dequantized without bias, then
// the col2im scatter in its (channel, ki, kj, y, x) order, then bias.
Tensor conv_transpose2d_int8_reference(const Tensor& x, const PackedWeight& pw,
                                       const Tensor& bias,
                                       const ConvCase& cc) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t oh = (h - 1) * cc.stride - 2 * cc.padding + cc.k;
  const int64_t ow = (w - 1) * cc.stride - 2 * cc.padding + cc.k;
  const int64_t l = h * w;
  Tensor out({n, cc.cout, oh, ow});
  std::fill(out.data(), out.data() + out.numel(), 0.f);
  std::vector<float> col(static_cast<size_t>(cc.cout * cc.k * cc.k * l));
  for (int64_t s = 0; s < n; ++s) {
    const float* xs = x.data() + s * cin * l;
    float amax = 0.f;
    for (int64_t i = 0; i < cin * l; ++i) amax = std::max(amax, std::fabs(xs[i]));
    const float inv = amax > 0.f ? 127.f / amax : 0.f;
    for (int64_t i = 0; i < cc.cout * cc.k * cc.k; ++i) {
      for (int64_t j = 0; j < l; ++j) {
        int64_t acc = 0;
        for (int64_t c = 0; c < cin; ++c) {
          acc += weight_byte(pw, i, c) * quant_act(xs[c * l + j], inv);
        }
        col[static_cast<size_t>(i * l + j)] = dequant(pw, i, acc, amax / 127.f);
      }
    }
    float* os = out.data() + s * cc.cout * oh * ow;
    for (int64_t co = 0; co < cc.cout; ++co) {
      for (int64_t ki = 0; ki < cc.k; ++ki) {
        for (int64_t kj = 0; kj < cc.k; ++kj) {
          const float* src = col.data() + ((co * cc.k + ki) * cc.k + kj) * l;
          for (int64_t y = 0; y < h; ++y) {
            const int64_t oy = y * cc.stride + ki - cc.padding;
            if (oy < 0 || oy >= oh) continue;
            for (int64_t xx = 0; xx < w; ++xx) {
              const int64_t ox = xx * cc.stride + kj - cc.padding;
              if (ox >= 0 && ox < ow) {
                os[(co * oh + oy) * ow + ox] += src[y * w + xx];
              }
            }
          }
        }
      }
      for (int64_t p = 0; p < oh * ow; ++p) os[co * oh * ow + p] += bias[co];
    }
  }
  return out;
}

// The DOINN conv shapes at int8 — 3x3 p1, 4x4 s2 p1, 1x1, transposed 4x4 s2
// p1, plus a 3x3 deep enough (K = 540) to take two K chunks — over widths
// whose output rows do and do not fill whole 8-column tiles, batch 1 and 3
// and 1 and 3 threads: the op walk and the executor's replay (quantized
// planes in arena scratch) must both reproduce the reference bit for bit.
TEST(QuantConv, Int8ConvsBitwiseMatchNaiveReference) {
  const ConvCase cases[] = {{3, 1, 1, false, 3, 5},  {4, 2, 1, false, 3, 5},
                            {1, 1, 0, false, 3, 5},  {4, 2, 1, true, 3, 5},
                            {3, 1, 1, false, 60, 6}};
  auto rng = test::rng(91);
  for (const ConvCase& cc : cases) {
    const Tensor wt = cc.transposed
                          ? Tensor::randn({cc.cin, cc.cout, cc.k, cc.k}, rng)
                          : Tensor::randn({cc.cout, cc.cin, cc.k, cc.k}, rng);
    const Tensor bias = Tensor::randn({cc.cout}, rng);
    const int64_t ckk = cc.cin * cc.k * cc.k, okk = cc.cout * cc.k * cc.k;
    const auto pw = std::make_shared<const PackedWeight>(
        cc.transposed ? GemmLayout::kTN : GemmLayout::kNN, wt.data(),
        cc.transposed ? okk : cc.cout, cc.transposed ? cc.cin : ckk,
        Precision::kInt8);
    const ag::Variable wv(wt), bv(bias);
    const auto conv = [&](const ag::Variable& x) {
      return cc.transposed
                 ? ag::conv_transpose2d_prepacked(x, wv, pw, bv, cc.stride,
                                                  cc.padding)
                 : ag::conv2d_prepacked(x, wv, pw, bv, cc.stride, cc.padding);
    };
    for (int64_t width : {8, 12, 16, 24, 128, 130}) {
      if (cc.cin > 3 && width > 12) continue;  // the deep case stays small
      // Transposed convs run in output row bands: heights 9 and 300 (one
      // band or several, the last one ragged) beside the square planes.
      std::vector<int64_t> heights = {width};
      if (cc.transposed) heights.insert(heights.end(), {9, 300});
      for (int64_t height : heights) {
        for (int64_t batch : {1, 3}) {
          const Tensor x = Tensor::randn({batch, cc.cin, height, width}, rng);
          const Tensor want =
              cc.transposed ? conv_transpose2d_int8_reference(x, *pw, bias, cc)
                            : conv2d_int8_reference(x, *pw, bias, cc);
          for (int threads : {1, 3}) {
            SCOPED_TRACE(::testing::Message()
                         << "k " << cc.k << " stride " << cc.stride
                         << (cc.transposed ? " transposed" : "") << " cin "
                         << cc.cin << " " << height << "x" << width
                         << " batch " << batch << " threads " << threads);
            runtime::ThreadPool pool(threads);
            runtime::ScopedPool scope(&pool);
            const Tensor walk = conv(ag::Variable(x)).value();
            EXPECT_TRUE(bytes_equal(walk, want));
            const std::shared_ptr<ag::CapturedGraph> g =
                runtime::capture_graph(
                    x, [&](const ag::Variable& v) { return conv(v); });
            runtime::GraphExecutor exec(g);
            std::unique_ptr<runtime::ExecContext> ctx = exec.acquire();
            std::copy(x.data(), x.data() + x.numel(), ctx->input(0));
            exec.run(*ctx);
            ASSERT_EQ(ctx->output_numel(0), want.numel());
            EXPECT_EQ(std::memcmp(ctx->output(0), want.data(),
                                  sizeof(float) * want.numel()),
                      0);
            exec.release(std::move(ctx));
          }
        }
      }
    }
  }
}

// -- Engine-level parity and determinism --------------------------------------

TEST(Prepack, Fp32ForwardBitwiseMatchesPerCallPath) {
  core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(29);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  const Tensor mask = random_mask(cfg.tile, 31);
  const Tensor per_call = core::predict_contour(model, mask);
  model.prepack_forward(Precision::kFp32);
  const Tensor prepacked = core::predict_contour(model, mask);
  EXPECT_EQ(test::max_abs_diff(per_call, prepacked), 0.f);
}

TEST(Prepack, EveryPrecisionBitwiseEqualAcrossThreadCountsAndBatchSplit) {
  core::DoinnConfig cfg = tiny_config();
  std::vector<Tensor> masks;
  for (uint32_t s = 40; s < 43; ++s) masks.push_back(random_mask(cfg.tile, s));
  for (Precision p : {Precision::kFp32, Precision::kInt8}) {
    runtime::EngineOptions serial_opts;
    serial_opts.num_threads = 1;
    serial_opts.precision = p;
    runtime::EngineOptions wide_opts;
    wide_opts.num_threads = 4;
    wide_opts.precision = p;
    runtime::InferenceEngine serial(cfg, /*seed=*/77, serial_opts);
    runtime::InferenceEngine wide(cfg, /*seed=*/77, wide_opts);
    const std::vector<Tensor> a = serial.predict_batch(masks);
    const std::vector<Tensor> b = wide.predict_batch(masks);
    ASSERT_EQ(a.size(), masks.size());
    for (size_t i = 0; i < masks.size(); ++i) {
      EXPECT_EQ(test::max_abs_diff(a[i], b[i]), 0.f)
          << precision_name(p) << " mask " << i;
      // Batch composition must not matter either: int8 activation scales
      // are per-sample, so a solo predict sees the same quantization.
      EXPECT_EQ(test::max_abs_diff(wide.predict(masks[i]), b[i]), 0.f)
          << precision_name(p) << " solo mask " << i;
    }
  }
}

// An int8 engine packs every conv int8 whatever else is configured: with
// autotune on or off, and in a replica over the primary's shared model.
// Autotune picks bitwise-neutral kernel knobs only, so contours (tile batch
// and every step of the compiled large path) agree byte for byte.
TEST(Prepack, Int8EnginePacksEveryConvInt8WithAutotuneOnOrOff) {
  const core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(61);
  core::Doinn model(cfg, rng);
  const std::string path = "test_precision_int8_ckpt.bin";
  core::save_doinn(path, model);
  runtime::EngineOptions tuned_opts;
  tuned_opts.num_threads = 2;
  tuned_opts.precision = Precision::kInt8;
  tuned_opts.autotune = true;
  runtime::EngineOptions untuned_opts = tuned_opts;
  untuned_opts.autotune = false;
  runtime::InferenceEngine tuned(path, tuned_opts);
  runtime::InferenceEngine untuned(path, untuned_opts);
  std::remove(path.c_str());
  runtime::InferenceEngine replica(tuned.shared_model(), tuned_opts);

  std::vector<Tensor> masks;
  for (uint32_t s = 70; s < 74; ++s) masks.push_back(random_mask(cfg.tile, s));
  Tensor example({1, 1, cfg.tile, cfg.tile});
  std::copy(masks[0].data(), masks[0].data() + masks[0].numel(),
            example.data());

  // The capture is an op walk, so its result also pins the raw logits.
  Tensor want_logits;
  for (runtime::InferenceEngine* eng : {&untuned, &tuned, &replica}) {
    const std::shared_ptr<core::Doinn> m = eng->shared_model();
    Tensor logits;
    std::shared_ptr<ag::CapturedGraph> g = runtime::capture_graph(
        {example},
        [&m](const std::vector<ag::Variable>& v) { return m->forward(v[0]); },
        &logits);
    int convs = 0;
    for (const ag::CaptureNode& node : g->nodes) {
      if (!node.conv.valid) continue;
      ++convs;
      EXPECT_EQ(node.conv.prec, Precision::kInt8)
          << node.kind << " m " << node.conv.m << " k " << node.conv.k
          << " l " << node.conv.l;
    }
    EXPECT_GT(convs, 0);
    if (eng == &untuned) want_logits = logits;
    EXPECT_TRUE(bytes_equal(want_logits, logits));
  }

  const std::vector<Tensor> ref = untuned.predict_batch(masks);
  const std::vector<Tensor> got = tuned.predict_batch(masks);
  const std::vector<Tensor> got_replica = replica.predict_batch(masks);
  ASSERT_EQ(ref.size(), masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_TRUE(bytes_equal(ref[i], got[i])) << "tile mask " << i;
    EXPECT_TRUE(bytes_equal(ref[i], got_replica[i]))
        << "replica tile mask " << i;
  }

  // Capture, validated replay, then plain replay of the large LP+IR plan.
  const Tensor large = random_mask(2 * cfg.tile, 75);
  for (int call = 0; call < 3; ++call) {
    const Tensor want = untuned.predict(large);
    EXPECT_TRUE(bytes_equal(want, tuned.predict(large)))
        << "large call " << call;
    EXPECT_TRUE(bytes_equal(want, replica.predict(large)))
        << "replica large call " << call;
  }
}

// -- Contour accuracy of int8 on a trained checkpoint -------------------------

TEST(Prepack, ReducedPrecisionContourAccuracyOnTrainedCheckpoint) {
  core::DoinnConfig cfg = tiny_config();
  // Synthetic mask-to-mask dataset: enough structure for the loss to leave
  // the all-background solution, cheap enough to train in-process.
  core::ContourDataset data;
  for (uint32_t s = 0; s < 6; ++s) {
    Tensor mask = random_mask(cfg.tile, 300 + s);
    data.masks.push_back(mask);
    data.resists.push_back(mask.clone());
  }
  auto rng = test::rng(55);
  core::Doinn model(cfg, rng);
  core::TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 2;
  tcfg.lr = 5e-3f;
  tcfg.lr_step = 4;
  core::train_model(model, data, tcfg);

  const std::string path = "test_precision_ckpt.bin";
  core::save_doinn(path, model);
  runtime::EngineOptions fp32_opts, int8_opts;
  fp32_opts.num_threads = 2;
  int8_opts = fp32_opts;
  int8_opts.precision = Precision::kInt8;
  runtime::InferenceEngine fp32(path, fp32_opts);
  runtime::InferenceEngine int8(path, int8_opts);
  std::remove(path.c_str());

  std::vector<core::SegmentationMetrics> int8_m;
  for (const Tensor& mask : data.masks) {
    const Tensor ref = fp32.predict(mask);
    ASSERT_GT(ref.sum(), 0.f);  // trained model prints something
    int8_m.push_back(core::evaluate_contours(int8.predict(mask), ref));
  }
  // The int8 engine packs every conv int8 (autotune is on here and picks
  // kernel knobs only), so this compares an all-int8 model against fp32.
  // Int8 may only move contour pixels near the print threshold: the
  // binarized outputs must stay nearly coincident with the fp32 engine's.
  EXPECT_GT(core::average(int8_m).miou, 0.85);
}

}  // namespace
}  // namespace litho
