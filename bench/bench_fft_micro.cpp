// FFT micro-benchmark: plan-cache + two-for-one real fast path vs
// the pre-PR kernels, which are reproduced verbatim below under `legacy` so
// the comparison stays honest as the library moves on. The headline number
// is batched 512x512 rfft2+irfft2 (the DOINN Fourier Unit shape); the table
// also covers the complex fft2, a Bluestein (non-power-of-two) size, and the
// adjoint kernels used by autograd. Finishes by checking the new kernels are
// bitwise identical across thread counts.
//
// Usage: bench_fft_micro [reps]
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench_util.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"

namespace legacy {
// -- Pre-PR kernels (seed src/fft/fft.cpp), kept bit-for-bit ------------------

using litho::Shape;
using litho::Tensor;
using litho::fft::CTensor;

constexpr double kPi = 3.14159265358979323846;

bool is_pow2(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

size_t next_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_pow2(std::vector<std::complex<double>>& a, bool inverse) {
  const size_t n = a.size();
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * kPi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t j = 0; j < len / 2; ++j) {
        const std::complex<double> u = a[i + j];
        const std::complex<double> v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void fft_bluestein(std::vector<std::complex<double>>& a, bool inverse) {
  const size_t n = a.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<std::complex<double>> chirp(n);
  for (size_t k = 0; k < n; ++k) {
    const double e = kPi * static_cast<double>((k * k) % (2 * n)) /
                     static_cast<double>(n);
    chirp[k] = std::complex<double>(std::cos(e), sign * std::sin(e));
  }
  const size_t m = next_pow2(2 * n - 1);
  std::vector<std::complex<double>> fa(m, {0, 0}), fb(m, {0, 0});
  for (size_t k = 0; k < n; ++k) fa[k] = a[k] * chirp[k];
  for (size_t k = 0; k < n; ++k) {
    fb[k] = std::conj(chirp[k]);
    if (k != 0) fb[m - k] = std::conj(chirp[k]);
  }
  fft_pow2(fa, false);
  fft_pow2(fb, false);
  for (size_t k = 0; k < m; ++k) fa[k] *= fb[k];
  fft_pow2(fa, true);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (size_t k = 0; k < n; ++k) a[k] = fa[k] * inv_m * chirp[k];
}

void fft1d(std::vector<std::complex<double>>& a, bool inverse) {
  if (a.size() <= 1) return;
  if (is_pow2(a.size())) {
    fft_pow2(a, inverse);
  } else {
    fft_bluestein(a, inverse);
  }
}

void fft2_slice(std::vector<std::complex<double>>& buf, int64_t h, int64_t w,
                bool inverse) {
  for (int64_t r = 0; r < h; ++r) {
    std::vector<std::complex<double>> line(static_cast<size_t>(w));
    std::copy(buf.begin() + r * w, buf.begin() + (r + 1) * w, line.begin());
    fft1d(line, inverse);
    std::copy(line.begin(), line.end(), buf.begin() + r * w);
  }
  for (int64_t c = 0; c < w; ++c) {
    std::vector<std::complex<double>> line(static_cast<size_t>(h));
    for (int64_t r = 0; r < h; ++r) line[static_cast<size_t>(r)] = buf[r * w + c];
    fft1d(line, inverse);
    for (int64_t r = 0; r < h; ++r) buf[r * w + c] = line[static_cast<size_t>(r)];
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(h * w);
    for (auto& v : buf) v *= scale;
  }
}

CTensor fft2(const CTensor& x, bool inverse) {
  const Shape& s = x.shape();
  const int64_t h = s[s.size() - 2], w = s[s.size() - 1];
  int64_t batch = 1;
  for (size_t i = 0; i + 2 < s.size(); ++i) batch *= s[i];
  CTensor out(s);
  const int64_t plane = h * w;
  litho::runtime::parallel_for(batch, [&](int64_t b0, int64_t b1) {
    std::vector<std::complex<double>> buf(static_cast<size_t>(plane));
    for (int64_t b = b0; b < b1; ++b) {
      const int64_t off = b * plane;
      for (int64_t i = 0; i < plane; ++i) {
        buf[static_cast<size_t>(i)] = {x.re[off + i], x.im[off + i]};
      }
      fft2_slice(buf, h, w, inverse);
      for (int64_t i = 0; i < plane; ++i) {
        out.re[off + i] = static_cast<float>(buf[static_cast<size_t>(i)].real());
        out.im[off + i] = static_cast<float>(buf[static_cast<size_t>(i)].imag());
      }
    }
  });
  return out;
}

CTensor rfft2(const Tensor& x) {
  const Shape& s = x.shape();
  const int64_t h = s[s.size() - 2], w = s[s.size() - 1];
  int64_t batch = 1;
  for (size_t i = 0; i + 2 < s.size(); ++i) batch *= s[i];
  const int64_t wh = w / 2 + 1;
  Shape out_shape = s;
  out_shape[out_shape.size() - 1] = wh;
  CTensor out(out_shape);
  const int64_t plane = h * w;
  const int64_t out_plane = h * wh;
  litho::runtime::parallel_for(batch, [&](int64_t b0, int64_t b1) {
    std::vector<std::complex<double>> buf(static_cast<size_t>(plane));
    for (int64_t b = b0; b < b1; ++b) {
      for (int64_t i = 0; i < plane; ++i) {
        buf[static_cast<size_t>(i)] = {x[b * plane + i], 0.0};
      }
      fft2_slice(buf, h, w, false);
      for (int64_t r = 0; r < h; ++r) {
        for (int64_t c = 0; c < wh; ++c) {
          const auto v = buf[static_cast<size_t>(r * w + c)];
          out.re[b * out_plane + r * wh + c] = static_cast<float>(v.real());
          out.im[b * out_plane + r * wh + c] = static_cast<float>(v.imag());
        }
      }
    }
  });
  return out;
}

Tensor irfft2(const CTensor& x, int64_t w) {
  const Shape& s = x.shape();
  const int64_t h = s[s.size() - 2], hw = s[s.size() - 1];
  int64_t batch = 1;
  for (size_t i = 0; i + 2 < s.size(); ++i) batch *= s[i];
  Shape out_shape = s;
  out_shape[out_shape.size() - 1] = w;
  Tensor out(out_shape);
  const int64_t in_plane = h * hw;
  const int64_t out_plane = h * w;
  litho::runtime::parallel_for(batch, [&](int64_t b0, int64_t b1) {
    std::vector<std::complex<double>> buf(static_cast<size_t>(out_plane));
    for (int64_t b = b0; b < b1; ++b) {
      for (int64_t r = 0; r < h; ++r) {
        for (int64_t c = 0; c < hw; ++c) {
          const int64_t idx = b * in_plane + r * hw + c;
          buf[static_cast<size_t>(r * w + c)] = {x.re[idx], x.im[idx]};
        }
        for (int64_t c = hw; c < w; ++c) {
          const int64_t rr = (h - r) % h;
          const int64_t idx = b * in_plane + rr * hw + (w - c);
          buf[static_cast<size_t>(r * w + c)] = {x.re[idx], -x.im[idx]};
        }
      }
      fft2_slice(buf, h, w, true);
      for (int64_t i = 0; i < out_plane; ++i) {
        out[b * out_plane + i] =
            static_cast<float>(buf[static_cast<size_t>(i)].real());
      }
    }
  });
  return out;
}

}  // namespace legacy

namespace {

using litho::Tensor;
using litho::fft::CTensor;

using litho::bench::max_abs_diff;

template <typename F>
double best_seconds(int reps, F&& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) best = std::min(best, litho::bench::seconds(fn));
  return best;
}

void report(const char* name, double legacy_s, double fast_s) {
  std::printf("%-34s %9.2f ms %9.2f ms %7.2fx\n", name, legacy_s * 1e3,
              fast_s * 1e3, legacy_s / fast_s);
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc == 1 ? 5
                   : argc == 2 ? litho::bench::parse_reps(argv[1])
                               : 0;
  if (reps == 0) {
    std::fprintf(stderr, "usage: bench_fft_micro [reps]\n");
    return 2;
  }
  litho::bench::banner("bench_fft_micro: plan cache + two-for-one real FFT");
  std::printf("threads=%d reps=%d\n\n",
              litho::runtime::ThreadPool::default_num_threads(), reps);
  std::printf("%-34s %12s %12s %8s\n", "case", "legacy", "planned", "speedup");

  std::mt19937 rng(42);
  const int64_t kB = 4, kN = 512;
  Tensor real = Tensor::randn({kB, kN, kN}, rng);
  CTensor cplx(Tensor::randn({kB, kN, kN}, rng), Tensor::randn({kB, kN, kN}, rng));
  Tensor blue = Tensor::randn({kB, 120, 250}, rng);  // Bluestein both axes

  // Warm the plan cache and the workspace pool so steady-state is measured.
  (void)litho::fft::irfft2(litho::fft::rfft2(real), kN);
  (void)litho::fft::rfft2(blue);

  // Headline: batched 512x512 round trip (the Fourier Unit hot path).
  const double leg_rt = best_seconds(reps, [&] {
    (void)legacy::irfft2(legacy::rfft2(real), kN);
  });
  const double new_rt = best_seconds(reps, [&] {
    (void)litho::fft::irfft2(litho::fft::rfft2(real), kN);
  });
  report("rfft2+irfft2 4x512x512", leg_rt, new_rt);

  const double leg_f = best_seconds(reps, [&] { (void)legacy::rfft2(real); });
  const double new_f = best_seconds(reps, [&] { (void)litho::fft::rfft2(real); });
  report("rfft2 4x512x512", leg_f, new_f);

  const double leg_c = best_seconds(reps, [&] { (void)legacy::fft2(cplx, false); });
  const double new_c = best_seconds(reps, [&] { (void)litho::fft::fft2(cplx, false); });
  report("fft2 4x512x512", leg_c, new_c);

  const double leg_b = best_seconds(reps, [&] { (void)legacy::rfft2(blue); });
  const double new_b = best_seconds(reps, [&] { (void)litho::fft::rfft2(blue); });
  report("rfft2 4x120x250 (Bluestein)", leg_b, new_b);

  const CTensor half = litho::fft::rfft2(real);
  const double new_adj = best_seconds(reps, [&] {
    (void)litho::fft::rfft2_adjoint(half, kN);
    (void)litho::fft::irfft2_adjoint(real);
  });
  std::printf("%-34s %12s %9.2f ms %8s\n", "adjoint pair 4x512x512", "-",
              new_adj * 1e3, "-");

  // Parity + cross-thread determinism of the new kernels.
  const Tensor leg_back = legacy::irfft2(legacy::rfft2(real), kN);
  const Tensor new_back = litho::fft::irfft2(litho::fft::rfft2(real), kN);
  std::printf("\nround-trip |new - legacy| max: %.3g\n",
              max_abs_diff(leg_back, new_back));

  bool deterministic = true;
  {
    litho::runtime::ThreadPool p1(1), p8(8);
    CTensor s1, s8;
    {
      litho::runtime::ScopedPool sp(&p1);
      s1 = litho::fft::rfft2(real);
    }
    {
      litho::runtime::ScopedPool sp(&p8);
      s8 = litho::fft::rfft2(real);
    }
    deterministic = max_abs_diff(s1.re, s8.re) == 0.0 &&
                    max_abs_diff(s1.im, s8.im) == 0.0;
  }
  std::printf("bitwise identical across 1 vs 8 threads: %s\n",
              deterministic ? "yes" : "NO");
  std::printf("plan cache entries: %zu\n", litho::fft::plan_cache_size());
  return deterministic ? 0 : 1;
}
