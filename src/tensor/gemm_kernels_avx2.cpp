// AVX2 tier of the GEMM micro-kernels. CMake compiles this TU with -mavx2
// (and ONLY -mavx2 — no FMA, which would change rounding and break the
// engine's bitwise contract) on x86-64 GNU/Clang toolchains; elsewhere it
// is built at the baseline ISA and the tier reports itself unavailable.
#define DOINN_KERNEL_NS avx2
#include "tensor/gemm_kernels_body.inc"
#undef DOINN_KERNEL_NS

namespace litho::detail::avx2 {

const KernelTable* tier() {
#if defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    static const KernelTable t = make_table();
    return &t;
  }
#endif
  return nullptr;
}

}  // namespace litho::detail::avx2
