// AVX-VNNI tier of the GEMM micro-kernels. The only body-level change
// versus the AVX2 TU is the int8 hot loop: one vpdpbusd contracts a whole
// u8 x s8 k-quad where the plain AVX2 body needs a widen plus two vpmaddwd
// partial sums — same exact int32 totals, a quarter of the ALU uops. The
// fp32 kernels are the AVX2 ones: -mavx2 -mavxvnni leaves FMA off, so they
// compile from the same intrinsics to the same instructions. CMake adds
// those flags when the compiler knows -mavxvnni; otherwise this TU builds
// at the default ISA and the tier reports itself unavailable.
#define DOINN_KERNEL_NS avxvnni
#include "tensor/gemm_kernels_body.inc"
#undef DOINN_KERNEL_NS

namespace litho::detail::avxvnni {

const KernelTable* tier() {
#if defined(__AVXVNNI__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avxvnni")) {
    static const KernelTable t = make_table();
    return &t;
  }
#endif
  return nullptr;
}

}  // namespace litho::detail::avxvnni
