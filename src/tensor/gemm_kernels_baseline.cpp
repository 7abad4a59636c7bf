// Baseline tier of the GEMM micro-kernels (always runnable) plus the
// runtime dispatcher (see gemm_kernels.h).
#define DOINN_KERNEL_NS baseline
#include "tensor/gemm_kernels_body.inc"
#undef DOINN_KERNEL_NS

namespace litho::detail {

const KernelTable* baseline::tier() {
  static const KernelTable t = make_table();
  return &t;
}

std::vector<const KernelTable*> runnable_tiers() {
  std::vector<const KernelTable*> tiers;
  for (const KernelTable* t : {avxvnni::tier(), avx2::tier()}) {
    if (t != nullptr) tiers.push_back(t);
  }
  tiers.push_back(baseline::tier());
  return tiers;
}

const KernelTable& kernels() {
  static const KernelTable& t = *runnable_tiers().front();
  return t;
}

}  // namespace litho::detail
