// Shared helpers for the benchmark binaries (table formatting, timing,
// tensor comparison).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

// Set per bench target by CMakeLists.txt; defaults keep a bench that is
// compiled some other way building.
#ifndef DOINN_BUILD_TYPE
#define DOINN_BUILD_TYPE "unknown"
#endif
#ifndef DOINN_BUILD_FLAGS
#define DOINN_BUILD_FLAGS "unknown"
#endif
#ifndef DOINN_SOURCE_DIR
#define DOINN_SOURCE_DIR "."
#endif

namespace litho::bench {

/// Prints the standard header naming the paper artifact being regenerated.
inline void banner(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

/// A positional repetition count: the whole of @p s as a decimal integer
/// in [1, 1000000], else 0 — the caller then prints its usage and exits 2
/// before timing or writing anything.
inline int parse_reps(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  const bool ok = end != s && *end == '\0' && v >= 1 && v <= 1000000;
  return ok ? static_cast<int>(v) : 0;
}

/// Wall-clock seconds spent in @p fn.
template <typename F>
double seconds(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Maximum absolute elementwise difference, used by the identity gates.
/// Shape mismatch returns +inf (never bitwise identical) instead of
/// reading out of bounds.
inline double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// First line @p cmd prints on stdout, or "" when it fails.
inline std::string first_line_of(const std::string& cmd) {
  std::string line;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) line = buf;
    if (pclose(p) != 0) line.clear();
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

}  // namespace detail

/// The host block a committed BENCH_*.json carries, as one JSON object:
/// CPU model, hardware threads, dispatched micro-kernel tier, build type
/// and C++ flags, and the git revision of the source tree the bench was
/// built from (suffixed "-dirty" for uncommitted changes; "unavailable"
/// outside a git checkout).
inline std::string host_json() {
  std::string cpu;
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; cpu.empty() && std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find_first_not_of(" \t", line.find(':') + 1));
    }
  }
  // Run git in the source tree, never letting it search above it.
  auto git = [](const std::string& args) {
    return detail::first_line_of(
        "cd '" DOINN_SOURCE_DIR "' && "
        "GIT_CEILING_DIRECTORIES=\"$(dirname \"$PWD\")\" git " +
        args + " 2>/dev/null");
  };
  std::string sha = git("rev-parse HEAD");
  if (sha.empty()) {
    sha = "unavailable";
  } else if (!git("status --porcelain --untracked-files=no").empty()) {
    sha += "-dirty";
  }
  return std::string("{\"cpu\": \"") + detail::json_escape(cpu) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"kernel_tier\": \"" + gemm_kernel_tier() +
         "\", \"build_type\": \"" + detail::json_escape(DOINN_BUILD_TYPE) +
         "\", \"cxx_flags\": \"" + detail::json_escape(DOINN_BUILD_FLAGS) +
         "\", \"git_sha\": \"" + detail::json_escape(sha) + "\"}";
}

}  // namespace litho::bench
