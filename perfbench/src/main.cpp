// perfbench — one benchmark run against doinn_serve.
//
//   perfbench --mode timed|layers --workload NAME --seed N
//             --seconds S --serve PATH --workdir DIR --out RAW.json
//
// timed:  spawns the server kSetups times (set-up = spawn until every
//         batch size and mask shape has been answered once), primes the
//         last one, then drives it for --seconds and records every
//         request.
// layers: replays the workload's seeded inputs and schedule through each
//         layer boundary in turn (socket, scheduler, engine, GEMM, FFT)
//         and records spans and layer timings.
//
// Raw observations go to --out; perfbench/run.py turns them into metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "layers.h"

using namespace perfbench;

namespace {

// Server starts per timed run; setup_s is their median.
constexpr int kSetups = 3;

struct Options {
  std::string mode, workload, serve, workdir, out;
  uint32_t seed = 1;
  double seconds = 10.0;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--mode") o.mode = v;
    else if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = static_cast<uint32_t>(std::stoul(v));
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--serve") o.serve = v;
    else if (k == "--workdir") o.workdir = v;
    else if (k == "--out") o.out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (o.mode.empty() || o.workload.empty() || o.serve.empty() ||
      o.workdir.empty() || o.out.empty()) {
    throw std::invalid_argument("missing or invalid flags");
  }
  return o;
}

void run_timed(const Options& o, const Workload& w, Json& j) {
  j.num("calib_before_ms", calib_probe_ms());
  const std::string ckpt = o.workdir + "/weights.bin";
  write_checkpoint(ckpt);
  const Inputs in = make_inputs(w, o.seed, ckpt);
  const std::vector<std::string> argv = server_argv(
      w, o.serve, o.workdir, ckpt, o.workdir + "/server_metrics.json");
  j.str("server_flags", join_flags(argv));

  std::unique_ptr<ServerProcess> server;
  int warm_mismatch = 0;
  j.begin_array("setup_s");
  for (int k = 0; k < kSetups; ++k) {
    if (server) server->shutdown();
    const double t0 = now_ms();
    server = std::make_unique<ServerProcess>(argv, o.workdir + "/server.log");
    warm_mismatch += warm_up(w, in, server->port());
    j.num((now_ms() - t0) / 1e3);
  }
  j.end_array();
  j.num("warmup_mismatch", warm_mismatch);

  j.num("prime_failed", prime(w, in, server->port(), o.seed));

  // Set-up transients (concurrent plan builds) set a peak that depends on
  // how the replicas' builds happened to overlap; record it, then measure
  // the serving peak on its own.
  j.num("setup_rss_hwm_kb", static_cast<double>(server->status_kb("VmHWM")));
  j.num("setup_rss_kb", static_cast<double>(server->status_kb("VmRSS")));
  server->reset_peak_rss();
  const double cpu0 = server->cpu_ms();
  const CpuTicks host0 = read_cpu_ticks();
  const LoadResult load = run_load(w, in, server->port(), o.seconds, o.seed, 0);
  const CpuTicks host1 = read_cpu_ticks();
  j.num("server_cpu_ms", server->cpu_ms() - cpu0);
  j.num("host_steal_pct", 100.0 * (host1.steal - host0.steal) /
                              std::max(1.0, host1.total - host0.total));
  j.num("server_rss_kb", static_cast<double>(server->status_kb("VmHWM")));
  j.num("server_exit", server->shutdown());
  put_load(j, "requests", load);
  j.num("calib_after_ms", calib_probe_ms());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload& w = find_workload(o.workload);
    Json j;
    j.begin_object();
    j.str("workload", w.name).str("mode", o.mode).num("seed", o.seed);
    j.num("seconds", o.seconds).num("px", static_cast<double>(w.px));
    if (o.mode == "timed") {
      run_timed(o, w, j);
    } else if (o.mode == "layers") {
      LayersConfig cfg;
      cfg.seed = o.seed;
      cfg.seconds = o.seconds;
      cfg.serve_bin = o.serve;
      cfg.workdir = o.workdir;
      run_layers(w, cfg, j);
    } else {
      throw std::invalid_argument("--mode must be timed or layers");
    }
    j.end_object();
    std::ofstream f(o.out);
    f << j.text() << '\n';
    if (!f) throw std::runtime_error("cannot write " + o.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
