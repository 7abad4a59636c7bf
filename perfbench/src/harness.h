// Shared pieces of the perfbench harness: workload definitions, seeded
// inputs with their reference contours, the doinn_serve child process, the
// single-threaded socket load generator, and a tiny JSON writer.
//
// The harness reports raw observations (per-request times and statuses,
// set-up times, server counters); perfbench/stats.py turns them into the
// metrics named in BENCHMARK.json.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

/// Milliseconds on the steady clock since the harness started.
double now_ms();

// -- Workloads ----------------------------------------------------------------

/// A closed loop: each connection keeps `window` requests in flight and
/// sends the next one as soon as a reply arrives.
struct Workload {
  std::string name;
  int connections = 1;
  int window = 1;         ///< requests in flight per connection
  int64_t px = 128;       ///< mask side; above the model tile = large path
  int unique_masks = 1;   ///< distinct seeded masks the requests cycle through
  // Server settings.
  int threads = 2;
  std::string precision = "fp32";
  int replicas = 1;    ///< > 1 serves through a --models registry (EnginePool)
  std::string model;   ///< registry model name; non-empty = v2 frames
};

/// The fixed workload table; throws std::invalid_argument for unknown names.
const Workload& find_workload(const std::string& name);

/// Model tile and pixel pitch of the benchmark checkpoint.
constexpr int64_t kModelTile = 128;
constexpr double kPixelNm = 16.0;
/// Fixed checkpoint seed: weight values do not change the compute.
constexpr uint32_t kCheckpointSeed = 20220710;

// -- Inputs -------------------------------------------------------------------

/// Seeded masks, their request frames and the reference contour payloads.
struct Inputs {
  std::vector<litho::Tensor> masks;
  /// Complete PREDICT frame per mask, request id 0 (patched per send).
  std::vector<std::vector<uint8_t>> frames;
  /// Expected CONTOUR payload per mask: the image codec's encoding of the
  /// in-process reference engine's contour.
  std::vector<std::vector<uint8_t>> expected;
};

/// Writes the benchmark checkpoint (DoinnConfig::small(), fixed seed).
void write_checkpoint(const std::string& path);

/// One seeded mask from the core dataset generators: via-sparse, via-dense
/// and metal tiles in turn at the model tile size, metal windows above it.
litho::Tensor seeded_mask(int64_t px, int index, uint32_t seed);

/// Generates the workload's masks with the core dataset generators and
/// computes reference contours with an in-process InferenceEngine built
/// from @p checkpoint with the server's precision and executor flags.
Inputs make_inputs(const Workload& w, uint32_t seed,
                   const std::string& checkpoint);

// -- Server process -----------------------------------------------------------

/// A doinn_serve child in --listen mode. The destructor kills and reaps a
/// child that was not shut down cleanly.
class ServerProcess {
 public:
  /// Spawns @p argv (argv[0] = binary path, "--listen 0" included) and
  /// waits until the server prints its bound port. stderr goes to
  /// @p log_path. Throws std::runtime_error on failure or timeout.
  ServerProcess(const std::vector<std::string>& argv,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// A /proc/<pid>/status memory field in kB, e.g. "VmHWM" (peak
  /// resident set) or "VmRSS".
  int64_t status_kb(const std::string& field) const;
  /// Resets VmHWM to the current resident set (clear_refs 5), so a later
  /// read covers only what happened after this call.
  void reset_peak_rss() const;
  /// utime + stime in milliseconds.
  double cpu_ms() const;
  /// Sends a SHUTDOWN frame and waits for the drained exit; returns the
  /// exit status (kills after a timeout and returns -1).
  int shutdown();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// -- Socket load generator ------------------------------------------------------

enum Status : int {
  kPending = -1,
  kOk = 0,
  kMismatch = 1,  ///< contour differs from the reference
  kBusy = 2,
  kError = 3,
  kLost = 4,      ///< no reply (connection closed or drain timeout)
};

struct Request {
  int mask = 0;
  int conn = 0;
  double start_ms = 0.0;  ///< when the frame was queued on the socket
  double done_ms = 0.0;   ///< when the complete reply was parsed
  int status = kPending;
};

struct LoadResult {
  std::vector<Request> requests;
  double t0_ms = 0.0;     ///< start of the measured window
  double stop_ms = 0.0;   ///< no request is sent from here on
  double t_end_ms = 0.0;  ///< last reply (or drain timeout)
};

/// The seeded mask sequence shared by the socket and in-process replays.
int pick_mask(const Workload& w, std::mt19937_64& rng);

/// Drives @p port with the workload's closed loop for @p seconds from one
/// thread (non-blocking sockets, one poll loop), then drains the requests
/// still in flight, byte-comparing every reply with the reference.
/// Request ids are id_base + index.
LoadResult run_load(const Workload& w, const Inputs& in, uint16_t port,
                    double seconds, uint32_t seed, uint64_t id_base);

/// One untimed second of the workload (other seed, other request ids), so
/// the measured window starts on warm connections and caches. Returns the
/// number of requests that did not get a correct reply.
int prime(const Workload& w, const Inputs& in, uint16_t port, uint32_t seed);

/// Blocking warm-up over one net::Client connection: bursts that make the
/// server form every batch size 1..8 (twice that per burst with replicas,
/// which split the burst), or one request for large-window workloads.
/// Returns the number of replies that were not the reference contour.
int warm_up(const Workload& w, const Inputs& in, uint16_t port);

/// Server argv for the workload (binary, model flags, fixed settings).
std::vector<std::string> server_argv(const Workload& w,
                                     const std::string& serve_bin,
                                     const std::string& workdir,
                                     const std::string& checkpoint,
                                     const std::string& metrics_out);
/// The flags of a server argv (everything after the binary), space-joined.
std::string join_flags(const std::vector<std::string>& argv);

class Json;
/// Writes @p r as {"end_ms", "rows": [[start, done, status], ...]} with
/// times in ms relative to the window start.
void put_load(Json& j, const char* key, const LoadResult& r);

// -- Host -----------------------------------------------------------------------

/// Host-wide CPU time counters from /proc/stat (all CPUs, in ticks): the
/// time the hypervisor ran something else on our virtual CPUs, and the
/// total. Diagnostic only.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks read_cpu_ticks();

/// Fixed single-thread probe (integer and float work, ~60 ms on a current
/// x86 core). Diagnostic only: the benchmark never rescales with it.
double calib_probe_ms();

// -- JSON -------------------------------------------------------------------------

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
class Json {
 public:
  Json& begin_object(const char* key = nullptr);
  Json& end_object();
  Json& begin_array(const char* key = nullptr);
  Json& end_array();
  Json& num(const char* key, double v);
  Json& num(double v);
  Json& str(const char* key, const std::string& v);
  /// Inserts @p json (already valid JSON text) verbatim.
  Json& raw(const char* key, const std::string& json);
  const std::string& text() const { return out_; }

 private:
  void sep(const char* key);
  std::string out_;
  std::vector<bool> first_{true};
};

}  // namespace perfbench
