#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/dataset.h"
#include "core/doinn.h"
#include "litho/simulator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "runtime/engine.h"

namespace perfbench {

using litho::Tensor;
namespace net = litho::net;

double now_ms() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// -- Workloads ----------------------------------------------------------------

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;
  Workload backlog;
  backlog.name = "tile_backlog";
  backlog.connections = 2;
  backlog.window = 8;
  backlog.unique_masks = 64;
  ws.push_back(backlog);

  Workload large;
  large.name = "fullchip_large";
  large.connections = 1;
  large.window = 1;
  large.px = 512;
  large.unique_masks = 4;
  ws.push_back(large);

  Workload pool;
  pool.name = "pool_int8";
  pool.connections = 2;
  pool.window = 4;
  pool.unique_masks = 64;
  pool.threads = 1;
  pool.precision = "int8";
  pool.replicas = 2;
  pool.model = "int8m";
  ws.push_back(pool);
  return ws;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// -- Inputs -------------------------------------------------------------------

void write_checkpoint(const std::string& path) {
  std::mt19937 rng(kCheckpointSeed);
  litho::core::Doinn model(litho::core::DoinnConfig::small(), rng);
  litho::core::save_doinn(path, model);
}

Tensor seeded_mask(int64_t px, int index, uint32_t seed) {
  // generate_mask only reads the raster pitch from the simulator (no OPC
  // iterations, no imaging), so a one-point kernel set stands in for the
  // seconds-long SOCS decomposition.
  static const litho::optics::LithoSimulator sim = [] {
    litho::optics::OpticalConfig ocfg;
    ocfg.pixel_nm = kPixelNm;
    litho::optics::SocsKernel point;
    point.alpha = 1.0;
    point.spatial =
        litho::fft::CTensor{Tensor({1, 1}, 1.f), Tensor({1, 1}, 0.f)};
    return litho::optics::LithoSimulator(ocfg, {point});
  }();
  using litho::core::DatasetKind;
  const DatasetKind tile_kinds[] = {DatasetKind::kViaSparse,
                                    DatasetKind::kViaDense,
                                    DatasetKind::kMetal};
  const DatasetKind kind =
      px > kModelTile ? DatasetKind::kMetal : tile_kinds[index % 3];
  const uint32_t mask_seed = seed * 7919u + static_cast<uint32_t>(index) + 1u;
  return litho::core::generate_mask(sim, kind, px, mask_seed, 0);
}

Inputs make_inputs(const Workload& w, uint32_t seed,
                   const std::string& checkpoint) {
  Inputs in;
  for (int i = 0; i < w.unique_masks; ++i) {
    in.masks.push_back(seeded_mask(w.px, i, seed));
    in.frames.push_back(w.model.empty()
                            ? net::make_predict_frame(0, in.masks.back())
                            : net::make_predict_frame(0, in.masks.back(),
                                                      w.model));
  }

  litho::runtime::EngineOptions eo;
  eo.num_threads = static_cast<int>(std::thread::hardware_concurrency());
  eo.precision = litho::parse_precision(w.precision);
  eo.autotune = false;
  litho::runtime::InferenceEngine ref(checkpoint, eo);
  std::vector<Tensor> contours;
  if (w.px > ref.config().tile) {
    for (const Tensor& m : in.masks) contours.push_back(ref.predict(m));
  } else {
    for (size_t i = 0; i < in.masks.size(); i += 8) {
      const size_t end = std::min(in.masks.size(), i + 8);
      std::vector<Tensor> chunk(in.masks.begin() + static_cast<long>(i),
                                in.masks.begin() + static_cast<long>(end));
      for (Tensor& c : ref.predict_batch(chunk)) contours.push_back(c);
    }
  }
  for (const Tensor& c : contours) {
    std::vector<uint8_t> payload;
    net::encode_image(c, payload);
    in.expected.push_back(std::move(payload));
  }
  return in;
}

// -- Sockets --------------------------------------------------------------------

namespace {

/// Overwrites the request id of a frame built by make_predict_frame.
void set_request_id(std::vector<uint8_t>& frame, uint64_t id) {
  for (int b = 0; b < 8; ++b) {
    frame[8 + b] = static_cast<uint8_t>(id >> (8 * b));
  }
}

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Parses complete frames from buf[off, size); calls fn(header, payload,
/// payload_size) for each and advances off. Throws on a malformed header.
template <class Fn>
void parse_frames(const std::vector<uint8_t>& buf, size_t& off, Fn&& fn) {
  while (buf.size() - off >= net::kHeaderBytes) {
    net::FrameHeader h;
    if (!net::decode_header(buf.data() + off, h)) {
      throw std::runtime_error("malformed reply header");
    }
    if (buf.size() - off < net::kHeaderBytes + h.payload_bytes) return;
    fn(h, buf.data() + off + net::kHeaderBytes, h.payload_bytes);
    off += net::kHeaderBytes + h.payload_bytes;
  }
}

int reply_status(const net::FrameHeader& h, const uint8_t* payload,
                 size_t size, const std::vector<uint8_t>& expected) {
  switch (h.type) {
    case net::FrameType::kContour:
      return size == expected.size() &&
                     std::memcmp(payload, expected.data(), size) == 0
                 ? kOk
                 : kMismatch;
    case net::FrameType::kBusy:
      return kBusy;
    default:
      return kError;
  }
}

struct Conn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  int inflight = 0;
  bool dead = false;
};

}  // namespace

int pick_mask(const Workload& w, std::mt19937_64& rng) {
  return std::uniform_int_distribution<int>(0, w.unique_masks - 1)(rng);
}

LoadResult run_load(const Workload& w, const Inputs& in, uint16_t port,
                    double seconds, uint32_t seed, uint64_t id_base) {
  std::mt19937_64 rng(seed);
  std::vector<Conn> conns(static_cast<size_t>(w.connections));
  for (Conn& c : conns) {
    c.fd = connect_loopback(port);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }

  LoadResult r;
  r.t0_ms = now_ms();
  r.stop_ms = r.t0_ms + seconds * 1e3;
  auto& reqs = r.requests;
  auto send_next = [&](int conn, double now) {
    Request q;
    q.mask = pick_mask(w, rng);
    q.conn = conn;
    q.start_ms = now;
    Conn& c = conns[static_cast<size_t>(conn)];
    std::vector<uint8_t> frame = in.frames[static_cast<size_t>(q.mask)];
    set_request_id(frame, id_base + reqs.size());
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    ++c.inflight;
    reqs.push_back(q);
  };
  auto kill_conn = [&](Conn& c, double now) {
    if (c.dead) return;
    c.dead = true;
    const int ci = static_cast<int>(&c - conns.data());
    for (Request& q : reqs) {
      if (q.conn == ci && q.status == kPending) {
        q.status = kLost;
        q.done_ms = now;
      }
    }
    c.inflight = 0;
  };

  for (int ci = 0; ci < w.connections; ++ci) {
    for (int k = 0; k < w.window; ++k) send_next(ci, r.t0_ms);
  }
  const double hard_deadline = r.stop_ms + 30e3;
  std::vector<pollfd> pfds(conns.size());
  uint8_t chunk[1 << 16];
  for (;;) {
    double now = now_ms();
    int inflight = 0;
    for (Conn& c : conns) {
      while (!c.dead && c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          kill_conn(c, now);
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      inflight += c.inflight;
    }
    if (inflight == 0 || now >= hard_deadline) break;

    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 50);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (ready <= 0) continue;
    now = now_ms();
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead || (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          c.in.insert(c.in.end(), chunk, chunk + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        kill_conn(c, now);
        break;
      }
      parse_frames(c.in, c.in_off, [&](const net::FrameHeader& h,
                                       const uint8_t* p, size_t size) {
        if (h.request_id < id_base || h.request_id - id_base >= reqs.size()) {
          throw std::runtime_error("reply for an unknown request id");
        }
        Request& q = reqs[static_cast<size_t>(h.request_id - id_base)];
        if (q.status != kPending) return;  // already counted as lost
        q.status = reply_status(h, p, size, in.expected[q.mask]);
        q.done_ms = now;
        --c.inflight;
        if (now < r.stop_ms && !c.dead) send_next(static_cast<int>(i), now);
      });
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      }
    }
  }
  r.t_end_ms = now_ms();
  for (Request& q : reqs) {
    if (q.status == kPending) {
      q.status = kLost;
      q.done_ms = r.t_end_ms;
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  return r;
}

int prime(const Workload& w, const Inputs& in, uint16_t port, uint32_t seed) {
  int failed = 0;
  for (const Request& q :
       run_load(w, in, port, 1.0, seed ^ 0x5bd1e995u, 1ull << 40).requests) {
    failed += q.status != kOk;
  }
  return failed;
}

void put_load(Json& j, const char* key, const LoadResult& r) {
  j.begin_object(key);
  j.num("end_ms", r.t_end_ms - r.t0_ms);
  j.begin_array("rows");
  for (const Request& q : r.requests) {
    j.begin_array();
    j.num(q.start_ms - r.t0_ms).num(q.done_ms - r.t0_ms).num(q.status);
    j.end_array();
  }
  j.end_array();
  j.end_object();
}

int warm_up(const Workload& w, const Inputs& in, uint16_t port) {
  net::Client client("127.0.0.1", port);
  int mismatches = 0;
  uint64_t id = 1ull << 62;
  std::vector<uint8_t> got;
  auto burst = [&](int count) {
    for (int k = 0; k < count; ++k, ++id) {
      const Tensor& mask = in.masks[id % static_cast<uint64_t>(w.unique_masks)];
      if (w.model.empty()) {
        client.send_predict(id, mask);
      } else {
        client.send_predict(id, mask, w.model);
      }
    }
    for (int k = 0; k < count; ++k) {
      const net::Reply r = client.read_reply();
      got.clear();
      if (r.type == net::FrameType::kContour) net::encode_image(r.contour, got);
      mismatches += got != in.expected[r.request_id %
                                       static_cast<uint64_t>(w.unique_masks)];
    }
  };
  if (w.px > kModelTile) {
    burst(1);
  } else {
    // Full batches first, so with replicas the largest plans are built
    // while every replica is idle, at the same point in every run.
    burst(8 * w.replicas);
    for (int b = 1; b < 8; ++b) burst(b * w.replicas);
  }
  return mismatches;
}

std::vector<std::string> server_argv(const Workload& w,
                                     const std::string& serve_bin,
                                     const std::string& workdir,
                                     const std::string& checkpoint,
                                     const std::string& metrics_out) {
  std::vector<std::string> argv = {serve_bin};
  if (w.replicas > 1) {
    const std::string registry = workdir + "/models.txt";
    std::ofstream(registry) << w.model << ' ' << checkpoint << ' '
                            << w.precision << ' ' << w.replicas << '\n';
    argv.insert(argv.end(), {"--models", registry});
  } else {
    argv.insert(argv.end(),
                {"--weights", checkpoint, "--precision", w.precision});
  }
  argv.insert(argv.end(), {"--threads", std::to_string(w.threads),
                           "--no-autotune", "--listen", "0", "--metrics-out",
                           metrics_out});
  return argv;
}

std::string join_flags(const std::vector<std::string>& argv) {
  std::string flags;
  for (size_t i = 1; i < argv.size(); ++i) {
    flags += (i > 1 ? " " : "") + argv[i];
  }
  return flags;
}

// -- Server process ---------------------------------------------------------------

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: async-signal-safe calls only. Dies with the harness.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  ::close(log_fd);
  out_fd_ = pipe_fds[0];

  std::string text;
  const double deadline = now_ms() + 120e3;
  const std::string marker = "listening on port ";
  char chunk[4096];
  while (true) {
    const size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(std::stoul(text.substr(at + marker.size())));
      return;
    }
    pollfd p{out_fd_, POLLIN, 0};
    const int left = static_cast<int>(deadline - now_ms());
    if (left <= 0 || ::poll(&p, 1, left) <= 0) break;
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;
    text.append(chunk, static_cast<size_t>(n));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  throw std::runtime_error("doinn_serve did not start (see " + log_path +
                           "): " + text);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

int64_t ServerProcess::status_kb(const std::string& field) const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  const std::string key = field + ":";
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) return std::stoll(line.substr(key.size()));
  }
  throw std::runtime_error(field + " not found");
}

void ServerProcess::reset_peak_rss() const {
  std::ofstream f("/proc/" + std::to_string(pid_) + "/clear_refs");
  f << "5\n";
  if (!f) throw std::runtime_error("cannot reset the server's VmHWM");
}

double ServerProcess::cpu_ms() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int ServerProcess::shutdown() {
  if (pid_ <= 0) return -1;
  try {
    net::Client("127.0.0.1", port_).send_shutdown();
  } catch (const std::exception&) {
    // Fall through to the timed wait and the kill.
  }
  int status = 0;
  const double deadline = now_ms() + 30e3;
  while (now_ms() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return -1;
}

// -- Host ---------------------------------------------------------------------------

CpuTicks read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double calib_probe_ms() {
  const double t0 = now_ms();
  uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff) * 1e-6;
  }
  volatile double sink = acc;
  (void)sink;
  return now_ms() - t0;
}

// -- JSON ---------------------------------------------------------------------------

void Json::sep(const char* key) {
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::begin_object(const char* key) {
  sep(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array(const char* key) {
  sep(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::num(const char* key, double v) {
  sep(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  out_ += buf;
  return *this;
}

Json& Json::num(double v) { return num(nullptr, v); }

Json& Json::str(const char* key, const std::string& v) {
  sep(key);
  out_ += '"';
  for (char ch : v) {
    if (ch == '"' || ch == '\\') out_ += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out_ += ch;
  }
  out_ += '"';
  return *this;
}

Json& Json::raw(const char* key, const std::string& json) {
  sep(key);
  out_ += json;
  return *this;
}

}  // namespace perfbench
