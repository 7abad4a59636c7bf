// doinn_client — command-line client and load generator for doinn_serve,
// speaking the framed protocol of src/net/protocol.h.
//
//   doinn_client --connect <host:port> --mask mask.pgm --out contour.pgm
//               [--model NAME]
//   doinn_client --connect <host:port> --manifest requests.txt
//               [--repeat 1] [worker flags]
//   doinn_client --connect <host:port> --follow requests.txt
//               [--results F] [worker flags]
//   doinn_client --connect <host:port> --shutdown
//
//   worker flags: [--model NAME] [--concurrency 4] [--busy-retry-ms 5]
//                 [--busy-retry-max-ms 250]
//
// --model routes requests to a named model of a multi-model server
// (doinn_serve --models) via the protocol-v2 model field; manifest lines
// may override it per request with a `model:<name>` first field. Without
// either, requests go out as version-1 frames and the server's default
// model serves them.
//
// Single-request mode sends one mask and writes the contour PGM — the
// output is byte-identical to `doinn_cli predict` on the same mask,
// because the wire format quantizes exactly like io::write_pgm and the
// server decodes exactly like io::read_pgm.
//
// Manifests hold one `<mask.pgm> <out.pgm>` request per line, with an
// optional `model:<name>` first field; `#` comments and blank lines are
// skipped and a `__shutdown__` line ends the requests (the grammar lives
// in apps/manifest_tail.h). --manifest replays the file closed-loop over
// --concurrency connections (each worker thread owns one connection and
// keeps exactly one request in flight). A BUSY reply — the server's
// reject-based backpressure — is retried with capped exponential backoff
// plus jitter: the first retry waits --busy-retry-ms, each further BUSY on
// the same request doubles the wait up to --busy-retry-max-ms, and every
// wait is drawn uniformly from the upper half of the window so workers
// that were rejected together don't re-arrive together. The backoff resets
// per request, so a recovered server is probed at the base cadence again.
// --repeat N cycles the request list N times. On completion it prints
// request counts, BUSY retries, throughput, and latency percentiles.
//
// --follow tails a manifest that a producer keeps appending to: every
// 50 ms it reads the newly completed lines and runs them through the same
// closed-loop workers (a truncated or rotated manifest is reprocessed from
// the start). On a `__shutdown__` line it finishes its outstanding
// requests, then sends a SHUTDOWN frame so the server drains and exits.
//
// --follow appends `<mask> <out> ok|error <ms>` for each finished request
// to --results (default `<manifest>.results`); the latency covers send
// through the output write, a failure's the whole attempt.
//
// --shutdown sends a SHUTDOWN frame: the server drains in-flight work and
// exits.
//
// Exit status: 0 only when every request succeeded — any failed request,
// dead worker, or request that never completed (a worker died after
// claiming it) makes the exit code 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "io/io.h"
#include "manifest_tail.h"
#include "net/client.h"

using namespace litho;

namespace {

using Clock = std::chrono::steady_clock;

struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

Endpoint parse_endpoint(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    throw std::runtime_error("--connect expects <host:port>, got '" + spec +
                             "'");
  }
  const long port = std::stol(spec.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("--connect port out of range in '" + spec + "'");
  }
  return {spec.substr(0, colon), static_cast<uint16_t>(port)};
}

using Request = apps::ManifestLine;

/// Turns freshly read manifest lines into requests (logging and skipping
/// malformed ones) up to a `__shutdown__` line, which sets @p shutdown and
/// ends the list. @p lineno counts lines across calls for the log.
std::vector<Request> parse_requests(const std::vector<std::string>& lines,
                                    size_t& lineno, bool& shutdown) {
  std::vector<Request> requests;
  for (const std::string& line : lines) {
    ++lineno;
    Request req = apps::parse_manifest_line(line);
    if (req.kind == Request::Kind::kShutdown) {
      shutdown = true;
      break;
    }
    if (req.kind == Request::Kind::kMalformed) {
      std::fprintf(stderr, "skipping malformed manifest line %zu: %s\n",
                   lineno, line.c_str());
    } else if (req.kind == Request::Kind::kRequest) {
      requests.push_back(std::move(req));
    }
  }
  return requests;
}

/// Appends one `<mask> <out> ok|error <ms>` line per finished request;
/// shared by the workers.
class ResultsLog {
 public:
  explicit ResultsLog(const std::string& path)
      : out_(path, std::ios::app) {
    if (!out_) throw std::runtime_error("cannot open results file " + path);
  }
  void append(const Request& req, bool ok, double ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << req.mask_path << ' ' << req.out_path << (ok ? " ok " : " error ")
         << ms << std::endl;
  }

 private:
  std::mutex mutex_;
  std::ofstream out_;
};

/// Settings every worker shares.
struct WorkerOptions {
  std::string default_model;  // --model; "" = the server's default
  size_t concurrency = 4;
  long busy_retry_ms = 5;
  long busy_retry_max_ms = 250;
  ResultsLog* results = nullptr;  // optional per-request results lines
};

/// Closed-loop worker: one connection, one request in flight, BUSY retried
/// with capped exponential backoff + jitter (reset per request). Workers
/// pull the next request index from a shared atomic so the load is
/// balanced regardless of per-mask cost.
struct WorkerResult {
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t busy_retries = 0;
  std::vector<double> latencies_ms;
};

WorkerResult run_worker(const Endpoint& endpoint,
                        const std::vector<Request>& requests,
                        const WorkerOptions& opts, std::atomic<size_t>& next,
                        size_t total, uint32_t seed) {
  WorkerResult result;
  std::mt19937 rng(seed);  // per-worker jitter stream
  net::Client client(endpoint.host, endpoint.port);
  for (;;) {
    const size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) break;
    const Request& req = requests[i % requests.size()];
    const std::string& model =
        req.model.empty() ? opts.default_model : req.model;
    const auto t_claim = Clock::now();
    try {
      const Tensor mask = io::read_pgm(req.mask_path);
      const auto t0 = Clock::now();
      long delay_ms = opts.busy_retry_ms;  // backoff window, reset per request
      for (;;) {
        // A named model needs the version-2 frame; without one the legacy
        // version-1 frame keeps old servers usable.
        if (model.empty()) {
          client.send_predict(i + 1, mask);
        } else {
          client.send_predict(i + 1, mask, model);
        }
        net::Reply reply = client.read_reply();
        if (reply.type == net::FrameType::kBusy) {
          ++result.busy_retries;
          if (delay_ms > 0) {
            // Sleep in the upper half of the window so concurrent workers
            // spread out, then double the window up to the cap.
            const long lo = std::max<long>(1, delay_ms / 2);
            std::uniform_int_distribution<long> jitter(lo, delay_ms);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(jitter(rng)));
            delay_ms = std::min(opts.busy_retry_max_ms, delay_ms * 2);
          }
          continue;
        }
        if (reply.type == net::FrameType::kError) {
          throw std::runtime_error(reply.error);
        }
        if (reply.type != net::FrameType::kContour ||
            reply.request_id != i + 1) {
          throw std::runtime_error("unexpected reply frame");
        }
        io::write_pgm(req.out_path, reply.contour);
        break;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      result.latencies_ms.push_back(ms);
      ++result.ok;
      if (opts.results != nullptr) opts.results->append(req, true, ms);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %s failed: %s\n", req.mask_path.c_str(),
                   e.what());
      ++result.errors;
      if (opts.results != nullptr) {
        opts.results->append(
            req, false,
            std::chrono::duration<double, std::milli>(Clock::now() - t_claim)
                .count());
      }
    }
  }
  return result;
}

/// What a run of requests added up to, across workers and polls.
struct Totals {
  int64_t requested = 0;
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t busy_retries = 0;
  std::vector<double> latencies_ms;
};

/// Replays @p requests @p repeat times closed-loop over opts.concurrency
/// connections and adds the outcome to @p totals.
void run_requests(const Endpoint& endpoint,
                  const std::vector<Request>& requests, size_t repeat,
                  const WorkerOptions& opts, Totals& totals) {
  const size_t total = requests.size() * repeat;
  std::atomic<size_t> next{0};
  std::vector<WorkerResult> results(opts.concurrency);
  std::vector<std::thread> workers;
  workers.reserve(opts.concurrency);
  for (size_t w = 0; w < opts.concurrency; ++w) {
    workers.emplace_back([&, w] {
      try {
        results[w] = run_worker(endpoint, requests, opts, next, total,
                                static_cast<uint32_t>(w) * 2654435761u + 1u);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker %zu died: %s\n", w, e.what());
        results[w].errors += 1;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  totals.requested += static_cast<int64_t>(total);
  for (WorkerResult& r : results) {
    totals.ok += r.ok;
    totals.errors += r.errors;
    totals.busy_retries += r.busy_retries;
    totals.latencies_ms.insert(totals.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
  }
}

/// How often --follow polls the manifest for fresh lines.
constexpr auto kFollowPoll = std::chrono::milliseconds(50);

/// --follow: tails @p manifest, sending each poll's fresh requests through
/// the closed-loop workers, until a `__shutdown__` line; then (every
/// request finished) sends the SHUTDOWN frame.
void follow(const Endpoint& endpoint, const std::string& manifest,
            const WorkerOptions& opts, Totals& totals) {
  std::streamoff offset = 0;
  size_t lineno = 0;
  bool shutdown = false;
  while (!shutdown) {
    const apps::ManifestTail tail = apps::read_manifest_tail(manifest, offset);
    if (tail.restarted) {
      std::fprintf(stderr,
                   "doinn_client: manifest %s shrank (truncated or rotated); "
                   "reprocessing from the start\n",
                   manifest.c_str());
      lineno = 0;
    }
    const std::vector<Request> fresh =
        parse_requests(tail.lines, lineno, shutdown);
    if (!fresh.empty()) run_requests(endpoint, fresh, 1, opts, totals);
    if (tail.lines.empty()) std::this_thread::sleep_for(kFollowPoll);
  }
  net::Client client(endpoint.host, endpoint.port);
  client.send_shutdown();
  std::printf("doinn_client: shutdown sent to %s:%u\n", endpoint.host.c_str(),
              static_cast<unsigned>(endpoint.port));
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void usage() {
  std::printf(
      "usage: doinn_client --connect <host:port> --mask m.pgm --out c.pgm\n"
      "                    [--model NAME]\n"
      "       doinn_client --connect <host:port> --manifest requests.txt\n"
      "                    [--repeat 1] [worker flags]\n"
      "       doinn_client --connect <host:port> --follow requests.txt\n"
      "                    [--results F] [worker flags]\n"
      "       doinn_client --connect <host:port> --shutdown\n"
      "worker flags: [--model NAME] [--concurrency 4] [--busy-retry-ms 5]\n"
      "              [--busy-retry-max-ms 250]\n"
      "Drives doinn_serve over the framed TCP protocol. Manifest lines are\n"
      "<mask.pgm> <out.pgm>, optionally prefixed by a `model:<name>` field;\n"
      "`__shutdown__` ends the requests. --manifest replays the file\n"
      "closed-loop over --concurrency connections; --follow tails it,\n"
      "sending lines as they are appended, and on `__shutdown__` finishes\n"
      "its requests and asks the server to drain and exit, appending\n"
      "`<mask> <out> ok|error <ms>` per request to --results (default\n"
      "<manifest>.results). BUSY replies are retried with jittered\n"
      "exponential backoff from --busy-retry-ms up to --busy-retry-max-ms\n"
      "(0 disables the wait); --shutdown asks the server to drain and\n"
      "exit. --model routes to a named model of a multi-model server\n"
      "(doinn_serve --models). Exit status is nonzero when any request\n"
      "failed or never completed.\n");
}

/// Prints the run summary; returns the exit status.
int report(const Totals& totals, size_t concurrency, double total_s) {
  std::vector<double> latencies = totals.latencies_ms;
  std::sort(latencies.begin(), latencies.end());
  std::printf(
      "doinn_client: %lld ok, %lld errors, %lld busy retries over %zu "
      "connections in %.2f s\n",
      static_cast<long long>(totals.ok), static_cast<long long>(totals.errors),
      static_cast<long long>(totals.busy_retries), concurrency, total_s);
  if (!latencies.empty()) {
    std::printf("latency p50 %.1f ms, p99 %.1f ms; throughput %.2f req/s\n",
                percentile(latencies, 0.50), percentile(latencies, 0.99),
                static_cast<double>(totals.ok) / std::max(total_s, 1e-9));
  }
  // Any unrecovered failure is a nonzero exit: explicit errors, but also
  // requests that never completed because a worker died after claiming
  // them from the shared index (ok + errors < requested).
  if (totals.errors == 0 && totals.ok < totals.requested) {
    std::fprintf(stderr, "error: %lld of %lld requests never completed\n",
                 static_cast<long long>(totals.requested - totals.ok),
                 static_cast<long long>(totals.requested));
    return 1;
  }
  return totals.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const apps::Args args(argc, argv, /*start=*/1);
    if (args.get_bool("help") || !args.has("connect")) {
      usage();
      return args.get_bool("help") ? 0 : 2;
    }
    const Endpoint endpoint = parse_endpoint(args.get("connect"));

    if (args.get_bool("shutdown")) {
      net::Client client(endpoint.host, endpoint.port);
      client.send_shutdown();
      std::printf("doinn_client: shutdown sent to %s:%u\n",
                  endpoint.host.c_str(),
                  static_cast<unsigned>(endpoint.port));
      return 0;
    }

    if (args.has("mask")) {
      if (!args.has("out")) {
        std::fprintf(stderr, "error: --mask requires --out\n");
        return 2;
      }
      net::Client client(endpoint.host, endpoint.port);
      const Tensor mask = io::read_pgm(args.get("mask"));
      const std::string model = args.get("model", "");
      const auto t0 = Clock::now();
      const Tensor contour =
          model.empty() ? client.predict(1, mask)
                        : client.predict(1, mask, model);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      io::write_pgm(args.get("out"), contour);
      std::printf("doinn_client: %s -> %s in %.1f ms\n",
                  args.get("mask").c_str(), args.get("out").c_str(), ms);
      return 0;
    }

    const bool following = args.has("follow");
    if (following == args.has("manifest")) {
      if (following) {
        std::fprintf(stderr,
                     "error: --manifest and --follow are mutually exclusive\n");
      }
      usage();
      return 2;
    }
    const std::string manifest = args.get(following ? "follow" : "manifest");
    WorkerOptions opts;
    opts.default_model = args.get("model", "");
    opts.concurrency =
        static_cast<size_t>(args.get_positive_int("concurrency", 4));
    opts.busy_retry_ms = std::max<long>(0, args.get_int("busy-retry-ms", 5));
    opts.busy_retry_max_ms = std::max(
        opts.busy_retry_ms,
        std::max<long>(0, args.get_int("busy-retry-max-ms", 250)));
    std::unique_ptr<ResultsLog> results;
    if (following) {
      results = std::make_unique<ResultsLog>(
          args.get("results", manifest + ".results"));
      opts.results = results.get();
    }

    Totals totals;
    const auto t_start = Clock::now();
    if (following) {
      follow(endpoint, manifest, opts, totals);
    } else {
      if (!io::file_exists(manifest)) {
        throw std::runtime_error("cannot open manifest " + manifest);
      }
      // A one-shot read: EOF ends the last line, newline or not.
      std::streamoff offset = 0;
      size_t lineno = 0;
      bool shutdown = false;
      const std::vector<Request> requests = parse_requests(
          apps::read_manifest_tail(manifest, offset,
                                   /*eof_ends_last_line=*/true)
              .lines,
          lineno, shutdown);
      if (requests.empty()) {
        std::fprintf(stderr, "error: manifest has no requests\n");
        return 1;
      }
      run_requests(endpoint, requests,
                   static_cast<size_t>(args.get_positive_int("repeat", 1)),
                   opts, totals);
    }
    const double total_s =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    return report(totals, opts.concurrency, total_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
