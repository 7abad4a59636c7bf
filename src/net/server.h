// TCP serving front end: framed mask-in / contour-out protocol over an
// epoll event loop, integrated with the runtime::EnginePool through its
// non-blocking try_submit.
//
// Threading model (two threads, both owned here):
//
//   event-loop thread (the caller of run())
//     accepts connections, reassembles length-prefixed frames from the
//     nonblocking sockets, decodes masks, and calls
//     EnginePool::try_submit. A full replica queue yields an immediate
//     BUSY reply (503 semantics) — the loop never blocks on backpressure,
//     never drops a request silently, and keeps serving other connections
//     while the engine is saturated. Completed contours are encoded and
//     written back from the same thread (partial writes resume on
//     EPOLLOUT).
//
//   completion thread
//     waits on the scheduler futures in acceptance order (they resolve in
//     dispatch order, so this pipeline stays full), then hands finished
//     contours back to the loop thread through a mutex-guarded list plus
//     an eventfd wake. Futures are the only blocking wait in the server,
//     and it happens here, off the event loop.
//
// Protocol-level errors (bad magic/version, oversize frame, malformed
// image payload) get a typed ERROR reply and the connection is closed;
// request-level errors (an unknown model, or the engine rejected this
// particular mask) get an ERROR reply and the connection stays open. A
// SHUTDOWN frame asks the server to stop: run() drains — every accepted
// request's reply is flushed — and returns.
//
// Trace spans: `serve.ingest` on the loop thread, `serve.wait` on the
// completion thread, `serve.write` on the loop thread; with the
// scheduler's sched.* spans they form the serving-path taxonomy that
// scripts/trace_summary.py validates. Metrics land in the serve.*
// namespace of the provided registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "runtime/metrics_registry.h"

namespace litho::runtime {
class EnginePool;
}  // namespace litho::runtime

namespace litho::net {

struct ServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() — tests and the bench use this to avoid collisions).
  uint16_t port = 0;
  /// listen(2) backlog and the cap on concurrently open connections;
  /// connections beyond the cap are accepted and immediately closed.
  int max_connections = 64;
  /// A connection with no frame activity (no bytes read or written, no
  /// request in flight) for this long is closed by the loop thread, so
  /// abandoned clients cannot pin slots under max_connections forever.
  /// <= 0 disables reaping. doinn_serve exposes this as --idle-timeout-s.
  int idle_timeout_ms = 60000;
};

/// Snapshot of the server's serve.* counters.
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t requests_ok = 0;
  int64_t requests_error = 0;
  int64_t busy_rejected = 0;
  int64_t protocol_errors = 0;
  int64_t dropped_replies = 0;  ///< contours whose connection closed first
  int64_t idle_reaped = 0;      ///< connections closed by the idle timer
};

class Server {
 public:
  /// Binds and listens immediately (clients may connect before run());
  /// throws std::runtime_error when the socket cannot be set up.
  /// PREDICT frames are routed through @p pool by the version-2 model-name
  /// field (version-1 frames and empty names go to the pool's default
  /// model); a name the pool doesn't serve gets a request-level ERROR
  /// reply. The pool must outlive the server, and the caller shuts it down
  /// only after run() returns — the server's drain depends on pending
  /// futures still resolving.
  /// @param metrics Registry for the serve.* metrics; nullptr gives the
  ///   server a private registry.
  Server(runtime::EnginePool& pool, const ServerOptions& opts,
         runtime::MetricsRegistry* metrics = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves option port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread until stop() or a SHUTDOWN
  /// frame, then drains: stops accepting, waits for every accepted
  /// request's future, flushes all replies (blocking writes), and closes
  /// every connection.
  void run();

  /// Makes run() return and drain. Async-signal-safe: callable from
  /// SIGINT/SIGTERM handlers and from any thread.
  void stop();

  /// True once a client's SHUTDOWN frame (rather than stop()) ended run().
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// Runs @p handler on the loop thread at least every @p interval_ms —
  /// doinn_serve polls its SIGUSR1 dump flag here. Call before run().
  void set_poll_handler(int interval_ms, std::function<void()> handler);

  ServerStats stats() const;

  /// Registry holding the serve.* metrics.
  runtime::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint16_t port_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  runtime::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace litho::net
