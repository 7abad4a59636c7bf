#include "net/server.h"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef __linux__
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#endif

#include "net/event_loop.h"
#include "net/protocol.h"
#include "runtime/engine_pool.h"
#include "runtime/trace.h"

namespace litho::net {

#ifdef __linux__

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
}

}  // namespace

struct Server::Impl {
  Impl(runtime::EnginePool& engine_pool, const ServerOptions& options,
       runtime::MetricsRegistry* registry, Server& owner)
      : pool(engine_pool),
        opts(options),
        server(owner),
        owned_metrics(registry != nullptr ? nullptr
                                          : new runtime::MetricsRegistry),
        metrics(registry != nullptr ? registry : owned_metrics.get()),
        m_connections(metrics->counter("serve.connections_accepted")),
        m_ok(metrics->counter("serve.requests_ok")),
        m_errors(metrics->counter("serve.requests_error")),
        m_busy(metrics->counter("serve.busy_rejected")),
        m_protocol_errors(metrics->counter("serve.protocol_errors")),
        m_dropped(metrics->counter("serve.dropped_replies")),
        m_idle_reaped(metrics->counter("serve.idle_reaped")),
        m_latency_ms(metrics->histogram("serve.latency_ms")),
        m_error_latency_ms(metrics->histogram("serve.error_latency_ms")) {}

  /// One accepted connection. Frames are reassembled in `in`; outgoing
  /// frames queue in `out` and flush opportunistically, resuming on
  /// EPOLLOUT after a partial write.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::vector<uint8_t> in;
    std::deque<std::vector<uint8_t>> out;
    size_t out_offset = 0;  // into out.front()
    bool want_write = false;
    bool close_after_flush = false;
    /// Last time frame bytes moved on the socket; idle reaping measures
    /// from here. Requests in flight also count as activity (inflight).
    Clock::time_point last_activity;
    /// Accepted requests whose reply has not been queued yet.
    int64_t inflight = 0;
    // close_conn() ran: deregistered and unreachable by id, awaiting
    // reap(). Deferred destruction keeps Connection& references held by
    // callers up the stack valid.
    bool dead = false;
  };

  /// An accepted request travelling loop thread -> completion thread.
  struct PendingReply {
    uint64_t conn_id = 0;
    uint64_t wire_id = 0;   // client's request id, echoed in the reply
    uint64_t trace_id = 0;  // server ingest id, correlates trace spans
    std::future<Tensor> contour;
    Clock::time_point t0;
  };

  /// A resolved request travelling completion thread -> loop thread.
  struct DoneReply {
    uint64_t conn_id = 0;
    uint64_t wire_id = 0;
    uint64_t trace_id = 0;
    bool ok = false;
    Tensor contour;
    std::string error;
    Clock::time_point t0;
  };

  runtime::EnginePool& pool;
  const ServerOptions opts;
  Server& server;
  std::unique_ptr<runtime::MetricsRegistry> owned_metrics;
  runtime::MetricsRegistry* metrics;
  runtime::Counter& m_connections;
  runtime::Counter& m_ok;
  runtime::Counter& m_errors;
  runtime::Counter& m_busy;
  runtime::Counter& m_protocol_errors;
  runtime::Counter& m_dropped;
  runtime::Counter& m_idle_reaped;
  runtime::Histogram& m_latency_ms;
  runtime::Histogram& m_error_latency_ms;

  EventLoop loop;
  int listen_fd = -1;
  uint64_t next_conn_id = 0;
  uint64_t next_trace_id = 0;
  std::unordered_map<int, Connection> conns;          // by fd
  std::unordered_map<uint64_t, int> conn_fd_by_id;    // id -> fd
  std::vector<int> dead_fds;                          // awaiting reap()

  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::deque<PendingReply> pending;
  bool pending_closed = false;
  std::thread completion_thread;

  std::mutex done_mutex;
  std::vector<DoneReply> done;

  // User poll hook (doinn_serve's SIGUSR1 dump flag); the loop's single
  // poll handler is owned here so the idle-reap tick can share it.
  std::function<void()> user_poll;
  int user_poll_ms = 0;

  // -- setup ----------------------------------------------------------------

  void listen() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) throw std::runtime_error("Server: socket failed");
    const int on = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(opts.port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      throw std::runtime_error("Server: cannot bind port " +
                               std::to_string(opts.port));
    }
    if (::listen(listen_fd, opts.max_connections) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      throw std::runtime_error("Server: listen failed");
    }
    set_nonblocking(listen_fd);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    server.port_ = ntohs(addr.sin_port);
    loop.add(listen_fd, EPOLLIN, [this](uint32_t) { on_accept(); });
    loop.set_wake_handler([this] { drain_done(/*final=*/false); });
    completion_thread = std::thread([this] { completion_loop(); });
  }

  // -- event-loop thread ----------------------------------------------------

  void on_accept() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // transient accept failure; keep serving
      }
      if (static_cast<int>(conns.size()) >= opts.max_connections) {
        ::close(fd);  // beyond the cap: refuse by immediate close
        continue;
      }
      set_nonblocking(fd);
      const int on = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
      Connection conn;
      conn.fd = fd;
      conn.id = ++next_conn_id;
      conn.last_activity = Clock::now();
      conn_fd_by_id[conn.id] = fd;
      conns[fd] = std::move(conn);
      m_connections.add();
      loop.add(fd, EPOLLIN, [this, fd](uint32_t events) {
        on_connection_ready(fd, events);
      });
    }
  }

  void on_connection_ready(int fd, uint32_t events) {
    const auto it = conns.find(fd);
    if (it == conns.end() || it->second.dead) return;
    Connection& conn = it->second;
    if (events & (EPOLLHUP | EPOLLERR)) {
      close_conn(conn);
      reap();
      return;
    }
    if (events & EPOLLOUT) flush(conn);
    if ((events & EPOLLIN) && !conn.dead) {
      uint8_t buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.last_activity = Clock::now();
          conn.in.insert(conn.in.end(), buf, buf + n);
          if (static_cast<size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n == 0) {  // peer closed
          close_conn(conn);
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn);
        break;
      }
      if (!conn.dead) parse_frames(conn);
    }
    reap();
  }

  void parse_frames(Connection& conn) {
    size_t consumed = 0;
    while (!conn.dead && !conn.close_after_flush &&
           conn.in.size() - consumed >= kHeaderBytes) {
      FrameHeader header;
      if (!decode_header(conn.in.data() + consumed, header)) {
        protocol_error(conn, 0, "bad frame header");
        break;
      }
      const size_t frame_bytes = kHeaderBytes + header.payload_bytes;
      if (conn.in.size() - consumed < frame_bytes) break;  // need more bytes
      handle_frame(conn, header, conn.in.data() + consumed + kHeaderBytes);
      consumed += frame_bytes;
      if (loop.stop_requested()) break;
    }
    if (consumed > 0) {
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<ptrdiff_t>(consumed));
    }
  }

  void handle_frame(Connection& conn, const FrameHeader& header,
                    const uint8_t* payload) {
    switch (header.type) {
      case FrameType::kPredict: {
        const Clock::time_point t0 = Clock::now();
        const uint64_t trace_id = ++next_trace_id;
        DOINN_TRACE_SCOPE("serve.ingest", "serve", "req",
                          static_cast<int64_t>(trace_id));
        std::string model;
        Tensor mask;
        if (!decode_predict_payload(header.version, payload,
                                    header.payload_bytes, model, mask)) {
          protocol_error(conn, header.request_id, "malformed predict payload");
          return;
        }
        // Unknown model is a request-level error: this request fails but
        // the connection (and any pipelined requests on it) stays open.
        if (!pool.has_model(model)) {
          m_errors.add();
          m_error_latency_ms.record(
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count());
          send_frame(conn, make_error_frame(header.request_id,
                                            "unknown model: " + model));
          return;
        }
        auto future = pool.try_submit(model, std::move(mask), trace_id);
        if (!future.has_value()) {
          // Queue full (or the scheduler is draining): typed BUSY reject,
          // never a blocked event loop or a silently dropped request.
          m_busy.add();
          send_frame(conn, make_busy_frame(header.request_id));
          return;
        }
        PendingReply reply;
        reply.conn_id = conn.id;
        reply.wire_id = header.request_id;
        reply.trace_id = trace_id;
        reply.contour = std::move(*future);
        reply.t0 = t0;
        ++conn.inflight;
        {
          std::lock_guard<std::mutex> lock(pending_mutex);
          pending.push_back(std::move(reply));
        }
        pending_cv.notify_one();
        return;
      }
      case FrameType::kShutdown:
        server.shutdown_requested_.store(true, std::memory_order_relaxed);
        loop.request_stop();
        return;
      case FrameType::kContour:
      case FrameType::kBusy:
      case FrameType::kError:
        protocol_error(conn, header.request_id,
                       "server-to-client frame type from client");
        return;
    }
    protocol_error(conn, header.request_id, "unknown frame type");
  }

  void protocol_error(Connection& conn, uint64_t wire_id,
                      const char* message) {
    m_protocol_errors.add();
    conn.close_after_flush = true;
    send_frame(conn, make_error_frame(wire_id, message));
  }

  /// Queues @p frame on the connection and flushes what the socket will
  /// take right now.
  void send_frame(Connection& conn, std::vector<uint8_t> frame) {
    conn.out.push_back(std::move(frame));
    flush(conn);
  }

  /// Writes queued frames until the socket blocks. Returns false when the
  /// connection was closed (flushed completely with close_after_flush
  /// set, or a write error). The Connection stays valid until reap().
  bool flush(Connection& conn) {
    if (conn.dead) return false;
    while (!conn.out.empty()) {
      const std::vector<uint8_t>& front = conn.out.front();
      const ssize_t n =
          ::send(conn.fd, front.data() + conn.out_offset,
                 front.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!conn.want_write) {
            conn.want_write = true;
            loop.modify(conn.fd, EPOLLIN | EPOLLOUT);
          }
          return true;
        }
        close_conn(conn);
        return false;
      }
      conn.last_activity = Clock::now();
      conn.out_offset += static_cast<size_t>(n);
      if (conn.out_offset == front.size()) {
        conn.out.pop_front();
        conn.out_offset = 0;
      }
    }
    if (conn.want_write) {
      conn.want_write = false;
      loop.modify(conn.fd, EPOLLIN);
    }
    if (conn.close_after_flush) {
      close_conn(conn);
      return false;
    }
    return true;
  }

  /// Deregisters and marks the connection dead. The fd is closed and the
  /// map entry erased by reap(), at the top of the call stack — deferring
  /// both keeps Connection& references valid and prevents the kernel from
  /// recycling the fd number into a colliding map key mid-dispatch.
  void close_conn(Connection& conn) {
    if (conn.dead) return;
    loop.remove(conn.fd);
    conn_fd_by_id.erase(conn.id);
    conn.dead = true;
    dead_fds.push_back(conn.fd);
  }

  void reap() {
    for (const int fd : dead_fds) {
      ::close(fd);
      conns.erase(fd);
    }
    dead_fds.clear();
  }

  /// Closes every connection that has sat past the idle timeout with no
  /// socket traffic, nothing queued to write, and no request in flight —
  /// an in-flight contour still counts as activity, so a slow inference
  /// never gets its connection reaped from under it. Runs on the loop
  /// thread via the poll handler.
  void reap_idle() {
    if (opts.idle_timeout_ms <= 0) return;
    const auto now = Clock::now();
    const auto limit = std::chrono::milliseconds(opts.idle_timeout_ms);
    for (auto& [fd, conn] : conns) {
      (void)fd;
      if (conn.dead || conn.inflight > 0 || !conn.out.empty()) continue;
      if (now - conn.last_activity >= limit) {
        m_idle_reaped.add();
        close_conn(conn);
      }
    }
    reap();
  }

  /// Installs the loop's single poll handler: the idle-reap tick plus the
  /// user hook from Server::set_poll_handler, at the shorter of the two
  /// cadences. Called by run(), after any set_poll_handler.
  void install_poll() {
    int interval = -1;
    if (opts.idle_timeout_ms > 0) {
      // Ticking at a quarter of the timeout bounds reap lag at ~25% while
      // keeping a 60 s default down to one wakeup per second.
      interval = std::min(1000, std::max(10, opts.idle_timeout_ms / 4));
    }
    if (user_poll && user_poll_ms > 0) {
      interval = interval < 0 ? user_poll_ms : std::min(interval, user_poll_ms);
    }
    if (interval < 0) return;
    loop.set_poll_handler(interval, [this] {
      reap_idle();
      if (user_poll) user_poll();
    });
  }

  /// Loop-thread half of the completion hand-off: encodes every resolved
  /// contour into its connection's write queue. During the final drain
  /// (@p final) sockets have been switched to blocking, so flush pushes
  /// every reply out before close.
  void drain_done(bool final) {
    std::vector<DoneReply> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      batch.swap(done);
    }
    for (DoneReply& reply : batch) {
      const auto fd_it = conn_fd_by_id.find(reply.conn_id);
      if (fd_it == conn_fd_by_id.end()) {
        m_dropped.add();  // connection closed before its contour resolved
        continue;
      }
      Connection& conn = conns.at(fd_it->second);
      --conn.inflight;
      // Counters land before the reply bytes: a client that reads the
      // frame and immediately polls stats() must already see its request.
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - reply.t0)
                            .count();
      if (reply.ok) {
        m_ok.add();
        m_latency_ms.record(ms);
      } else {
        // Fast-fail samples go to their own histogram so error bursts
        // can't drag down the serve.latency_ms percentiles.
        m_errors.add();
        m_error_latency_ms.record(ms);
      }
      {
        DOINN_TRACE_SCOPE("serve.write", "serve", "req",
                          static_cast<int64_t>(reply.trace_id));
        send_frame(conn, reply.ok
                             ? make_contour_frame(reply.wire_id, reply.contour)
                             : make_error_frame(reply.wire_id, reply.error));
      }
    }
    (void)final;
  }

  // -- completion thread ----------------------------------------------------

  void completion_loop() {
    runtime::trace::set_thread_name("serve-completion");
    for (;;) {
      PendingReply pending_reply;
      {
        std::unique_lock<std::mutex> lock(pending_mutex);
        pending_cv.wait(lock,
                        [this] { return !pending.empty() || pending_closed; });
        if (pending.empty()) return;  // closed and fully drained
        pending_reply = std::move(pending.front());
        pending.pop_front();
      }
      DoneReply done_reply;
      done_reply.conn_id = pending_reply.conn_id;
      done_reply.wire_id = pending_reply.wire_id;
      done_reply.trace_id = pending_reply.trace_id;
      done_reply.t0 = pending_reply.t0;
      {
        DOINN_TRACE_SCOPE("serve.wait", "serve", "req",
                          static_cast<int64_t>(pending_reply.trace_id));
        try {
          done_reply.contour = pending_reply.contour.get();
          done_reply.ok = true;
        } catch (const std::exception& e) {
          done_reply.error = e.what();
        }
      }
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        done.push_back(std::move(done_reply));
      }
      loop.wake();
    }
  }

  // -- drain ----------------------------------------------------------------

  void drain() {
    // 1. No new connections or frames.
    if (listen_fd >= 0) {
      loop.remove(listen_fd);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // 2. Every accepted request resolves: close the pending queue and let
    //    the completion thread work through it (the pool is still
    //    running — the owner shuts it down only after run() returns).
    {
      std::lock_guard<std::mutex> lock(pending_mutex);
      pending_closed = true;
    }
    pending_cv.notify_all();
    if (completion_thread.joinable()) completion_thread.join();
    // 3. Flush every reply with blocking writes, then close.
    for (auto& [fd, conn] : conns) {
      set_blocking(fd);
      (void)conn;
    }
    drain_done(/*final=*/true);
    for (auto& [fd, conn] : conns) {
      (void)conn;
      ::close(fd);
    }
    conns.clear();
    conn_fd_by_id.clear();
  }
};

Server::Server(runtime::EnginePool& pool, const ServerOptions& opts,
               runtime::MetricsRegistry* metrics)
    : impl_(new Impl(pool, opts, metrics, *this)) {
  impl_->listen();
  metrics_ = impl_->metrics;
}

Server::~Server() {
  // run() normally drains; cover the constructed-but-never-run case (and
  // a run() that threw) so the completion thread always joins.
  if (impl_->completion_thread.joinable()) {
    impl_->loop.request_stop();
    impl_->drain();
  }
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
}

void Server::run() {
  runtime::trace::set_thread_name("serve-loop");
  impl_->install_poll();
  impl_->loop.run();
  impl_->drain();
}

void Server::stop() { impl_->loop.request_stop(); }

void Server::set_poll_handler(int interval_ms,
                              std::function<void()> handler) {
  impl_->user_poll_ms = interval_ms;
  impl_->user_poll = std::move(handler);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = impl_->m_connections.value();
  s.requests_ok = impl_->m_ok.value();
  s.requests_error = impl_->m_errors.value();
  s.busy_rejected = impl_->m_busy.value();
  s.protocol_errors = impl_->m_protocol_errors.value();
  s.dropped_replies = impl_->m_dropped.value();
  s.idle_reaped = impl_->m_idle_reaped.value();
  return s;
}

#else  // !__linux__

struct Server::Impl {};

Server::Server(runtime::EnginePool&, const ServerOptions&,
               runtime::MetricsRegistry*) {
  throw std::runtime_error("Server: the socket front end requires Linux");
}
Server::~Server() = default;
void Server::run() {}
void Server::stop() {}
void Server::set_poll_handler(int, std::function<void()>) {}
ServerStats Server::stats() const { return {}; }

#endif  // __linux__

}  // namespace litho::net
