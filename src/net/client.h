// Blocking client for the framed mask-in / contour-out protocol
// (src/net/protocol.h). One Client wraps one TCP connection; requests may
// be pipelined (send several predicts, then read the replies in order).
// Used by the doinn_client load generator, the socket pass of
// bench_serve_throughput, and the loopback end-to-end tests.
//
// Not thread-safe: share nothing, or one Client per thread.
#pragma once

#include <cstdint>
#include <string>

#include "net/protocol.h"
#include "tensor/tensor.h"

namespace litho::net {

/// One decoded reply frame.
struct Reply {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  Tensor contour;     ///< valid when type == kContour
  std::string error;  ///< server's message when type == kError
};

class Client {
 public:
  /// Connects (blocking) to host:port; throws std::runtime_error when the
  /// connection cannot be established.
  Client(const std::string& host, uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends a PREDICT frame carrying @p mask (quantized exactly like
  /// io::write_pgm, so the server decodes the same tensor io::read_pgm
  /// would read from a PGM file). The two-argument form sends a version-1
  /// frame (default-model routing); the @p model form sends a version-2
  /// frame naming the model to serve ("" = default model).
  void send_predict(uint64_t request_id, const Tensor& mask);
  void send_predict(uint64_t request_id, const Tensor& mask,
                    const std::string& model);

  /// Asks the server to stop and drain.
  void send_shutdown();

  /// Sends arbitrary bytes verbatim — the tests use this to feed the
  /// server garbage and oversize frames.
  void send_raw(const void* data, size_t size);

  /// Blocks until one complete reply frame arrives. Throws
  /// std::runtime_error when the server closes the connection or sends a
  /// frame that does not parse.
  Reply read_reply();

  /// send_predict + read_reply; throws on BUSY/ERROR replies. Convenience
  /// for sequential callers that don't pipeline. The @p model form routes
  /// to a named model on a multi-model server.
  Tensor predict(uint64_t request_id, const Tensor& mask);
  Tensor predict(uint64_t request_id, const Tensor& mask,
                 const std::string& model);

 private:
  Tensor finish_predict(uint64_t request_id);

  int fd_ = -1;
  std::vector<uint8_t> in_;  ///< bytes received but not yet parsed
};

}  // namespace litho::net
