#include "net/client.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#ifdef __linux__
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace litho::net {

#ifdef __linux__

Client::Client(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &result) != 0 ||
      result == nullptr) {
    throw std::runtime_error("Client: cannot resolve " + host);
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    throw std::runtime_error("Client: cannot connect to " + host + ":" +
                             service);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_raw(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("Client: send failed (connection closed?)");
  }
}

void Client::send_predict(uint64_t request_id, const Tensor& mask) {
  const std::vector<uint8_t> frame = make_predict_frame(request_id, mask);
  send_raw(frame.data(), frame.size());
}

void Client::send_predict(uint64_t request_id, const Tensor& mask,
                          const std::string& model) {
  const std::vector<uint8_t> frame =
      make_predict_frame(request_id, mask, model);
  send_raw(frame.data(), frame.size());
}

void Client::send_shutdown() {
  const std::vector<uint8_t> frame = make_shutdown_frame();
  send_raw(frame.data(), frame.size());
}

Reply Client::read_reply() {
  uint8_t buf[65536];
  for (;;) {
    // Parse a complete frame from what we already have.
    if (in_.size() >= kHeaderBytes) {
      FrameHeader header;
      if (!decode_header(in_.data(), header)) {
        throw std::runtime_error("Client: malformed frame from server");
      }
      const size_t total = kHeaderBytes + header.payload_bytes;
      if (in_.size() >= total) {
        Reply reply;
        reply.type = header.type;
        reply.request_id = header.request_id;
        const uint8_t* payload = in_.data() + kHeaderBytes;
        if (header.type == FrameType::kContour) {
          if (!decode_image(payload, header.payload_bytes, reply.contour)) {
            throw std::runtime_error("Client: malformed contour payload");
          }
        } else if (header.type == FrameType::kError) {
          reply.error.assign(reinterpret_cast<const char*>(payload),
                             header.payload_bytes);
        }
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<ptrdiff_t>(total));
        return reply;
      }
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("Client: connection closed by server");
  }
}

Tensor Client::predict(uint64_t request_id, const Tensor& mask) {
  send_predict(request_id, mask);
  return finish_predict(request_id);
}

Tensor Client::predict(uint64_t request_id, const Tensor& mask,
                       const std::string& model) {
  send_predict(request_id, mask, model);
  return finish_predict(request_id);
}

Tensor Client::finish_predict(uint64_t request_id) {
  Reply reply = read_reply();
  if (reply.type == FrameType::kBusy) {
    throw std::runtime_error("Client: server busy");
  }
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("Client: server error: " + reply.error);
  }
  if (reply.type != FrameType::kContour ||
      reply.request_id != request_id) {
    throw std::runtime_error("Client: unexpected reply frame");
  }
  return std::move(reply.contour);
}

#else  // !__linux__

Client::Client(const std::string&, uint16_t) {
  throw std::runtime_error("Client: socket front end requires Linux");
}
Client::~Client() = default;
void Client::send_raw(const void*, size_t) {}
void Client::send_predict(uint64_t, const Tensor&) {}
void Client::send_predict(uint64_t, const Tensor&, const std::string&) {}
void Client::send_shutdown() {}
Reply Client::read_reply() { return {}; }
Tensor Client::predict(uint64_t, const Tensor&) { return {}; }
Tensor Client::predict(uint64_t, const Tensor&, const std::string&) {
  return {};
}
Tensor Client::finish_predict(uint64_t) { return {}; }

#endif  // __linux__

}  // namespace litho::net
