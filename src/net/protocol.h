// Framed binary protocol for the DOINN socket front end.
//
// Every message is one length-prefixed frame: a fixed 20-byte header
// followed by `payload_bytes` of type-specific payload. All integers are
// little-endian, serialized byte-by-byte so the format is identical on any
// host.
//
//   offset  size  field
//   0       4     magic  0x4E494F44 ("DOIN")
//   4       1     version (kVersion = 2; kVersionLegacy = 1 still decoded)
//   5       1     type (FrameType)
//   6       2     reserved, must be 0
//   8       8     request_id — chosen by the client, echoed verbatim in
//                 the reply so responses can be matched under pipelining
//   16      4     payload_bytes (<= kMaxPayloadBytes)
//
// Frame types and payloads:
//   kPredict (client -> server): the image payload
//       u32 height | u32 width | u16 maxval | u16 reserved |
//       height*width bytes of 8-bit mask levels
//     — version 2 prefixes it with a routing key:
//       u16 model_len (<= kMaxModelNameBytes) | u16 reserved |
//       model_len bytes of model name (no NUL)
//     An empty name, like every version-1 frame, routes to the server's
//     default model. The server scales levels by 1/maxval exactly like
//     io::read_pgm, so a mask sent from a PGM file produces the same float
//     tensor — and therefore a bitwise-identical contour — as a local
//     predict on that file (doinn_cli predict).
//   kContour (server -> client): same layout (maxval 255); levels are the
//     io::write_pgm quantization of the binarized contour, so writing the
//     payload back out as a PGM reproduces doinn_cli predict's output
//     files byte for byte.
//   kBusy (server -> client): empty payload. The scheduler queue was full
//     (503 semantics): the request was NOT accepted; retry later. The
//     connection stays open.
//   kError (server -> client): UTF-8 message. Request-level errors (the
//     engine rejected the mask) keep the connection open; protocol-level
//     errors (bad magic/version, oversize or malformed frame) are
//     followed by the server closing the connection.
//   kShutdown (client -> server): empty payload; asks the server to drain
//     and exit (doinn_client sends it for --shutdown and for the
//     `__shutdown__` manifest line under --follow). No reply; the
//     connection closes when the server drains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace litho::net {

constexpr uint32_t kMagic = 0x4E494F44;  // "DOIN" little-endian
/// Current protocol version (adds the kPredict model-name prefix).
constexpr uint8_t kVersion = 2;
/// First protocol version; still decoded, routes to the default model.
constexpr uint8_t kVersionLegacy = 1;
constexpr size_t kHeaderBytes = 20;
/// Longest model name a v2 kPredict frame may carry.
constexpr uint16_t kMaxModelNameBytes = 256;
/// Payload ceiling: an 8192 x 8192 mask plus the image sub-header and the
/// v2 model-name prefix. Frames declaring more are a protocol error
/// (rejected before any allocation).
constexpr uint32_t kMaxPayloadBytes =
    8192u * 8192u + 8u + 4u + kMaxModelNameBytes;

enum class FrameType : uint8_t {
  kPredict = 1,
  kContour = 2,
  kBusy = 3,
  kError = 4,
  kShutdown = 5,
};

struct FrameHeader {
  uint8_t version = kVersion;
  FrameType type = FrameType::kPredict;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
};

/// Serializes @p header into the 20-byte wire form appended to @p out.
void encode_header(const FrameHeader& header, std::vector<uint8_t>& out);

/// Parses a header from @p data (at least kHeaderBytes long). Returns
/// false — leaving @p out untouched — on bad magic, unknown version or
/// type, nonzero reserved bits, or a payload_bytes above kMaxPayloadBytes.
/// Both kVersion and kVersionLegacy are accepted; out.version tells the
/// caller which payload layout to expect.
bool decode_header(const uint8_t* data, FrameHeader& out);

/// Encodes a [0,1] 2-D tensor as a kPredict/kContour image payload using
/// io::write_pgm's quantization (maxval 255). Appends to @p out.
void encode_image(const Tensor& image, std::vector<uint8_t>& out);

/// Decodes an image payload into a 2-D tensor, scaling levels by 1/maxval
/// exactly like io::read_pgm. Returns false on a malformed payload
/// (sub-header truncated, zero extent, maxval 0 or > 255, byte count not
/// equal to height*width).
bool decode_image(const uint8_t* data, size_t size, Tensor& out);

/// Decodes a kPredict payload for either protocol version. For
/// kVersionLegacy the payload is the bare image and @p model_out is
/// cleared; for kVersion the model-name prefix is parsed first. Returns
/// false on any malformed layout (unknown version, truncated prefix,
/// model_len > kMaxModelNameBytes, nonzero reserved bits, bad image).
bool decode_predict_payload(uint8_t version, const uint8_t* data, size_t size,
                            std::string& model_out, Tensor& mask_out);

/// Builds one complete frame (header + payload) ready to write.
/// The two-argument predict form emits a version-1 frame (bare image,
/// default-model routing — byte-identical to the pre-v2 wire format); the
/// three-argument form emits a version-2 frame carrying @p model (empty =
/// default model; throws std::invalid_argument above kMaxModelNameBytes).
std::vector<uint8_t> make_predict_frame(uint64_t request_id,
                                        const Tensor& mask);
std::vector<uint8_t> make_predict_frame(uint64_t request_id,
                                        const Tensor& mask,
                                        const std::string& model);
std::vector<uint8_t> make_contour_frame(uint64_t request_id,
                                        const Tensor& contour);
std::vector<uint8_t> make_busy_frame(uint64_t request_id);
std::vector<uint8_t> make_error_frame(uint64_t request_id,
                                      const std::string& message);
std::vector<uint8_t> make_shutdown_frame();

}  // namespace litho::net
