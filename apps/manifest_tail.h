// Request manifests for doinn_client: the one line grammar and the
// incremental tailing behind --follow, kept in a header so
// tests/test_serve_manifest.cpp can exercise them directly (the same
// pattern as apps/args.h).
//
// Line grammar (parse_manifest_line):
//
//   <mask.pgm> <out.pgm>                 request for the default model
//   model:<name> <mask.pgm> <out.pgm>    request for a named model
//   # comment / blank line               ignored
//   __shutdown__                         end of the request stream
//
// Anything else (a missing out path, an empty `model:` name) is malformed;
// callers log and skip it. Fields after the out path are ignored.
//
// The manifest is an append-mostly text file consumed in one direction: a
// byte offset tracks how far the client has read, each poll resumes there
// (no quadratic re-scan), and only newline-terminated lines are consumed —
// a line the producer is still appending waits for the next poll instead
// of being read truncated and then skipped forever.
//
// Rotation/truncation: when the file is now *smaller* than the stored
// offset, the producer truncated or rotated it. Seeking to the stale
// offset would land past EOF and every subsequent poll would read nothing
// — the client idles forever while new lines accumulate below the offset.
// read_manifest_tail() detects the shrink, resets the offset to zero, and
// reports it so the caller can log that the file restarted.
#pragma once

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace litho::apps {

/// One poll's worth of freshly consumed manifest lines.
struct ManifestTail {
  /// Complete lines in file order, newline (and a trailing CR) stripped.
  std::vector<std::string> lines;
  /// The file shrank below the consumed offset (truncation/rotation); the
  /// offset was reset and `lines` holds the file's content from the start.
  bool restarted = false;
};

/// Reads the newline-terminated lines past @p consumed_bytes and advances
/// the offset past them. @p eof_ends_last_line treats EOF as terminating
/// an unterminated final line (a one-shot read, where no next poll exists).
/// A missing/unreadable file yields an empty tail.
inline ManifestTail read_manifest_tail(const std::string& path,
                                       std::streamoff& consumed_bytes,
                                       bool eof_ends_last_line = false) {
  ManifestTail result;
  std::ifstream manifest(path, std::ios::binary);
  if (!manifest) return result;
  manifest.seekg(0, std::ios::end);
  const std::streamoff size = manifest.tellg();
  if (size >= 0 && size < consumed_bytes) {
    consumed_bytes = 0;
    result.restarted = true;
  }
  manifest.seekg(consumed_bytes);
  std::string tail((std::istreambuf_iterator<char>(manifest)),
                   std::istreambuf_iterator<char>());
  if (eof_ends_last_line && !tail.empty() && tail.back() != '\n') {
    tail += '\n';
  }
  const size_t complete = tail.rfind('\n');
  if (complete == std::string::npos) return result;
  consumed_bytes += static_cast<std::streamoff>(complete + 1);
  size_t start = 0;
  while (start <= complete) {
    const size_t nl = tail.find('\n', start);
    std::string line = tail.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    result.lines.push_back(std::move(line));
    start = nl + 1;
  }
  return result;
}

/// One manifest line, classified by parse_manifest_line.
struct ManifestLine {
  enum class Kind { kSkip, kRequest, kMalformed, kShutdown };
  Kind kind = Kind::kSkip;
  std::string model;  // "" = the default model
  std::string mask_path;
  std::string out_path;
};

/// Classifies one manifest line (a trailing CR is ignored) per the grammar
/// at the top of this file.
inline ManifestLine parse_manifest_line(std::string line) {
  ManifestLine out;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line == "__shutdown__") {
    out.kind = ManifestLine::Kind::kShutdown;
    return out;
  }
  std::istringstream fields(line);
  std::string first;
  if (line.empty() || line[0] == '#' || !(fields >> first)) return out;
  const bool named = first.rfind("model:", 0) == 0;
  if (named) {
    out.model = first.substr(6);
    fields >> out.mask_path;
  } else {
    out.mask_path = std::move(first);
  }
  const bool complete = !(named && out.model.empty()) &&
                        !out.mask_path.empty() && (fields >> out.out_path);
  out.kind = complete ? ManifestLine::Kind::kRequest
                      : ManifestLine::Kind::kMalformed;
  return out;
}

}  // namespace litho::apps
