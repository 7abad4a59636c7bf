#include "io/io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace litho::io {
namespace {

uint8_t to_byte(float v, float lo, float hi) {
  const float t = (v - lo) / (hi - lo);
  const float c = std::clamp(t, 0.f, 1.f);
  return static_cast<uint8_t>(c * 255.f + 0.5f);
}

template <typename T>
void write_raw(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_raw(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("tensor container: truncated file");
  return v;
}

/// Bytes between the read position and EOF. Length fields read from a
/// file are checked against this before they size an allocation, so a
/// corrupt header fails as malformed input instead of requesting gigabytes.
uint64_t bytes_left(std::ifstream& is, const std::string& path) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  if (!is || here < 0 || end < here) {
    throw std::runtime_error(path + ": truncated file");
  }
  return static_cast<uint64_t>(end - here);
}

}  // namespace

void write_pgm(const std::string& path, const Tensor& image, float lo,
               float hi) {
  if (image.dim() != 2) {
    throw std::invalid_argument("write_pgm requires a 2-D tensor, got " +
                                shape_to_string(image.shape()));
  }
  if (lo == hi) {
    lo = image.min();
    hi = image.max();
    if (lo == hi) hi = lo + 1.f;
  }
  const int64_t h = image.size(0), w = image.size(1);
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  os << "P5\n" << w << " " << h << "\n255\n";
  std::vector<uint8_t> row(static_cast<size_t>(w));
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      row[static_cast<size_t>(c)] = to_byte(image[r * w + c], lo, hi);
    }
    os.write(reinterpret_cast<const char*>(row.data()), w);
  }
}

Tensor read_pgm(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path + " for reading");
  std::string magic;
  is >> magic;
  if (magic != "P5") throw std::runtime_error(path + ": not a binary PGM");
  // Skip whitespace and '#' comment lines between header tokens.
  auto next_int = [&is, &path]() {
    int c = is.peek();
    while (c == ' ' || c == '\n' || c == '\r' || c == '\t' || c == '#') {
      if (c == '#') {
        std::string comment;
        std::getline(is, comment);
      } else {
        is.get();
      }
      c = is.peek();
    }
    int64_t v = 0;
    if (!(is >> v)) throw std::runtime_error(path + ": truncated PGM header");
    return v;
  };
  const int64_t w = next_int();
  const int64_t h = next_int();
  const int64_t maxv = next_int();
  if (w <= 0 || h <= 0 || maxv <= 0 || maxv > 255) {
    throw std::runtime_error(path + ": unsupported PGM geometry");
  }
  is.get();  // single whitespace byte after maxval
  // Dividing instead of multiplying keeps a hostile w * h from overflowing.
  const uint64_t left = bytes_left(is, path);
  if (static_cast<uint64_t>(w) > left / static_cast<uint64_t>(h)) {
    throw std::runtime_error(path + ": truncated PGM payload");
  }
  std::vector<uint8_t> raw(static_cast<size_t>(w * h));
  is.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (!is) throw std::runtime_error(path + ": truncated PGM payload");
  Tensor out({h, w});
  const float scale = 1.f / static_cast<float>(maxv);
  for (int64_t i = 0; i < out.numel(); ++i) {
    out[i] = static_cast<float>(raw[static_cast<size_t>(i)]) * scale;
  }
  return out;
}

void write_ppm(const std::string& path, const Tensor& r, const Tensor& g,
               const Tensor& b) {
  if (r.dim() != 2 || !r.same_shape(g) || !r.same_shape(b)) {
    throw std::invalid_argument("write_ppm requires three equal 2-D tensors");
  }
  const int64_t h = r.size(0), w = r.size(1);
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  os << "P6\n" << w << " " << h << "\n255\n";
  std::vector<uint8_t> row(static_cast<size_t>(3 * w));
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      row[static_cast<size_t>(3 * x + 0)] = to_byte(r[y * w + x], 0.f, 1.f);
      row[static_cast<size_t>(3 * x + 1)] = to_byte(g[y * w + x], 0.f, 1.f);
      row[static_cast<size_t>(3 * x + 2)] = to_byte(b[y * w + x], 0.f, 1.f);
    }
    os.write(reinterpret_cast<const char*>(row.data()), 3 * w);
  }
}

void save_tensors(const std::string& path,
                  const std::map<std::string, Tensor>& tensors) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  os.write("LTSR", 4);
  write_raw<uint32_t>(os, 1u);
  write_raw<uint32_t>(os, static_cast<uint32_t>(tensors.size()));
  for (const auto& [name, t] : tensors) {
    write_raw<uint32_t>(os, static_cast<uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_raw<uint32_t>(os, static_cast<uint32_t>(t.dim()));
    for (int64_t d = 0; d < t.dim(); ++d) write_raw<int64_t>(os, t.size(d));
    os.write(reinterpret_cast<const char*>(t.data()),
             static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  if (!os) throw std::runtime_error("write to " + path + " failed");
}

std::map<std::string, Tensor> load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path + " for reading");
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != "LTSR") {
    throw std::runtime_error(path + ": bad magic");
  }
  const auto version = read_raw<uint32_t>(is);
  if (version != 1u) throw std::runtime_error(path + ": unsupported version");
  const auto count = read_raw<uint32_t>(is);
  std::map<std::string, Tensor> out;
  for (uint32_t i = 0; i < count; ++i) {
    const auto name_len = read_raw<uint32_t>(is);
    if (name_len > bytes_left(is, path)) {
      throw std::runtime_error(path + ": tensor name past end of file");
    }
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    const auto rank = read_raw<uint32_t>(is);
    if (rank > 8) throw std::runtime_error(path + ": tensor rank above 8");
    Shape shape(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      shape[d] = read_raw<int64_t>(is);
      if (shape[d] < 0) throw std::runtime_error(path + ": negative extent");
    }
    // numel * 4 must fit in the bytes left; dividing never overflows.
    const uint64_t max_numel = bytes_left(is, path) / sizeof(float);
    uint64_t numel = 1;
    for (const int64_t extent : shape) {
      const uint64_t e = static_cast<uint64_t>(extent);
      if (e != 0 && numel > max_numel / e) {
        throw std::runtime_error(path + ": tensor data past end of file");
      }
      numel *= e;
    }
    if (numel > max_numel) {  // a rank-0 record still holds one element
      throw std::runtime_error(path + ": tensor data past end of file");
    }
    Tensor t(shape);
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
    if (!is) throw std::runtime_error(path + ": truncated tensor data");
    out.emplace(std::move(name), std::move(t));
  }
  return out;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("cannot create directory " + dir);
}

}  // namespace litho::io
