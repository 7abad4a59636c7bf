#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>

#include "io/io.h"
#include "test_util.h"

namespace litho::io {
namespace {

TEST(Pgm, WritesValidHeaderAndPixels) {
  Tensor img({2, 3}, {0.f, 0.5f, 1.f, 1.f, 0.25f, 0.75f});
  const std::string path = "/tmp/litho_test.pgm";
  write_pgm(path, img);
  std::ifstream is(path, std::ios::binary);
  std::string magic;
  int w, h, maxv;
  is >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 3);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxv, 255);
  is.get();  // single whitespace after header
  unsigned char px[6];
  is.read(reinterpret_cast<char*>(px), 6);
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[1], 128);
  EXPECT_EQ(px[2], 255);
  std::filesystem::remove(path);
}

TEST(Pgm, AutoRangeWhenLoEqualsHi) {
  Tensor img({1, 2}, {-3.f, 5.f});
  const std::string path = "/tmp/litho_test_auto.pgm";
  write_pgm(path, img, 0.f, 0.f);  // auto range
  std::ifstream is(path, std::ios::binary);
  std::string line;
  std::getline(is, line);
  std::getline(is, line);
  std::getline(is, line);
  unsigned char px[2];
  is.read(reinterpret_cast<char*>(px), 2);
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[1], 255);
  std::filesystem::remove(path);
}

TEST(Pgm, RejectsNon2D) {
  EXPECT_THROW(write_pgm("/tmp/x.pgm", Tensor({2, 2, 2})),
               std::invalid_argument);
}

TEST(Pgm, HugeHeaderOnShortFileThrowsRuntimeError) {
  // 3e9 x 3e9 pixels overflow a 64-bit byte count only after a multiply;
  // the reader must compare against the bytes actually present and fail
  // with runtime_error instead of attempting the allocation.
  const std::string path = "/tmp/litho_test_huge.pgm";
  std::ofstream(path, std::ios::binary) << "P5 3000000000 3000000000 255\n";
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Pgm, PayloadShorterThanHeaderThrows) {
  const std::string path = "/tmp/litho_test_short.pgm";
  std::ofstream(path, std::ios::binary) << "P5\n4 4\n255\n0123456789";
  EXPECT_THROW(read_pgm(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Ppm, WritesColorPlanes) {
  Tensor r = Tensor::ones({2, 2});
  Tensor g = Tensor::zeros({2, 2});
  Tensor b = Tensor::zeros({2, 2});
  const std::string path = "/tmp/litho_test.ppm";
  write_ppm(path, r, g, b);
  std::ifstream is(path, std::ios::binary);
  std::string magic;
  is >> magic;
  EXPECT_EQ(magic, "P6");
  std::filesystem::remove(path);
}

TEST(TensorContainer, RoundTripsMultipleTensors) {
  auto rng = test::rng();
  std::map<std::string, Tensor> dict;
  dict.emplace("a", Tensor::randn({3, 4}, rng));
  dict.emplace("b.nested.name", Tensor::randn({2, 2, 2}, rng));
  dict.emplace("scalarish", Tensor({1}, {42.f}));
  const std::string path = "/tmp/litho_test_container.bin";
  save_tensors(path, dict);
  const auto loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 3u);
  for (const auto& [k, v] : dict) {
    ASSERT_TRUE(loaded.count(k)) << k;
    EXPECT_EQ(loaded.at(k).shape(), v.shape());
    EXPECT_EQ(test::max_abs_diff(loaded.at(k), v), 0.f);
  }
  std::filesystem::remove(path);
}

TEST(TensorContainer, RejectsBadMagic) {
  const std::string path = "/tmp/litho_bad_magic.bin";
  std::ofstream(path, std::ios::binary) << "NOPE-this-is-not-a-container";
  EXPECT_THROW(load_tensors(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TensorContainer, RejectsTruncatedFile) {
  const std::string path = "/tmp/litho_truncated.bin";
  {
    std::map<std::string, Tensor> dict;
    dict.emplace("t", Tensor::ones({64}));
    save_tensors(path, dict);
  }
  // Truncate the payload.
  std::filesystem::resize_file(path, 40);
  EXPECT_THROW(load_tensors(path), std::runtime_error);
  std::filesystem::remove(path);
}

/// Bytes of a v1 container holding one tensor record whose header fields
/// are given raw (no data follows unless @p data_bytes > 0).
std::string container_header(uint32_t name_len, const std::string& name,
                             uint32_t rank, const std::vector<int64_t>& dims,
                             size_t data_bytes = 0) {
  std::string bytes = "LTSR";
  auto put = [&bytes](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  const uint32_t version = 1, count = 1;
  put(&version, 4);
  put(&count, 4);
  put(&name_len, 4);
  bytes += name;
  put(&rank, 4);
  for (const int64_t d : dims) put(&d, 8);
  bytes.append(data_bytes, '\0');
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(TensorContainer, HostileLengthFieldsThrowRuntimeError) {
  // Each header asks for a multi-gigabyte allocation from a file under 40
  // bytes; every one must fail as malformed input, not as bad_alloc.
  const std::string path = "/tmp/litho_hostile.bin";
  const std::vector<std::string> cases = {
      container_header(0xFFFFFFF0u, "ab", 1, {}),
      container_header(1, "w", 0x7FFFFFFFu, {4}),
      container_header(1, "w", 2, {int64_t{1} << 20, int64_t{1} << 20}),
      container_header(1, "w", 2, {INT64_MAX, INT64_MAX}),
      container_header(1, "w", 1, {-4}),
      container_header(1, "w", 9, {1, 1, 1, 1, 1, 1, 1, 1, 1}, 4),
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    write_bytes(path, cases[i]);
    EXPECT_THROW(load_tensors(path), std::runtime_error) << "case " << i;
  }
  // The same framing with honest fields loads.
  write_bytes(path, container_header(1, "w", 2, {2, 3}, 6 * sizeof(float)));
  const auto loaded = load_tensors(path);
  ASSERT_EQ(loaded.count("w"), 1u);
  EXPECT_EQ(loaded.at("w").shape(), (Shape{2, 3}));
  std::filesystem::remove(path);
}

TEST(TensorContainer, CorruptionCorpusLoadsOrThrowsRuntimeError) {
  // A small checkpoint-shaped container (conv weight, bias, BN statistics,
  // a rank-0-like scalar), then every truncation of it and ~2000 seeded
  // byte flips. Each variant must load or throw std::runtime_error — any
  // other exception fails here, and the sanitizer jobs catch memory errors.
  const std::string path = "/tmp/litho_corpus.bin";
  auto rng = test::rng(7);
  std::map<std::string, Tensor> dict;
  dict.emplace("lp.conv1.weight", Tensor::randn({4, 2, 3, 3}, rng));
  dict.emplace("lp.conv1.bias", Tensor::randn({4}, rng));
  dict.emplace("lp.bn1.running_var", Tensor::ones({4}));
  dict.emplace("ir.convr3.weight", Tensor::randn({1, 4, 1, 1}, rng));
  dict.emplace("step", Tensor({1}, {3.f}));
  save_tensors(path, dict);
  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(clean.size(), 100u);

  auto must_load_or_reject = [&path](const std::string& bytes,
                                     const std::string& what) {
    write_bytes(path, bytes);
    try {
      (void)load_tensors(path);
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };
  for (size_t n = 0; n < clean.size(); ++n) {
    must_load_or_reject(clean.substr(0, n), "truncated to " + std::to_string(n));
  }
  std::mt19937 flip_rng(20240611u);
  std::uniform_int_distribution<size_t> pos(0, clean.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = clean;
    const int flips = 1 + i % 4;
    for (int f = 0; f < flips; ++f) {
      bytes[pos(flip_rng)] = static_cast<char>(byte(flip_rng));
    }
    must_load_or_reject(bytes, "flip case " + std::to_string(i));
  }
  std::filesystem::remove(path);
}

TEST(TensorContainer, MissingFileThrows) {
  EXPECT_THROW(load_tensors("/tmp/litho_does_not_exist.bin"),
               std::runtime_error);
}

TEST(Fs, FileExistsAndEnsureDir) {
  EXPECT_FALSE(file_exists("/tmp/litho_no_such_file"));
  ensure_dir("/tmp/litho_test_dir/nested");
  EXPECT_TRUE(std::filesystem::is_directory("/tmp/litho_test_dir/nested"));
  std::filesystem::remove_all("/tmp/litho_test_dir");
}

}  // namespace
}  // namespace litho::io
