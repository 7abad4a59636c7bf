// Tests for the request-manifest helpers doinn_client uses
// (apps/manifest_tail.h): the shared line grammar (plain and `model:`
// requests, malformed lines, comments, blank lines, CR endings,
// `__shutdown__`), and incremental tailing — consumption, unterminated-line
// handling, one-shot EOF semantics, CRLF stripping, and the
// truncation/rotation regression: a manifest that shrinks below the
// consumed offset used to leave the follower idle forever (the stale
// offset seeked past EOF, so every poll read nothing); it must instead
// reset and reprocess from the start.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../apps/manifest_tail.h"

namespace litho {
namespace {

using Kind = apps::ManifestLine::Kind;

TEST(ManifestLine, PlainRequest) {
  const apps::ManifestLine l = apps::parse_manifest_line("a.pgm a.out");
  EXPECT_EQ(l.kind, Kind::kRequest);
  EXPECT_EQ(l.model, "");
  EXPECT_EQ(l.mask_path, "a.pgm");
  EXPECT_EQ(l.out_path, "a.out");
  // Extra fields after the out path are ignored.
  EXPECT_EQ(apps::parse_manifest_line("a.pgm  a.out extra").out_path, "a.out");
}

TEST(ManifestLine, ModelPrefixRoutesToNamedModel) {
  const apps::ManifestLine l =
      apps::parse_manifest_line("model:beta m.pgm c.pgm");
  EXPECT_EQ(l.kind, Kind::kRequest);
  EXPECT_EQ(l.model, "beta");
  EXPECT_EQ(l.mask_path, "m.pgm");
  EXPECT_EQ(l.out_path, "c.pgm");
}

TEST(ManifestLine, EmptyModelNameIsMalformed) {
  EXPECT_EQ(apps::parse_manifest_line("model: m.pgm c.pgm").kind,
            Kind::kMalformed);
  EXPECT_EQ(apps::parse_manifest_line("model:").kind, Kind::kMalformed);
}

TEST(ManifestLine, MissingOutPathIsMalformed) {
  EXPECT_EQ(apps::parse_manifest_line("lonely.pgm").kind, Kind::kMalformed);
  EXPECT_EQ(apps::parse_manifest_line("model:alpha lonely.pgm").kind,
            Kind::kMalformed);
}

TEST(ManifestLine, CommentsAndBlankLinesAreSkipped) {
  EXPECT_EQ(apps::parse_manifest_line("").kind, Kind::kSkip);
  EXPECT_EQ(apps::parse_manifest_line("   ").kind, Kind::kSkip);
  EXPECT_EQ(apps::parse_manifest_line("# a.pgm a.out").kind, Kind::kSkip);
  EXPECT_EQ(apps::parse_manifest_line("\r").kind, Kind::kSkip);
}

TEST(ManifestLine, CarriageReturnEndingsParseLikeLf) {
  const apps::ManifestLine l = apps::parse_manifest_line("a.pgm a.out\r");
  EXPECT_EQ(l.kind, Kind::kRequest);
  EXPECT_EQ(l.out_path, "a.out");
  EXPECT_EQ(apps::parse_manifest_line("__shutdown__\r").kind,
            Kind::kShutdown);
}

TEST(ManifestLine, ShutdownMarker) {
  EXPECT_EQ(apps::parse_manifest_line("__shutdown__").kind, Kind::kShutdown);
  // Only the exact marker ends the stream.
  EXPECT_NE(apps::parse_manifest_line("__shutdown__ now").kind,
            Kind::kShutdown);
  EXPECT_NE(apps::parse_manifest_line(" __shutdown__").kind,
            Kind::kShutdown);
}

class ManifestTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/litho_manifest_tail_test.txt";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::string& content) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }
  void append_file(const std::string& content) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << content;
  }

  std::string path_;
};

TEST_F(ManifestTailTest, ConsumesAppendedLinesIncrementally) {
  std::streamoff offset = 0;
  write_file("a.pgm a.out\nb.pgm b.out\n");
  apps::ManifestTail tail = apps::read_manifest_tail(path_, offset);
  EXPECT_FALSE(tail.restarted);
  ASSERT_EQ(tail.lines.size(), 2u);
  EXPECT_EQ(tail.lines[0], "a.pgm a.out");
  EXPECT_EQ(tail.lines[1], "b.pgm b.out");

  // Nothing new: the offset prevents re-reading.
  tail = apps::read_manifest_tail(path_, offset);
  EXPECT_TRUE(tail.lines.empty());

  append_file("c.pgm c.out\n");
  tail = apps::read_manifest_tail(path_, offset);
  ASSERT_EQ(tail.lines.size(), 1u);
  EXPECT_EQ(tail.lines[0], "c.pgm c.out");
}

TEST_F(ManifestTailTest, UnterminatedLineWaitsForNextPoll) {
  std::streamoff offset = 0;
  write_file("a.pgm a.out\nb.pgm b.o");  // producer mid-append
  apps::ManifestTail tail = apps::read_manifest_tail(path_, offset);
  ASSERT_EQ(tail.lines.size(), 1u);
  EXPECT_EQ(tail.lines[0], "a.pgm a.out");

  append_file("ut\n");  // line completed
  tail = apps::read_manifest_tail(path_, offset);
  ASSERT_EQ(tail.lines.size(), 1u);
  EXPECT_EQ(tail.lines[0], "b.pgm b.out");
}

TEST_F(ManifestTailTest, EofEndsLastLineInOnceMode) {
  std::streamoff offset = 0;
  write_file("a.pgm a.out\nb.pgm b.out");  // no trailing newline
  apps::ManifestTail tail =
      apps::read_manifest_tail(path_, offset, /*eof_ends_last_line=*/true);
  ASSERT_EQ(tail.lines.size(), 2u);
  EXPECT_EQ(tail.lines[1], "b.pgm b.out");
}

TEST_F(ManifestTailTest, StripsCarriageReturns) {
  std::streamoff offset = 0;
  write_file("a.pgm a.out\r\nb.pgm b.out\r\n");
  apps::ManifestTail tail = apps::read_manifest_tail(path_, offset);
  ASSERT_EQ(tail.lines.size(), 2u);
  EXPECT_EQ(tail.lines[0], "a.pgm a.out");
  EXPECT_EQ(tail.lines[1], "b.pgm b.out");
}

TEST_F(ManifestTailTest, MissingFileYieldsEmptyTail) {
  std::streamoff offset = 0;
  apps::ManifestTail tail =
      apps::read_manifest_tail("/tmp/litho_no_such_manifest.txt", offset);
  EXPECT_TRUE(tail.lines.empty());
  EXPECT_FALSE(tail.restarted);
  EXPECT_EQ(offset, 0);
}

TEST_F(ManifestTailTest, TruncationBelowOffsetRestartsInsteadOfStalling) {
  // Regression: consume a manifest, then have the producer truncate or
  // rotate it to something smaller. The stale offset now points past EOF;
  // without shrink detection every subsequent poll read an empty tail and
  // the server idled forever while new requests accumulated.
  std::streamoff offset = 0;
  write_file("a.pgm a.out\nb.pgm b.out\nc.pgm c.out\n");
  apps::ManifestTail tail = apps::read_manifest_tail(path_, offset);
  ASSERT_EQ(tail.lines.size(), 3u);
  const std::streamoff consumed = offset;
  ASSERT_GT(consumed, 0);

  write_file("x.pgm x.out\n");  // rotated: shorter than the consumed offset
  tail = apps::read_manifest_tail(path_, offset);
  EXPECT_TRUE(tail.restarted);
  ASSERT_EQ(tail.lines.size(), 1u) << "shrunk manifest was never re-read";
  EXPECT_EQ(tail.lines[0], "x.pgm x.out");
  EXPECT_LT(offset, consumed);

  // And tailing continues normally from the new file.
  append_file("y.pgm y.out\n");
  tail = apps::read_manifest_tail(path_, offset);
  EXPECT_FALSE(tail.restarted);
  ASSERT_EQ(tail.lines.size(), 1u);
  EXPECT_EQ(tail.lines[0], "y.pgm y.out");
}

TEST_F(ManifestTailTest, RepeatedTruncationKeepsRecovering) {
  std::streamoff offset = 0;
  for (int round = 0; round < 3; ++round) {
    write_file("only.pgm only.out\n");
    apps::ManifestTail tail = apps::read_manifest_tail(path_, offset);
    ASSERT_EQ(tail.lines.size(), 1u) << "round " << round;
    EXPECT_EQ(tail.lines[0], "only.pgm only.out");
    // Grow the file so the next truncation is a real shrink.
    append_file("extra.pgm extra.out\n");
    tail = apps::read_manifest_tail(path_, offset);
    ASSERT_EQ(tail.lines.size(), 1u);
  }
}

}  // namespace
}  // namespace litho
