// Corruption robustness for the spill segment loader: every file in
// corpus/segments/ and every programmatic mutilation of a valid segment
// must be rejected with a clean typed Status — never a crash, never rows
// reconstructed from half a file. Mirrors snapshot_corrupt_test, which
// covers the snapshot envelope the segment manifest rides in.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/segment.h"

namespace tgdkit {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(TGDKIT_SOURCE_DIR) + "/corpus/segments/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SegmentCorruptTest, ValidBaselineParses) {
  auto seg = ParseSegment(ReadAll(CorpusPath("valid_v1.seg")));
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(seg->relation_index, 3u);
  EXPECT_EQ(seg->arity, 2u);
  ASSERT_EQ(seg->rows(), 4u);
  EXPECT_EQ(seg->values, (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(SegmentCorruptTest, SerializeParseRoundTrip) {
  std::vector<uint32_t> values = {10, 0xFFFFFFFFu, 0, 42, 7, 7};
  std::string bytes = SerializeSegment(5, 3, values.data(), values.size());
  auto seg = ParseSegment(bytes);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(seg->relation_index, 5u);
  EXPECT_EQ(seg->arity, 3u);
  EXPECT_EQ(seg->values, values);
}

TEST(SegmentCorruptTest, FileNamesAreStable) {
  EXPECT_EQ(SegmentFileName(0, 0), "r0_s0.seg");
  EXPECT_EQ(SegmentFileName(7, 123), "r7_s123.seg");
}

// One corpus file and the status code its parse must fail with.
struct RejectCase {
  const char* file;
  Status::Code code;
};

// Prints a case as its quoted file name, so the test is named after the
// file rather than after the address of the file-name literal, which
// changes with every build.
void PrintTo(const RejectCase& c, std::ostream* os) {
  *os << '"' << c.file << '"';
}

class SegmentCorpusRejectionTest
    : public ::testing::TestWithParam<RejectCase> {};

INSTANTIATE_TEST_SUITE_P(
    Files, SegmentCorpusRejectionTest,
    ::testing::Values(
        RejectCase{"truncated_payload.seg", Status::Code::kDataLoss},
        RejectCase{"truncated_header.seg", Status::Code::kDataLoss},
        RejectCase{"bitflip_payload.seg", Status::Code::kDataLoss},
        RejectCase{"bad_crc.seg", Status::Code::kDataLoss},
        RejectCase{"rows_mismatch.seg", Status::Code::kDataLoss},
        RejectCase{"future_version.seg", Status::Code::kUnsupported},
        RejectCase{"wrong_magic.seg", Status::Code::kDataLoss},
        RejectCase{"empty.seg", Status::Code::kDataLoss},
        RejectCase{"garbage.seg", Status::Code::kDataLoss},
        RejectCase{"interior_garbage.seg", Status::Code::kDataLoss},
        RejectCase{"zero_arity.seg", Status::Code::kDataLoss}));

TEST_P(SegmentCorpusRejectionTest, RejectedWithTypedStatus) {
  auto [name, code] = GetParam();
  std::string bytes = ReadAll(CorpusPath(name));
  auto seg = ParseSegment(bytes);
  ASSERT_FALSE(seg.ok()) << name;
  EXPECT_EQ(seg.status().code(), code)
      << name << ": " << seg.status().ToString();
  EXPECT_FALSE(seg.status().message().empty()) << name;
}

TEST(SegmentCorruptTest, LoadOfMissingFileIsNotFound) {
  auto seg = LoadSegment(CorpusPath("does_not_exist.seg"));
  ASSERT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), Status::Code::kNotFound);
}

TEST(SegmentCorruptTest, LoadNamesTheFileInTheError) {
  auto seg = LoadSegment(CorpusPath("bad_crc.seg"));
  ASSERT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), Status::Code::kDataLoss);
  EXPECT_NE(seg.status().message().find("bad_crc.seg"), std::string::npos);
}

TEST(SegmentCorruptTest, LoadPreservesUnsupportedForVersionSkew) {
  auto seg = LoadSegment(CorpusPath("future_version.seg"));
  ASSERT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), Status::Code::kUnsupported);
}

TEST(SegmentCorruptTest, EveryPrefixTruncationRejectedCleanly) {
  std::string valid = ReadAll(CorpusPath("valid_v1.seg"));
  ASSERT_TRUE(ParseSegment(valid).ok());
  // No proper prefix may parse: the header pins the exact payload size,
  // so anything shorter is reported as data loss.
  for (size_t len = 0; len < valid.size(); ++len) {
    auto seg = ParseSegment(std::string_view(valid).substr(0, len));
    ASSERT_FALSE(seg.ok()) << "prefix of length " << len << " parsed";
    EXPECT_EQ(seg.status().code(), Status::Code::kDataLoss) << "len " << len;
  }
}

TEST(SegmentCorruptTest, SingleByteFlipsRejectedCleanly) {
  std::string valid = ReadAll(CorpusPath("valid_v1.seg"));
  // Flip one bit in every position: header flips break a field or the
  // magic (DataLoss; a version flip may surface as Unsupported), payload
  // flips fail the CRC. Nothing may crash, and nothing may parse.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string flipped = valid;
    flipped[pos] ^= 0x10;
    auto seg = ParseSegment(flipped);
    ASSERT_FALSE(seg.ok()) << "flip at " << pos << " parsed";
    EXPECT_TRUE(seg.status().code() == Status::Code::kDataLoss ||
                seg.status().code() == Status::Code::kUnsupported)
        << "flip at " << pos << ": " << seg.status().ToString();
  }
}

TEST(SegmentCorruptTest, TrailingJunkAfterPayloadRejected) {
  std::string valid = ReadAll(CorpusPath("valid_v1.seg"));
  auto seg = ParseSegment(valid + "extra");
  ASSERT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), Status::Code::kDataLoss);
}

}  // namespace
}  // namespace tgdkit
