// Corruption robustness for the snapshot loader: every file in
// corpus/snapshots/ and every programmatic mutilation of a valid snapshot
// must be rejected with a clean typed Status — never a crash, never an
// engine restored from half a file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "base/fileio.h"
#include "snapshot/snapshot.h"

namespace tgdkit {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(TGDKIT_SOURCE_DIR) + "/corpus/snapshots/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SnapshotCorruptTest, ValidBaselineParses) {
  auto snap = ParseChaseSnapshot(ReadAll(CorpusPath("valid_chase_v1.snap")));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_GT(snap->state->rounds, 0u);
  EXPECT_GT(snap->state->instance.NumFacts(), 0u);
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

class CorpusRejectionTest : public ::testing::TestWithParam<RejectCase> {};

INSTANTIATE_TEST_SUITE_P(
    Files, CorpusRejectionTest,
    ::testing::Values(
        RejectCase{"truncated_half.snap", Status::Code::kDataLoss},
        RejectCase{"truncated_envelope.snap", Status::Code::kDataLoss},
        RejectCase{"bitflip_payload.snap", Status::Code::kDataLoss},
        RejectCase{"torn_write.snap", Status::Code::kDataLoss},
        RejectCase{"future_version.snap", Status::Code::kUnsupported},
        RejectCase{"wrong_magic.snap", Status::Code::kDataLoss},
        RejectCase{"empty.snap", Status::Code::kDataLoss},
        RejectCase{"garbage.snap", Status::Code::kDataLoss}));

TEST_P(CorpusRejectionTest, RejectedWithTypedStatus) {
  auto [name, code] = GetParam();
  std::string bytes = ReadAll(CorpusPath(name));
  auto snap = ParseChaseSnapshot(bytes);
  ASSERT_FALSE(snap.ok()) << name;
  EXPECT_EQ(snap.status().code(), code) << name << ": "
                                        << snap.status().ToString();
  EXPECT_FALSE(snap.status().message().empty()) << name;
}

TEST(SnapshotCorruptTest, LoadOfMissingFileIsNotFound) {
  auto snap = LoadChaseSnapshot(CorpusPath("does_not_exist.snap"));
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), Status::Code::kNotFound);
}

TEST(SnapshotCorruptTest, EveryPrefixTruncationRejectedCleanly) {
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  ASSERT_TRUE(ParseChaseSnapshot(valid).ok());
  // No proper prefix of a valid snapshot may parse: the envelope pins the
  // exact payload length, so anything shorter is reported as data loss.
  for (size_t len = 0; len < valid.size(); ++len) {
    auto snap = ParseChaseSnapshot(std::string_view(valid).substr(0, len));
    ASSERT_FALSE(snap.ok()) << "prefix of length " << len << " parsed";
    EXPECT_EQ(snap.status().code(), Status::Code::kDataLoss) << "len " << len;
  }
}

TEST(SnapshotCorruptTest, SingleByteFlipsRejectedCleanly) {
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  // Flip one bit in every position: either the envelope stops matching or
  // the CRC does. Nothing may crash, and nothing may parse. The envelope
  // header is not CRC-covered, so a flip there may surface as the typed
  // header error instead of DataLoss: Unsupported (version digit) or
  // InvalidArgument (kind word); everything else must be DataLoss.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string flipped = valid;
    flipped[pos] ^= 0x10;
    auto snap = ParseChaseSnapshot(flipped);
    ASSERT_FALSE(snap.ok()) << "flip at " << pos << " parsed";
    EXPECT_TRUE(snap.status().code() == Status::Code::kDataLoss ||
                snap.status().code() == Status::Code::kUnsupported ||
                snap.status().code() == Status::Code::kInvalidArgument)
        << "flip at " << pos << ": " << snap.status().ToString();
  }
}

TEST(SnapshotCorruptTest, TrailingJunkAfterPayloadRejected) {
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  auto snap = ParseChaseSnapshot(valid + "extra");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), Status::Code::kDataLoss);
}

TEST(SnapshotCorruptTest, AllKindsRejectCorruptEnvelopeAlike) {
  // The restricted and PCP parsers share the envelope checks.
  std::string garbage = ReadAll(CorpusPath("garbage.snap"));
  EXPECT_EQ(ParseRestrictedSnapshot(garbage).status().code(),
            Status::Code::kDataLoss);
  EXPECT_EQ(ParsePcpCheckpoint(garbage).status().code(),
            Status::Code::kDataLoss);
}

}  // namespace
}  // namespace tgdkit
