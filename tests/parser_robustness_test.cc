// Robustness corpus for the parser, driven end-to-end through RunCli:
// truncated files, unbalanced parentheses, deeply nested terms, overlong
// identifiers, and non-UTF8 bytes must all surface as a clean ParseError
// (exit code 2, "ParseError" on stderr) — never a crash, hang, or
// silent mis-parse.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"

namespace tgdkit {
namespace {

class RobustTempFile {
 public:
  RobustTempFile(const std::string& tag, const std::string& content) {
    static int counter = 0;
    path_ = testing::TempDir() + "/tgdkit_robust_" + tag + "_" +
            std::to_string(getpid()) + "_" +
            std::to_string(counter++) + ".txt";
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }
  ~RobustTempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunWithDeps(const std::string& deps_content) {
  RobustTempFile deps("deps", deps_content);
  RobustTempFile inst("inst", "P(a) .\n");
  std::ostringstream out, err;
  int code = RunCli({"chase", deps.path(), inst.path()}, out, err);
  return {code, out.str(), err.str()};
}

CliRun RunWithInstance(const std::string& instance_content) {
  RobustTempFile deps("deps", "P(x) -> Q(x) .\n");
  RobustTempFile inst("inst", instance_content);
  std::ostringstream out, err;
  int code = RunCli({"chase", deps.path(), inst.path()}, out, err);
  return {code, out.str(), err.str()};
}

/// Every malformed input must exit 2 with an error diagnostic on stderr —
/// the parser rejects it cleanly instead of crashing or mis-parsing.
void ExpectCleanParseFailure(const CliRun& run, const std::string& what) {
  EXPECT_EQ(run.code, 2) << what << "\nstderr: " << run.err;
  EXPECT_NE(run.err.find("tgdkit:"), std::string::npos) << what;
  EXPECT_TRUE(run.err.find("ParseError") != std::string::npos ||
              run.err.find("InvalidArgument") != std::string::npos)
      << what << "\nstderr: " << run.err;
}

TEST(ParserRobustnessTest, TruncatedDependencyFiles) {
  // Progressive truncations of a valid rule: every prefix must fail
  // cleanly (the full rule, with the final '.', is the only valid form).
  const std::string full = "rule1: Emp(e, d) -> exists m . Mgr(e, m) .";
  for (size_t len : std::vector<size_t>{1, 5, 9, 17, 24, 31, 38,
                                        full.size() - 1}) {
    CliRun run = RunWithDeps(full.substr(0, len));
    ExpectCleanParseFailure(run, "truncated to " + std::to_string(len));
  }
}

TEST(ParserRobustnessTest, TruncatedInstanceFiles) {
  for (const char* text : {"P(", "P(a", "P(a,", "P(a)", "P(a) . Q("}) {
    CliRun run = RunWithInstance(text);
    ExpectCleanParseFailure(run, std::string("instance: ") + text);
  }
}

TEST(ParserRobustnessTest, UnbalancedParentheses) {
  for (const char* text :
       {"P(x)) -> Q(x) .", "P((x) -> Q(x) .", "P(x -> Q(x) .",
        "P(x) -> Q(x)) .", "so exists f { P(x) -> Q(f(x)) .",
        "henkin { forall e ; exists m(e } Emp(e) -> Mgr(e, m) ."}) {
    ExpectCleanParseFailure(RunWithDeps(text), text);
  }
}

TEST(ParserRobustnessTest, DeeplyNestedTermsDoNotOverflowTheStack) {
  // f(f(f(...(x)...))) with thousands of levels: either parse fine or be
  // rejected, but never crash. A recursive-descent parser without a depth
  // guard would blow the stack here.
  for (int depth : {64, 512, 4096, 20000}) {
    std::string term;
    for (int i = 0; i < depth; ++i) term += "f(";
    term += "x";
    for (int i = 0; i < depth; ++i) term += ")";
    std::string rule = "so exists f { P(x) -> Q(" + term + ") } .";
    CliRun run = RunWithDeps(rule);
    // Accept any controlled outcome: exit 0 (parsed and chased), exit 2
    // (clean diagnostic), or exit 4 (the chase hit its depth budget).
    EXPECT_TRUE(run.code == 0 || run.code == 2 || run.code == 4)
        << "depth " << depth << " exited " << run.code;
    if (run.code == 2) {
      EXPECT_NE(run.err.find("tgdkit:"), std::string::npos);
    }
  }
}

TEST(ParserRobustnessTest, OverlongIdentifiers) {
  // Megabyte-long identifiers must round-trip or fail cleanly, not crash.
  std::string big(1 << 20, 'a');
  CliRun run = RunWithDeps("P(" + big + ") -> Q(" + big + ") .");
  EXPECT_TRUE(run.code == 0 || run.code == 2) << "exited " << run.code;

  // An overlong relation name.
  std::string rel = "R" + std::string(1 << 18, 'x');
  CliRun run2 = RunWithDeps(rel + "(y) -> Q(y) .");
  EXPECT_TRUE(run2.code == 0 || run2.code == 2) << "exited " << run2.code;
}

TEST(ParserRobustnessTest, NonUtf8AndControlBytes) {
  std::vector<std::string> corpora;
  // Raw high bytes (invalid UTF-8 continuation sequences).
  corpora.push_back(std::string("P(\xff\xfe) -> Q(x) ."));
  corpora.push_back(std::string("\xc3(") + "x) -> Q(x) .");
  // NUL byte in the middle of the file.
  std::string nul = "P(x) -> Q(x) .";
  nul.insert(5, 1, '\0');
  corpora.push_back(nul);
  // A lone 0x80 and a BOM-prefixed rule.
  corpora.push_back(std::string("\x80"));
  corpora.push_back(std::string("\xef\xbb\xbfP(x) -> Q(x) ."));
  for (const std::string& text : corpora) {
    CliRun run = RunWithDeps(text);
    EXPECT_TRUE(run.code == 0 || run.code == 2)
        << "corpus entry exited " << run.code;
    if (run.code == 2) {
      EXPECT_NE(run.err.find("tgdkit:"), std::string::npos);
    }
  }
}

TEST(ParserRobustnessTest, EmptyAndWhitespaceOnlyFiles) {
  // An empty dependency program parses to zero rules; the chase of zero
  // rules is a fixpoint immediately. Must not crash either way.
  for (const char* text : {"", " ", "\n\n\n", "\t \n", "// only comments\n"}) {
    CliRun run = RunWithDeps(text);
    EXPECT_TRUE(run.code == 0 || run.code == 2)
        << "text '" << text << "' exited " << run.code;
  }
}

TEST(ParserRobustnessTest, GarbageOptionValuesDoNotCrash) {
  RobustTempFile deps("deps", "P(x) -> Q(x) .\n");
  RobustTempFile inst("inst", "P(a) .\n");
  // Missing option value.
  std::ostringstream out1, err1;
  EXPECT_EQ(RunCli({"chase", deps.path(), inst.path(), "--max-steps"},
                   out1, err1),
            1);
  EXPECT_NE(err1.str().find("missing value"), std::string::npos);
  // Unknown option.
  std::ostringstream out2, err2;
  EXPECT_EQ(RunCli({"chase", deps.path(), inst.path(), "--frobnicate"},
                   out2, err2),
            1);
  EXPECT_NE(err2.str().find("unknown option"), std::string::npos);
  // Non-numeric, trailing-junk, negative, and out-of-range values.
  for (const char* bad : {"abc", "12abc", "-5", "", " 7",
                          "99999999999999999999999999"}) {
    std::ostringstream out3, err3;
    EXPECT_EQ(RunCli({"chase", deps.path(), inst.path(), "--max-steps",
                      bad},
                     out3, err3),
              1)
        << "value '" << bad << "'";
    EXPECT_NE(err3.str().find("tgdkit:"), std::string::npos);
  }
}

}  // namespace
}  // namespace tgdkit
