// Tests for the compose and solve CLI commands.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"

namespace tgdkit {
namespace {

class ScopedFile {
 public:
  ScopedFile(const std::string& tag, const std::string& content) {
    static int counter = 0;
    path_ = testing::TempDir() + "/tgdkit_cli2_" + tag + "_" +
            std::to_string(getpid()) + "_" +
            std::to_string(counter++) + ".txt";
    std::ofstream out(path_);
    out << content;
  }
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunTool(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliExtraTest, ComposeSelfManager) {
  ScopedFile m12("m12", "Emp(e) -> exists m . Rep(e, m) .\n");
  ScopedFile m23("m23",
                 "Rep(e, m) -> Mgr(e, m) .\n"
                 "Rep(e2, e2) -> SelfMgr(e2) .\n");
  CliRun run = RunTool({"compose", m12.path(), m23.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("so exists"), std::string::npos);
  EXPECT_NE(run.out.find("SelfMgr"), std::string::npos);
  EXPECT_NE(run.out.find("="), std::string::npos);  // the equality shows
}

TEST(CliExtraTest, ComposeThreeMappings) {
  ScopedFile m1("c1", "A(x) -> exists y . B(x, y) .\n");
  ScopedFile m2("c2", "B(x, y) -> Cx(y, x) .\n");
  ScopedFile m3("c3", "Cx(y, x) -> D(x, y) .\n");
  CliRun run = RunTool({"compose", m1.path(), m2.path(), m3.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("D("), std::string::npos);
}

TEST(CliExtraTest, ComposeEmptyWhenUnmatched) {
  ScopedFile m12("e1", "A(x) -> B(x) .\n");
  ScopedFile m23("e2", "Z(x) -> W(x) .\n");
  CliRun run = RunTool({"compose", m12.path(), m23.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("empty composition"), std::string::npos);
}

TEST(CliExtraTest, ComposeNeedsTwoFiles) {
  ScopedFile m12("one", "A(x) -> B(x) .\n");
  CliRun run = RunTool({"compose", m12.path()});
  EXPECT_EQ(run.code, 1);
}

TEST(CliExtraTest, SolvePrintsUniversalAndCore) {
  ScopedFile deps("solve",
                  "S(x) -> exists y . T(x, y) .\n"
                  "S(x) -> exists z . T(x, z) .\n");
  ScopedFile inst("solve", "S(a).\n");
  CliRun run = RunTool({"solve", deps.path(), inst.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("# universal solution (2 facts)"),
            std::string::npos);
  EXPECT_NE(run.out.find("# core solution (1 facts)"), std::string::npos);
  // Source facts do not leak into the solution.
  EXPECT_EQ(run.out.find("S(a)"), std::string::npos);
}

TEST(CliExtraTest, ExplainShowsSkolemProvenance) {
  ScopedFile deps("explain",
                  "so exists fdm { Emp(e, d) -> Mgr(e, fdm(d)) } .\n");
  ScopedFile inst("explain", "Emp(alice, cs). Emp(bob, cs).\n");
  CliRun run = RunTool({"explain", deps.path(), inst.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  // One shared null for department cs, explained by its Skolem term.
  EXPECT_NE(run.out.find("1 nulls"), std::string::npos);
  EXPECT_NE(run.out.find("= fdm(\"cs\")"), std::string::npos);
}

TEST(CliExtraTest, SolveRejectsNonSourceToTarget) {
  ScopedFile deps("nonst", "T(x) -> T2(x) .\nT2(x) -> T(x) .\n");
  ScopedFile inst("nonst", "T(a).\n");
  CliRun run = RunTool({"solve", deps.path(), inst.path()});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("not source-to-target"), std::string::npos);
}

}  // namespace
}  // namespace tgdkit
