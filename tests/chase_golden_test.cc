// Differential gate for the chase engines. Fixed inputs (the shipped
// corpus, the Figure 4 PCP encodings and seeded src/gen adversarial
// scenarios, listed in tests/golden/cases.txt) run through the command
// layer and both engines; each case's report must match the recorded
// tests/golden/expected/NAME.txt byte for byte. A report covers:
//
//   * `chase` stdout at --threads 1 and --threads 4 (fact text, null
//     numbering, stop reason, `# status:` line);
//   * `explain` stdout (null provenance);
//   * the Skolem engine's governor step total and the number of
//     checkpoint snapshots it offers at --checkpoint-every-steps 1 (one
//     per slow-path check, plus the final one the CLI writes), which pin
//     --max-steps trip points and checkpoint cadence;
//   * for first-order programs, the restricted chase's result and steps.
//
// A case whose report differs (or that has no expected file yet) writes
// its actual report to golden_actual/NAME.txt under the test's working
// directory, so an intended change of output can be reviewed and copied
// over the expected file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/api.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "dep/skolem.h"
#include "parse/parser.h"
#include "transform/nested.h"

namespace tgdkit {
namespace {

namespace fs = std::filesystem;

struct GoldenCase {
  std::string name;
  std::string deps;
  std::string facts;
  ChaseLimits limits;
};

std::string SourcePath(const std::string& relative) {
  return std::string(TGDKIT_SOURCE_DIR) + "/" + relative;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<GoldenCase> LoadCases() {
  std::vector<GoldenCase> cases;
  std::istringstream in(ReadAll(SourcePath("tests/golden/cases.txt")));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    GoldenCase c;
    uint64_t depth = 0;
    fields >> c.name >> c.deps >> c.facts >> c.limits.max_rounds >>
        c.limits.max_facts >> depth >> c.limits.budget.max_steps;
    c.limits.max_term_depth = static_cast<uint32_t>(depth);
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<std::string> LimitArgs(const GoldenCase& c) {
  std::vector<std::string> args = {
      "--max-rounds", Cat(c.limits.max_rounds),
      "--max-facts",  Cat(c.limits.max_facts),
      "--max-depth",  Cat(c.limits.max_term_depth)};
  if (c.limits.budget.max_steps != 0) {
    args.push_back("--max-steps");
    args.push_back(Cat(c.limits.budget.max_steps));
  }
  return args;
}

/// A report section: the body verbatim when short, else its length and
/// FNV-1a digest (long outputs, such as explain's tree-rendered nulls,
/// would make the expected files large; the digest still pins every byte).
std::string Section(const std::string& header, const std::string& body) {
  constexpr size_t kVerbatimBytes = 4096;
  if (body.size() <= kVerbatimBytes) return Cat("== ", header, "\n", body);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char ch : body) {
    hash = (hash ^ ch) * 0x100000001b3ull;
  }
  return Cat("== ", header, " [", body.size(), " bytes, fnv1a64 ", hash,
             "]\n");
}

std::string RunSection(const std::string& title,
                       std::vector<std::string> args,
                       const GoldenCase& c) {
  std::vector<std::string> limits = LimitArgs(c);
  args.insert(args.end(), limits.begin(), limits.end());
  std::ostringstream out, err;
  int code = RunCommand(args, out, err);
  return Section(Cat(title, ": exit ", code), out.str());
}

/// A parsed case: the CLI's rule set (ProgramRules) and input instance.
struct Parsed {
  Vocabulary vocab;
  TermArena arena;
  DependencyProgram program;
  SoTgd rules;
  Instance input{&vocab};
};

void Parse(const GoldenCase& c, Parsed* p) {
  Parser parser(&p->arena, &p->vocab);
  Result<DependencyProgram> program =
      parser.ParseDependencies(ReadAll(SourcePath(c.deps)));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  p->program = std::move(*program);
  ASSERT_TRUE(
      parser.ParseInstanceInto(ReadAll(SourcePath(c.facts)), &p->input).ok());
  std::vector<SoTgd> pieces;
  std::vector<Tgd> tgds = p->program.Tgds();
  if (!tgds.empty()) pieces.push_back(TgdsToSo(&p->arena, &p->vocab, tgds));
  std::vector<HenkinTgd> henkins = p->program.Henkins();
  if (!henkins.empty()) {
    pieces.push_back(HenkinsToSo(&p->arena, &p->vocab, henkins));
  }
  for (const NestedTgd& nested : p->program.Nesteds()) {
    pieces.push_back(NestedToSo(&p->arena, &p->vocab, nested));
  }
  for (SoTgd& so : p->program.Sos()) pieces.push_back(std::move(so));
  p->rules = MergeSo(pieces);
}

/// Runs the Skolem engine with a checkpoint hook on every slow-path
/// check; returns "budget_steps=S snapshots=K".
std::string EngineCounters(const GoldenCase& c, uint32_t threads) {
  Parsed p;
  Parse(c, &p);
  ChaseLimits limits = c.limits;
  limits.threads = threads;
  ChaseEngine engine(&p.arena, &p.vocab, p.rules, p.input, limits);
  uint64_t snapshots = 0;
  engine.SetCheckpointHook(1, 0, [&](const ChaseEngine&) { ++snapshots; });
  engine.Run();
  ++snapshots;  // the final snapshot RunChaseEngine always writes
  return Cat("budget_steps=", engine.governor().total_steps(),
             " snapshots=", snapshots);
}

/// The restricted chase's result for first-order programs ("" otherwise).
std::string RestrictedSection(const GoldenCase& c, uint32_t threads) {
  Parsed p;
  Parse(c, &p);
  std::vector<Tgd> tgds = p.program.Tgds();
  if (tgds.size() != p.program.dependencies.size()) return "";
  ChaseLimits limits = c.limits;
  limits.threads = threads;
  ChaseResult result =
      RestrictedChaseTgds(&p.arena, &p.vocab, tgds, p.input, limits);
  return Section(Cat("restricted: ", ToString(result.stop_reason),
                     " rounds=", result.rounds, " facts=",
                     result.facts_created, " budget_steps=",
                     result.budget_steps),
                 result.instance.ToString());
}

std::string Report(const GoldenCase& c) {
  std::string report;
  report += RunSection("chase --threads 1",
                       {"chase", SourcePath(c.deps), SourcePath(c.facts),
                        "--threads", "1"},
                       c);
  report += RunSection("chase --threads 4",
                       {"chase", SourcePath(c.deps), SourcePath(c.facts),
                        "--threads", "4"},
                       c);
  report += RunSection(
      "explain", {"explain", SourcePath(c.deps), SourcePath(c.facts)}, c);
  std::string counters = EngineCounters(c, 1);
  EXPECT_EQ(EngineCounters(c, 4), counters) << c.name;
  report += Cat("== engine: ", counters, "\n");
  std::string restricted = RestrictedSection(c, 1);
  EXPECT_EQ(RestrictedSection(c, 4), restricted) << c.name;
  report += restricted;
  return report;
}

/// Line number (1-based) of the first difference, for a readable failure.
size_t FirstDifferingLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return line;
    if (a[i] == '\n') ++line;
  }
  return line;
}

TEST(ChaseGoldenTest, CasesAreListed) {
  EXPECT_GE(LoadCases().size(), 30u);
}

TEST(ChaseGoldenTest, EveryCaseReproducesItsRecordedReport) {
  for (const GoldenCase& c : LoadCases()) {
    SCOPED_TRACE(c.name);
    std::string actual = Report(c);
    std::string expected_path =
        SourcePath(Cat("tests/golden/expected/", c.name, ".txt"));
    bool exists = fs::exists(expected_path);
    std::string expected = exists ? ReadAll(expected_path) : "";
    if (exists && actual == expected) continue;
    fs::create_directories("golden_actual");
    std::ofstream(Cat("golden_actual/", c.name, ".txt")) << actual;
    ADD_FAILURE() << (exists ? Cat("report differs from ", expected_path,
                                   " at line ",
                                   FirstDifferingLine(actual, expected))
                             : Cat("no expected report ", expected_path))
                  << "; actual report in golden_actual/" << c.name << ".txt";
  }
}

}  // namespace
}  // namespace tgdkit
