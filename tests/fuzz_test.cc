// Tests for the chaos-fuzzing subsystem (src/fuzz, docs/FUZZING.md):
// adversarial generator determinism and parseability, the invariant
// battery on clean seeds, the seeded-defect catch -> shrink -> reproduce
// loop, the delta-debugging shrinker, and the reproducer format.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "base/rng.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzz.h"
#include "fuzz/shrink.h"
#include "gen/generators.h"
#include "parse/parser.h"

namespace tgdkit {
namespace {

AdversarialShape ShapeAt(uint32_t i) {
  return static_cast<AdversarialShape>(i % kNumAdversarialShapes);
}

uint64_t CountNonEmptyLines(const std::string& text) {
  uint64_t count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++count;
  }
  return count;
}

TEST(AdversarialGeneratorTest, SameSeedSameScenario) {
  for (uint32_t s = 0; s < kNumAdversarialShapes; ++s) {
    for (uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
      Rng a(seed), b(seed);
      AdversarialScenario one =
          GenerateAdversarialScenario(&a, ShapeAt(s), AdversarialConfig{});
      AdversarialScenario two =
          GenerateAdversarialScenario(&b, ShapeAt(s), AdversarialConfig{});
      EXPECT_EQ(one.program, two.program);
      EXPECT_EQ(one.instance, two.instance);
      EXPECT_EQ(one.query, two.query);
      EXPECT_EQ(one.may_diverge, two.may_diverge);
    }
  }
}

TEST(AdversarialGeneratorTest, EveryShapeParsesAcrossSeeds) {
  for (uint32_t s = 0; s < kNumAdversarialShapes; ++s) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(seed);
      AdversarialScenario scenario =
          GenerateAdversarialScenario(&rng, ShapeAt(s), AdversarialConfig{});
      SCOPED_TRACE(std::string(AdversarialShapeName(scenario.shape)) +
                   " seed " + std::to_string(seed));
      TermArena arena;
      Vocabulary vocab;
      Parser parser(&arena, &vocab);
      Result<DependencyProgram> program =
          parser.ParseDependencies(scenario.program);
      ASSERT_TRUE(program.ok())
          << program.status().ToString() << "\n" << scenario.program;
      EXPECT_FALSE(program->dependencies.empty());
      Instance instance(&vocab);
      Status inst = parser.ParseInstanceInto(scenario.instance, &instance);
      ASSERT_TRUE(inst.ok()) << inst.ToString() << "\n" << scenario.instance;
      EXPECT_GT(instance.NumFacts(), 0u);
      if (!scenario.query.empty()) {
        Result<ConjunctiveQuery> query = parser.ParseQuery(scenario.query);
        EXPECT_TRUE(query.ok()) << query.status().ToString();
      }
    }
  }
}

TEST(AdversarialGeneratorTest, DegenerateShapeStaysOutOfTheRotation) {
  AdversarialShape parsed;
  ASSERT_TRUE(ParseAdversarialShapeName("degenerate", &parsed));
  EXPECT_EQ(parsed, AdversarialShape::kDegenerate);
  EXPECT_GE(static_cast<uint32_t>(AdversarialShape::kDegenerate),
            kNumAdversarialShapes);
  FuzzOptions options;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_NE(MakeScenario(seed, options).shape, AdversarialShape::kDegenerate);
  }
  options.shape = AdversarialShape::kDegenerate;
  EXPECT_EQ(MakeScenario(3, options).shape, AdversarialShape::kDegenerate);
}

TEST(AdversarialGeneratorTest, ScaledFactsReachMillionsDeterministically) {
  const uint64_t kFacts = 1000000;
  Rng a(99), b(99);
  std::string one, two;
  AppendScaledFactsText(&a, "Big", 2, kFacts, 1000, &one);
  AppendScaledFactsText(&b, "Big", 2, kFacts, 1000, &two);
  EXPECT_EQ(one, two);
  EXPECT_EQ(CountNonEmptyLines(one), kFacts);
  // Spot-check the line format the parser expects.
  EXPECT_EQ(one.compare(0, 4, "Big("), 0);
  EXPECT_NE(one.find(") .\n"), std::string::npos);
}

TEST(FaultScheduleTest, ToStringParseRoundTrip) {
  std::vector<FaultSchedule> cases;
  cases.push_back({});
  cases.push_back({FaultSchedule::Kind::kCrashAt, 3, "mid"});
  cases.push_back({FaultSchedule::Kind::kFailWriteAt, 5, ""});
  cases.push_back({FaultSchedule::Kind::kStepBudget, 11, ""});
  for (const FaultSchedule& fault : cases) {
    FaultSchedule parsed;
    ASSERT_TRUE(ParseFaultSchedule(ToString(fault), &parsed))
        << ToString(fault);
    EXPECT_EQ(parsed.kind, fault.kind);
    if (fault.kind != FaultSchedule::Kind::kNone) {
      EXPECT_EQ(parsed.value, fault.value);
    }
  }
  FaultSchedule parsed;
  EXPECT_FALSE(ParseFaultSchedule("gibberish", &parsed));
  EXPECT_FALSE(ParseFaultSchedule("crash-at 0 mid", &parsed));
  EXPECT_FALSE(ParseFaultSchedule("crash-at 2 sideways", &parsed));
}

FuzzOptions LibraryOnlyOptions() {
  FuzzOptions options;  // no run_cli, no scratch: in-process battery only
  options.fork_faults = false;
  return options;
}

TEST(FuzzScenarioTest, MakeScenarioIsDeterministic) {
  FuzzOptions options = LibraryOnlyOptions();
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    FuzzScenario one = MakeScenario(seed, options);
    FuzzScenario two = MakeScenario(seed, options);
    EXPECT_EQ(one.program, two.program);
    EXPECT_EQ(one.instance, two.instance);
    EXPECT_EQ(ToString(one.fault), ToString(two.fault));
    EXPECT_EQ(one.shape, two.shape);
  }
}

TEST(FuzzScenarioTest, CleanSeedsPassTheInProcessBattery) {
  FuzzOptions options = LibraryOnlyOptions();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzScenario scenario = MakeScenario(seed, options);
    ScenarioVerdict verdict = RunScenario(scenario, options);
    EXPECT_FALSE(verdict.violation.has_value())
        << "seed " << seed << " shape "
        << AdversarialShapeName(scenario.shape) << ": "
        << verdict.violation->invariant << ": "
        << verdict.violation->detail;
    EXPECT_FALSE(verdict.invariants.empty());
  }
}

TEST(FuzzScenarioTest, DegenerateShapesPassTheFullBattery) {
  // 0-ary atoms, repeated variables, constant-only heads and shared-argument
  // Skolem towers: every head position kind the compiled chase fires, under
  // engine-agreement, thread identity, spill identity and resume.
  FuzzOptions options;
  options.fork_faults = false;
  options.shape = AdversarialShape::kDegenerate;
  options.scratch_dir = testing::TempDir() + "/tgdkit_fuzz_degenerate";
  options.run_cli = [](const std::vector<std::string>& args,
                       std::ostream& out, std::ostream& err) {
    return RunCommand(args, out, err, ApiOptions{});
  };
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FuzzScenario scenario = MakeScenario(seed, options);
    ASSERT_EQ(scenario.shape, AdversarialShape::kDegenerate);
    ScenarioVerdict verdict = RunScenario(scenario, options);
    EXPECT_FALSE(verdict.violation.has_value())
        << "seed " << seed << ": " << verdict.violation->invariant << ": "
        << verdict.violation->detail;
    for (const char* invariant : {"engine-agreement", "thread-identity",
                                  "spill-identity"}) {
      EXPECT_NE(std::find(verdict.invariants.begin(),
                          verdict.invariants.end(), invariant),
                verdict.invariants.end())
          << invariant;
    }
  }
}

TEST(FuzzCorpusTest, RegressionCorpusReplaysClean) {
  std::ostringstream out, err;
  int code = RunCommand({"fuzz", "--no-faults", "--replay",
                         std::string(TGDKIT_SOURCE_DIR) + "/corpus/regressions"},
                        out, err, ApiOptions{});
  EXPECT_EQ(code, 0) << out.str() << err.str();
  EXPECT_NE(out.str().find("failing=0"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("files=0"), std::string::npos) << out.str();
}

TEST(FuzzScenarioTest, FullBatteryWithCliPassesOnCleanSeeds) {
  FuzzOptions options;
  options.scratch_dir = testing::TempDir() + "/tgdkit_fuzz_battery";
  options.run_cli = [](const std::vector<std::string>& args,
                       std::ostream& out, std::ostream& err) {
    return RunCommand(args, out, err, ApiOptions{});
  };
  for (uint64_t seed : {2ull, 3ull, 5ull, 9ull}) {
    FuzzScenario scenario = MakeScenario(seed, options);
    ScenarioVerdict verdict = RunScenario(scenario, options);
    EXPECT_FALSE(verdict.violation.has_value())
        << "seed " << seed << ": " << verdict.violation->invariant << ": "
        << verdict.violation->detail;
  }
}

TEST(FuzzInjectBugTest, TamperedWitnessIsCaughtShrunkAndReplays) {
  FuzzOptions options = LibraryOnlyOptions();
  options.inject_bug = "tamper-witness";
  FuzzScenario scenario = MakeScenario(4, options);
  ScenarioVerdict verdict = RunScenario(scenario, options);
  ASSERT_TRUE(verdict.violation.has_value());
  EXPECT_EQ(verdict.violation->invariant, "witness-replay");

  ShrinkOutcome shrunk =
      ShrinkScenario(scenario, verdict.violation->invariant, options);
  // Acceptance bar: the minimized reproducer is at most 8 statements.
  EXPECT_LE(CountNonEmptyLines(shrunk.scenario.program), 8u);
  EXPECT_GT(shrunk.attempts, 0u);

  // The shrunk scenario must fail standalone, through the reproducer
  // round-trip, exactly like the original.
  std::string rendered = RenderReproducer(shrunk.scenario, *verdict.violation);
  std::string invariant;
  Result<FuzzScenario> reparsed = ParseReproducer(rendered, &invariant);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(invariant, "witness-replay");
  ScenarioVerdict replay = RunScenario(*reparsed, options, invariant);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->invariant, "witness-replay");
}

TEST(FuzzShrinkTest, DdminIsolatesTheOffendingStatement) {
  // Five valid statements plus one syntactically broken one: the "parse"
  // invariant fails, and ddmin must strip all the healthy statements.
  FuzzScenario scenario;
  scenario.seed = 1;
  scenario.program =
      "a1: P(x) -> Q(x) .\n"
      "a2: Q(x) -> R(x) .\n"
      "a3: R(x) -> S(x) .\n"
      "broken garbage that is not a statement\n"
      "a4: S(x) -> T(x) .\n"
      "a5: T(x) -> U(x) .\n";
  scenario.instance = "P(c) .\n";
  FuzzOptions options = LibraryOnlyOptions();
  ScenarioVerdict verdict = RunScenario(scenario, options, "parse");
  ASSERT_TRUE(verdict.violation.has_value());
  ASSERT_EQ(verdict.violation->invariant, "parse");

  ShrinkOutcome shrunk = ShrinkScenario(scenario, "parse", options);
  EXPECT_EQ(CountNonEmptyLines(shrunk.scenario.program), 1u);
  EXPECT_NE(shrunk.scenario.program.find("broken garbage"),
            std::string::npos);
  EXPECT_EQ(CountNonEmptyLines(shrunk.scenario.instance), 0u);
}

TEST(FuzzCorpusTest, ReproducerRoundTripPreservesEverything) {
  FuzzScenario scenario;
  scenario.seed = 77;
  scenario.shape = AdversarialShape::kWideGuard;
  scenario.program = "w1: G(a, b, c) -> exists u . H(a, u) .\n";
  scenario.instance = "G(d0, d1, d2) .\n";
  scenario.query = "ans(x) :- H(x, y).";
  scenario.fault = {FaultSchedule::Kind::kCrashAt, 2, "commit"};
  scenario.inject_bug = "torn-checkpoint";
  Violation violation{"crash-resume", "resume diverged\nacross two lines"};

  std::string text = RenderReproducer(scenario, violation);
  EXPECT_NE(text.find("# reproduce: tgdkit fuzz --replay"),
            std::string::npos);
  std::string invariant;
  Result<FuzzScenario> parsed = ParseReproducer(text, &invariant);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(invariant, "crash-resume");
  EXPECT_EQ(parsed->seed, 77u);
  EXPECT_EQ(parsed->shape, AdversarialShape::kWideGuard);
  EXPECT_EQ(parsed->program, scenario.program);
  EXPECT_EQ(parsed->instance, scenario.instance);
  EXPECT_EQ(parsed->query, scenario.query + "\n");
  EXPECT_EQ(parsed->fault.kind, FaultSchedule::Kind::kCrashAt);
  EXPECT_EQ(parsed->fault.value, 2u);
  EXPECT_EQ(parsed->fault.phase, "commit");
  EXPECT_EQ(parsed->inject_bug, "torn-checkpoint");

  EXPECT_FALSE(ParseReproducer("no header here", &invariant).ok());
}

}  // namespace
}  // namespace tgdkit
