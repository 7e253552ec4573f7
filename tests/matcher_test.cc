#include <gtest/gtest.h>

#include "homo/matcher.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(MatcherTest, SingleAtomEnumeration) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  inst.AddFact(ws_.Fc("Emp", {"bob", "cs"}));
  std::vector<Atom> atoms{ws_.A("Emp", {ws_.V("e"), ws_.V("d")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  size_t count = matcher.ForEach({}, [](const Assignment&) { return true; });
  EXPECT_EQ(count, 2u);
}

TEST_F(MatcherTest, ConstantInAtomFilters) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  inst.AddFact(ws_.Fc("Emp", {"bob", "math"}));
  std::vector<Atom> atoms{ws_.A("Emp", {ws_.V("e"), ws_.C("cs")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Assignment found;
  ASSERT_TRUE(matcher.FindOne(&found));
  EXPECT_EQ(found[ws_.Vid("e")], ws_.Cv("alice"));
  EXPECT_EQ(matcher.ForEach({}, [](const Assignment&) { return true; }), 1u);
}

TEST_F(MatcherTest, JoinAcrossAtoms) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("R", {"b", "c"}));
  inst.AddFact(ws_.Fc("R", {"c", "d"}));
  // Two-step paths: x -> y -> z.
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")}),
                          ws_.A("R", {ws_.V("y"), ws_.V("z")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  size_t count = matcher.ForEach({}, [](const Assignment&) { return true; });
  EXPECT_EQ(count, 2u);  // a->b->c and b->c->d
}

TEST_F(MatcherTest, RepeatedVariableWithinAtom) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "a"}));
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  EXPECT_EQ(matcher.ForEach({}, [](const Assignment&) { return true; }), 1u);
}

TEST_F(MatcherTest, SeedRestrictsSearch) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("R", {"c", "d"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Assignment seed{{ws_.Vid("x"), ws_.Cv("c")}};
  ASSERT_TRUE(matcher.FindOne(&seed));
  EXPECT_EQ(seed[ws_.Vid("y")], ws_.Cv("d"));
}

TEST_F(MatcherTest, SeedPreservedInCallbackAssignments) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  // Seed binds a variable not in the query; it must survive in outputs.
  Assignment seed{{ws_.Vid("unrelated"), ws_.Cv("k")}};
  matcher.ForEach(seed, [&](const Assignment& a) {
    EXPECT_EQ(a.at(ws_.Vid("unrelated")), ws_.Cv("k"));
    EXPECT_EQ(a.at(ws_.Vid("x")), ws_.Cv("a"));
    return true;
  });
}

TEST_F(MatcherTest, NoMatchReturnsFalse) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  std::vector<Atom> atoms{ws_.A("S", {ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Assignment a;
  EXPECT_FALSE(matcher.FindOne(&a));
}

TEST_F(MatcherTest, EarlyStopViaCallback) {
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 10; ++i) {
    inst.AddFact(ws_.Fc("R", {"c" + std::to_string(i)}));
  }
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  int seen = 0;
  matcher.ForEach({}, [&](const Assignment&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST_F(MatcherTest, TriangleQuery) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("E", {"1", "2"}));
  inst.AddFact(ws_.Fc("E", {"2", "3"}));
  inst.AddFact(ws_.Fc("E", {"3", "1"}));
  inst.AddFact(ws_.Fc("E", {"1", "3"}));  // chord, no triangle through it
  std::vector<Atom> atoms{ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                          ws_.A("E", {ws_.V("y"), ws_.V("z")}),
                          ws_.A("E", {ws_.V("z"), ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  size_t count = matcher.ForEach({}, [](const Assignment&) { return true; });
  EXPECT_EQ(count, 3u);  // the directed triangle counted from 3 rotations
}

TEST_F(MatcherTest, MatchesNullValues) {
  Instance inst(&ws_.vocab);
  Value n = inst.FreshNull();
  RelationId r = ws_.vocab.InternRelation("R", 2);
  inst.AddFact(r, std::vector<Value>{ws_.Cv("a"), n});
  std::vector<Atom> atoms{ws_.A("R", {ws_.C("a"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Assignment a;
  ASSERT_TRUE(matcher.FindOne(&a));
  EXPECT_TRUE(a[ws_.Vid("y")].is_null());
}

TEST_F(MatcherTest, EmptyQueryMatchesOnce) {
  Instance inst(&ws_.vocab);
  Matcher matcher(&ws_.arena, &inst, std::vector<Atom>{});
  EXPECT_EQ(matcher.ForEach({}, [](const Assignment&) { return true; }), 1u);
}

TEST_F(MatcherTest, CrossProductCount) {
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 4; ++i) inst.AddFact(ws_.Fc("A", {"a" + std::to_string(i)}));
  for (int i = 0; i < 5; ++i) inst.AddFact(ws_.Fc("B", {"b" + std::to_string(i)}));
  std::vector<Atom> atoms{ws_.A("A", {ws_.V("x")}), ws_.A("B", {ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  EXPECT_EQ(matcher.ForEach({}, [](const Assignment&) { return true; }), 20u);
}

// ---------------------------------------------------------------------------
// RootSplit: the sharding contract used by parallel chase rounds.
// ForEach(seed, cb) must emit exactly the concatenation, in order, of
// ForEachFromRoot over the planned root candidates — same assignments,
// same emission order, same probe count.

namespace rootsplit {

/// Renders every emitted assignment as the value tuple over the
/// matcher's variables, in emission order.
std::vector<std::vector<Value>> Emissions(
    const Matcher& matcher, const Assignment& seed,
    const SearchControls& controls) {
  std::vector<std::vector<Value>> out;
  matcher.ForEach(
      seed,
      [&](const Assignment& a) {
        std::vector<Value> tuple;
        for (VariableId v : matcher.variables()) tuple.push_back(a.at(v));
        out.push_back(std::move(tuple));
        return true;
      },
      controls);
  return out;
}

std::vector<std::vector<Value>> ShardedEmissions(
    const Matcher& matcher, std::span<const Value> seed,
    const SearchControls& controls) {
  Matcher::RootSplit split = matcher.PlanRoot(seed);
  EXPECT_GE(split.atom, 0);
  std::vector<std::vector<Value>> out;
  for (size_t i = 0; i < split.NumCandidates(); ++i) {
    matcher.ForEachFromRoot(
        seed, split, split.Row(i),
        [&](std::span<const Value> row) {
          out.emplace_back(row.begin(), row.end());
          return true;
        },
        controls);
  }
  return out;
}

}  // namespace rootsplit

TEST_F(MatcherTest, RootSplitConcatenationEqualsForEach) {
  Instance inst(&ws_.vocab);
  // A dense-ish random-looking digraph with several triangles.
  const char* edges[][2] = {{"1", "2"}, {"2", "3"}, {"3", "1"}, {"1", "3"},
                            {"3", "4"}, {"4", "1"}, {"4", "2"}, {"2", "4"},
                            {"4", "5"}, {"5", "1"}, {"5", "5"}};
  for (auto& e : edges) inst.AddFact(ws_.Fc("E", {e[0], e[1]}));
  std::vector<Atom> atoms{ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                          ws_.A("E", {ws_.V("y"), ws_.V("z")}),
                          ws_.A("E", {ws_.V("z"), ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);

  uint64_t whole_probes = 0, shard_probes = 0;
  SearchControls whole{nullptr, &whole_probes, nullptr};
  SearchControls shard{nullptr, &shard_probes, nullptr};
  auto full = rootsplit::Emissions(matcher, {}, whole);
  auto sharded = rootsplit::ShardedEmissions(matcher, {}, shard);
  ASSERT_GT(full.size(), 3u);
  EXPECT_EQ(full, sharded);
  EXPECT_EQ(whole_probes, shard_probes)
      << "sharded enumeration must pay exactly the serial probe count";
}

TEST_F(MatcherTest, RootSplitScanFallbackStillSharded) {
  // A single atom with no bound position plans a full-scan root: the
  // split enumerates row ids [0, n) and must still reproduce ForEach.
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 7; ++i) {
    inst.AddFact(ws_.Fc("R", {"a" + std::to_string(i), "b"}));
  }
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Matcher::RootSplit split = matcher.PlanRoot({});
  EXPECT_EQ(split.NumCandidates(), 7u);
  SearchControls none;
  EXPECT_EQ(rootsplit::Emissions(matcher, {}, none),
            rootsplit::ShardedEmissions(matcher, {}, none));
}

TEST_F(MatcherTest, RootSplitRespectsSeed) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("R", {"a", "c"}));
  inst.AddFact(ws_.Fc("R", {"d", "e"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Assignment seed{{ws_.Vid("x"), ws_.Cv("a")}};
  // The same seed in the matcher's flat layout (variables x, y).
  std::vector<Value> flat_seed = {ws_.Cv("a"), Value()};
  SearchControls none;
  auto full = rootsplit::Emissions(matcher, seed, none);
  EXPECT_EQ(full.size(), 2u);
  EXPECT_EQ(full, rootsplit::ShardedEmissions(matcher, flat_seed, none));
}

TEST_F(MatcherTest, RootSplitEmptyQueryHasNoShards) {
  Instance inst(&ws_.vocab);
  Matcher matcher(&ws_.arena, &inst, std::vector<Atom>{});
  Matcher::RootSplit split = matcher.PlanRoot({});
  EXPECT_EQ(split.atom, -1);
}

}  // namespace
}  // namespace tgdkit
