#include <gtest/gtest.h>

#include "term/term.h"

namespace tgdkit {
namespace {

class TermTest : public ::testing::Test {
 protected:
  Vocabulary vocab_;
  TermArena arena_;

  TermId Var(const char* name) {
    return arena_.MakeVariable(vocab_.InternVariable(name));
  }
  TermId Const(const char* name) {
    return arena_.MakeConstant(vocab_.InternConstant(name));
  }
  TermId Fn(const char* name, std::vector<TermId> args) {
    return arena_.MakeFunction(
        vocab_.InternFunction(name, static_cast<uint32_t>(args.size())), args);
  }
};

TEST_F(TermTest, HashConsingDeduplicates) {
  TermId x1 = Var("x");
  TermId x2 = Var("x");
  EXPECT_EQ(x1, x2);
  TermId f1 = Fn("f", {x1});
  TermId f2 = Fn("f", {x2});
  EXPECT_EQ(f1, f2);
  TermId g = Fn("g", {x1});
  EXPECT_NE(f1, g);
}

TEST_F(TermTest, DistinctArgumentsDistinctTerms) {
  TermId fx = Fn("f", {Var("x")});
  TermId fy = Fn("f", {Var("y")});
  EXPECT_NE(fx, fy);
}

TEST_F(TermTest, KindsAndSymbols) {
  TermId x = Var("x");
  TermId c = Const("alice");
  TermId f = Fn("f", {x, c});
  EXPECT_TRUE(arena_.IsVariable(x));
  EXPECT_TRUE(arena_.IsConstant(c));
  EXPECT_TRUE(arena_.IsFunction(f));
  EXPECT_EQ(arena_.args(f).size(), 2u);
  EXPECT_EQ(arena_.args(f)[0], x);
  EXPECT_EQ(arena_.args(f)[1], c);
  EXPECT_EQ(vocab_.FunctionName(arena_.symbol(f)), "f");
}

TEST_F(TermTest, DepthAndSize) {
  TermId x = Var("x");
  EXPECT_EQ(arena_.Depth(x), 0u);
  EXPECT_EQ(arena_.Size(x), 1u);
  TermId fx = Fn("f", {x});
  EXPECT_EQ(arena_.Depth(fx), 1u);
  TermId gfx = Fn("g", {fx, x});
  EXPECT_EQ(arena_.Depth(gfx), 2u);
  EXPECT_EQ(arena_.Size(gfx), 4u);
}

TEST_F(TermTest, DepthAndSizeOfSharedTermsAreLinear) {
  // t_{k+1} = f(t_k, t_k): depth k, tree size 2^(k+1) - 1. Depth is read
  // off the node and Size walks each distinct sub-term once, so both stay
  // cheap even where the tree is astronomically large.
  TermId t = Const("c");
  for (int k = 0; k < 60; ++k) t = Fn("f", {t, t});
  EXPECT_EQ(arena_.Depth(t), 60u);
  EXPECT_TRUE(arena_.IsGround(t));
  EXPECT_EQ(arena_.Size(t), (uint64_t{1} << 61) - 1);
  for (int k = 60; k < 200; ++k) t = Fn("f", {t, t});
  EXPECT_EQ(arena_.Depth(t), 200u);
  EXPECT_EQ(arena_.Size(t), UINT64_MAX);  // saturates
  EXPECT_FALSE(arena_.IsGround(Fn("g", {t, Var("x")})));
}

TEST_F(TermTest, GroundAndNested) {
  TermId x = Var("x");
  TermId c = Const("c");
  EXPECT_FALSE(arena_.IsGround(x));
  EXPECT_TRUE(arena_.IsGround(c));
  TermId fc = Fn("f", {c});
  EXPECT_TRUE(arena_.IsGround(fc));
  EXPECT_FALSE(arena_.HasNestedFunction(fc));
  TermId gfc = Fn("g", {fc});
  EXPECT_TRUE(arena_.HasNestedFunction(gfc));
  TermId fx = Fn("f", {x});
  EXPECT_FALSE(arena_.IsGround(fx));
}

TEST_F(TermTest, CollectVariablesInOrder) {
  TermId t = Fn("g", {Fn("f", {Var("y")}), Var("x"), Var("y")});
  std::vector<VariableId> vars;
  arena_.CollectVariables(t, &vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vocab_.VariableName(vars[0]), "y");
  EXPECT_EQ(vocab_.VariableName(vars[1]), "x");
}

TEST_F(TermTest, ToString) {
  TermId t = Fn("f", {Var("x"), Const("a")});
  EXPECT_EQ(arena_.ToString(t, vocab_), "f(x, \"a\")");
}

TEST_F(TermTest, SubstitutionApply) {
  TermId x = Var("x");
  TermId y = Var("y");
  TermId c = Const("c");
  TermId t = Fn("f", {x, Fn("g", {y})});
  Substitution s;
  s.Bind(arena_.symbol(x), c);
  TermId applied = s.Apply(&arena_, t);
  EXPECT_EQ(arena_.ToString(applied, vocab_), "f(\"c\", g(y))");
  // Unbound variables stay in place; binding both grounds the term.
  s.Bind(arena_.symbol(y), c);
  TermId grounded = s.Apply(&arena_, t);
  EXPECT_TRUE(arena_.IsGround(grounded));
}

TEST_F(TermTest, SubstitutionIdentityPreservesIds) {
  TermId t = Fn("f", {Var("x")});
  Substitution s;
  EXPECT_EQ(s.Apply(&arena_, t), t);
}

TEST_F(TermTest, MatchBindsVariables) {
  TermId pattern = Fn("f", {Var("x"), Var("y")});
  TermId target = Fn("f", {Const("a"), Const("b")});
  Substitution s;
  ASSERT_TRUE(MatchTerm(arena_, pattern, target, &s));
  EXPECT_EQ(s.Apply(&arena_, pattern), target);
}

TEST_F(TermTest, MatchRespectsRepeatedVariables) {
  TermId pattern = Fn("f", {Var("x"), Var("x")});
  TermId bad = Fn("f", {Const("a"), Const("b")});
  TermId good = Fn("f", {Const("a"), Const("a")});
  Substitution s1;
  EXPECT_FALSE(MatchTerm(arena_, pattern, bad, &s1));
  Substitution s2;
  EXPECT_TRUE(MatchTerm(arena_, pattern, good, &s2));
}

TEST_F(TermTest, MatchFailsOnSymbolMismatch) {
  Substitution s;
  EXPECT_FALSE(MatchTerm(arena_, Fn("f", {Var("x")}), Fn("g", {Const("a")}), &s));
  Substitution s2;
  EXPECT_FALSE(MatchTerm(arena_, Const("a"), Const("b"), &s2));
}

TEST_F(TermTest, MatchNestedTerms) {
  TermId pattern = Fn("f", {Fn("g", {Var("x")})});
  TermId target = Fn("f", {Fn("g", {Fn("h", {Const("c")})})});
  Substitution s;
  ASSERT_TRUE(MatchTerm(arena_, pattern, target, &s));
  EXPECT_EQ(s.Apply(&arena_, pattern), target);
}

}  // namespace
}  // namespace tgdkit
