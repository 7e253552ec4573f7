#include "gen/generators.h"

#include <algorithm>
#include <set>

#include "base/strings.h"

namespace tgdkit {

std::vector<RelationId> GenerateSchema(Vocabulary* vocab, Rng* rng,
                                       const SchemaConfig& config) {
  std::vector<RelationId> relations;
  for (uint32_t i = 0; i < config.num_relations; ++i) {
    uint32_t arity = static_cast<uint32_t>(
        rng->Range(config.min_arity, config.max_arity));
    relations.push_back(vocab->InternRelation(Cat("G_R", i), arity));
  }
  return relations;
}

namespace {

/// Builds an atom over `relation` drawing argument terms via `pick`.
template <typename Pick>
Atom MakeAtom(const Vocabulary& vocab, RelationId relation, Pick pick) {
  Atom atom;
  atom.relation = relation;
  uint32_t arity = vocab.RelationArity(relation);
  for (uint32_t i = 0; i < arity; ++i) atom.args.push_back(pick());
  return atom;
}

std::vector<VariableId> MakeVariables(Vocabulary* vocab, uint32_t count,
                                      const char* prefix) {
  std::vector<VariableId> vars;
  for (uint32_t i = 0; i < count; ++i) {
    vars.push_back(vocab->InternVariable(Cat(prefix, i)));
  }
  return vars;
}

}  // namespace

Tgd GenerateTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                const std::vector<RelationId>& relations,
                const TgdConfig& config) {
  std::vector<VariableId> universals =
      MakeVariables(vocab, config.max_variables, "gu");
  std::vector<VariableId> existentials =
      MakeVariables(vocab, config.max_exist_vars, "ge");

  Tgd tgd;
  uint32_t body_atoms = 1 + static_cast<uint32_t>(
                                rng->Below(config.max_body_atoms));
  for (uint32_t i = 0; i < body_atoms; ++i) {
    tgd.body.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
      return arena->MakeVariable(rng->Pick(universals));
    }));
  }
  // Universals actually used.
  std::vector<VariableId> used = CollectAtomVariables(*arena, tgd.body);

  bool full = rng->Chance(config.full_percent);
  std::set<VariableId> used_exist;
  uint32_t head_atoms = 1 + static_cast<uint32_t>(
                                rng->Below(config.max_head_atoms));
  for (uint32_t i = 0; i < head_atoms; ++i) {
    tgd.head.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
      if (!full && rng->Chance(35)) {
        VariableId y = rng->Pick(existentials);
        used_exist.insert(y);
        return arena->MakeVariable(y);
      }
      return arena->MakeVariable(rng->Pick(used));
    }));
  }
  tgd.exist_vars.assign(used_exist.begin(), used_exist.end());
  return tgd;
}

HenkinTgd GenerateHenkinTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                            const std::vector<RelationId>& relations,
                            const TgdConfig& config) {
  std::vector<VariableId> universals =
      MakeVariables(vocab, config.max_variables, "hu");
  std::vector<VariableId> existentials =
      MakeVariables(vocab, config.max_exist_vars, "he");

  HenkinTgd henkin;
  uint32_t body_atoms = 1 + static_cast<uint32_t>(
                                rng->Below(config.max_body_atoms));
  std::vector<Atom> body;
  for (uint32_t i = 0; i < body_atoms; ++i) {
    body.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
      return arena->MakeVariable(rng->Pick(universals));
    }));
  }
  std::vector<VariableId> used = CollectAtomVariables(*arena, body);
  henkin.body = std::move(body);
  for (VariableId v : used) henkin.quantifier.AddUniversal(v);

  std::set<VariableId> used_exist;
  uint32_t head_atoms = 1 + static_cast<uint32_t>(
                                rng->Below(config.max_head_atoms));
  for (uint32_t i = 0; i < head_atoms; ++i) {
    henkin.head.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
      if (rng->Chance(40)) {
        VariableId y = rng->Pick(existentials);
        used_exist.insert(y);
        return arena->MakeVariable(y);
      }
      return arena->MakeVariable(rng->Pick(used));
    }));
  }
  for (VariableId y : used_exist) {
    henkin.quantifier.AddExistential(y);
    // Random dependency set: each universal precedes y with 50% chance.
    for (VariableId x : used) {
      if (rng->Chance(50)) henkin.quantifier.AddOrder(x, y);
    }
  }
  return henkin;
}

namespace {

NestedNode GenerateNestedNode(TermArena* arena, Vocabulary* vocab, Rng* rng,
                              const std::vector<RelationId>& relations,
                              const NestedConfig& config, uint32_t depth,
                              uint32_t* counter,
                              std::vector<VariableId> scope,
                              std::vector<VariableId> head_scope) {
  NestedNode node;
  // One or two fresh universals with a body atom binding them.
  uint32_t num_univ = 1 + static_cast<uint32_t>(rng->Below(2));
  for (uint32_t i = 0; i < num_univ; ++i) {
    node.univ_vars.push_back(vocab->InternVariable(Cat("nu", (*counter)++)));
  }
  // Body: one atom using all new universals (ensuring validity), possibly
  // mixing in outer variables.
  std::vector<VariableId> pool = scope;
  pool.insert(pool.end(), node.univ_vars.begin(), node.univ_vars.end());
  uint32_t next_univ = 0;
  node.body.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
    if (next_univ < node.univ_vars.size()) {
      return arena->MakeVariable(node.univ_vars[next_univ++]);
    }
    return arena->MakeVariable(rng->Pick(pool));
  }));
  // The chosen relation's arity might be smaller than num_univ; trim the
  // unbound universals.
  while (next_univ < node.univ_vars.size()) node.univ_vars.pop_back();
  pool = scope;
  pool.insert(pool.end(), node.univ_vars.begin(), node.univ_vars.end());

  uint32_t num_exist = static_cast<uint32_t>(
      rng->Below(config.max_exist_vars + 1));
  if (depth == 1 && num_exist == 0) num_exist = 1;  // leaves conclude atoms
  for (uint32_t i = 0; i < num_exist; ++i) {
    node.exist_vars.push_back(vocab->InternVariable(Cat("ne", (*counter)++)));
  }
  // Heads may additionally use outer existentials and this part's own.
  std::vector<VariableId> head_pool = head_scope;
  head_pool.insert(head_pool.end(), node.univ_vars.begin(),
                   node.univ_vars.end());
  head_pool.insert(head_pool.end(), node.exist_vars.begin(),
                   node.exist_vars.end());
  node.head_atoms.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
    return arena->MakeVariable(rng->Pick(head_pool));
  }));

  if (depth > 1) {
    uint32_t children = 1 + static_cast<uint32_t>(
                                rng->Below(config.max_children));
    for (uint32_t i = 0; i < children; ++i) {
      // The first child continues to full depth; others get random depth.
      uint32_t child_depth =
          i == 0 ? depth - 1
                 : 1 + static_cast<uint32_t>(rng->Below(depth - 1));
      // Child bodies may use universals only (the grammar's X variables).
      node.children.push_back(GenerateNestedNode(arena, vocab, rng,
                                                 relations, config,
                                                 child_depth, counter, pool,
                                                 head_pool));
    }
  }
  return node;
}

}  // namespace

NestedTgd GenerateNestedTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                            const std::vector<RelationId>& relations,
                            const NestedConfig& config) {
  uint32_t counter = 0;
  NestedTgd nested;
  nested.root = GenerateNestedNode(arena, vocab, rng, relations, config,
                                   std::max<uint32_t>(config.depth, 1),
                                   &counter, {}, {});
  return nested;
}

SoTgd GenerateSoTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                    const std::vector<RelationId>& relations,
                    uint32_t num_parts, uint32_t num_functions) {
  SoTgd so;
  static uint32_t generation = 0;
  ++generation;
  for (uint32_t i = 0; i < num_functions; ++i) {
    so.functions.push_back(
        vocab->InternFunction(Cat("sg", generation, "_", i), 1));
  }
  for (uint32_t part_index = 0; part_index < num_parts; ++part_index) {
    SoPart part;
    std::vector<VariableId> vars =
        MakeVariables(vocab, 3, Cat("sv", part_index, "_").c_str());
    uint32_t body_atoms = 1 + static_cast<uint32_t>(rng->Below(2));
    for (uint32_t i = 0; i < body_atoms; ++i) {
      part.body.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
        return arena->MakeVariable(rng->Pick(vars));
      }));
    }
    std::vector<VariableId> used = CollectAtomVariables(*arena, part.body);
    part.head.push_back(MakeAtom(*vocab, rng->Pick(relations), [&] {
      TermId base = arena->MakeVariable(rng->Pick(used));
      if (rng->Chance(55)) {
        return arena->MakeFunction(rng->Pick(so.functions),
                                   std::vector<TermId>{base});
      }
      return base;
    }));
    so.parts.push_back(std::move(part));
  }
  return so;
}

void GenerateInstance(Vocabulary* vocab, Rng* rng,
                      const std::vector<RelationId>& relations,
                      uint32_t num_facts, uint32_t domain_size,
                      uint32_t num_nulls, Instance* instance) {
  std::vector<Value> domain;
  for (uint32_t i = 0; i < domain_size; ++i) {
    domain.push_back(Value::Constant(vocab->InternConstant(Cat("G_c", i))));
  }
  for (uint32_t i = 0; i < num_nulls; ++i) {
    domain.push_back(instance->FreshNull());
  }
  for (uint32_t i = 0; i < num_facts; ++i) {
    RelationId relation = rng->Pick(relations);
    std::vector<Value> args;
    for (uint32_t j = 0; j < vocab->RelationArity(relation); ++j) {
      args.push_back(rng->Pick(domain));
    }
    instance->AddFact(relation, args);
  }
}

Graph GenerateGraph(Rng* rng, uint32_t num_vertices, uint32_t edge_percent) {
  Graph graph;
  graph.num_vertices = num_vertices;
  for (uint32_t a = 0; a < num_vertices; ++a) {
    for (uint32_t b = a + 1; b < num_vertices; ++b) {
      if (rng->Chance(edge_percent)) graph.edges.push_back({a, b});
    }
  }
  return graph;
}

Qbf GenerateQbf(Rng* rng, uint32_t num_pairs, uint32_t num_clauses) {
  Qbf qbf;
  qbf.num_pairs = num_pairs;
  for (uint32_t c = 0; c < num_clauses; ++c) {
    std::array<QbfLiteral, 3> clause;
    for (int l = 0; l < 3; ++l) {
      clause[l].kind = rng->Chance(50) ? QbfLiteral::Kind::kUniversal
                                       : QbfLiteral::Kind::kExistential;
      clause[l].index = static_cast<uint32_t>(rng->Below(num_pairs));
      clause[l].negated = rng->Chance(50);
    }
    qbf.clauses.push_back(clause);
  }
  return qbf;
}

// ---------------------------------------------------------------------------
// Adversarial scenario generators (docs/FUZZING.md)

const char* AdversarialShapeName(AdversarialShape shape) {
  switch (shape) {
    case AdversarialShape::kSkolemTower:
      return "skolem-tower";
    case AdversarialShape::kPcpNearDivergent:
      return "pcp-near-divergent";
    case AdversarialShape::kHighFanoutJoin:
      return "high-fanout-join";
    case AdversarialShape::kWideGuard:
      return "wide-guard";
    case AdversarialShape::kTriangularFrontier:
      return "triangular-frontier";
    case AdversarialShape::kDegenerate:
      return "degenerate";
  }
  return "?";
}

bool ParseAdversarialShapeName(const std::string& name,
                               AdversarialShape* out) {
  for (uint32_t i = 0;
       i <= static_cast<uint32_t>(AdversarialShape::kDegenerate); ++i) {
    AdversarialShape shape = static_cast<AdversarialShape>(i);
    if (name == AdversarialShapeName(shape)) {
      *out = shape;
      return true;
    }
  }
  return false;
}

namespace {

/// One random constant name from the scenario domain d0..d<n-1>.
std::string Dom(Rng* rng, uint32_t domain_size) {
  return Cat("d", rng->Below(std::max<uint32_t>(domain_size, 1)));
}

/// Deep Skolem towers: a chain t_i: T_i(x, y) -> exists u . T_{i+1}(y, u)
/// stacks one Skolem level per relation. The divergent mutation feeds the
/// top back into the bottom, closing a cycle through the special edges.
AdversarialScenario TowerScenario(Rng* rng, const AdversarialConfig& c) {
  AdversarialScenario s;
  s.shape = AdversarialShape::kSkolemTower;
  uint32_t depth = static_cast<uint32_t>(
      rng->Range(2, std::max<uint32_t>(c.max_tower_depth, 2)));
  s.program += "t0: T0(x) -> exists u . T1(x, u) .\n";
  for (uint32_t i = 1; i < depth; ++i) {
    s.program += Cat("t", i, ": T", i, "(x, y) -> exists u . T", i + 1,
                     "(y, u) .\n");
  }
  s.program += Cat("collect: T", depth, "(x, y) -> Top(x) .\n");
  if (rng->Chance(c.divergent_percent)) {
    s.program += Cat("back: T", depth, "(x, y) -> T1(y, x) .\n");
    s.may_diverge = true;
  }
  uint32_t facts = std::max<uint32_t>(c.instance_facts, 2);
  for (uint32_t i = 0; i < facts; ++i) {
    if (rng->Chance(70)) {
      s.instance += Cat("T0(", Dom(rng, c.domain_size), ") .\n");
    } else {
      s.instance += Cat("T1(", Dom(rng, c.domain_size), ", ",
                        Dom(rng, c.domain_size), ") .\n");
    }
  }
  s.query = "ans(x) :- Top(x).";
  return s;
}

/// PCP-style near-divergence: word-building rules whose Skolem terms grow
/// one letter per counter step; the finite Cnt chain makes the chase
/// terminate even though the position graph has a special self-loop (the
/// analyzer tier is exponential, not polynomial). The divergent mutation
/// makes the counter cyclic.
AdversarialScenario PcpScenario(Rng* rng, const AdversarialConfig& c) {
  AdversarialScenario s;
  s.shape = AdversarialShape::kPcpNearDivergent;
  uint32_t chain = static_cast<uint32_t>(
      rng->Range(3, std::max<uint32_t>(c.max_chain_length, 3)));
  s.program +=
      "build: so exists fa, fb {"
      " Cnt(x, y) & A(x) & Str(x, s) -> Str(y, fa(s)) ;"
      " Cnt(x, y) & B(x) & Str(x, s) -> Str(y, fb(s)) } .\n";
  s.program += "seen: Str(x, s) -> Seen(x) .\n";
  if (rng->Chance(c.divergent_percent)) {
    s.program += "loop: Cnt(x, y) -> Cnt(y, x) .\n";
    s.may_diverge = true;
  }
  for (uint32_t i = 0; i < chain; ++i) {
    s.instance += Cat("Cnt(k", i, ", k", i + 1, ") .\n");
    s.instance += Cat(rng->Chance(50) ? "A" : "B", "(k", i, ") .\n");
  }
  s.instance += "Str(k0, word0) .\n";
  if (rng->Chance(40)) s.instance += "Str(k1, word1) .\n";
  s.query = "ans(x) :- Seen(x).";
  return s;
}

/// High-fanout joins: transitive closure plus a 3-way chain join over a
/// dense edge relation; an existential rule mints one null per (J, E)
/// match. The divergent mutation feeds the nulls back into the edge
/// relation.
AdversarialScenario FanoutScenario(Rng* rng, const AdversarialConfig& c) {
  AdversarialScenario s;
  s.shape = AdversarialShape::kHighFanoutJoin;
  s.program += "tc: E(x, y) & E(y, z) -> E(x, z) .\n";
  s.program += "j3: E(x0, x1) & E(x1, x2) & E(x2, x3) -> J(x0, x3) .\n";
  s.program += "mk: J(x, y) & E(y, z) -> exists w . P(x, w) .\n";
  if (rng->Chance(c.divergent_percent)) {
    s.program += "fb: P(x, w) -> exists v . E(w, v) .\n";
    s.may_diverge = true;
  }
  uint32_t dom = std::max<uint32_t>(c.domain_size, 4);
  // A guaranteed 4-node chain so J (and mk's nulls) are non-empty ...
  for (uint32_t i = 0; i + 1 < 4; ++i) {
    s.instance += Cat("E(d", i, ", d", i + 1, ") .\n");
  }
  // ... plus random fanout edges.
  uint32_t facts = std::max<uint32_t>(c.instance_facts, 3);
  for (uint32_t i = 0; i < facts; ++i) {
    s.instance += Cat("E(", Dom(rng, dom), ", ", Dom(rng, dom), ") .\n");
  }
  s.query = "ans(x, y) :- J(x, y).";
  return s;
}

/// Wide guards: every rule's join variables are covered by one wide G
/// atom. The divergent mutation recycles the minted null into the guard's
/// first position, closing a special cycle G.0 -> H.1 -> G.0.
AdversarialScenario WideGuardScenario(Rng* rng, const AdversarialConfig& c) {
  AdversarialScenario s;
  s.shape = AdversarialShape::kWideGuard;
  uint32_t arity = static_cast<uint32_t>(
      rng->Range(3, std::max<uint32_t>(c.max_guard_arity, 3)));
  std::string g_vars;  // "x0, x1, ..."
  for (uint32_t i = 0; i < arity; ++i) {
    if (i) g_vars += ", ";
    g_vars += Cat("x", i);
  }
  s.program += Cat("w1: G(", g_vars, ") -> exists u . H(x0, u) .\n");
  s.program += Cat("w2: G(", g_vars, ") & H(x0, u) -> D(u, x1) .\n");
  s.program += "w3: D(u, x) -> K(x) .\n";
  if (rng->Chance(c.divergent_percent)) {
    std::string tail;  // "x1, ..., x<arity-1>"
    for (uint32_t i = 1; i < arity; ++i) {
      tail += ", ";
      tail += Cat("x", i);
    }
    s.program += Cat("w4: G(", g_vars, ") & H(x0, u) -> G(u", tail, ") .\n");
    s.may_diverge = true;
  }
  uint32_t facts = std::max<uint32_t>(c.instance_facts / 2, 2);
  for (uint32_t i = 0; i < facts; ++i) {
    std::string args;
    for (uint32_t j = 0; j < arity; ++j) {
      if (j) args += ", ";
      args += Dom(rng, c.domain_size);
    }
    s.instance += Cat("G(", args, ") .\n");
  }
  s.instance += Cat("H(", Dom(rng, c.domain_size), ", ",
                    Dom(rng, c.domain_size), ") .\n");
  s.query = "ans(x) :- K(x).";
  return s;
}

/// The triangular-guardedness frontier (corpus/triangular_frontier.tgd):
/// the base variant is a member of ONLY the triangularly-guarded class;
/// the mutation joins two marked component positions in the generating
/// rule, so neither per-component discipline holds and TG fails too.
AdversarialScenario FrontierScenario(Rng* rng, const AdversarialConfig& c) {
  AdversarialScenario s;
  s.shape = AdversarialShape::kTriangularFrontier;
  bool broken = rng->Chance(c.divergent_percent);
  s.program += Cat(
      "frontier: so exists fv, fp, fq { ",
      broken ? "ga(x, y) & ga(y, z) -> ga(z, fv(x, y))"
             : "ga(x, y) -> ga(y, fv(x, y))",
      " ; hub(x) -> link(fp(x), fq(x))"
      " ; link(x, u) & link(u, y) -> out(x, y) } .\n");
  if (rng->Chance(50)) s.program += "echo: out(x, y) -> Seen(x) .\n";
  uint32_t hubs = 1 + static_cast<uint32_t>(rng->Below(4));
  for (uint32_t i = 0; i < hubs; ++i) {
    s.instance += Cat("hub(", Dom(rng, c.domain_size), ") .\n");
  }
  for (uint32_t i = 0; i < 3; ++i) {
    s.instance += Cat("link(", Dom(rng, c.domain_size), ", ",
                      Dom(rng, c.domain_size), ") .\n");
  }
  if (rng->Chance(50)) {
    // Any ga fact makes the generating loop run away: divergent.
    s.instance += Cat("ga(", Dom(rng, c.domain_size), ", ",
                      Dom(rng, c.domain_size), ") .\n");
    if (broken) {
      s.instance += Cat("ga(", Dom(rng, c.domain_size), ", ",
                        Dom(rng, c.domain_size), ") .\n");
    }
    s.may_diverge = true;
  }
  s.query = "ans(x, y) :- out(x, y).";
  return s;
}

/// Degenerate atom shapes, one first-order program so engine-agreement
/// applies: 0-ary atoms in bodies and heads, repeated body variables,
/// constant-only heads, heads repeating a variable (or an existential),
/// and a Skolem tower whose terms share arguments. Each rule rides along
/// at random. The divergent mutation feeds the tower's top back into its
/// bottom.
AdversarialScenario DegenerateScenario(Rng* rng, const AdversarialConfig& c) {
  AdversarialScenario s;
  s.shape = AdversarialShape::kDegenerate;
  s.program += "cyc: E(x, y) & E(y, x) -> Cyc() .\n";
  if (rng->Chance(60)) s.program += "done: Cyc() -> Done() .\n";
  s.program += "flag: Cyc() & V(x) -> Flagged(x) .\n";
  if (rng->Chance(60)) s.program += "self: E(x, x) -> Self(x) .\n";
  if (rng->Chance(60)) s.program += "mark: E(x, y) -> Mark(\"c0\", \"c1\") .\n";
  if (rng->Chance(60)) s.program += "dup: E(x, y) -> Pair(y, y, x) .\n";
  s.program += "s1: V(x) -> exists u . S1(x, u) .\n";
  s.program += "s2: S1(x, u) -> exists w . S2(x, u, w) & Twin(w, w) .\n";
  if (rng->Chance(60)) {
    s.program += "s3: S2(x, u, w) & S1(x, u) -> exists v . S3(w, u, x, v) .\n";
  }
  if (rng->Chance(c.divergent_percent)) {
    s.program += "back: S2(x, u, w) -> V(w) .\n";
    s.may_diverge = true;
  }
  uint32_t facts = std::max<uint32_t>(c.instance_facts / 2, 3);
  for (uint32_t i = 0; i < facts; ++i) {
    std::string a = Dom(rng, c.domain_size);
    // Self loops feed E(x, x); reversed pairs feed the 0-ary Cyc().
    std::string b = rng->Chance(25) ? a : Dom(rng, c.domain_size);
    s.instance += Cat("E(", a, ", ", b, ") .\n");
    if (rng->Chance(30)) s.instance += Cat("E(", b, ", ", a, ") .\n");
    if (rng->Chance(40)) s.instance += Cat("V(", a, ") .\n");
  }
  if (rng->Chance(30)) s.instance += "Cyc() .\n";
  static const char* const kQueries[] = {
      "ans(x) :- Flagged(x).", "ans() :- Done().",
      "ans(x, y) :- Pair(x, x, y).", "ans(x) :- S1(x, u), S2(x, u, w)."};
  s.query = kQueries[rng->Below(4)];
  return s;
}

}  // namespace

AdversarialScenario GenerateAdversarialScenario(
    Rng* rng, AdversarialShape shape, const AdversarialConfig& config) {
  switch (shape) {
    case AdversarialShape::kSkolemTower:
      return TowerScenario(rng, config);
    case AdversarialShape::kPcpNearDivergent:
      return PcpScenario(rng, config);
    case AdversarialShape::kHighFanoutJoin:
      return FanoutScenario(rng, config);
    case AdversarialShape::kWideGuard:
      return WideGuardScenario(rng, config);
    case AdversarialShape::kTriangularFrontier:
      return FrontierScenario(rng, config);
    case AdversarialShape::kDegenerate:
      return DegenerateScenario(rng, config);
  }
  return TowerScenario(rng, config);
}

AdversarialScenario GenerateAdversarialScenario(
    Rng* rng, const AdversarialConfig& config) {
  AdversarialShape shape = static_cast<AdversarialShape>(
      rng->Below(kNumAdversarialShapes));
  return GenerateAdversarialScenario(rng, shape, config);
}

void AppendScaledFactsText(Rng* rng, const std::string& relation,
                           uint32_t arity, uint64_t num_facts,
                           uint32_t domain_size, std::string* out) {
  uint32_t dom = std::max<uint32_t>(domain_size, 1);
  out->reserve(out->size() + num_facts * (relation.size() + 8ull * arity + 4));
  for (uint64_t i = 0; i < num_facts; ++i) {
    *out += relation;
    *out += '(';
    for (uint32_t j = 0; j < arity; ++j) {
      if (j) *out += ", ";
      *out += Cat("d", rng->Below(dom));
    }
    *out += ") .\n";
  }
}

PcpInstance GeneratePcp(Rng* rng, uint32_t alphabet_size, uint32_t num_pairs,
                        uint32_t max_word_length) {
  PcpInstance pcp;
  pcp.alphabet_size = alphabet_size;
  for (uint32_t i = 0; i < num_pairs; ++i) {
    std::vector<uint32_t> w1, w2;
    uint32_t len1 = static_cast<uint32_t>(rng->Range(0, max_word_length));
    uint32_t len2 = static_cast<uint32_t>(rng->Range(0, max_word_length));
    if (len1 == 0 && len2 == 0) len1 = 1;
    for (uint32_t j = 0; j < len1; ++j) {
      w1.push_back(1 + static_cast<uint32_t>(rng->Below(alphabet_size)));
    }
    for (uint32_t j = 0; j < len2; ++j) {
      w2.push_back(1 + static_cast<uint32_t>(rng->Below(alphabet_size)));
    }
    pcp.pairs.push_back({std::move(w1), std::move(w2)});
  }
  return pcp;
}

}  // namespace tgdkit
