// Deterministic random generators for dependencies, instances, graphs,
// QBFs and PCP instances — shared by the property tests and the benchmark
// harness. All generators take an explicit Rng so corpora are reproducible
// across platforms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "oracle/oracle.h"

namespace tgdkit {

/// Shape parameters for a generated relational schema.
struct SchemaConfig {
  uint32_t num_relations = 6;
  uint32_t min_arity = 1;
  uint32_t max_arity = 3;
};

/// A generated schema: relation ids with their arities interned in the
/// vocabulary, named G_R0, G_R1, ….
std::vector<RelationId> GenerateSchema(Vocabulary* vocab, Rng* rng,
                                       const SchemaConfig& config);

/// Shape parameters for generated tgds.
struct TgdConfig {
  uint32_t max_body_atoms = 3;
  uint32_t max_head_atoms = 2;
  uint32_t max_variables = 5;
  uint32_t max_exist_vars = 2;
  /// Percent chance that a tgd is full (no existentials).
  uint32_t full_percent = 30;
};

/// Generates a valid tgd over `relations`.
Tgd GenerateTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                const std::vector<RelationId>& relations,
                const TgdConfig& config);

/// Generates a valid Henkin tgd over `relations`; the quantifier assigns
/// each existential a random subset of the universals, so standard, tree
/// and general quantifiers all occur.
HenkinTgd GenerateHenkinTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                            const std::vector<RelationId>& relations,
                            const TgdConfig& config);

/// Shape parameters for generated nested tgds.
struct NestedConfig {
  uint32_t depth = 3;
  uint32_t max_children = 2;
  uint32_t max_exist_vars = 1;
};

/// Generates a valid nested tgd over `relations` with exact nesting depth
/// `config.depth` (along at least one branch).
NestedTgd GenerateNestedTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                            const std::vector<RelationId>& relations,
                            const NestedConfig& config);

/// Generates a valid plain SO tgd with `num_parts` parts that SHARE the
/// declared function symbols across parts (the feature separating SO tgds
/// from sets of Henkin tgds). Functions are unary over body variables.
SoTgd GenerateSoTgd(TermArena* arena, Vocabulary* vocab, Rng* rng,
                    const std::vector<RelationId>& relations,
                    uint32_t num_parts, uint32_t num_functions);

/// Populates `instance` with `num_facts` random facts over `relations`
/// drawing arguments from `domain_size` constants (named G_c0, G_c1, …)
/// plus `num_nulls` fresh nulls.
void GenerateInstance(Vocabulary* vocab, Rng* rng,
                      const std::vector<RelationId>& relations,
                      uint32_t num_facts, uint32_t domain_size,
                      uint32_t num_nulls, Instance* instance);

/// Erdős–Rényi random graph.
Graph GenerateGraph(Rng* rng, uint32_t num_vertices, uint32_t edge_percent);

/// Random QBF in the Theorem 6.3 shape.
Qbf GenerateQbf(Rng* rng, uint32_t num_pairs, uint32_t num_clauses);

/// Random PCP instance with `num_pairs` pairs of words of length
/// ≤ max_word_length over an alphabet of `alphabet_size` symbols.
PcpInstance GeneratePcp(Rng* rng, uint32_t alphabet_size, uint32_t num_pairs,
                        uint32_t max_word_length);

// ---------------------------------------------------------------------------
// Adversarial scenario generators (the fuzz corpus; see docs/FUZZING.md).

/// Shape families designed to stress a different part of the pipeline
/// each: Skolem-term depth, near-divergent recursion, join fanout, guard
/// width, the triangular-guardedness frontier, and degenerate atom shapes
/// (every kind of compiled head position the chase fires).
enum class AdversarialShape : uint8_t {
  kSkolemTower = 0,      // chain of existential rules stacking Skolem terms
  kPcpNearDivergent,     // PCP-style word builder driven by a finite counter
  kHighFanoutJoin,       // transitive closure + 3-way joins over a dense graph
  kWideGuard,            // wide guard atom covering many join variables
  kTriangularFrontier,   // randomized variants of the triangular frontier
  kDegenerate,           // 0-ary atoms, repeated variables, constant heads
};

/// The shapes a campaign rotates through (seed % kNumAdversarialShapes).
/// kDegenerate sits outside the rotation, so adding it left every seed's
/// scenario (and the benchmark's serve mix, drawn the same way) unchanged;
/// campaigns reach it with --shape degenerate.
inline constexpr uint32_t kNumAdversarialShapes = 5;

/// Stable kebab-case name, e.g. "skolem-tower".
const char* AdversarialShapeName(AdversarialShape shape);

/// Inverse of AdversarialShapeName. False on an unknown name.
bool ParseAdversarialShapeName(const std::string& name, AdversarialShape* out);

/// Size knobs for generated scenarios. Defaults keep a single scenario's
/// chase small enough to run the whole invariant battery per seed.
struct AdversarialConfig {
  uint32_t max_tower_depth = 6;    // kSkolemTower
  uint32_t max_chain_length = 6;   // kPcpNearDivergent counter chain
  uint32_t max_guard_arity = 6;    // kWideGuard
  uint32_t domain_size = 6;        // constants d0..d<n-1>
  uint32_t instance_facts = 18;
  /// Percent chance a scenario is mutated into a (possibly) divergent
  /// variant: feedback edge, cyclic counter, broken frontier guard.
  uint32_t divergent_percent = 30;
};

/// A self-contained generated workload in the text grammar the CLI
/// parses. One statement (or fact) per line, so a line-oriented shrinker
/// can minimize it; symbol names are derived from the shape alone (no
/// process-global counters), so the same Rng state always yields the
/// same bytes.
struct AdversarialScenario {
  AdversarialShape shape = AdversarialShape::kSkolemTower;
  std::string program;   // dependency statements, one per line
  std::string instance;  // facts, one per line
  std::string query;     // conjunctive query, single line
  /// True when the Skolem chase may not reach a fixpoint; run under caps.
  bool may_diverge = false;
};

/// Generates one scenario of the given shape.
AdversarialScenario GenerateAdversarialScenario(Rng* rng,
                                                AdversarialShape shape,
                                                const AdversarialConfig& config);

/// Generates one scenario of a shape drawn uniformly from the rotation.
AdversarialScenario GenerateAdversarialScenario(Rng* rng,
                                                const AdversarialConfig& config);

/// Appends `num_facts` facts over `relation` (arity `arity`, constants
/// d0..d<domain_size-1>), one per line, to `*out`. Text-only (~20 bytes a
/// fact), so load-test instances scale to millions of facts without
/// building an Instance first.
void AppendScaledFactsText(Rng* rng, const std::string& relation,
                           uint32_t arity, uint64_t num_facts,
                           uint32_t domain_size, std::string* out);

}  // namespace tgdkit
