// Hash-consed first-order terms: variables, constants and function
// applications. Terms are immutable and deduplicated within a TermArena,
// so structural equality is id equality and sub-term sharing is free.
//
// Two distinct uses share this representation:
//  * symbolic terms inside dependencies (variables allowed), and
//  * ground Skolem terms produced by the chase (no variables), whose
//    arena doubles as the canonical labeled-null store.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/vocabulary.h"

namespace tgdkit {

/// Index of a term within its TermArena.
using TermId = uint32_t;

inline constexpr TermId kInvalidTerm = static_cast<TermId>(-1);

enum class TermKind : uint8_t {
  kVariable,
  kConstant,
  kFunction,
};

/// Arena of hash-consed terms. Append-only; TermIds stay valid forever.
class TermArena {
 public:
  /// Returns the unique term id for variable `v`.
  TermId MakeVariable(VariableId v);
  /// Returns the unique term id for constant `c`.
  TermId MakeConstant(ConstantId c);
  /// Returns the unique term id for `f(args...)`.
  TermId MakeFunction(FunctionId f, std::span<const TermId> args);

  TermKind kind(TermId t) const {
    return static_cast<TermKind>(nodes_[t].kind);
  }
  bool IsVariable(TermId t) const { return kind(t) == TermKind::kVariable; }
  bool IsConstant(TermId t) const { return kind(t) == TermKind::kConstant; }
  bool IsFunction(TermId t) const { return kind(t) == TermKind::kFunction; }

  /// The symbol id: VariableId / ConstantId / FunctionId depending on kind.
  SymbolId symbol(TermId t) const { return nodes_[t].symbol; }

  /// Arguments of a function term (empty span for variables/constants).
  std::span<const TermId> args(TermId t) const {
    const Node& n = nodes_[t];
    return {args_.data() + n.first_arg, n.num_args};
  }

  /// Largest depth a node records; deeper terms report this value.
  static constexpr uint32_t kMaxDepth = (1u << 29) - 1;

  /// Nesting depth: variables/constants have depth 0, f(t1..tk) has
  /// depth 1 + max depth of arguments (f() has depth 1). O(1): stored on
  /// the node when it is interned (saturating at kMaxDepth).
  uint32_t Depth(TermId t) const { return nodes_[t].depth; }

  /// Number of nodes in the term tree (with sharing expanded), saturating
  /// at UINT64_MAX. Linear in the number of distinct sub-terms.
  uint64_t Size(TermId t) const;

  /// True iff the term contains no variables. O(1), stored on the node.
  bool IsGround(TermId t) const { return nodes_[t].ground; }

  /// True iff the term contains at least one function application nested
  /// inside another function application ("nested term" in SO tgds).
  bool HasNestedFunction(TermId t) const;

  /// Collects the distinct variables of `t` in first-occurrence order.
  void CollectVariables(TermId t, std::vector<VariableId>* out) const;

  /// Renders the term, resolving symbol names through `vocab`.
  std::string ToString(TermId t, const Vocabulary& vocab) const;

  size_t size() const { return nodes_.size(); }

  /// Approximate heap footprint in bytes, for memory-budget accounting
  /// (ResourceGovernor memory source). O(1); counts node/argument storage
  /// plus an amortized estimate of the hash-cons buckets.
  uint64_t ApproxBytes() const {
    return nodes_.capacity() * sizeof(Node) +
           args_.capacity() * sizeof(TermId) +
           nodes_.size() * sizeof(TermId) +  // bucket entries
           buckets_.size() * kBucketOverheadBytes;
  }

 private:
  /// Depth and groundness share the word of the kind, so a node stays 16
  /// bytes (ApproxBytes and the memory budget are unchanged by them).
  struct Node {
    uint32_t kind : 2;
    uint32_t ground : 1;
    uint32_t depth : 29;
    SymbolId symbol;
    uint32_t first_arg;
    uint32_t num_args;
  };
  static_assert(sizeof(Node) == 16);

  /// Estimated per-bucket overhead of the hash-cons map (node + vector).
  static constexpr uint64_t kBucketOverheadBytes = 64;

  TermId InternNode(TermKind kind, SymbolId symbol,
                    std::span<const TermId> args);

  std::vector<Node> nodes_;
  std::vector<TermId> args_;
  std::unordered_map<uint64_t, std::vector<TermId>> buckets_;
};

/// A mapping from variables to terms; applied recursively.
class Substitution {
 public:
  /// Binds variable `v` to `t`, overwriting any previous binding.
  void Bind(VariableId v, TermId t) { map_[v] = t; }

  /// Returns the binding of `v`, or kInvalidTerm if unbound.
  TermId Lookup(VariableId v) const {
    auto it = map_.find(v);
    return it == map_.end() ? kInvalidTerm : it->second;
  }

  bool Contains(VariableId v) const { return map_.count(v) > 0; }
  size_t size() const { return map_.size(); }
  void Clear() { map_.clear(); }

  /// Applies the substitution to `t`, leaving unbound variables in place.
  /// Result terms are interned in `arena` (which must own `t`).
  TermId Apply(TermArena* arena, TermId t) const;

  const std::unordered_map<VariableId, TermId>& map() const { return map_; }

 private:
  std::unordered_map<VariableId, TermId> map_;
};

/// Syntactic matching: finds a substitution s with s(pattern) == target.
/// `target` is typically ground. Bindings already in `subst` are respected.
/// Returns false and leaves `subst` in an unspecified state on mismatch.
bool MatchTerm(const TermArena& arena, TermId pattern, TermId target,
               Substitution* subst);

}  // namespace tgdkit
