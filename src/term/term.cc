#include "term/term.h"

#include <algorithm>
#include <cstdint>

#include "base/strings.h"

namespace tgdkit {

namespace {

uint64_t NodeHash(TermKind kind, SymbolId symbol,
                  std::span<const TermId> args) {
  size_t seed = 0x100001b3ULL;
  HashCombine(&seed, static_cast<size_t>(kind));
  HashCombine(&seed, symbol);
  for (TermId a : args) HashCombine(&seed, a);
  return seed;
}

}  // namespace

TermId TermArena::InternNode(TermKind kind, SymbolId symbol,
                             std::span<const TermId> args) {
  uint64_t h = NodeHash(kind, symbol, args);
  std::vector<TermId>& bucket = buckets_[h];
  for (TermId candidate : bucket) {
    const Node& n = nodes_[candidate];
    if (n.kind != static_cast<uint32_t>(kind) || n.symbol != symbol ||
        n.num_args != args.size()) {
      continue;
    }
    if (std::equal(args.begin(), args.end(), args_.begin() + n.first_arg)) {
      return candidate;
    }
  }
  Node node;
  node.kind = static_cast<uint32_t>(kind);
  node.ground = kind != TermKind::kVariable;
  uint32_t max_child = 0;
  for (TermId a : args) {
    const Node& child = nodes_[a];
    node.ground = node.ground && child.ground;
    max_child = std::max<uint32_t>(max_child, child.depth);
  }
  node.depth = kind != TermKind::kFunction ? 0
               : max_child >= kMaxDepth    ? kMaxDepth
                                           : max_child + 1;
  node.symbol = symbol;
  node.first_arg = static_cast<uint32_t>(args_.size());
  node.num_args = static_cast<uint32_t>(args.size());
  args_.insert(args_.end(), args.begin(), args.end());
  TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(node);
  bucket.push_back(id);
  return id;
}

TermId TermArena::MakeVariable(VariableId v) {
  return InternNode(TermKind::kVariable, v, {});
}

TermId TermArena::MakeConstant(ConstantId c) {
  return InternNode(TermKind::kConstant, c, {});
}

TermId TermArena::MakeFunction(FunctionId f, std::span<const TermId> args) {
  return InternNode(TermKind::kFunction, f, args);
}

uint64_t TermArena::Size(TermId t) const {
  // Memoized over the DAG: every distinct sub-term is sized once, in
  // post-order.
  std::unordered_map<TermId, uint64_t> sizes;
  std::vector<TermId> stack = {t};
  while (!stack.empty()) {
    TermId u = stack.back();
    if (sizes.count(u) != 0) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (TermId a : args(u)) {
      if (sizes.count(a) == 0) {
        stack.push_back(a);
        ready = false;
      }
    }
    if (!ready) continue;
    uint64_t total = 1;
    for (TermId a : args(u)) {
      uint64_t s = sizes[a];
      total = s > UINT64_MAX - total ? UINT64_MAX : total + s;
    }
    sizes[u] = total;
    stack.pop_back();
  }
  return sizes[t];
}

bool TermArena::HasNestedFunction(TermId t) const {
  if (!IsFunction(t)) return false;
  for (TermId a : args(t)) {
    if (IsFunction(a)) return true;
    if (HasNestedFunction(a)) return true;
  }
  return false;
}

void TermArena::CollectVariables(TermId t,
                                 std::vector<VariableId>* out) const {
  if (IsVariable(t)) {
    VariableId v = symbol(t);
    if (std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
    return;
  }
  for (TermId a : args(t)) CollectVariables(a, out);
}

std::string TermArena::ToString(TermId t, const Vocabulary& vocab) const {
  switch (kind(t)) {
    case TermKind::kVariable:
      return vocab.VariableName(symbol(t));
    case TermKind::kConstant:
      return Cat("\"", vocab.ConstantName(symbol(t)), "\"");
    case TermKind::kFunction: {
      std::string out = vocab.FunctionName(symbol(t));
      out += "(";
      out += JoinMapped(args(t), ", ", [&](TermId a) {
        return ToString(a, vocab);
      });
      out += ")";
      return out;
    }
  }
  return "<bad-term>";
}

TermId Substitution::Apply(TermArena* arena, TermId t) const {
  switch (arena->kind(t)) {
    case TermKind::kVariable: {
      TermId bound = Lookup(arena->symbol(t));
      return bound == kInvalidTerm ? t : bound;
    }
    case TermKind::kConstant:
      return t;
    case TermKind::kFunction: {
      std::span<const TermId> old_args = arena->args(t);
      std::vector<TermId> new_args;
      new_args.reserve(old_args.size());
      bool changed = false;
      for (TermId a : old_args) {
        TermId na = Apply(arena, a);
        changed |= (na != a);
        new_args.push_back(na);
      }
      if (!changed) return t;
      return arena->MakeFunction(arena->symbol(t), new_args);
    }
  }
  return t;
}

bool MatchTerm(const TermArena& arena, TermId pattern, TermId target,
               Substitution* subst) {
  if (arena.IsVariable(pattern)) {
    VariableId v = arena.symbol(pattern);
    TermId bound = subst->Lookup(v);
    if (bound != kInvalidTerm) return bound == target;
    subst->Bind(v, target);
    return true;
  }
  if (arena.kind(pattern) != arena.kind(target)) return false;
  if (arena.symbol(pattern) != arena.symbol(target)) return false;
  std::span<const TermId> pa = arena.args(pattern);
  std::span<const TermId> ta = arena.args(target);
  if (pa.size() != ta.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (!MatchTerm(arena, pa[i], ta[i], subst)) return false;
  }
  return true;
}

}  // namespace tgdkit
