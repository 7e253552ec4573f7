// Homomorphism search: finds assignments of query variables to instance
// values such that every query atom maps to a fact. This is the shared
// engine behind conjunctive-query evaluation, chase trigger enumeration,
// tgd model checking and core computation.
//
// Query atoms may contain variables and constants only (function terms are
// Skolemized away before matching; equalities are checked by callers after
// grounding).
//
// Candidate rows at every search depth come from the instance's
// per-predicate, per-position hash indexes: the most selective bound
// position's posting list, intersected with the second-most-selective one
// when that pays for itself. A full relation scan only remains for an atom
// with no bound position at all (the unavoidable first atom of a
// completely unconstrained query).
//
// Against a spill-enabled instance (Instance::EnableSpill) the same
// search runs over segment scans instead of posting lists: join orders
// come from the exact CountRowsWithValue counts (identical to in-core
// posting sizes) and candidates from CandidateRows, so the match
// sequence — and everything downstream, null numbering included — is
// byte-identical across storage modes.
//
// Thread model: a Matcher is immutable after construction and all search
// entry points are const, so one Matcher may run any number of concurrent
// searches against the same (frozen) instance. Per-search state — step
// accounting, cooperative aborts — travels in a SearchControls value owned
// by the calling thread, never in the Matcher.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/budget.h"
#include "data/instance.h"
#include "term/term.h"

namespace tgdkit {

/// A relational atom whose arguments are terms (variables/constants for
/// bodies and queries; arbitrary terms in rule heads).
struct Atom {
  RelationId relation;
  std::vector<TermId> args;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.relation == b.relation && a.args == b.args;
  }
};

/// Assignment of variables to instance values (the map-shaped view used
/// by query evaluation, core computation and model checking).
using Assignment = std::unordered_map<VariableId, Value>;

/// A complete match in the matcher's flat layout: entry i is the value of
/// variables()[i]. Valid only for the duration of the callback.
using RowCallback = std::function<bool(std::span<const Value>)>;

/// Per-search knobs, owned by the caller of one search (and therefore by
/// one thread). All fields are optional.
struct SearchControls {
  /// Serial engines: every candidate row probed is one governor step and
  /// exhaustion unwinds the search (see Matcher::set_governor).
  ResourceGovernor* governor = nullptr;
  /// Parallel workers: probes are counted into this plain local counter
  /// instead of a shared governor; the engine charges the total at a
  /// deterministic merge point.
  uint64_t* probe_counter = nullptr;
  /// Invoked every kPeriodicCheckStride probes; returning false aborts
  /// the search (cooperative deadline/cancellation checks in workers).
  std::function<bool()> periodic_check;

  /// How many probes run between periodic_check calls.
  static constexpr uint64_t kPeriodicCheckStride = 1024;
};

/// Backtracking matcher for a fixed list of atoms against one instance.
///
/// The matcher picks, at every depth, the pending atom with the most
/// selective candidate set, and enumerates candidate rows through the
/// instance's per-position indexes. Construction cost is linear in the
/// query; the matcher can be reused for many searches against the same
/// instance, including concurrently.
class Matcher {
 public:
  /// `arena` must own all argument terms; `instance` and `arena` must
  /// outlive the matcher. Atoms must contain only variables and constants.
  Matcher(const TermArena* arena, const Instance* instance,
          std::span<const Atom> atoms);

  /// Finds one homomorphism extending `seed` (pre-bound variables are
  /// respected). On success returns true and completes `seed` with bindings
  /// for all query variables.
  bool FindOne(Assignment* seed) const;

  /// Enumerates all homomorphisms extending `seed`. The callback returns
  /// false to stop enumeration early. Returns the number of callbacks made.
  size_t ForEach(const Assignment& seed,
                 const std::function<bool(const Assignment&)>& callback) const;

  /// As above with explicit per-search controls (thread-safe entry point:
  /// the Matcher itself stays untouched).
  size_t ForEach(const Assignment& seed,
                 const std::function<bool(const Assignment&)>& callback,
                 const SearchControls& controls) const;

  /// True iff at least one homomorphism extending `seed` exists.
  bool Exists(const Assignment& seed) const {
    Assignment copy = seed;
    return FindOne(&copy);
  }

  /// Row-level enumeration, the chase's entry point: `seed` is a binding
  /// in the flat layout (Value() = unbound; an empty span binds nothing)
  /// and every complete match reaches `callback` as a flat row, so no
  /// Assignment is built per match. Same order and probe accounting as
  /// ForEach. Returns the number of callbacks made.
  size_t ForEachRow(std::span<const Value> seed, const RowCallback& callback,
                    const SearchControls& controls) const;

  /// True iff a match extending the flat `seed` exists (uncounted).
  bool ExistsRow(std::span<const Value> seed) const;

  /// Binds atom `atom`'s arguments to `tuple` on top of `binding` (flat
  /// layout, sized to variables()). False when a constant or an already
  /// bound variable disagrees; `binding` is then partially written.
  bool BindAtom(size_t atom, std::span<const Value> tuple,
                std::vector<Value>* binding) const;

  /// The root of the search tree for `seed`, exposed so callers can shard
  /// one enumeration into independent row ranges: ForEachRow(seed, cb)
  /// emits exactly the concatenation, over i in [0, NumCandidates()), of
  /// ForEachFromRoot(seed, split, split.Row(i), cb). `index_rows` points
  /// into the instance's posting lists and stays valid while the instance
  /// is not mutated (the chase freezes the instance for the whole round).
  struct RootSplit {
    int atom = -1;  // -1: the query has no atoms (shard-less; use ForEach)
    bool use_owned = false;
    const std::vector<uint32_t>* index_rows = nullptr;
    std::vector<uint32_t> owned_rows;  // intersected candidate list
    size_t scan_rows = 0;              // full-scan fallback: rows [0, n)

    size_t NumCandidates() const {
      if (use_owned) return owned_rows.size();
      return index_rows != nullptr ? index_rows->size() : scan_rows;
    }
    uint32_t Row(size_t i) const {
      if (use_owned) return owned_rows[i];
      return index_rows != nullptr ? (*index_rows)[i]
                                   : static_cast<uint32_t>(i);
    }
  };

  /// Plans the root split ForEachRow(seed, ...) would explore: same atom
  /// choice, same candidate rows, same order.
  RootSplit PlanRoot(std::span<const Value> seed) const;

  /// Enumerates the homomorphisms whose root atom maps to `row`, in the
  /// order the full search would emit them. Counts the root probe and all
  /// inner probes through `controls`, exactly like ForEachRow.
  size_t ForEachFromRoot(std::span<const Value> seed, const RootSplit& split,
                         uint32_t row, const RowCallback& callback,
                         const SearchControls& controls) const;

  /// The distinct variables of the query, in first-occurrence order.
  const std::vector<VariableId>& variables() const { return variables_; }

  /// Attaches a resource governor used by the control-less entry points:
  /// every candidate row probed counts as one step, and the search unwinds
  /// cleanly (as if the callback had stopped it) once the governor is
  /// exhausted. Callers distinguish a budget stop from normal completion
  /// via governor->exhausted(). Searches carrying explicit SearchControls
  /// ignore this member.
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }

 private:
  struct ArgSlot {
    bool is_variable;
    uint32_t local_var;  // index into variables_ when is_variable
    Value constant;      // when !is_variable
  };
  struct AtomPlan {
    RelationId relation;
    std::vector<ArgSlot> slots;
  };
  /// Mutable state of one search, owned by the calling thread.
  struct SearchState {
    std::vector<Value> binding;
    std::vector<bool> done;
    const RowCallback* emit = nullptr;
    const SearchControls* controls = nullptr;
    uint64_t probes_until_check = SearchControls::kPeriodicCheckStride;
    size_t emitted = 0;
    bool stopped = false;
  };
  /// Candidate rows for `plan` under the current binding: the most
  /// selective bound position's posting list, intersected into `scratch`
  /// with the runner-up when worthwhile; nullptr means full scan.
  const std::vector<uint32_t>* Candidates(const AtomPlan& plan,
                                          const std::vector<Value>& binding,
                                          std::vector<uint32_t>* scratch,
                                          size_t* scan_rows) const;

  bool Search(SearchState* state, size_t remaining) const;
  /// Probe accounting + bind + recurse for one candidate row. Returns
  /// false once the search must unwind (stop/abort/exhaustion).
  bool TryRow(SearchState* state, const AtomPlan& plan, uint32_t row,
              size_t remaining, bool* any, std::vector<uint32_t>* trail) const;

  int PickNextAtom(const std::vector<Value>& binding,
                   const std::vector<bool>& done) const;

  bool TryBindTuple(const AtomPlan& plan, std::span<const Value> tuple,
                    std::vector<Value>* binding,
                    std::vector<uint32_t>* trail) const;

  /// A search's initial binding (sized to variables()) from either seed
  /// form; a flat seed shorter than variables() leaves the rest unbound.
  std::vector<Value> SeedBinding(const Assignment& seed) const;
  std::vector<Value> FlatSeed(std::span<const Value> seed) const;

  /// The one search loop: every entry point reduces to a flat binding.
  size_t RunSearch(std::vector<Value> binding, const RowCallback& callback,
                   const SearchControls& controls, const RootSplit* split,
                   uint32_t root_row) const;

  const TermArena* arena_;
  const Instance* instance_;
  ResourceGovernor* governor_ = nullptr;
  std::vector<AtomPlan> plans_;
  std::vector<VariableId> variables_;
  std::unordered_map<VariableId, uint32_t> var_index_;
};

}  // namespace tgdkit
