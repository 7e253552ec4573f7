#include "homo/matcher.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tgdkit {

namespace {
// Below this candidate count a second index lookup costs more than the
// TryBindTuple probes it would save.
constexpr size_t kIntersectThreshold = 16;

// Two-pointer intersection of two ascending posting lists; the result is
// ascending, so candidate enumeration order is unchanged (rows dropped
// here would have failed TryBindTuple anyway).
void IntersectAscending(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b,
                        std::vector<uint32_t>* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}
}  // namespace

Matcher::Matcher(const TermArena* arena, const Instance* instance,
                 std::span<const Atom> atoms)
    : arena_(arena), instance_(instance) {
  for (const Atom& atom : atoms) {
    AtomPlan plan;
    plan.relation = atom.relation;
    for (TermId t : atom.args) {
      ArgSlot slot;
      if (arena_->IsVariable(t)) {
        VariableId v = arena_->symbol(t);
        auto [it, inserted] =
            var_index_.emplace(v, static_cast<uint32_t>(variables_.size()));
        if (inserted) variables_.push_back(v);
        slot.is_variable = true;
        slot.local_var = it->second;
        slot.constant = Value();
      } else {
        assert(arena_->IsConstant(t) &&
               "matcher atoms must be function-free");
        slot.is_variable = false;
        slot.local_var = 0;
        slot.constant = Value::Constant(arena_->symbol(t));
      }
      plan.slots.push_back(slot);
    }
    plans_.push_back(std::move(plan));
  }
}

int Matcher::PickNextAtom(const std::vector<Value>& binding,
                          const std::vector<bool>& done) const {
  int best = -1;
  size_t best_cost = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (done[i]) continue;
    const AtomPlan& plan = plans_[i];
    // Cost estimate: candidate rows through the most selective bound
    // position, or the full relation when nothing is bound.
    // CountRowsWithValue is exact in both storage modes (in-core it IS
    // the posting-list size), so join-order choices — and therefore the
    // match enumeration order and null numbering — are mode-independent.
    size_t cost = instance_->NumTuples(plan.relation);
    for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
      const ArgSlot& slot = plan.slots[pos];
      Value bound = slot.is_variable ? binding[slot.local_var] : slot.constant;
      if (!bound.valid()) continue;
      size_t rows = instance_->CountRowsWithValue(
          plan.relation, static_cast<uint32_t>(pos), bound);
      if (rows < cost) cost = rows;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = static_cast<int>(i);
    }
  }
  return best;
}

const std::vector<uint32_t>* Matcher::Candidates(
    const AtomPlan& plan, const std::vector<Value>& binding,
    std::vector<uint32_t>* scratch, size_t* scan_rows) const {
  if (instance_->spill_enabled()) {
    // Spilled store: no global posting lists to point into. Pick the most
    // selective bound position by exact count (the same strict-< rule as
    // below) and materialize its ascending candidate rows into `scratch`.
    // No runner-up intersection: TryBindTuple fully verifies every
    // candidate, so enumerating an ascending superset emits the identical
    // match sequence — intersection only ever saved probes, never changed
    // results.
    int best_pos = -1;
    size_t best_count = std::numeric_limits<size_t>::max();
    Value best_value;
    for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
      const ArgSlot& slot = plan.slots[pos];
      Value bound = slot.is_variable ? binding[slot.local_var] : slot.constant;
      if (!bound.valid()) continue;
      size_t count = instance_->CountRowsWithValue(
          plan.relation, static_cast<uint32_t>(pos), bound);
      if (count < best_count) {
        best_count = count;
        best_pos = static_cast<int>(pos);
        best_value = bound;
      }
    }
    if (best_pos < 0) {
      *scan_rows = instance_->NumTuples(plan.relation);
      return nullptr;
    }
    scratch->clear();
    instance_->CandidateRows(plan.relation, static_cast<uint32_t>(best_pos),
                             best_value, scratch);
    return scratch;
  }
  const std::vector<uint32_t>* best = nullptr;
  const std::vector<uint32_t>* second = nullptr;
  for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
    const ArgSlot& slot = plan.slots[pos];
    Value bound = slot.is_variable ? binding[slot.local_var] : slot.constant;
    if (!bound.valid()) continue;
    const std::vector<uint32_t>& candidate = instance_->RowsWithValue(
        plan.relation, static_cast<uint32_t>(pos), bound);
    if (best == nullptr || candidate.size() < best->size()) {
      second = best;
      best = &candidate;
    } else if (second == nullptr || candidate.size() < second->size()) {
      second = &candidate;
    }
  }
  if (best == nullptr) {
    *scan_rows = instance_->NumTuples(plan.relation);
    return nullptr;
  }
  if (second != nullptr && second != best &&
      best->size() > kIntersectThreshold) {
    IntersectAscending(*best, *second, scratch);
    return scratch;
  }
  return best;
}

bool Matcher::TryBindTuple(const AtomPlan& plan, std::span<const Value> tuple,
                           std::vector<Value>* binding,
                           std::vector<uint32_t>* trail) const {
  for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
    const ArgSlot& slot = plan.slots[pos];
    if (!slot.is_variable) {
      if (slot.constant != tuple[pos]) return false;
      continue;
    }
    Value& cell = (*binding)[slot.local_var];
    if (cell.valid()) {
      if (cell != tuple[pos]) return false;
    } else {
      cell = tuple[pos];
      trail->push_back(slot.local_var);
    }
  }
  return true;
}

bool Matcher::TryRow(SearchState* state, const AtomPlan& plan, uint32_t row,
                     size_t remaining, bool* any,
                     std::vector<uint32_t>* trail) const {
  const SearchControls& controls = *state->controls;
  if (controls.governor != nullptr && !controls.governor->Poll()) {
    state->stopped = true;
    return false;
  }
  if (controls.probe_counter != nullptr) ++*controls.probe_counter;
  if (controls.periodic_check && --state->probes_until_check == 0) {
    state->probes_until_check = SearchControls::kPeriodicCheckStride;
    if (!controls.periodic_check()) {
      state->stopped = true;
      return false;
    }
  }
  trail->clear();
  std::span<const Value> tuple = instance_->Tuple(plan.relation, row);
  if (TryBindTuple(plan, tuple, &state->binding, trail)) {
    if (Search(state, remaining)) *any = true;
  }
  for (uint32_t var : *trail) state->binding[var] = Value();
  return !state->stopped;
}

bool Matcher::Search(SearchState* state, size_t remaining) const {
  if (remaining == 0) {
    ++state->emitted;
    if (!(*state->emit)(state->binding)) state->stopped = true;
    return true;
  }
  int idx = PickNextAtom(state->binding, state->done);
  assert(idx >= 0);
  const AtomPlan& plan = plans_[idx];
  state->done[idx] = true;

  std::vector<uint32_t> scratch;
  size_t scan_rows = 0;
  const std::vector<uint32_t>* rows =
      Candidates(plan, state->binding, &scratch, &scan_rows);

  bool any = false;
  std::vector<uint32_t> trail;
  if (rows != nullptr) {
    for (uint32_t row : *rows) {
      if (!TryRow(state, plan, row, remaining - 1, &any, &trail)) break;
    }
  } else {
    for (uint32_t row = 0; row < scan_rows; ++row) {
      if (!TryRow(state, plan, row, remaining - 1, &any, &trail)) break;
    }
  }

  state->done[idx] = false;
  return any;
}

std::vector<Value> Matcher::SeedBinding(const Assignment& seed) const {
  std::vector<Value> binding(variables_.size(), Value());
  for (const auto& [var, value] : seed) {
    auto it = var_index_.find(var);
    if (it != var_index_.end()) binding[it->second] = value;
  }
  return binding;
}

std::vector<Value> Matcher::FlatSeed(std::span<const Value> seed) const {
  std::vector<Value> binding(variables_.size(), Value());
  std::copy_n(seed.begin(), std::min(seed.size(), binding.size()),
              binding.begin());
  return binding;
}

size_t Matcher::RunSearch(std::vector<Value> binding,
                          const RowCallback& callback,
                          const SearchControls& controls,
                          const RootSplit* split, uint32_t root_row) const {
  SearchState state;
  state.binding = std::move(binding);
  state.done.assign(plans_.size(), false);
  state.controls = &controls;
  state.emit = &callback;
  if (split == nullptr) {
    Search(&state, plans_.size());
  } else {
    assert(split->atom >= 0);
    const AtomPlan& plan = plans_[split->atom];
    state.done[split->atom] = true;
    bool any = false;
    std::vector<uint32_t> trail;
    TryRow(&state, plan, root_row, plans_.size() - 1, &any, &trail);
  }
  return state.emitted;
}

bool Matcher::FindOne(Assignment* seed) const {
  bool found = false;
  ForEach(*seed, [&](const Assignment& full) {
    *seed = full;
    found = true;
    return false;  // stop at the first homomorphism
  });
  return found;
}

size_t Matcher::ForEach(
    const Assignment& seed,
    const std::function<bool(const Assignment&)>& callback) const {
  SearchControls controls;
  controls.governor = governor_;
  return ForEach(seed, callback, controls);
}

size_t Matcher::ForEach(
    const Assignment& seed,
    const std::function<bool(const Assignment&)>& callback,
    const SearchControls& controls) const {
  // Assignment adapter over the row search: seed bindings of variables
  // outside the query pass through to every emitted assignment.
  RowCallback emit = [&](std::span<const Value> full) {
    Assignment out = seed;
    for (size_t i = 0; i < variables_.size(); ++i) {
      out[variables_[i]] = full[i];
    }
    return callback(out);
  };
  return RunSearch(SeedBinding(seed), emit, controls, nullptr, 0);
}

size_t Matcher::ForEachRow(std::span<const Value> seed,
                           const RowCallback& callback,
                           const SearchControls& controls) const {
  return RunSearch(FlatSeed(seed), callback, controls, nullptr, 0);
}

bool Matcher::ExistsRow(std::span<const Value> seed) const {
  bool found = false;
  RowCallback stop = [&](std::span<const Value>) {
    found = true;
    return false;  // stop at the first homomorphism
  };
  RunSearch(FlatSeed(seed), stop, SearchControls{}, nullptr, 0);
  return found;
}

bool Matcher::BindAtom(size_t atom, std::span<const Value> tuple,
                       std::vector<Value>* binding) const {
  std::vector<uint32_t> trail;
  return TryBindTuple(plans_[atom], tuple, binding, &trail);
}

Matcher::RootSplit Matcher::PlanRoot(std::span<const Value> seed) const {
  RootSplit split;
  if (plans_.empty()) return split;  // shard-less query
  std::vector<Value> binding = FlatSeed(seed);
  std::vector<bool> done(plans_.size(), false);
  split.atom = PickNextAtom(binding, done);
  std::vector<uint32_t> scratch;
  size_t scan_rows = 0;
  const std::vector<uint32_t>* rows =
      Candidates(plans_[split.atom], binding, &scratch, &scan_rows);
  if (rows == &scratch) {
    split.use_owned = true;
    split.owned_rows = std::move(scratch);
  } else if (rows != nullptr) {
    split.index_rows = rows;
  } else {
    split.scan_rows = scan_rows;
  }
  return split;
}

size_t Matcher::ForEachFromRoot(std::span<const Value> seed,
                                const RootSplit& split, uint32_t row,
                                const RowCallback& callback,
                                const SearchControls& controls) const {
  return RunSearch(FlatSeed(seed), callback, controls, &split, row);
}

}  // namespace tgdkit
