#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <thread>
#include <unordered_map>

#include "base/fileio.h"
#include "base/strings.h"

namespace tgdkit {

namespace {

/// Root-candidate / delta rows per staging slice. Fixed independently of
/// the thread count: the slice list, the per-slice step totals, and the
/// merge-time PollN sequence are therefore identical for every `threads`
/// setting — which is what makes N-thread runs byte-identical to serial
/// ones, including governor slow-path check points, checkpoint-hook
/// firing steps, and snapshot contents.
constexpr size_t kSliceRows = 64;

unsigned ResolveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// First-cause abort latch shared by one round's staging workers. Only
/// inherently time-based stops (deadline, cancellation) abort staging from
/// inside a worker; deterministic budgets (steps, memory, structural caps)
/// are enforced solely at the serial merge so their trip points cannot
/// depend on scheduling.
struct StageAbort {
  std::atomic<bool> requested{false};
  std::atomic<uint8_t> reason{static_cast<uint8_t>(StopReason::kFixpoint)};

  void Request(StopReason r) {
    reason.store(static_cast<uint8_t>(r), std::memory_order_relaxed);
    requested.store(true, std::memory_order_release);
  }
  bool Requested() const {
    return requested.load(std::memory_order_relaxed);
  }
  StopReason Reason() const {
    return static_cast<StopReason>(reason.load(std::memory_order_relaxed));
  }
};

/// The advisory check workers run at slice starts and every
/// SearchControls::kPeriodicCheckStride matcher probes. Reads only
/// immutable governor state (start time) and atomics, so it is safe from
/// any thread; the engine re-records the cause via Halt after the barrier.
std::function<bool()> MakePeriodicCheck(const ChaseLimits& limits,
                                        const ResourceGovernor& governor,
                                        StageAbort* abort) {
  return [&limits, &governor, abort] {
    if (abort->Requested()) return false;
    if (limits.budget.cancel.cancelled()) {
      abort->Request(StopReason::kCancelled);
      return false;
    }
    if (limits.budget.deadline_ms != 0 &&
        governor.elapsed_ms() >=
            static_cast<double>(limits.budget.deadline_ms)) {
      abort->Request(StopReason::kDeadline);
      return false;
    }
    return true;
  };
}

/// One unit of staged matching: a contiguous range of root candidates
/// (full evaluation) or of one pivot's delta rows (semi-naive), or a
/// whole un-shardable search (a body with no atoms).
struct MatchSlice {
  size_t part = 0;  // rule part / tgd index
  bool whole_search = false;
  bool delta = false;
  size_t pivot = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Appends `slices` entries covering [begin, end) in kSliceRows chunks.
void PushRowSlices(size_t part, bool delta, size_t pivot, size_t begin,
                   size_t end, std::vector<MatchSlice>* slices) {
  for (size_t b = begin; b < end; b += kSliceRows) {
    MatchSlice s;
    s.part = part;
    s.delta = delta;
    s.pivot = pivot;
    s.begin = b;
    s.end = std::min(end, b + kSliceRows);
    slices->push_back(s);
  }
}

}  // namespace

/// One staging slice's output: its matches as flat rows in the part's
/// binding layout, back to back, in enumeration order, plus the staged
/// step count (matcher probes, and for delta slices one step per delta
/// row scanned) that the serial merge charges to the governor.
struct SliceRows {
  std::vector<Value> rows;
  size_t matches = 0;
  uint64_t steps = 0;
};

/// A rule part compiled once per engine. Staging writes each body match
/// as one flat row of `width` values (entry i binds matcher.variables()[i]);
/// firing reads the head straight off that row through `head`.
struct CompiledPart {
  /// Where a head argument's value comes from.
  enum class SlotKind : uint8_t {
    kCopy,      // row[index]: a body variable (restricted chase: or the
                // index-th existential's fresh null, past the body width)
    kConstant,  // Value::Constant(index)
    kTerm,      // TermToValue of program `index` grounded under the row
  };
  struct Slot {
    SlotKind kind;
    uint32_t index;
  };
  /// A Skolem term in postfix form: kVar pushes the term of row[operand],
  /// kLiteral pushes term `operand` (a ground sub-term, or a variable the
  /// body does not bind), kApply pops `arity` terms and pushes
  /// function `operand` applied to them.
  struct TermOp {
    enum class Kind : uint8_t { kVar, kLiteral, kApply } kind;
    uint32_t operand;
    uint32_t arity;
  };
  using TermProgram = std::vector<TermOp>;

  CompiledPart(const TermArena& arena, const Instance* instance,
               std::span<const Atom> body, std::span<const Atom> head_atoms)
      : matcher(&arena, instance, body), width(matcher.variables().size()) {
    for (size_t i = 0; i < width; ++i) {
      local.emplace(matcher.variables()[i], static_cast<uint32_t>(i));
    }
    for (const Atom& atom : body) body_relations.push_back(atom.relation);
    for (const Atom& atom : head_atoms) {
      head_relations.push_back(atom.relation);
      head_arities.push_back(static_cast<uint32_t>(atom.args.size()));
    }
  }

  /// Appends `t` (a symbolic term) to `program` in postfix order.
  void CompileTerm(const TermArena& arena, TermId t, TermProgram* program) {
    if (arena.IsVariable(t)) {
      auto it = local.find(arena.symbol(t));
      if (it != local.end()) {
        program->push_back({TermOp::Kind::kVar, it->second, 0});
        return;
      }
    }
    if (!arena.IsFunction(t) || arena.IsGround(t)) {
      program->push_back({TermOp::Kind::kLiteral, t, 0});
      return;
    }
    std::span<const TermId> args = arena.args(t);
    for (TermId a : args) CompileTerm(arena, a, program);
    program->push_back({TermOp::Kind::kApply, arena.symbol(t),
                        static_cast<uint32_t>(args.size())});
  }

  uint32_t AddProgram(const TermArena& arena, TermId t) {
    programs.emplace_back();
    CompileTerm(arena, t, &programs.back());
    return static_cast<uint32_t>(programs.size() - 1);
  }

  /// Restricted chase: true iff the head is satisfiable by extending the
  /// staged match `row` (uncounted; `seed` is scratch).
  bool HeadHolds(std::span<const Value> row, std::vector<Value>* seed) const {
    if (!head_matcher) return false;
    seed->assign(head_seed.size(), Value());
    for (size_t h = 0; h < head_seed.size(); ++h) {
      if (head_seed[h] >= 0) (*seed)[h] = row[head_seed[h]];
    }
    return head_matcher->ExistsRow(*seed);
  }

  Matcher matcher;
  size_t width;
  /// Body variable -> row index.
  std::unordered_map<VariableId, uint32_t> local;
  /// Body atom relations (the semi-naive pivots).
  std::vector<RelationId> body_relations;
  /// The head template: per atom its relation and arity, and one slot
  /// per argument of every atom, in head order.
  std::vector<RelationId> head_relations;
  std::vector<uint32_t> head_arities;
  std::vector<Slot> head;
  std::vector<TermProgram> programs;
  /// Skolem chase: equalities as pairs of programs that must ground to
  /// the same term.
  std::vector<std::pair<uint32_t, uint32_t>> equalities;
  /// Restricted chase: fresh nulls appended to the row per firing, and
  /// the head matcher whose variables are seeded from row[head_seed[h]]
  /// (-1: existential, left unbound).
  uint32_t num_existentials = 0;
  std::optional<Matcher> head_matcher;
  std::vector<int32_t> head_seed;
};

namespace {

/// Compiles a Skolem-chase rule part: body variables copy, constants are
/// literal, every other head argument (a Skolem term) gets a program.
CompiledPart CompileSoPart(const TermArena& arena, const Instance* instance,
                           const SoPart& part) {
  CompiledPart c(arena, instance, part.body, part.head);
  for (const Atom& atom : part.head) {
    for (TermId t : atom.args) {
      if (arena.IsConstant(t)) {
        c.head.push_back({CompiledPart::SlotKind::kConstant, arena.symbol(t)});
        continue;
      }
      if (arena.IsVariable(t)) {
        auto it = c.local.find(arena.symbol(t));
        if (it != c.local.end()) {
          c.head.push_back({CompiledPart::SlotKind::kCopy, it->second});
          continue;
        }
      }
      c.head.push_back({CompiledPart::SlotKind::kTerm, c.AddProgram(arena, t)});
    }
  }
  for (const SoEquality& eq : part.equalities) {
    uint32_t lhs = c.AddProgram(arena, eq.lhs);
    uint32_t rhs = c.AddProgram(arena, eq.rhs);
    c.equalities.emplace_back(lhs, rhs);
  }
  return c;
}

/// Compiles a first-order tgd for the restricted chase: existential
/// variables (in exist_vars order, then, defensively, any other head
/// variable the body does not bind) copy the fresh nulls a firing appends
/// past the body row.
CompiledPart CompileTgd(const TermArena& arena, const Instance* instance,
                        const Tgd& tgd) {
  CompiledPart c(arena, instance, tgd.body, tgd.head);
  std::unordered_map<VariableId, uint32_t> fresh;
  auto fresh_slot = [&](VariableId v) {
    return fresh.try_emplace(v, static_cast<uint32_t>(c.width + fresh.size()))
        .first->second;
  };
  for (VariableId y : tgd.exist_vars) fresh_slot(y);
  for (const Atom& atom : tgd.head) {
    for (TermId t : atom.args) {
      if (!arena.IsVariable(t)) {
        c.head.push_back({CompiledPart::SlotKind::kConstant, arena.symbol(t)});
        continue;
      }
      auto it = c.local.find(arena.symbol(t));
      c.head.push_back({CompiledPart::SlotKind::kCopy,
                        it != c.local.end() ? it->second
                                            : fresh_slot(arena.symbol(t))});
    }
  }
  c.num_existentials = static_cast<uint32_t>(fresh.size());
  c.head_matcher.emplace(&arena, instance, tgd.head);
  for (VariableId v : c.head_matcher->variables()) {
    auto it = c.local.find(v);
    c.head_seed.push_back(it == c.local.end()
                              ? -1
                              : static_cast<int32_t>(it->second));
  }
  return c;
}

/// Stages one slice: read-only matching against the round-frozen instance,
/// appending each match to `out` as a flat row (restricted parts drop
/// matches whose head already holds). Runs concurrently with itself on
/// other slices — everything it touches is immutable, per-slice, or
/// atomic. Both engines stage through here.
void RunSlice(const CompiledPart& part, const Matcher::RootSplit& split,
              const Instance& instance, const MatchSlice& slice,
              const std::function<bool()>& periodic, const StageAbort& abort,
              SliceRows* out) {
  if (!periodic()) return;
  SearchControls controls;
  controls.probe_counter = &out->steps;
  controls.periodic_check = periodic;
  std::vector<Value> head_seed;
  RowCallback emit = [&](std::span<const Value> row) {
    if (!part.HeadHolds(row, &head_seed)) {
      out->rows.insert(out->rows.end(), row.begin(), row.end());
      ++out->matches;
    }
    return !abort.Requested();
  };
  if (slice.whole_search) {
    part.matcher.ForEachRow({}, emit, controls);
    return;
  }
  if (!slice.delta) {
    for (size_t i = slice.begin; i < slice.end; ++i) {
      part.matcher.ForEachFromRoot({}, split, split.Row(i), emit, controls);
      if (abort.Requested()) return;
    }
    return;
  }
  std::vector<Value> seed;
  for (size_t row = slice.begin; row < slice.end; ++row) {
    ++out->steps;  // one step per delta row scanned
    if (abort.Requested()) return;
    std::span<const Value> tuple = instance.Tuple(
        part.body_relations[slice.pivot], static_cast<uint32_t>(row));
    seed.assign(part.width, Value());
    if (!part.matcher.BindAtom(slice.pivot, tuple, &seed)) continue;
    part.matcher.ForEachRow(seed, emit, controls);
  }
}

/// Round/fact bookkeeping shared by ChaseEngine and RestrictedChaseTgds:
/// both engines historically duplicated these checks; they now funnel
/// through the governor so every stop carries one StopReason.
class ChaseGuard {
 public:
  ChaseGuard(const ChaseLimits& limits, ResourceGovernor* governor)
      : limits_(limits), governor_(governor) {}

  /// Gate for starting another round: false on the round cap or when the
  /// cross-cutting budget (deadline/bytes/steps/cancel) is exhausted.
  bool BeginRound(uint64_t completed_rounds) {
    if (completed_rounds >= limits_.max_rounds) {
      governor_->MarkExhausted(StopReason::kRoundLimit);
      return false;
    }
    return governor_->CheckNow();
  }

  /// Gate for committing one trigger's head atomically: false when the
  /// commit would push the instance past the fact cap.
  bool CanCommit(size_t current_facts, size_t incoming) {
    if (current_facts + incoming > limits_.max_facts) {
      governor_->MarkExhausted(StopReason::kFactLimit);
      return false;
    }
    return true;
  }

 private:
  const ChaseLimits& limits_;
  ResourceGovernor* governor_;
};

}  // namespace

ChaseEngine::ChaseEngine(TermArena* arena, Vocabulary* vocab,
                         const SoTgd& rules, const Instance& input,
                         ChaseLimits limits)
    : arena_(arena),
      vocab_(vocab),
      rules_(rules),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(&input.vocab()) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  if (!limits_.spill_dir.empty()) {
    // The out-of-core backend must be selected before the first fact
    // lands (EnableSpill requires an empty store), i.e. before CopyFacts.
    status_ = MakeDirectories(limits_.spill_dir);
    if (status_.ok()) {
      SpillConfig config;
      config.dir = limits_.spill_dir;
      config.segment_bytes = limits_.spill_segment_kb * 1024;
      // Seal-time soft cap at half the byte budget: CopyFacts and round
      // flushes never poll the governor between insertions, so sealing
      // itself sheds cold segments before the next slow-path sample.
      config.max_resident_bytes = limits_.budget.max_memory_bytes / 2;
      status_ = instance_.EnableSpill(config);
    }
    if (!status_.ok()) {
      // Never fall back to in-core silently: the caller asked for spill.
      done_ = true;
      return;
    }
    InstallSpillPressureHandler();
  }
  CopyFacts(input, &instance_);
  null_provenance_.assign(instance_.num_nulls(), kInvalidTerm);
  for (const SoPart& part : rules_.parts) {
    parts_.push_back(CompileSoPart(*arena_, &instance_, part));
  }
}

ChaseEngine::~ChaseEngine() = default;

void ChaseEngine::InstallSpillPressureHandler() {
  governor_.SetPressureHandler([this](uint64_t target_bytes) {
    // Evict to half the budget so one relief buys lasting headroom
    // instead of re-entering the slow path over-budget every sample.
    instance_.EvictToBudget(target_bytes / 2);
  });
}

ChaseEngine::ChaseEngine(TermArena* arena, Vocabulary* vocab,
                         const SoTgd& rules, ChaseEngineState&& state,
                         ChaseLimits limits)
    : arena_(arena),
      vocab_(vocab),
      rules_(rules),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(std::move(state.instance)) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  for (const SoPart& part : rules_.parts) {
    parts_.push_back(CompileSoPart(*arena_, &instance_, part));
  }
  term_to_value_.insert(state.term_to_value.begin(),
                        state.term_to_value.end());
  null_provenance_ = std::move(state.null_provenance);
  for (const auto& [rel, count] : state.rows_before_prev_round) {
    rows_before_prev_round_[rel] = count;
  }
  for (const auto& [rel, count] : state.rows_before_current_round) {
    rows_before_current_round_[rel] = count;
  }
  rounds_ = state.rounds;
  facts_created_ = state.facts_created;
  governor_.RestorePriorConsumption(state.governor_steps,
                                    state.governor_charged_bytes);
  if (instance_.spill_enabled()) {
    // The snapshot loader restored the spilled store (with the recorded
    // segment geometry) but every restored segment is still hot; install
    // this run's budget cap and shed down to it before the first round.
    uint64_t cap = limits_.budget.max_memory_bytes / 2;
    instance_.SetSpillResidentCap(cap);
    InstallSpillPressureHandler();
    if (cap != 0) instance_.EvictToBudget(cap);
  }
  if (state.done && state.stop_reason == ChaseStop::kFixpoint) {
    // A completed chase stays completed; there is nothing to resume.
    done_ = true;
    stop_reason_ = ChaseStop::kFixpoint;
  } else {
    // Re-open a resource-stopped (or mid-run) state: the next Step()
    // replays the interrupted round under the restored windows.
    done_ = false;
    stop_reason_ = ChaseStop::kFixpoint;
    replay_round_ = rounds_ > 0;
  }
}

ChaseEngineState ChaseEngine::CaptureState() const {
  ChaseEngineState state(&instance_.vocab());
  bool torn = rounds_ > 0 && !(done_ && stop_reason_ == ChaseStop::kFixpoint) &&
              InstanceGrewSinceRoundStart();
  uint64_t dropped_facts = 0;
  if (instance_.spill_enabled()) {
    // Spill mode: no deep copy of a mostly-on-disk store. The snapshot
    // serializer flushes dirty segments and references the immutable
    // segment files by name, rendering only the mutable remainder as
    // text. A torn capture records the round-start row counts; the
    // writer truncates to them (the redone round re-derives the rest).
    state.spill_instance = &instance_;
    if (torn) {
      for (RelationId rel : instance_.ActiveRelations()) {
        auto it = rows_before_current_round_.find(rel);
        uint64_t keep =
            it == rows_before_current_round_.end() ? 0 : it->second;
        state.spill_keep_rows.emplace_back(rel, keep);
        dropped_facts += instance_.NumTuples(rel) - keep;
      }
    }
  } else if (!torn) {
    state.instance = instance_;
  } else {
    // The current round has (partially) committed — e.g. the run halted
    // inside FlushPending, or the capture fired at the boundary right
    // after a flush. Replaying over those commits would enumerate extra
    // triggers and break determinism, so roll the instance back to the
    // round's start; the resumed engine redoes the round from scratch.
    // The term-to-value memo and the allocated nulls are kept: the redo
    // re-derives the same facts with the same nulls, in the same order.
    state.instance.EnsureNulls(instance_.num_nulls());
    for (uint32_t i = 0; i < instance_.num_nulls(); ++i) {
      state.instance.SetNullLabel(i, instance_.NullLabel(i));
    }
    for (RelationId rel : instance_.ActiveRelations()) {
      auto it = rows_before_current_round_.find(rel);
      size_t keep = it == rows_before_current_round_.end() ? 0 : it->second;
      for (size_t row = 0; row < keep; ++row) {
        Fact f;
        f.relation = rel;
        std::span<const Value> tuple =
            instance_.Tuple(rel, static_cast<uint32_t>(row));
        f.args.assign(tuple.begin(), tuple.end());
        state.instance.AddFact(f);
      }
      dropped_facts += instance_.NumTuples(rel) - keep;
    }
  }
  state.term_to_value.assign(term_to_value_.begin(), term_to_value_.end());
  std::sort(state.term_to_value.begin(), state.term_to_value.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  state.null_provenance = null_provenance_;
  state.rows_before_prev_round.assign(rows_before_prev_round_.begin(),
                                      rows_before_prev_round_.end());
  std::sort(state.rows_before_prev_round.begin(),
            state.rows_before_prev_round.end());
  state.rows_before_current_round.assign(rows_before_current_round_.begin(),
                                         rows_before_current_round_.end());
  std::sort(state.rows_before_current_round.begin(),
            state.rows_before_current_round.end());
  state.done = done_;
  state.stop_reason = stop_reason_;
  state.rounds = rounds_;
  state.facts_created =
      dropped_facts > facts_created_ ? 0 : facts_created_ - dropped_facts;
  state.governor_steps = governor_.total_steps();
  state.governor_charged_bytes = governor_.total_charged_bytes();
  return state;
}

void ChaseEngine::SetCheckpointHook(
    uint64_t every_steps, uint64_t every_ms,
    std::function<void(const ChaseEngine&)> hook) {
  checkpoint_hook_ = std::move(hook);
  governor_.SetCheckpointHook(every_steps, every_ms, [this] {
    // During FlushPending the instance holds a half-committed round;
    // capturing it would not replay deterministically. Defer to the
    // round's end (a safe point by construction).
    if (in_flush_) {
      deferred_checkpoint_ = true;
    } else {
      checkpoint_hook_(*this);
    }
  });
}

void ChaseEngine::Halt(StopReason reason) {
  governor_.MarkExhausted(reason);
  stop_reason_ = governor_.reason();
  done_ = true;
}

TermId ChaseEngine::NullProvenance(uint32_t null_index) const {
  if (null_index >= null_provenance_.size()) return kInvalidTerm;
  return null_provenance_[null_index];
}

TermId ChaseEngine::ValueToTerm(Value v) {
  if (v.is_constant()) return arena_->MakeConstant(v.index());
  // Input nulls behave like opaque individuals: represent null i as the
  // 0-ary function term @innull<i>().
  TermId provenance = NullProvenance(v.index());
  if (provenance != kInvalidTerm) return provenance;
  FunctionId f = vocab_->InternFunction(Cat("@innull", v.index()), 0);
  TermId t = arena_->MakeFunction(f, {});
  term_to_value_.emplace(t, v);
  if (v.index() < null_provenance_.size()) {
    null_provenance_[v.index()] = t;
  }
  return t;
}

Value ChaseEngine::TermToValue(TermId t) {
  if (arena_->IsConstant(t)) return Value::Constant(arena_->symbol(t));
  assert(arena_->IsGround(t) && "chase head terms must ground under the trigger");
  auto it = term_to_value_.find(t);
  if (it != term_to_value_.end()) return it->second;
  if (arena_->Depth(t) > limits_.max_term_depth) return Value();
  Value null = instance_.FreshNull();
  term_to_value_.emplace(t, null);
  null_provenance_.push_back(t);
  assert(null_provenance_.size() == instance_.num_nulls());
  return null;
}

TermId ChaseEngine::GroundTerm(const CompiledPart& part, uint32_t program,
                               std::span<const Value> row) {
  term_stack_.clear();
  for (const CompiledPart::TermOp& op : part.programs[program]) {
    switch (op.kind) {
      case CompiledPart::TermOp::Kind::kVar:
        term_stack_.push_back(ValueToTerm(row[op.operand]));
        break;
      case CompiledPart::TermOp::Kind::kLiteral:
        term_stack_.push_back(op.operand);
        break;
      case CompiledPart::TermOp::Kind::kApply: {
        size_t base = term_stack_.size() - op.arity;
        TermId t = arena_->MakeFunction(
            op.operand, {term_stack_.data() + base, op.arity});
        term_stack_.resize(base);
        term_stack_.push_back(t);
        break;
      }
    }
  }
  return term_stack_.back();
}

bool ChaseEngine::ProcessTrigger(uint32_t part_index,
                                 std::span<const Value> row) {
  if (!governor_.Poll()) {
    Halt(governor_.reason());
    return false;
  }
  const CompiledPart& part = parts_[part_index];
  // An input null a trigger binds gets its opaque @innull term (and with
  // it the provenance explain reports) on first use, whether or not a
  // Skolem term of this part reads it.
  for (Value v : row) {
    if (v.is_null() && null_provenance_[v.index()] == kInvalidTerm) {
      ValueToTerm(v);
    }
  }
  // Equalities: free interpretation — ground terms must coincide.
  for (const auto& [lhs, rhs] : part.equalities) {
    if (GroundTerm(part, lhs, row) != GroundTerm(part, rhs, row)) {
      return true;  // trigger inactive
    }
  }
  // Stage the whole head first: if any head term overflows the depth
  // budget, the trigger contributes nothing (never a partial head).
  const size_t start = pending_values_.size();
  for (const CompiledPart::Slot& slot : part.head) {
    switch (slot.kind) {
      case CompiledPart::SlotKind::kCopy:
        pending_values_.push_back(row[slot.index]);
        break;
      case CompiledPart::SlotKind::kConstant:
        pending_values_.push_back(Value::Constant(slot.index));
        break;
      case CompiledPart::SlotKind::kTerm: {
        Value v = TermToValue(GroundTerm(part, slot.index, row));
        if (!v.valid()) {
          pending_values_.resize(start);
          Halt(StopReason::kDepthLimit);
          return false;
        }
        pending_values_.push_back(v);
        break;
      }
    }
  }
  pending_parts_.push_back(part_index);
  return true;
}

bool ChaseEngine::FlushPending() {
  ChaseGuard guard(limits_, &governor_);
  in_flush_ = true;
  bool added = false;
  size_t facts = instance_.NumFacts();
  size_t offset = 0;
  for (uint32_t p : pending_parts_) {
    const CompiledPart& part = parts_[p];
    // Triggers commit atomically: either the whole head or nothing.
    if (!guard.CanCommit(facts, part.head_relations.size())) {
      Halt(governor_.reason());
      break;
    }
    for (size_t a = 0; a < part.head_relations.size(); ++a) {
      const uint32_t arity = part.head_arities[a];
      if (instance_.AddFact(part.head_relations[a],
                            {pending_values_.data() + offset, arity})) {
        added = true;
        ++facts;
        ++facts_created_;
      }
      offset += arity;
    }
  }
  in_flush_ = false;
  pending_parts_.clear();
  pending_values_.clear();
  return added;
}

bool ChaseEngine::StageAndMergeRound(bool use_delta) {
  // STAGE (parallel, read-only): enumeration always sees the round-start
  // instance — the instance stays frozen until Step() flushes the whole
  // round. Inserting while enumerating would let this round's conclusions
  // re-trigger within the same round (still sound for the oblivious
  // chase, but rounds would lose their meaning — and a replayed round
  // would enumerate differently than the original, breaking deterministic
  // resume). That freeze is also what makes staging embarrassingly
  // parallel: workers share the instance, the arena and the compiled
  // parts' const Matchers without synchronization.
  const uint32_t num_parts = static_cast<uint32_t>(parts_.size());
  std::vector<Matcher::RootSplit> splits(num_parts);
  std::vector<MatchSlice> slices;
  for (uint32_t p = 0; p < num_parts; ++p) {
    const CompiledPart& part = parts_[p];
    if (use_delta) {
      // For each body atom acting as the pivot, the slices cover the
      // previous round's delta rows. Triggers touching no delta fact were
      // already fired in an earlier round (Skolem-chase idempotence makes
      // re-fired overlapping triggers harmless).
      for (size_t pivot = 0; pivot < part.body_relations.size(); ++pivot) {
        RelationId relation = part.body_relations[pivot];
        auto prev_it = rows_before_prev_round_.find(relation);
        size_t delta_begin =
            prev_it == rows_before_prev_round_.end() ? 0 : prev_it->second;
        auto cur_it = rows_before_current_round_.find(relation);
        size_t delta_end =
            cur_it == rows_before_current_round_.end() ? 0 : cur_it->second;
        PushRowSlices(p, /*delta=*/true, pivot, delta_begin, delta_end,
                      &slices);
      }
    } else {
      splits[p] = part.matcher.PlanRoot({});
      if (splits[p].atom < 0) {
        MatchSlice s;
        s.part = p;
        s.whole_search = true;
        slices.push_back(s);
      } else {
        PushRowSlices(p, /*delta=*/false, 0, 0, splits[p].NumCandidates(),
                      &slices);
      }
    }
  }

  std::vector<SliceRows> results(slices.size());
  StageAbort abort;
  std::function<bool()> periodic =
      MakePeriodicCheck(limits_, governor_, &abort);
  pool_->ParallelFor(slices.size(), [&](size_t i) {
    const MatchSlice& s = slices[i];
    RunSlice(parts_[s.part], splits[s.part], instance_, s, periodic, abort,
             &results[i]);
  });
  if (abort.Requested()) {
    // Time-based abort (deadline/cancel): discard the staged round whole.
    // Nothing was committed, so the instance is still the round-start
    // instance — the same state a serial run stopping mid-round leaves.
    Halt(abort.Reason());
    return false;
  }

  // MERGE (serial, deterministic): charge each slice's staged work, then
  // fire its triggers, in slice order — the order the serial engine
  // enumerates. Step/fact/depth budgets trip here at thread-count-
  // independent points.
  for (size_t i = 0; i < slices.size(); ++i) {
    if (!governor_.PollN(results[i].steps)) {
      Halt(governor_.reason());
      return false;
    }
    const uint32_t p = static_cast<uint32_t>(slices[i].part);
    const size_t width = parts_[p].width;
    const Value* row = results[i].rows.data();
    for (size_t m = 0; m < results[i].matches; ++m, row += width) {
      if (!ProcessTrigger(p, {row, width})) return false;
    }
  }
  return true;
}

bool ChaseEngine::InstanceGrewSinceRoundStart() const {
  for (RelationId rel : instance_.ActiveRelations()) {
    auto it = rows_before_current_round_.find(rel);
    size_t at_start = it == rows_before_current_round_.end() ? 0 : it->second;
    if (instance_.NumTuples(rel) != at_start) return true;
  }
  return false;
}

bool ChaseEngine::Step() {
  if (done_) return false;
  ChaseGuard guard(limits_, &governor_);
  bool replay = replay_round_ && rounds_ > 0;
  replay_round_ = false;
  if (replay) {
    // Resume: redo the interrupted round under its restored semi-naive
    // windows. The round was already counted, so no increment; the budget
    // is still re-checked before firing anything.
    if (!governor_.CheckNow()) {
      Halt(governor_.reason());
      return false;
    }
  } else {
    if (!guard.BeginRound(rounds_)) {
      Halt(governor_.reason());
      return false;
    }
    ++rounds_;
    // Window bookkeeping runs in full evaluation too: it costs one count
    // per active relation and gives checkpoints (and the replay fixpoint
    // test below) round-start row counts in either mode.
    rows_before_prev_round_ = std::move(rows_before_current_round_);
    rows_before_current_round_.clear();
    for (RelationId rel : instance_.ActiveRelations()) {
      rows_before_current_round_[rel] = instance_.NumTuples(rel);
    }
  }

  bool use_delta = limits_.semi_naive && rounds_ > 1;
  // Stage the whole round first, then commit once: enumeration always
  // sees the round-start instance, so replaying a round from any
  // checkpoint taken inside it re-enumerates identically.
  pending_parts_.clear();
  pending_values_.clear();
  if (!StageAndMergeRound(use_delta)) return false;
  bool any = FlushPending();
  if (deferred_checkpoint_) {
    deferred_checkpoint_ = false;
    if (checkpoint_hook_) checkpoint_hook_(*this);
  }
  if (done_) return false;
  if (replay) {
    // A replayed round re-fires triggers whose facts were committed before
    // the checkpoint; those insertions deduplicate, so "no fact added this
    // Step" does not mean fixpoint. Compare against the round's start.
    any = InstanceGrewSinceRoundStart();
  }
  if (!any) {
    done_ = true;
    stop_reason_ = ChaseStop::kFixpoint;
  }
  return any;
}

void ChaseEngine::Run() {
  while (Step()) {
  }
}

std::string ChaseResult::ExplainValue(const TermArena& arena,
                                      const Vocabulary& vocab,
                                      Value v) const {
  if (v.is_constant()) return instance.ValueToString(v);
  if (v.index() < null_provenance.size() &&
      null_provenance[v.index()] != kInvalidTerm) {
    return arena.ToString(null_provenance[v.index()], vocab);
  }
  return instance.ValueToString(v);  // input null: opaque
}

ChaseResult Chase(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
                  const Instance& input, ChaseLimits limits) {
  ChaseEngine engine(arena, vocab, rules, input, limits);
  engine.Run();
  ChaseResult result{engine.TakeInstance(), engine.stop_reason(),
                     engine.rounds(), engine.facts_created(), {}};
  result.setup = engine.status();
  result.budget_steps = engine.governor().total_steps();
  result.budget_bytes = engine.governor().memory_bytes();
  uint32_t num_nulls = result.instance.num_nulls();
  result.null_provenance.reserve(num_nulls);
  for (uint32_t i = 0; i < num_nulls; ++i) {
    result.null_provenance.push_back(engine.NullProvenance(i));
  }
  return result;
}

RestrictedChaseEngine::RestrictedChaseEngine(TermArena* arena,
                                             std::span<const Tgd> tgds,
                                             const Instance& input,
                                             ChaseLimits limits)
    : arena_(arena),
      tgds_(tgds.begin(), tgds.end()),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(&input.vocab()) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  CopyFacts(input, &instance_);
  for (const Tgd& tgd : tgds_) {
    parts_.push_back(CompileTgd(*arena_, &instance_, tgd));
  }
}

RestrictedChaseEngine::~RestrictedChaseEngine() = default;

RestrictedChaseEngine::RestrictedChaseEngine(TermArena* arena,
                                             std::span<const Tgd> tgds,
                                             RestrictedChaseState&& state,
                                             ChaseLimits limits)
    : arena_(arena),
      tgds_(tgds.begin(), tgds.end()),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(std::move(state.instance)) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  for (const Tgd& tgd : tgds_) {
    parts_.push_back(CompileTgd(*arena_, &instance_, tgd));
  }
  rounds_ = state.rounds;
  facts_created_ = state.facts_created;
  governor_.RestorePriorConsumption(state.governor_steps,
                                    state.governor_charged_bytes);
  if (state.done && state.stop_reason == ChaseStop::kFixpoint) {
    done_ = true;
  }
  // Resource-stopped states re-open with stop_reason_ = kFixpoint; the
  // state was captured between rounds, so Run() simply continues.
}

void RestrictedChaseEngine::Halt(StopReason reason) {
  governor_.MarkExhausted(reason);
  stop_reason_ = governor_.exhausted() ? governor_.reason() : reason;
  done_ = true;
}

RestrictedChaseState RestrictedChaseEngine::CaptureState() const {
  RestrictedChaseState state(&instance_.vocab());
  state.instance = instance_;
  state.done = done_;
  state.stop_reason = stop_reason_;
  state.rounds = rounds_;
  state.facts_created = facts_created_;
  state.governor_steps = governor_.total_steps();
  state.governor_charged_bytes = governor_.total_charged_bytes();
  return state;
}

bool RestrictedChaseEngine::StageActive(uint32_t part,
                                        std::vector<SliceRows>* staged) {
  const CompiledPart& compiled = parts_[part];
  Matcher::RootSplit split = compiled.matcher.PlanRoot({});
  std::vector<MatchSlice> slices;
  if (split.atom < 0) {
    MatchSlice s;
    s.part = part;
    s.whole_search = true;
    slices.push_back(s);
  } else {
    PushRowSlices(part, /*delta=*/false, 0, 0, split.NumCandidates(),
                  &slices);
  }
  staged->assign(slices.size(), SliceRows{});
  StageAbort abort;
  std::function<bool()> periodic =
      MakePeriodicCheck(limits_, governor_, &abort);
  pool_->ParallelFor(slices.size(), [&](size_t i) {
    RunSlice(compiled, split, instance_, slices[i], periodic, abort,
             &(*staged)[i]);
  });
  if (abort.Requested()) {
    Halt(abort.Reason());
    return false;
  }
  for (const SliceRows& result : *staged) {
    if (!governor_.PollN(result.steps)) {
      Halt(governor_.reason());
      return false;
    }
  }
  return true;
}

void RestrictedChaseEngine::SetCheckpointHook(
    uint64_t every_rounds,
    std::function<void(const RestrictedChaseEngine&)> hook) {
  checkpoint_every_rounds_ = every_rounds == 0 ? 1 : every_rounds;
  checkpoint_hook_ = std::move(hook);
  rounds_since_checkpoint_ = 0;
}

bool RestrictedChaseEngine::Step() {
  if (done_) return false;
  ChaseGuard guard(limits_, &governor_);
  if (!guard.BeginRound(rounds_)) {
    Halt(governor_.reason());
    return false;
  }
  ++rounds_;
  // The restricted chase commits as it fires (fresh nulls per firing), so
  // a state captured inside a round is not resumable; mark the round
  // in-flight so Run() withholds the checkpoint hook on a mid-round halt.
  in_round_ = true;
  Instance& j = instance_;
  bool any = false;
  std::vector<SliceRows> staged;
  std::vector<Value> extended, head, seed;
  for (uint32_t p = 0; p < parts_.size(); ++p) {
    // The restricted chase commits inside the round (tgd k+1 must see tgd
    // k's firings), so staging parallelizes per tgd: enumerate + filter
    // this tgd's triggers against the current instance in parallel, then
    // fire serially.
    const CompiledPart& part = parts_[p];
    if (!StageActive(p, &staged)) return false;
    for (const SliceRows& slice : staged) {
      const Value* row = slice.rows.data();
      for (size_t m = 0; m < slice.matches; ++m, row += part.width) {
        if (!governor_.Poll()) {
          Halt(governor_.reason());
          return false;
        }
        // Re-check: an earlier firing this round may have satisfied it.
        if (part.HeadHolds({row, part.width}, &seed)) continue;
        extended.assign(row, row + part.width);
        for (uint32_t k = 0; k < part.num_existentials; ++k) {
          extended.push_back(j.FreshNull());
        }
        // Stage the head first so the fact cap applies to the firing as
        // a whole (triggers commit atomically, as in ChaseEngine).
        head.clear();
        for (const CompiledPart::Slot& slot : part.head) {
          head.push_back(slot.kind == CompiledPart::SlotKind::kCopy
                             ? extended[slot.index]
                             : Value::Constant(slot.index));
        }
        if (!guard.CanCommit(j.NumFacts(), part.head_relations.size())) {
          Halt(governor_.reason());
          return false;
        }
        size_t offset = 0;
        for (size_t a = 0; a < part.head_relations.size(); ++a) {
          if (j.AddFact(part.head_relations[a],
                        {head.data() + offset, part.head_arities[a]})) {
            ++facts_created_;
          }
          offset += part.head_arities[a];
        }
        any = true;
      }
    }
  }
  in_round_ = false;
  if (!any) {
    done_ = true;
    stop_reason_ = ChaseStop::kFixpoint;
  }
  return any;
}

void RestrictedChaseEngine::Run() {
  while (Step()) {
    if (checkpoint_hook_ &&
        ++rounds_since_checkpoint_ >= checkpoint_every_rounds_) {
      rounds_since_checkpoint_ = 0;
      checkpoint_hook_(*this);
    }
  }
  // A final consistent point — unless the run halted inside a round: the
  // partially-fired round is not resumable, so the last per-round
  // checkpoint stays the authoritative one.
  if (checkpoint_hook_ && !in_round_) checkpoint_hook_(*this);
}

ChaseResult RestrictedChaseEngine::TakeResult() {
  ChaseResult result{std::move(instance_), stop_reason_, rounds_,
                     facts_created_, {}};
  result.budget_steps = governor_.total_steps();
  result.budget_bytes = governor_.memory_bytes();
  return result;
}

ChaseResult RestrictedChaseTgds(TermArena* arena, Vocabulary* vocab,
                                std::span<const Tgd> tgds,
                                const Instance& input, ChaseLimits limits) {
  (void)vocab;
  RestrictedChaseEngine engine(arena, tgds, input, limits);
  engine.Run();
  return engine.TakeResult();
}

}  // namespace tgdkit
