// The chase: the universal-model construction underlying certain-answer
// query answering for dependencies.
//
// Two engines are provided:
//
//  * ChaseEngine / Chase — the Skolem (oblivious) chase over SO tgds, the
//    library's executable common form of all dependency classes (Figure 1).
//    Every ground Skolem term is interned once and mapped to a canonical
//    labeled null, so the result is deterministic and firing is idempotent.
//    Equalities in rule bodies are evaluated under the free interpretation
//    of function symbols (ground-term identity), the standard reading for
//    Skolemized dependencies.
//
//  * RestrictedChaseTgds — the classical standard chase for first-order
//    tgds, which fires a trigger only when the head is not already
//    satisfiable by extension. Used for comparison and ablations.
//
// For weakly acyclic rule sets the chase terminates (Fagin et al. 2005;
// the paper notes this lifts to SO tgds, Section 5). For the undecidable
// encodings of Section 5 the chase is a semi-decision procedure, driven
// round-by-round with resource limits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/budget.h"
#include "base/thread_pool.h"
#include "dep/dependency.h"
#include "homo/matcher.h"

namespace tgdkit {

/// A rule part compiled once per engine: its body matcher, the flat
/// binding layout staged matches use, and its head as a template over that
/// layout (defined in chase.cc).
struct CompiledPart;

/// One staging slice's matches as flat rows (defined in chase.cc).
struct SliceRows;

struct ChaseLimits {
  uint64_t max_rounds = 10000;
  uint64_t max_facts = 1000000;
  /// Maximum nesting depth of ground Skolem terms; deeper terms abort the
  /// run (semi-decision budget for non-terminating chases).
  uint32_t max_term_depth = 256;
  /// Semi-naive evaluation: from round two on, only fire triggers that
  /// touch at least one fact created in the previous round. Produces the
  /// same result as naive evaluation (the Skolem chase is idempotent);
  /// disable only for the ablation benchmark.
  bool semi_naive = true;
  /// Cross-cutting resource budget (deadline, bytes, steps, cancellation)
  /// enforced by a ResourceGovernor on top of the structural caps above.
  /// One chase step = one trigger processed or one matcher/delta row
  /// probed.
  ExecutionBudget budget;
  /// Execution lanes for round staging (1 = serial, 0 = one per hardware
  /// thread). Any value produces byte-identical results — instance text,
  /// stop reason, step counts and snapshots — because trigger matching is
  /// staged over fixed-geometry slices whose results merge in a
  /// deterministic order (see docs/PARALLELISM.md).
  uint32_t threads = 1;
  /// Out-of-core mode (docs/STORAGE.md): when non-empty, the engine's
  /// instance spills sealed fact segments into this directory and the
  /// governor's memory-pressure path evicts hot segments before giving up
  /// with kMemoryLimit. Empty (the default) keeps the fully in-core
  /// store. Either mode produces byte-identical chase results. A
  /// directory that cannot be created or used is an error (see
  /// ChaseEngine::status()), never a silent fallback to in-core.
  std::string spill_dir;
  /// Segment payload size for the spill store, in KiB.
  uint64_t spill_segment_kb = 256;
};

/// Complete resumable state of a ChaseEngine, as captured by
/// CaptureState() and restored by the resume constructor. The snapshot
/// layer (src/snapshot) serializes this struct; the engine itself only
/// defines what "resumable" means.
///
/// Consistency model: a checkpoint may be taken at any governor poll, i.e.
/// in the middle of a round. On resume the engine REPLAYS the round it was
/// in from that round's start. The Skolem chase is idempotent (facts
/// dedup, ground-term-to-null mapping is memoized in term_to_value), so
/// the replay commits exactly the facts the uninterrupted run would have,
/// in the same order, and the final result is bit-identical.
struct ChaseEngineState {
  explicit ChaseEngineState(const Vocabulary* vocab) : instance(vocab) {}

  Instance instance;
  /// Spill mode capture: instead of deep-copying a mostly-on-disk store
  /// into `instance`, CaptureState points at the live engine's instance
  /// (sealed segment files are immutable, so the snapshot layer can
  /// reference them by name after flushing dirty ones). Null for in-core
  /// captures and for states restored from disk (the loader materializes
  /// `instance` instead).
  const Instance* spill_instance = nullptr;
  /// Spill-mode torn-round rollback: per-relation row counts to keep
  /// (round-start counts), in ActiveRelations order. Empty means keep
  /// everything (the capture was at a round boundary).
  std::vector<std::pair<RelationId, uint64_t>> spill_keep_rows;
  /// Ground term -> value memo (term ids index the serialized arena).
  std::vector<std::pair<TermId, Value>> term_to_value;
  std::vector<TermId> null_provenance;
  /// Semi-naive windows: per-relation row counts at the start of the
  /// previous / current round (row ids are stable, so counts suffice).
  std::vector<std::pair<RelationId, uint64_t>> rows_before_prev_round;
  std::vector<std::pair<RelationId, uint64_t>> rows_before_current_round;
  bool done = false;
  ChaseStop stop_reason = ChaseStop::kFixpoint;
  uint64_t rounds = 0;
  uint64_t facts_created = 0;
  /// Governor consumption already paid for (telemetry only on resume;
  /// never re-charged against new budget limits).
  uint64_t governor_steps = 0;
  uint64_t governor_charged_bytes = 0;
};

/// Round-by-round Skolem chase over one SO tgd (= rule set).
class ChaseEngine {
 public:
  /// `input` is copied; `arena` receives ground Skolem terms; `vocab` is
  /// used for null provenance labels.
  ChaseEngine(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
              const Instance& input, ChaseLimits limits = {});

  /// Resumes from a state captured by CaptureState(). `arena` and `vocab`
  /// must hold exactly the contents they had at capture time (the
  /// snapshot layer restores them alongside the state). A state whose
  /// stop_reason is a resource stop is re-opened: the engine clears
  /// done and continues (replaying the interrupted round) under the new
  /// `limits`; a kFixpoint state stays complete.
  ChaseEngine(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
              ChaseEngineState&& state, ChaseLimits limits = {});

  /// The governor registers the arena and the growing instance as memory
  /// sources; moving the engine would invalidate those hooks.
  ChaseEngine(const ChaseEngine&) = delete;
  ChaseEngine& operator=(const ChaseEngine&) = delete;
  ~ChaseEngine();

  /// Ok, or the error that kept the engine from starting (an unusable
  /// ChaseLimits::spill_dir). Such an engine is done and never runs.
  const Status& status() const { return status_; }

  /// Runs one full round (every rule, every trigger). Returns true if at
  /// least one new fact was added and no limit was hit.
  bool Step();

  /// Runs rounds until fixpoint or a limit.
  void Run();

  const Instance& instance() const { return instance_; }
  Instance&& TakeInstance() { return std::move(instance_); }

  bool done() const { return done_; }
  ChaseStop stop_reason() const { return stop_reason_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t facts_created() const { return facts_created_; }

  /// The governor enforcing limits_.budget (for steps/bytes telemetry).
  const ResourceGovernor& governor() const { return governor_; }

  /// Effective execution lanes (ChaseLimits::threads with 0 resolved to
  /// the hardware thread count).
  unsigned threads() const { return pool_->threads(); }

  /// Provenance: the ground Skolem term a chase-created null stands for
  /// (kInvalidTerm for nulls already present in the input).
  TermId NullProvenance(uint32_t null_index) const;

  /// Deep-copies the engine's resumable state. Safe to call at any
  /// governor poll (see ChaseEngineState for the consistency model) and
  /// after the run ended.
  ChaseEngineState CaptureState() const;

  /// Registers a periodic checkpoint hook on the engine's governor: every
  /// `every_steps` steps / `every_ms` milliseconds (whichever fires first;
  /// 0 = unconstrained) the hook receives the live engine to snapshot via
  /// CaptureState(). The hook must not mutate the engine.
  void SetCheckpointHook(uint64_t every_steps, uint64_t every_ms,
                         std::function<void(const ChaseEngine&)> hook);

 private:
  /// Maps a value to the ground term representing it.
  TermId ValueToTerm(Value v);
  /// Maps a ground term to a value, creating a canonical null if needed.
  /// Returns an invalid Value when the depth limit is exceeded.
  Value TermToValue(TermId t);

  /// Grounds a compiled Skolem term under a staged match: interns only
  /// the bound values the term uses, then the function applications.
  TermId GroundTerm(const CompiledPart& part, uint32_t program,
                    std::span<const Value> row);

  /// Fires one trigger (a staged match of part `part`, as a flat row):
  /// checks the equalities and appends the whole head to the pending
  /// buffer as one atomic unit. Returns false on a limit; a trigger that
  /// hits a limit mid-head stages nothing (no partial head facts are
  /// ever committed).
  bool ProcessTrigger(uint32_t part, std::span<const Value> row);
  /// One round's trigger enumeration: stages matching over fixed-geometry
  /// slices fanned across the pool (read-only against the round-frozen
  /// instance), then merges the per-slice results serially in slice order
  /// — charging governor steps and running ProcessTrigger for each match.
  /// The slice geometry and merge order are independent of the thread
  /// count, so any `threads` setting observes the identical step/trigger
  /// sequence. Returns false when the round halted (reason recorded).
  bool StageAndMergeRound(bool use_delta);
  /// Commits a whole round's pending heads. The instance only mutates
  /// here: enumeration always sees the round-start instance, which is
  /// what makes round replay (and therefore resume) deterministic.
  bool FlushPending();
  /// Records the first stop reason and marks the run done.
  void Halt(StopReason reason);
  /// Spill mode: registers the governor's memory-pressure hook
  /// (spill-and-evict before a kMemoryLimit stop).
  void InstallSpillPressureHandler();
  /// True iff any relation gained rows since the current round started
  /// (fixpoint test for replayed rounds).
  bool InstanceGrewSinceRoundStart() const;

  TermArena* arena_;
  Vocabulary* vocab_;
  SoTgd rules_;
  ChaseLimits limits_;
  ResourceGovernor governor_;
  /// Staging lanes (never serialized; rebuilt from limits on resume).
  std::unique_ptr<ThreadPool> pool_;
  Instance instance_;
  Status status_;
  /// rules_.parts, compiled against instance_ (one entry per part).
  std::vector<CompiledPart> parts_;
  /// The round's fired heads, back to back: per trigger its part index,
  /// and the values of every head atom in head order.
  std::vector<uint32_t> pending_parts_;
  std::vector<Value> pending_values_;
  /// GroundTerm's operand stack (reused across triggers).
  std::vector<TermId> term_stack_;
  std::unordered_map<TermId, Value> term_to_value_;
  std::vector<TermId> null_provenance_;  // null index -> ground term
  // Semi-naive bookkeeping: per-relation row counts at the start of the
  // previous and the current round.
  std::unordered_map<RelationId, size_t> rows_before_prev_round_;
  std::unordered_map<RelationId, size_t> rows_before_current_round_;
  bool done_ = false;
  ChaseStop stop_reason_ = ChaseStop::kFixpoint;
  uint64_t rounds_ = 0;
  uint64_t facts_created_ = 0;
  /// Resume: the next Step() re-runs the round the captured engine was in
  /// (same semi-naive windows, no round increment); fixpoint detection for
  /// that round compares row counts against the round-start windows
  /// instead of the replay's (deduplicated) insertions.
  bool replay_round_ = false;
  /// Checkpoint safety: a capture taken while FlushPending is mutating
  /// the instance would record a half-committed round, whose replay is
  /// not deterministic. Hook firings that land inside the flush are
  /// deferred to the round's end.
  std::function<void(const ChaseEngine&)> checkpoint_hook_;
  bool in_flush_ = false;
  bool deferred_checkpoint_ = false;
};

struct ChaseResult {
  Instance instance;
  ChaseStop stop_reason;
  uint64_t rounds;
  uint64_t facts_created;
  /// Provenance: for each null index, the ground Skolem term it stands
  /// for (kInvalidTerm for input nulls).
  std::vector<TermId> null_provenance;
  /// Governor telemetry: steps consumed and last observed bytes.
  uint64_t budget_steps = 0;
  uint64_t budget_bytes = 0;
  /// The engine's set-up error (ChaseEngine::status()); the chase did not
  /// run when this is not Ok.
  Status setup = Status::Ok();

  bool Terminated() const { return stop_reason == ChaseStop::kFixpoint; }

  /// Machine-readable outcome: the set-up error if any, else Ok on
  /// fixpoint and ResourceExhausted with the stop reason otherwise (the
  /// instance is then a sound partial model).
  Status ToStatus() const {
    if (!setup.ok()) return setup;
    return StopReasonToStatus(stop_reason, "chase");
  }

  /// Renders the Skolem term behind a chase-created null, e.g.
  /// "sk_dm$0(\"cs\")". Input nulls and constants render as themselves.
  std::string ExplainValue(const TermArena& arena, const Vocabulary& vocab,
                           Value v) const;
};

/// Convenience wrapper: chases `input` under `rules` to fixpoint or limit.
ChaseResult Chase(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
                  const Instance& input, ChaseLimits limits = {});

/// Resumable state of the restricted chase. Unlike ChaseEngineState this
/// is round-granular: it is only captured between rounds (the restricted
/// chase invents fresh, unmemoized nulls per firing, so a mid-round replay
/// would not be deterministic). The engine's checkpoint hook therefore
/// fires after completed rounds, never inside one.
struct RestrictedChaseState {
  explicit RestrictedChaseState(const Vocabulary* vocab) : instance(vocab) {}

  Instance instance;
  bool done = false;
  ChaseStop stop_reason = ChaseStop::kFixpoint;
  uint64_t rounds = 0;
  uint64_t facts_created = 0;
  uint64_t governor_steps = 0;
  uint64_t governor_charged_bytes = 0;
};

/// The classical restricted (standard) chase for first-order tgds as a
/// steppable engine: a trigger fires only if its head cannot be satisfied
/// by any extension homomorphism; new nulls are fresh per firing.
/// Non-deterministic in general; this implementation processes triggers in
/// a fixed order, so runs (and resumed runs) are reproducible.
class RestrictedChaseEngine {
 public:
  RestrictedChaseEngine(TermArena* arena, std::span<const Tgd> tgds,
                        const Instance& input, ChaseLimits limits = {});

  /// Resumes from a state captured between rounds. `arena` must hold the
  /// contents it had at capture time. Resource-stopped states are
  /// re-opened under the new limits; kFixpoint states stay complete.
  RestrictedChaseEngine(TermArena* arena, std::span<const Tgd> tgds,
                        RestrictedChaseState&& state,
                        ChaseLimits limits = {});

  RestrictedChaseEngine(const RestrictedChaseEngine&) = delete;
  RestrictedChaseEngine& operator=(const RestrictedChaseEngine&) = delete;
  ~RestrictedChaseEngine();

  /// Runs one full round. Returns true if at least one trigger fired and
  /// no limit was hit.
  bool Step();
  /// Runs rounds until fixpoint or a limit, invoking the checkpoint hook
  /// (if any) after each completed round.
  void Run();

  bool done() const { return done_; }
  ChaseStop stop_reason() const { return stop_reason_; }
  const ResourceGovernor& governor() const { return governor_; }

  /// Effective execution lanes (ChaseLimits::threads with 0 resolved to
  /// the hardware thread count).
  unsigned threads() const { return pool_->threads(); }

  /// Deep-copies the resumable state. Call between rounds (or after the
  /// run ended); the checkpoint hook is invoked at exactly such points.
  RestrictedChaseState CaptureState() const;

  /// Round-granular checkpointing: after each completed round, once at
  /// least `every_rounds` rounds have passed since the last call (0 = 1),
  /// the hook receives the live engine to snapshot via CaptureState().
  void SetCheckpointHook(uint64_t every_rounds,
                         std::function<void(const RestrictedChaseEngine&)> hook);

  /// Finalizes the run into a ChaseResult (moves the instance out).
  ChaseResult TakeResult();

 private:
  void Halt(StopReason reason);
  /// Stages tgd `part`'s body matches in parallel over fixed-geometry root
  /// slices, dropping triggers whose head is already satisfiable (the
  /// check is uncounted, as in serial evaluation), and charges each
  /// slice's steps in slice order — the serial enumeration order. Returns
  /// false when the round halted.
  bool StageActive(uint32_t part, std::vector<SliceRows>* staged);

  TermArena* arena_;
  std::vector<Tgd> tgds_;
  ChaseLimits limits_;
  ResourceGovernor governor_;
  /// Staging lanes (never serialized; rebuilt from limits on resume).
  std::unique_ptr<ThreadPool> pool_;
  Instance instance_;
  /// tgds_, compiled against instance_ (one entry per tgd).
  std::vector<CompiledPart> parts_;
  bool done_ = false;
  ChaseStop stop_reason_ = ChaseStop::kFixpoint;
  uint64_t rounds_ = 0;
  uint64_t facts_created_ = 0;
  std::function<void(const RestrictedChaseEngine&)> checkpoint_hook_;
  uint64_t checkpoint_every_rounds_ = 1;
  uint64_t rounds_since_checkpoint_ = 0;
  /// True while a round is firing; a halt that leaves this set means the
  /// engine state is mid-round and must not be offered for checkpointing.
  bool in_round_ = false;
};

/// Convenience wrapper: restricted-chases `input` under `tgds` to fixpoint
/// or limit. (`vocab` is unused but kept for signature symmetry with
/// Chase.)
ChaseResult RestrictedChaseTgds(TermArena* arena, Vocabulary* vocab,
                                std::span<const Tgd> tgds,
                                const Instance& input, ChaseLimits limits = {});

}  // namespace tgdkit
