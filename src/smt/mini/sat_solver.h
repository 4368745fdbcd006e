// A compact CDCL SAT solver: two-watched-literal propagation, first-UIP
// conflict analysis with non-chronological backjumping, EVSIDS branching on
// an indexed binary max-heap, phase saving, Luby restarts, LBD (glue) based
// learnt-clause management, chronological backtracking for shallow
// conflicts, and root-level inprocessing (subsumption, self-subsuming
// resolution and bounded variable elimination) between solve() calls.
//
// Incremental, MiniSat-style: solve() may be called repeatedly, clauses may
// be added between calls, and solve(assumptions) decides the instance under
// a set of assumption literals enqueued as pseudo-decisions at the root
// decision levels. Learnt clauses, variable activities and saved phases
// persist across calls, which is what makes a long run of structurally
// similar queries (the race checker's per-pair flood) cheap.
//
// Inprocessing is made safe for incremental use by (a) freezing interface
// variables (setFrozen) so they are never eliminated, and (b) restoring an
// eliminated variable's clauses whenever a new clause or an assumption
// mentions it again (see DESIGN.md §9 for the full argument).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "smt/mini/sat_types.h"

namespace pugpara::smt::mini {

enum class SatResult { Sat, Unsat, Aborted };

/// Per-solver tuning knobs. Every technique is individually toggleable so
/// the ablation bench and the fuzz suite can cross-check each one; the fuzz
/// suite also shortens restartBase and chronoDistance so tiny CNFs reach
/// restarts and chronological backtracking.
struct SatConfig {
  bool lbdReduce = true;    // LBD-driven learnt DB reduction (else activity)
  bool chrono = true;       // chronological backtracking for shallow conflicts
  bool inprocess = true;    // root-level subsumption + variable elimination
  uint32_t glueLbd = 2;     // learnts with lbd <= this are never deleted
  uint32_t chronoDistance = 64;  // min backjump distance to go chronological
  uint64_t restartBase = 64;     // Luby restart unit (in conflicts)
};

class SatSolver {
 public:
  SatSolver() = default;
  explicit SatSolver(const SatConfig& cfg) : cfg_(cfg) {}

  /// Creates a fresh variable and returns it.
  Var newVar();
  [[nodiscard]] size_t numVars() const { return watches_.size() / 2; }

  /// Adds a clause (empty clause makes the instance trivially unsat).
  /// Returns false if the solver is already unsat. Must be called between
  /// solve() calls (the solver is at decision level 0 there); literals
  /// already decided at the top level are simplified away. Mentioning an
  /// eliminated variable restores its clauses first.
  bool addClause(std::vector<Lit> lits);

  /// Frozen variables are never eliminated by inprocessing. The SMT layer
  /// freezes everything it can mention later: blasted input-variable bits,
  /// scope selectors, assumption roots and the constant-true variable.
  void setFrozen(Var v, bool frozen = true);
  [[nodiscard]] bool isFrozen(Var v) const { return frozen_[v]; }
  /// True while the variable's clauses live in the elimination store
  /// (exposed for the fuzz suite's incremental-safety checks).
  [[nodiscard]] bool isEliminated(Var v) const { return eliminated_[v]; }

  /// Budget: abort after this many conflicts PER solve() call (0 =
  /// unlimited). The caller converts wall-clock budgets into conflict
  /// budgets via the callback.
  void setConflictBudget(uint64_t conflicts) { conflictBudget_ = conflicts; }
  /// Optional periodic callback (every ~2048 conflicts); return false to
  /// abort (wall-clock timeouts, requestStop()).
  void setInterrupt(std::function<bool()> keepGoing) {
    keepGoing_ = std::move(keepGoing);
  }

  /// Memory sentinel: soft budget in bytes for this solver's clause arena
  /// plus whatever the owner reports via setExternalBytes (bit-blast memos).
  /// 0 = unlimited. A breach makes addClause() refuse further growth and
  /// solve() return Aborted; memoryExceeded() stays sticky so the SMT layer
  /// can classify the Unknown as a resource failure, not a timeout.
  void setMemoryBudget(uint64_t bytes) { memBudget_ = bytes; }
  /// Heap bytes held outside the SAT core but inside the same per-query
  /// budget (Tseitin memos, Ackermann tables). Counted on the next check.
  void setExternalBytes(uint64_t bytes) { externalBytes_ = bytes; }
  [[nodiscard]] bool memoryExceeded() const { return memExceeded_; }
  /// Rough current footprint: clause/watch/elimination storage plus a flat
  /// per-variable cost and the reported external bytes. O(#clauses) — the
  /// callers amortize it (see memNextCheckAt_).
  [[nodiscard]] uint64_t approxBytes() const;

  /// Decides the clause set under `assumptions` (may be empty). Assumptions
  /// constrain only this call; everything learned persists. Unsat means
  /// "unsat under these assumptions" unless the clause set itself is
  /// contradictory (then every later call is Unsat too). Assumption
  /// variables are temporarily frozen, so inprocessing can never delete a
  /// clause an assumption still needs.
  [[nodiscard]] SatResult solve(std::span<const Lit> assumptions = {});

  /// Value of a variable in the model (snapshot of the last Sat solve();
  /// variables created after that solve read as false). Variables that
  /// were eliminated are patched back in by model extension, so the
  /// snapshot satisfies every clause ever added.
  [[nodiscard]] bool modelValue(Var v) const {
    return v < model_.size() && model_[v] == LBool::True;
  }

  // Statistics (exposed for the micro bench, the ablation bench and the
  // engine's --json block).
  struct Stats {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learnts = 0;
    // LBD histogram of learnt clauses at learn time.
    uint64_t lbdGlue = 0;   // lbd <= 2
    uint64_t lbdMid = 0;    // 3..6
    uint64_t lbdLarge = 0;  // > 6
    uint64_t learntsDeleted = 0;
    uint64_t chronoBacktracks = 0;
    // Inprocessing.
    uint64_t inprocessRuns = 0;
    uint64_t subsumed = 0;       // clauses removed by backward subsumption
    uint64_t strengthened = 0;   // literals removed by self-subsumption
    uint64_t eliminatedVars = 0;
    uint64_t restoredVars = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Clause {
    std::vector<Lit> lits;
    bool learnt = false;
    uint32_t lbd = 0;  // glue of learnt clauses (0 for originals)
    double activity = 0;
  };
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = UINT32_MAX;

  struct Watcher {
    ClauseRef clause;
    Lit blocker;
  };

  [[nodiscard]] LBool value(Lit l) const {
    return assigns_[l.var()] ^ l.negated();
  }
  [[nodiscard]] bool assigned(Var v) const {
    return assigns_[v] != LBool::Undef;
  }
  [[nodiscard]] bool clauseLive(ClauseRef cr) const {
    return !clauses_[cr].lits.empty();
  }

  void enqueue(Lit l, ClauseRef reason);
  [[nodiscard]] ClauseRef propagate();  // kNoReason when no conflict
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& backLevel);
  void backtrack(int level);
  [[nodiscard]] Lit pickBranch();
  void bumpVar(Var v);
  void bumpClause(ClauseRef cr);
  void decayActivities();
  [[nodiscard]] uint32_t computeLbd(std::span<const Lit> lits);
  void recordLbd(uint32_t lbd);
  void reduceLearnts();
  void attach(ClauseRef cr);
  [[nodiscard]] static uint64_t luby(uint64_t i);

  // Root-level clause addition shared by addClause and clause
  // restoration; enqueues units directly (the solver is at level 0) and
  // restores eliminated variables the clause mentions.
  bool addClauseRoot(std::vector<Lit> lits);

  // Inprocessing (all run at decision level 0 with a fully propagated
  // trail; watches are rebuilt from scratch afterwards).
  void maybeInprocess(std::span<const Lit> assumptions);
  void inprocess(std::span<const Lit> assumptions);
  void subsumptionPass(std::vector<std::vector<ClauseRef>>& occ,
                       std::vector<uint64_t>& sig,
                       std::vector<Lit>& pendingUnits);
  void eliminatePass(std::vector<std::vector<ClauseRef>>& occ,
                     std::vector<uint64_t>& sig);
  void restoreVar(Var v);
  void rebuildWatches();
  void extendModel();

  // ---- Branching order: indexed binary max-heap on activity ----
  // order_ is the heap array, heapPos_[v] the index of v in it (UINT32_MAX
  // when v is not in the heap). Variables are re-inserted on backtrack.
  void heapInsert(Var v);
  void heapSiftUp(uint32_t pos);
  void heapSiftDown(uint32_t pos);
  [[nodiscard]] Var heapPop();

  SatConfig cfg_;

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code
  std::vector<LBool> assigns_;
  std::vector<bool> savedPhase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<size_t> trailLim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double varInc_ = 1.0;
  double clauseInc_ = 1.0;
  std::vector<uint32_t> heapPos_;
  std::vector<Var> order_;

  std::vector<LBool> model_;   // snapshot of the last Sat solve()
  bool unsatAtTopLevel_ = false;
  uint64_t conflictBudget_ = 0;
  std::function<bool()> keepGoing_;
  Stats stats_;

  // Memory sentinel. approxBytes() is a linear scan, so addClause only
  // re-checks once the clause count grows past memNextCheckAt_ (bumped to
  // 5/4 of the current count after each scan — amortized O(1) per clause);
  // solve() also checks at entry and at the periodic interrupt point.
  [[nodiscard]] bool memoryOk();
  uint64_t memBudget_ = 0;
  uint64_t externalBytes_ = 0;
  bool memExceeded_ = false;
  size_t memNextCheckAt_ = 1024;

  // Inprocessing state.
  std::vector<bool> frozen_;
  std::vector<bool> eliminated_;
  std::vector<std::vector<std::vector<Lit>>> elimStore_;  // clauses by var
  std::vector<Var> elimOrder_;  // elimination order (for model extension)
  std::vector<Lit> elimUnits_;  // unit resolvents pending application
  size_t inprocessNextAt_ = 1;  // run when clauses_.size() reaches this

  // Scratch for analyze() / computeLbd().
  std::vector<uint8_t> seen_;
  std::vector<uint64_t> lbdStamp_;
  uint64_t lbdStampGen_ = 0;
};

}  // namespace pugpara::smt::mini
