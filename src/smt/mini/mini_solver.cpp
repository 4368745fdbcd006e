// MiniSMT: the from-scratch QF_ABV solver backend. Pipeline per assertion:
// quantifier screen -> array lowering (read-over-write + Ackermann) ->
// signed/division elimination -> word-level rewriting -> Tseitin
// bit-blasting -> CDCL.
//
// The backend is incremental in the MiniSat style. One SatSolver, one
// BitBlaster and one lowering pipeline live for the lifetime of the
// MiniSolver, so a DAG node is lowered and bit-blasted exactly once no
// matter how many check() calls see it, and learnt clauses / variable
// activities carry over between queries. Retraction works through scope
// selector literals: an assertion added at push depth d > 0 lands as the
// clause `root ∨ ¬a_d`, the per-check solve assumes every live scope's
// a_d, and pop() retires the scope by adding the permanent unit `¬a_d`
// (which also silently disables every learnt clause derived from the
// scope, since resolution drags ¬a_d along). Tseitin gate clauses,
// Ackermann consistency axioms and division definitions are definitional
// or theory-valid, so they stay asserted permanently — sound across pops.
//
// Raw-speed techniques (all toggleable through MiniTuning):
//  * the SAT core's LBD clause management, chronological backtracking and
//    root-level inprocessing (sat_solver.cpp);
//  * a structural word-level rewriter applied before bit-blasting
//    (rewrite.cpp) — every rule is a semantic equality, so it is sound
//    for assertions and assumptions alike.
//
// Inprocessing may eliminate variables, so everything the outside world
// can still name is frozen: blasted input-variable bits and the constant
// true literal (BitBlaster::freezeInterface), scope selectors (frozen at
// creation), and assumption root literals (frozen inside solve() for the
// duration of inprocessing; eliminated assumption variables are restored
// at solve entry).
//
// Faithful to the paper's era in one deliberate way: quantified formulas
// are rejected with Unknown, which is exactly the solver limitation that
// motivates PUGpara's quantifier-elimination machinery (Sec. IV-D). The
// MonotoneQe frame mode produces quantifier-free VCs this backend can
// decide; NativeForall VCs it cannot.
#include <atomic>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "expr/eval.h"
#include "expr/walk.h"
#include "smt/mini/array_lower.h"
#include "smt/mini/bitblast.h"
#include "smt/mini/preprocess.h"
#include "smt/mini/rewrite.h"
#include "smt/mini/stats.h"
#include "smt/solver.h"
#include "support/diagnostics.h"
#include "support/faultinject.h"
#include "support/timer.h"

namespace pugpara::smt {

namespace {

using expr::Expr;
using mini::BitBlaster;
using mini::Lit;
using mini::SatSolver;

bool containsQuantifier(Expr e) {
  bool found = false;
  expr::postOrder(e, [&found](Expr n) {
    if (n.kind() == expr::Kind::Forall || n.kind() == expr::Kind::Exists)
      found = true;
  });
  return found;
}

/// Maps the MiniTuning technique toggles onto the SAT core's configuration.
mini::SatConfig satConfigFor(const MiniTuning& t) {
  mini::SatConfig c;
  c.lbdReduce = t.lbd;
  c.chrono = t.chrono;
  c.inprocess = t.inprocess;
  return c;
}

class MiniModel final : public Model {
 public:
  explicit MiniModel(expr::Env env) : env_(std::move(env)) {}

  [[nodiscard]] uint64_t evalBv(Expr e) const override {
    return expr::evalBv(e, env_);
  }
  [[nodiscard]] bool evalBool(Expr e) const override {
    return expr::evalBool(e, env_);
  }

 private:
  expr::Env env_;
};

class MiniSolver final : public Solver {
 public:
  MiniSolver() = default;
  explicit MiniSolver(const MiniTuning& tuning) : tuning_(tuning) {}

  ~MiniSolver() override { flushStats(); }

  void push() override {
    scopes_.push_back({assertions_.size(), Lit(), false});
  }

  void pop() override {
    require(!scopes_.empty(), "MiniSolver::pop without push");
    const Scope s = scopes_.back();
    scopes_.pop_back();
    assertions_.resize(s.numAssertions);
    assertionDepth_.resize(s.numAssertions);
    if (encoded_ > s.numAssertions) encoded_ = s.numAssertions;
    // Retire the scope's clauses for good: every clause it owns carries
    // ¬selector, so this unit satisfies (deactivates) all of them, learnt
    // descendants included.
    if (s.hasSelector && eng_) eng_->sat.addClause({~s.selector});
  }

  void add(Expr assertion) override {
    require(assertion.sort().isBool(), "asserted expression must be Bool");
    assertions_.push_back(assertion);
    assertionDepth_.push_back(static_cast<uint32_t>(scopes_.size()));
  }

  CheckResult check() override { return checkAssuming({}); }

  CheckResult checkAssuming(std::span<const expr::Expr> assumptions) override {
    model_.reset();
    lastReason_ = UnknownReason::None;
    if (fault::enabled()) {
      if (auto eff = fault::fire("solver.check.mini")) {
        switch (*eff) {
          case fault::Effect::Crash:
            throw std::runtime_error("injected fault: minismt check crash");
          case fault::Effect::Resource:
            lastReason_ = UnknownReason::Resource;
            return CheckResult::Unknown;
          default:  // Timeout and everything else: fake a budget expiry
            lastReason_ = UnknownReason::Timeout;
            return CheckResult::Unknown;
        }
      }
    }
    if (stopped_.load(std::memory_order_acquire)) {
      lastReason_ = UnknownReason::Interrupted;
      return CheckResult::Unknown;
    }
    for (Expr a : assertions_)
      if (hasQuantifier(a)) {
        lastReason_ = UnknownReason::Unsupported;
        return CheckResult::Unknown;
      }
    for (Expr a : assumptions) {
      require(a.sort().isBool(), "assumption must be Bool");
      if (hasQuantifier(a)) {
        lastReason_ = UnknownReason::Unsupported;
        return CheckResult::Unknown;
      }
    }

    if (eng_ == nullptr) {
      if (assertions_.empty() && assumptions.empty()) {
        model_ = std::make_unique<MiniModel>(expr::Env{});
        return CheckResult::Sat;
      }
      expr::Context& ctx = assertions_.empty() ? assumptions.front().ctx()
                                               : assertions_.front().ctx();
      eng_ = std::make_unique<Engine>(ctx, tuning_);
      applyMemoryBudget();
    }

    std::vector<Lit> assume;
    try {
      encodePending();
      eng_->arrays.beginQuery();
      for (const Scope& s : scopes_)
        if (s.hasSelector) assume.push_back(s.selector);
      for (Expr a : assumptions) assume.push_back(assumptionLit(a));
      // Everything blasted so far is now part of the external interface;
      // exempt it from variable elimination (idempotent, cheap).
      eng_->bb.freezeInterface();
      if (memoryBudgetMb_ != 0)
        eng_->sat.setExternalBytes(eng_->bb.approxMemoBytes());
    } catch (const PugError&) {
      // The encode path throws both for out-of-fragment constructs and for
      // a memory-sentinel breach mid-blast; the sticky flag disambiguates.
      lastReason_ = eng_->sat.memoryExceeded() ? UnknownReason::Resource
                                               : UnknownReason::Unsupported;
      return CheckResult::Unknown;
    }

    WallTimer timer;
    const uint32_t budget = timeoutMs_;
    eng_->sat.setInterrupt([this, &timer, budget]() {
      if (stopped_.load(std::memory_order_acquire)) return false;
      return budget == 0 || timer.millis() < budget;
    });
    const mini::SatResult r = eng_->sat.solve(assume);
    eng_->sat.setInterrupt({});  // the timer dies with this frame

    switch (r) {
      case mini::SatResult::Unsat:
        return CheckResult::Unsat;
      case mini::SatResult::Aborted:
        lastReason_ = stopped_.load(std::memory_order_acquire)
                          ? UnknownReason::Interrupted
                      : eng_->sat.memoryExceeded() ? UnknownReason::Resource
                                                   : UnknownReason::Timeout;
        return CheckResult::Unknown;
      case mini::SatResult::Sat:
        break;
    }

    // Build the model environment: every blasted scalar variable from its
    // bits, array variables from the Ackermann reads. Only reads live for
    // this query (permanent ones plus this query's assumption reads)
    // contribute cells — dead queries' reads carry no axioms against the
    // live set, so their values could contradict the cells this query
    // pins down.
    expr::Env env;
    for (Expr v : eng_->bb.blastedVars()) {
      if (v.sort().isBool()) {
        env.bindBool(v, eng_->bb.modelBool(v));
      } else {
        env.bindBv(v, eng_->bb.modelBv(v));
      }
    }
    std::unordered_map<const expr::Node*, expr::ArrayValue> arrayVals;
    const std::vector<mini::AckermannRead>& reads = eng_->arrays.reads();
    for (size_t i = 0; i < reads.size(); ++i) {
      if (!eng_->arrays.readActive(i)) continue;
      const mini::AckermannRead& rd = reads[i];
      // The recorded index is select-free and its scalar leaves are bound
      // above, so the concrete evaluator computes it directly.
      const uint64_t idx = expr::evalBv(rd.index, env);
      const uint64_t val = expr::evalBv(rd.value, env);
      arrayVals[rd.array.node()].set(idx, val);
    }
    for (auto& [node, av] : arrayVals)
      env.bind(Expr(node), expr::Value::ofArray(std::move(av)));

    model_ = std::make_unique<MiniModel>(std::move(env));
    return CheckResult::Sat;
  }

  [[nodiscard]] std::unique_ptr<Model> model() override {
    require(model_ != nullptr, "MiniSolver::model: last check was not sat");
    return std::move(model_);
  }

  void setTimeoutMs(uint32_t ms) override { timeoutMs_ = ms; }

  void setMemoryBudgetMb(uint32_t mb) override {
    memoryBudgetMb_ = mb;
    applyMemoryBudget();
  }

  [[nodiscard]] UnknownReason unknownReason() const override {
    return lastReason_;
  }

  void requestStop() override {
    stopped_.store(true, std::memory_order_release);
  }

  [[nodiscard]] std::string name() const override { return "minismt"; }

 private:
  struct Scope {
    size_t numAssertions;
    Lit selector;  // created lazily when the scope's first clause lands
    bool hasSelector;
  };

  // The persistent solving state; created at the first non-trivial check
  // (lowering needs the expression context, which assertions carry).
  struct Engine {
    SatSolver sat;
    BitBlaster bb{sat};
    mini::ArrayLowerer arrays;
    mini::Preprocessor pre;
    mini::Rewriter rw;

    Engine(expr::Context& ctx, const MiniTuning& t)
        : sat(satConfigFor(t)), arrays(ctx), pre(ctx), rw(ctx) {}
  };

  void applyMemoryBudget() {
    if (eng_ != nullptr)
      eng_->sat.setMemoryBudget(uint64_t{memoryBudgetMb_} << 20);
  }

  bool hasQuantifier(Expr e) {
    auto [it, inserted] = quantMemo_.try_emplace(e.node(), false);
    if (inserted) it->second = containsQuantifier(e);
    return it->second;
  }

  Expr wordRewrite(Expr e) {
    return tuning_.rewrite ? eng_->rw.rewrite(e) : e;
  }

  /// Lowers one formula through the pipeline. Side constraints (Ackermann
  /// axioms, division definitions) produced along the way are asserted
  /// permanently — they are valid in every model, so they survive pops.
  Expr lowerFormula(Expr e) {
    std::vector<Expr> axioms;
    Expr f = eng_->arrays.lower(e, axioms);
    std::vector<Expr> side;
    Expr g = eng_->pre.rewrite(f, side);
    for (Expr ax : axioms) side.push_back(eng_->pre.rewrite(ax, side));
    for (Expr c : side) eng_->bb.assertTrue(wordRewrite(c));
    return wordRewrite(g);
  }

  /// Encodes assertions added since the last check. On PugError the
  /// high-water mark stays at the failing assertion: this check reports
  /// Unknown, and once a pop() removes the offender the remainder encodes
  /// normally (partially emitted gate clauses are definitional, so an
  /// aborted encode leaves no trace in the solution space).
  void encodePending() {
    for (; encoded_ < assertions_.size(); ++encoded_) {
      Expr g = lowerFormula(assertions_[encoded_]);
      const uint32_t depth = assertionDepth_[encoded_];
      if (depth == 0) {
        eng_->bb.assertTrue(g);
      } else {
        Scope& s = scopes_[depth - 1];
        if (!s.hasSelector) {
          s.selector = Lit(eng_->sat.newVar(), false);
          // The selector is assumed on every future query and its negation
          // is added at pop — never let elimination touch it.
          eng_->sat.setFrozen(s.selector.var());
          s.hasSelector = true;
        }
        eng_->bb.assertTrueUnderSelector(g, s.selector);
      }
    }
  }

  /// The root literal standing for an assumption formula. Lowered through
  /// the transient path EVERY call (the pipeline's internal memos make a
  /// repeat nearly free) so the array lowerer re-registers the reads the
  /// assumption references as live for this query and emits any pairing
  /// axioms the new combination of live reads needs.
  Lit assumptionLit(Expr a) {
    std::vector<Expr> axioms;
    Expr f = eng_->arrays.lowerTransient(a, axioms);
    std::vector<Expr> side;
    Expr g = eng_->pre.rewrite(f, side);
    for (Expr ax : axioms) side.push_back(eng_->pre.rewrite(ax, side));
    for (Expr c : side) eng_->bb.assertTrue(wordRewrite(c));
    return eng_->bb.boolLit(wordRewrite(g));
  }

  /// Folds this solver's lifetime counters (SAT core, rewriter) into the
  /// process-wide MiniSMT statistics.
  void flushStats() {
    if (eng_ == nullptr) return;
    auto& g = mini::miniGlobalStats();
    const SatSolver::Stats& s = eng_->sat.stats();
    g.conflicts += s.conflicts;
    g.decisions += s.decisions;
    g.propagations += s.propagations;
    g.restarts += s.restarts;
    g.learnts += s.learnts;
    g.lbdGlue += s.lbdGlue;
    g.lbdMid += s.lbdMid;
    g.lbdLarge += s.lbdLarge;
    g.learntsDeleted += s.learntsDeleted;
    g.chronoBacktracks += s.chronoBacktracks;
    g.inprocessRuns += s.inprocessRuns;
    g.subsumed += s.subsumed;
    g.strengthened += s.strengthened;
    g.eliminatedVars += s.eliminatedVars;
    g.restoredVars += s.restoredVars;
    g.rewrites += eng_->rw.rewritesApplied();
  }

  MiniTuning tuning_;
  std::vector<Expr> assertions_;
  std::vector<uint32_t> assertionDepth_;  // scope depth at add() time
  std::vector<Scope> scopes_;
  size_t encoded_ = 0;  // assertions_[0, encoded_) are in the CNF
  std::unique_ptr<Engine> eng_;
  std::unordered_map<const expr::Node*, bool> quantMemo_;
  std::atomic<bool> stopped_{false};
  uint32_t timeoutMs_ = 0;
  uint32_t memoryBudgetMb_ = 0;
  UnknownReason lastReason_ = UnknownReason::None;
  std::unique_ptr<MiniModel> model_;
};

}  // namespace

std::unique_ptr<Solver> makeMiniSolver() {
  return std::make_unique<MiniSolver>();
}

std::unique_ptr<Solver> makeMiniSolver(const MiniTuning& tuning) {
  return std::make_unique<MiniSolver>(tuning);
}

}  // namespace pugpara::smt
