// Backend-independent SMT solver interface.
//
// Two implementations exist:
//  * Z3Solver (z3_solver.cpp)  — the solver the paper used; supports
//    quantified formulas natively.
//  * MiniSolver (smt/mini/...) — a from-scratch bit-blasting CDCL solver;
//    rejects quantifiers with Unknown, which mirrors the paper's observation
//    that quantified formulas defeat the SMT solvers of the day and motivates
//    PUGpara's quantifier-elimination machinery (Sec. IV-D).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "expr/expr.h"

namespace pugpara::smt {

enum class CheckResult { Sat, Unsat, Unknown };

[[nodiscard]] const char* toString(CheckResult r);

/// Why the last check() answered Unknown. Ordered by escalation severity so
/// a checker that combines the reasons of several queries can take the
/// max: a resource breach outranks a mere timeout.
enum class UnknownReason : uint8_t {
  None,         // last check was decided (or no check yet)
  Unsupported,  // formula outside the backend's fragment (quantifiers, ...)
  Timeout,      // time budget ran dry
  Interrupted,  // requestStop() arrived mid-solve
  Resource,     // memory budget breached
};

[[nodiscard]] const char* toString(UnknownReason r);

/// A satisfying assignment. Valid until the owning Solver is mutated
/// (add/push/pop/check) or destroyed.
class Model {
 public:
  virtual ~Model() = default;

  /// Evaluates an arbitrary bit-vector expression under the model
  /// (model-completion semantics: unconstrained subterms get some value).
  [[nodiscard]] virtual uint64_t evalBv(expr::Expr e) const = 0;
  /// Evaluates an arbitrary Bool expression under the model.
  [[nodiscard]] virtual bool evalBool(expr::Expr e) const = 0;
};

class Solver {
 public:
  virtual ~Solver() = default;

  virtual void push() = 0;
  virtual void pop() = 0;
  /// Asserts a Bool-sorted expression.
  virtual void add(expr::Expr assertion) = 0;
  virtual CheckResult check() = 0;

  /// MiniSat-style solve-under-assumptions: checks the asserted formulas
  /// conjoined with `assumptions` WITHOUT making the assumptions part of the
  /// solver state. Incremental backends keep everything learned from the
  /// asserted prefix (learnt clauses, variable activities, bit-blasting)
  /// across calls, so a long-lived solver answering many assumption-only
  /// queries over one shared prefix is far cheaper than a fresh solver per
  /// query. Every assumption must be Bool-sorted. After a Sat answer model()
  /// reflects prefix ∧ assumptions. The default implementation falls back to
  /// push/add/check/pop for backends without native support.
  virtual CheckResult checkAssuming(std::span<const expr::Expr> assumptions);

  /// Returns the model after a Sat check(). PugError otherwise.
  [[nodiscard]] virtual std::unique_ptr<Model> model() = 0;

  /// Soft wall-clock budget per check() call; 0 = unlimited.
  virtual void setTimeoutMs(uint32_t ms) = 0;

  /// Soft per-solver memory budget; 0 = unlimited. A breach makes check()
  /// return Unknown with unknownReason() == Resource instead of letting the
  /// process OOM. Best-effort accounting (MiniSMT: SAT-core clause arena +
  /// bit-blast memos; Z3: its max_memory knob). Default: no enforcement.
  virtual void setMemoryBudgetMb(uint32_t) {}

  /// Classifies the most recent check()'s Unknown answer (None after a
  /// decided answer). The containment ladder in the engine keys on this to
  /// decide between retry-with-bigger-budget, failover and degradation.
  [[nodiscard]] virtual UnknownReason unknownReason() const {
    return UnknownReason::None;
  }

  /// Cooperative cancellation: asks an in-flight check() to give up and
  /// return Unknown as soon as it can. The ONLY Solver method that may be
  /// called from a different thread than the one running check() (the
  /// engine's cancelAll() and its watchdog do). Sticky — a stopped solver
  /// stays stopped. Default: no-op for backends without an interrupt
  /// mechanism.
  virtual void requestStop() {}

  [[nodiscard]] virtual std::string name() const = 0;
};

enum class Backend { Z3, Mini };

/// MiniSMT tuning: every raw-speed technique individually toggleable (the
/// ablation bench and the fuzz suite flip them one at a time). Ignored by
/// the Z3 backend.
struct MiniTuning {
  bool lbd = true;        // LBD-driven learnt-clause management
  bool chrono = true;     // chronological backtracking for shallow conflicts
  bool inprocess = true;  // root-level subsumption + variable elimination
  bool rewrite = true;    // word-level rewriter before bit-blasting
};

/// Factory. Every solver instance is single-threaded and owns its backend
/// state; create one per verification task.
[[nodiscard]] std::unique_ptr<Solver> makeSolver(Backend backend);
[[nodiscard]] std::unique_ptr<Solver> makeSolver(Backend backend,
                                                 const MiniTuning& tuning);
[[nodiscard]] std::unique_ptr<Solver> makeZ3Solver();
[[nodiscard]] std::unique_ptr<Solver> makeMiniSolver();
[[nodiscard]] std::unique_ptr<Solver> makeMiniSolver(const MiniTuning& tuning);

}  // namespace pugpara::smt
