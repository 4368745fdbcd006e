// User-facing configuration of the checkers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "encode/ssa_encoder.h"
#include "para/resolve.h"
#include "smt/solver.h"

namespace pugpara::check {

enum class Method {
  Auto,              // parameterized when possible, else non-parameterized
  Parameterized,     // Sec. IV (exact frame handling)
  ParameterizedBugHunt,  // Sec. IV-D fast bug hunting (under-approximate)
  NonParameterized,  // Sec. III (requires a concrete grid)
};

[[nodiscard]] const char* toString(Method m);

struct CheckOptions {
  Method method = Method::Auto;
  uint32_t width = 16;  // scalar bit-width (Table II's 8b/16b/32b knob)
  smt::Backend backend = smt::Backend::Z3;
  /// MiniSMT raw-speed technique toggles; ignored by the Z3 backend.
  /// Default: every technique on.
  smt::MiniTuning mini;
  para::FrameMode frameMode = para::FrameMode::MonotoneQe;
  uint32_t solverTimeoutMs = 300000;  // the paper's 5-minute T.O.
  uint32_t monoTimeoutMs = 2000;
  /// Per-solver memory budget in MiB (0 = unlimited). A breach degrades
  /// the query to Unknown{resource} instead of letting the process OOM.
  uint32_t memoryBudgetMb = 0;

  /// Concrete grid for the non-parameterized method (and for replay when a
  /// parameterized counterexample does not determine the configuration).
  std::optional<encode::GridConfig> grid;

  /// "+C" concretizations: "bdim.x"/"gdim.y"/... and scalar parameter names.
  std::unordered_map<std::string, uint64_t> concretize;

  /// Non-parameterized encoding style: emit the paper's Sec. III SSA
  /// equations instead of substituted store chains (see EncodeOptions).
  bool ssaEquations = false;

  /// Run the PIR pass pipeline (GVN/DCE) before encoding. Mul-by-2^k and
  /// sum normalization are not PIR passes: they happen once, in MiniSMT's
  /// word-level rewriter.
  bool irOptimize = true;

  /// Incremental solving: the checkers keep one solver alive per barrier
  /// interval (or VC batch), assert the shared prefix once and pose each
  /// query through checkAssuming(). Off = the pre-incremental behavior of
  /// one fresh solver per query (kept for the ablation bench and for
  /// verdict cross-checks; both modes must agree on every corpus kernel).
  bool incrementalSolving = true;

  /// Tiered query discharge: Tier 0 proves pair queries unsatisfiable in
  /// the abstract interval/stride domain (zero solver calls), Tier 1 poses
  /// surviving queries against a cone-of-influence slice of the prefix
  /// (escalating to the full prefix whenever the slice fails to prove
  /// Unsat). Both tiers only ever shortcut Unsat answers, so verdicts are
  /// identical with the pipeline off — that equivalence is enforced by
  /// bench/ablate_prefilter across the corpus and the injected-bug mutants.
  bool prefilter = true;

  /// Validate counterexamples by concrete replay in the VM (on by default;
  /// this is what keeps bug-hunt mode's reports real).
  bool replayCounterexamples = true;
  /// Replay budget: skip validation when the witness grid is larger.
  uint64_t maxReplayThreads = 1 << 16;

  /// Solver construction override. The checkers obtain every solver through
  /// makeSolver() below; the verification engine injects caching,
  /// deadlines and cancellation here without the checkers knowing.
  /// Null (the default) means a plain `backend` solver.
  std::function<std::unique_ptr<smt::Solver>()> solverFactory;

  /// The one way checkers create solvers (honors `solverFactory`).
  [[nodiscard]] std::unique_ptr<smt::Solver> makeSolver() const {
    auto solver =
        solverFactory ? solverFactory() : smt::makeSolver(backend, mini);
    if (memoryBudgetMb != 0) solver->setMemoryBudgetMb(memoryBudgetMb);
    return solver;
  }

  [[nodiscard]] encode::EncodeOptions encodeOptions() const {
    encode::EncodeOptions eo;
    eo.width = width;
    eo.concretize = concretize;
    eo.ssaEquations = ssaEquations;
    eo.irOptimize = irOptimize;
    return eo;
  }
};

}  // namespace pugpara::check
