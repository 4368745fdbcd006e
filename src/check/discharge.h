// The one path from formulas to a verdict for the checks whose bug witness
// is a model: equivalence, postconditions and asserts, on both methods.
// The parameterized method (Sec. IV) hands over one obligation per VC, the
// concrete-grid method (Sec. III) one obligation per grid. Either way an
// obligation goes through Tier 0, the solver, witness extraction and VM
// replay, and a witness the VM refutes leaves the verdict open.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "check/options.h"
#include "check/replay.h"
#include "check/report.h"
#include "para/vcgen.h"

namespace pugpara::check {

/// One property: satisfiable `bad` conjuncts mean it fails, and a model's
/// values for `witnesses` (output index, spec variables, ...) locate the
/// failure.
struct Obligation {
  std::string name;
  std::vector<expr::Expr> bad;
  std::vector<expr::Expr> witnesses;
};

struct ObligationSet {
  std::vector<Obligation> obligations;
  /// What a witness is projected on; each obligation brings its witnesses.
  ReplayInputs inputs;
  /// Runs a witness on the VM (sets replayed / replayConfirmed). Null: the
  /// property has no replay, and its witnesses stand as found.
  std::function<void(Counterexample&)> replay;
  /// Pose every obligation as assumptions on one solver (parameterized VC
  /// sets in incremental mode, which share summary subterms); otherwise
  /// each obligation is asserted on a fresh solver.
  bool shareSolver = false;
  /// The bug detail is "<failure> (<obligation name>)".
  std::string failure;
  /// The verdict when no obligation is satisfiable or undecided.
  Outcome allClear = Outcome::Verified;
  std::string allClearDetail;
};

/// Discharges `set` in order and fills `report`'s outcome, detail, solve
/// time, discharge counters and counterexamples. The first witness that
/// replay confirms, or cannot run, is the bug. A refuted witness, like an
/// undecided obligation, ends the check Unknown unless a later obligation
/// yields a bug; the detail counts the undecided ones with the most severe
/// reason the solver gave.
void discharge(expr::Context& ctx, const ObligationSet& set,
               const CheckOptions& options, Report& report);

/// The replay inputs of a symbolic configuration: the witness decides the
/// launch dimensions.
[[nodiscard]] ReplayInputs replayInputs(const para::SymbolicConfig& cfg,
                                        const para::KernelSummary& summary);
/// The replay inputs of a concrete grid.
[[nodiscard]] ReplayInputs replayInputs(expr::Context& ctx,
                                        const encode::GridConfig& grid,
                                        const encode::EncodedKernel& enc);

/// One obligation per VC, on one shared solver when incremental solving
/// is on.
[[nodiscard]] ObligationSet vcObligations(const para::ParamVcSet& vcs,
                                          ReplayInputs inputs,
                                          const CheckOptions& options);

/// The one method dispatch for equivalence, postcondition and assert
/// checks. `parameterized` runs with the given frame mode; `concrete` runs
/// on `options.grid`, which Method::NonParameterized requires. Auto runs
/// the parameterized method and falls back to the grid, when one is given,
/// if that method is unsupported.
[[nodiscard]] Report dispatchMethod(
    const CheckOptions& options,
    const std::function<Report(para::FrameMode)>& parameterized,
    const std::function<Report(const encode::GridConfig&)>& concrete);

}  // namespace pugpara::check
