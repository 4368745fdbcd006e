#include "check/discharge.h"

#include "abstract/prefilter.h"
#include "support/timer.h"

namespace pugpara::check {

using expr::Expr;

namespace {

/// Array cells a witness materializes: every address the width can form,
/// capped at 64 Ki.
uint64_t replayCells(uint32_t width) {
  return std::min<uint64_t>(uint64_t{1} << std::min<uint32_t>(width, 62),
                            uint64_t{1} << 16);
}

}  // namespace

void discharge(expr::Context& ctx, const ObligationSet& set,
               const CheckOptions& options, Report& report) {
  // Obligations the solver left open and the most severe reason it gave; a
  // witness that replay refuted also leaves the verdict open.
  size_t undecided = 0;
  smt::UnknownReason why = smt::UnknownReason::None;
  std::string refuted;
  // Tier 0: an obligation the abstract domain proves unsatisfiable holds
  // outright. Its affine memo persists across the set.
  abstract::Prefilter prefilter;
  // Incremental mode: one solver serves the whole set; each obligation is
  // posed as assumptions and retracts itself.
  std::unique_ptr<smt::Solver> shared;
  if (set.shareSolver) {
    shared = options.makeSolver();
    shared->setTimeoutMs(options.solverTimeoutMs);
  }
  for (const Obligation& ob : set.obligations) {
    if (options.prefilter) {
      WallTimer pre;
      const bool holds = prefilter.provesUnsat(ob.bad);
      report.solveSeconds += pre.seconds();
      if (holds) {
        ++report.discharge.tier0;
        continue;
      }
    }
    std::unique_ptr<smt::Solver> fresh;
    if (shared == nullptr) {
      fresh = options.makeSolver();
      fresh->setTimeoutMs(options.solverTimeoutMs);
      for (Expr b : ob.bad) fresh->add(b);
    }
    smt::Solver& solver = shared != nullptr ? *shared : *fresh;
    WallTimer solve;
    const smt::CheckResult r =
        shared != nullptr ? solver.checkAssuming(ob.bad) : solver.check();
    report.solveSeconds += solve.seconds();
    ++report.discharge.solverCalls;
    ++report.discharge.fullSmt;
    if (r == smt::CheckResult::Unknown) {
      ++undecided;
      why = std::max(why, solver.unknownReason());
      continue;
    }
    if (r == smt::CheckResult::Unsat) continue;

    ReplayInputs inputs = set.inputs;
    inputs.witnesses = ob.witnesses;
    Counterexample cex =
        extractCounterexample(*solver.model(), inputs, ctx, options.width,
                              replayCells(options.width));
    if (set.replay && options.replayCounterexamples) set.replay(cex);
    report.counterexamples.push_back(std::move(cex));
    const Counterexample& back = report.counterexamples.back();
    if (!back.replayed || back.replayConfirmed) {
      report.outcome = Outcome::BugFound;
      report.detail = set.failure + " (" + ob.name + ")";
      return;
    }
    refuted = "witness for '" + ob.name + "' did not replay; inconclusive";
  }

  if (undecided == 0 && refuted.empty()) {
    report.outcome = set.allClear;
    report.detail = set.allClearDetail;
    return;
  }
  report.outcome = Outcome::Unknown;
  report.detail = refuted;
  if (undecided > 0) {
    const std::string open = std::to_string(undecided) + " of " +
                             std::to_string(set.obligations.size()) +
                             " VCs undecided (" + smt::toString(why) + ")";
    report.detail = refuted.empty() ? open : open + "; " + refuted;
  }
}

ReplayInputs replayInputs(const para::SymbolicConfig& cfg,
                          const para::KernelSummary& summary) {
  return {cfg.bdimX, cfg.bdimY, cfg.bdimZ, cfg.gdimX, cfg.gdimY,
          summary.scalarInputs, summary.inputArrays, {}};
}

ReplayInputs replayInputs(expr::Context& ctx, const encode::GridConfig& grid,
                          const encode::EncodedKernel& enc) {
  const uint32_t w = enc.width;
  return {ctx.bvVal(grid.bdimX, w), ctx.bvVal(grid.bdimY, w),
          ctx.bvVal(grid.bdimZ, w), ctx.bvVal(grid.gdimX, w),
          ctx.bvVal(grid.gdimY, w), enc.scalarInputs, enc.inputArrays, {}};
}

ObligationSet vcObligations(const para::ParamVcSet& vcs, ReplayInputs inputs,
                            const CheckOptions& options) {
  ObligationSet set;
  for (const para::ParamVc& vc : vcs.vcs)
    set.obligations.push_back({vc.name, {vc.formula}, vc.witnesses});
  set.inputs = std::move(inputs);
  set.shareSolver = options.incrementalSolving;
  return set;
}

Report dispatchMethod(
    const CheckOptions& options,
    const std::function<Report(para::FrameMode)>& parameterized,
    const std::function<Report(const encode::GridConfig&)>& concrete) {
  switch (options.method) {
    case Method::Parameterized:
      return parameterized(options.frameMode);
    case Method::ParameterizedBugHunt:
      return parameterized(para::FrameMode::BugHunt);
    case Method::NonParameterized: {
      if (options.grid.has_value()) return concrete(*options.grid);
      Report report;
      report.method = "non-parameterized";
      report.outcome = Outcome::Unsupported;
      report.detail = "non-parameterized checking needs a concrete grid";
      return report;
    }
    case Method::Auto: {
      Report r = parameterized(options.frameMode);
      if (r.outcome != Outcome::Unsupported || !options.grid.has_value())
        return r;
      Report fallback = concrete(*options.grid);
      fallback.caveats.push_back("parameterized method unsupported (" +
                                 r.detail +
                                 "); fell back to a fixed configuration");
      return fallback;
    }
  }
  throw PugError("unknown method");
}

}  // namespace pugpara::check
