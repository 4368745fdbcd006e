#include "check/postcond_checker.h"

#include "abstract/prefilter.h"
#include "check/replay.h"
#include "para/vcgen.h"
#include "support/timer.h"

namespace pugpara::check {

namespace {

using expr::Expr;

uint64_t replayCells(uint32_t width) {
  return std::min<uint64_t>(uint64_t{1} << std::min<uint32_t>(width, 62),
                            uint64_t{1} << 16);
}

Report solveParamVcs(const lang::Kernel& kernel, expr::Context& ctx,
                     const para::SymbolicConfig& cfg,
                     const para::KernelSummary& summary,
                     const para::ParamVcSet& vcs, const CheckOptions& options,
                     bool postcondReplay, const char* methodName) {
  WallTimer total;
  Report report;
  report.method = methodName;
  report.caveats = vcs.caveats;
  report.stats = vcs.stats;
  const uint32_t width = options.width;

  // VCs the solver left open and the most severe reason it gave; a
  // candidate witness that replay refuted also leaves the verdict open.
  size_t undecided = 0;
  smt::UnknownReason why = smt::UnknownReason::None;
  bool rejected = false;
  // Tier 0: a VC the abstract domain proves unsatisfiable holds outright.
  abstract::Prefilter prefilter;
  // Incremental mode: one solver serves the whole VC batch (the VCs share
  // summary subterms); each VC is a single self-retracting assumption.
  std::unique_ptr<smt::Solver> shared;
  if (options.incrementalSolving) {
    shared = options.makeSolver();
    shared->setTimeoutMs(options.solverTimeoutMs);
  }
  for (const auto& vc : vcs.vcs) {
    if (options.prefilter) {
      WallTimer pre;
      const bool discharged =
          prefilter.provesUnsat(std::span<const Expr>(&vc.formula, 1));
      report.solveSeconds += pre.seconds();
      if (discharged) {
        ++report.discharge.tier0;
        continue;
      }
    }
    std::unique_ptr<smt::Solver> fresh;
    if (shared == nullptr) {
      fresh = options.makeSolver();
      fresh->setTimeoutMs(options.solverTimeoutMs);
      fresh->add(vc.formula);
    }
    smt::Solver* solver = shared != nullptr ? shared.get() : fresh.get();
    WallTimer solve;
    smt::CheckResult r =
        shared != nullptr
            ? solver->checkAssuming(std::span<const Expr>(&vc.formula, 1))
            : solver->check();
    report.solveSeconds += solve.seconds();
    ++report.discharge.solverCalls;
    ++report.discharge.fullSmt;
    if (r == smt::CheckResult::Unknown) {
      ++undecided;
      why = std::max(why, solver->unknownReason());
      continue;
    }
    if (r == smt::CheckResult::Unsat) continue;

    auto model = solver->model();
    ReplayInputs ri{cfg.bdimX, cfg.bdimY, cfg.bdimZ,
                    cfg.gdimX, cfg.gdimY, summary.scalarInputs,
                    summary.inputArrays, vc.witnesses};
    Counterexample cex =
        extractCounterexample(*model, ri, ctx, width, replayCells(width));
    if (options.replayCounterexamples && postcondReplay)
      replayPostcondition(kernel, cex, width, options.maxReplayThreads);
    report.counterexamples.push_back(std::move(cex));
    const Counterexample& back = report.counterexamples.back();
    if (!options.replayCounterexamples || !postcondReplay ||
        back.replayConfirmed || !back.replayed) {
      report.outcome = Outcome::BugFound;
      report.detail = "violated: " + vc.name;
      report.totalSeconds = total.seconds();
      return report;
    }
    rejected = true;
    report.detail =
        "candidate for '" + vc.name + "' did not replay; inconclusive";
  }

  if (undecided > 0 || rejected) {
    report.outcome = Outcome::Unknown;
    if (undecided > 0) {
      const std::string open = std::to_string(undecided) + " of " +
                               std::to_string(vcs.vcs.size()) +
                               " VCs undecided (" + smt::toString(why) + ")";
      report.detail = rejected ? open + "; " + report.detail : open;
    }
  } else if (!vcs.exact) {
    report.outcome = Outcome::NoBugFound;
    report.detail = "no violation found (under-approximate premises)";
  } else {
    report.outcome = Outcome::Verified;
    report.detail = "holds for any number of threads";
  }
  report.totalSeconds = total.seconds();
  return report;
}

Report runNonParamPostcond(const lang::Kernel& kernel,
                           const CheckOptions& options) {
  WallTimer total;
  Report report;
  report.method = "non-parameterized";
  if (!options.grid.has_value()) {
    report.outcome = Outcome::Unsupported;
    report.detail = "non-parameterized checking needs a concrete grid";
    return report;
  }
  const encode::GridConfig& grid = *options.grid;
  expr::Context ctx;
  const encode::EncodeOptions eo = options.encodeOptions();

  encode::EncodedKernel enc;
  try {
    enc = encode::encodeSsa(ctx, kernel, grid, eo, "k");
  } catch (const UnsupportedError& e) {
    report.outcome = Outcome::Unsupported;
    report.unsupportedReason = e.reason();
    report.detail = e.what();
    return report;
  } catch (const PugError& e) {
    report.outcome = Outcome::Unsupported;
    report.detail = e.what();
    return report;
  }
  if (enc.postconds.empty()) {
    report.outcome = Outcome::Verified;
    report.detail = "kernel declares no postconditions";
    return report;
  }

  Expr violated = ctx.bot();
  std::vector<Expr> witnesses;
  for (const auto& pc : enc.postconds) {
    violated = ctx.mkOr(violated, ctx.mkNot(pc.formula));
    for (Expr v : pc.specVars) witnesses.push_back(v);
  }
  if (options.prefilter) {
    WallTimer pre;
    abstract::Prefilter prefilter;
    const Expr parts[] = {enc.assumptions, violated};
    const bool discharged = prefilter.provesUnsat(parts);
    report.solveSeconds = pre.seconds();
    if (discharged) {
      ++report.discharge.tier0;
      report.outcome = Outcome::Verified;
      report.detail = "holds for the " + grid.str() + " configuration";
      report.totalSeconds = total.seconds();
      return report;
    }
  }
  auto solver = options.makeSolver();
  solver->setTimeoutMs(options.solverTimeoutMs);
  solver->add(enc.assumptions);
  solver->add(violated);
  WallTimer solve;
  smt::CheckResult r = solver->check();
  report.solveSeconds += solve.seconds();
  ++report.discharge.solverCalls;
  ++report.discharge.fullSmt;

  switch (r) {
    case smt::CheckResult::Unsat:
      report.outcome = Outcome::Verified;
      report.detail = "holds for the " + grid.str() + " configuration";
      break;
    case smt::CheckResult::Unknown:
      report.outcome = Outcome::Unknown;
      report.detail = "solver timeout / gave up";
      break;
    case smt::CheckResult::Sat: {
      auto model = solver->model();
      ReplayInputs ri;
      ri.bdimX = ctx.bvVal(grid.bdimX, eo.width);
      ri.bdimY = ctx.bvVal(grid.bdimY, eo.width);
      ri.bdimZ = ctx.bvVal(grid.bdimZ, eo.width);
      ri.gdimX = ctx.bvVal(grid.gdimX, eo.width);
      ri.gdimY = ctx.bvVal(grid.gdimY, eo.width);
      ri.scalarInputs = enc.scalarInputs;
      ri.inputArrays = enc.inputArrays;
      ri.witnesses = witnesses;
      Counterexample cex = extractCounterexample(*model, ri, ctx, eo.width,
                                                 replayCells(eo.width));
      if (options.replayCounterexamples)
        replayPostcondition(kernel, cex, eo.width, options.maxReplayThreads);
      report.counterexamples.push_back(std::move(cex));
      report.outcome = Outcome::BugFound;
      report.detail = "postcondition violated under " + grid.str();
      break;
    }
  }
  report.totalSeconds = total.seconds();
  return report;
}

Report runParamCheck(const lang::Kernel& kernel, const CheckOptions& options,
                     para::FrameMode mode, bool asserts) {
  Report report;
  expr::Context ctx;
  const encode::EncodeOptions eo = options.encodeOptions();
  try {
    para::SymbolicConfig cfg = para::SymbolicConfig::create(ctx, eo);
    para::KernelSummary sum =
        para::extractSummary(ctx, kernel, cfg, eo, "k");
    para::ParamVcSet vcs =
        asserts ? para::buildAssertVcs(ctx, sum, mode, options.monoTimeoutMs)
                : para::buildPostcondVcs(ctx, sum, eo, mode,
                                         options.monoTimeoutMs);
    return solveParamVcs(kernel, ctx, cfg, sum, vcs, options,
                         /*postcondReplay=*/!asserts,
                         mode == para::FrameMode::BugHunt
                             ? "parameterized-bughunt"
                             : "parameterized");
  } catch (const UnsupportedError& e) {
    report.method = "parameterized";
    report.outcome = Outcome::Unsupported;
    report.unsupportedReason = e.reason();
    report.detail = e.what();
    return report;
  } catch (const PugError& e) {
    report.method = "parameterized";
    report.outcome = Outcome::Unsupported;
    report.detail = e.what();
    return report;
  }
}

}  // namespace

Report checkPostconditions(const lang::Kernel& kernel,
                           const CheckOptions& options) {
  switch (options.method) {
    case Method::Parameterized:
      return runParamCheck(kernel, options, options.frameMode, false);
    case Method::ParameterizedBugHunt:
      return runParamCheck(kernel, options, para::FrameMode::BugHunt, false);
    case Method::NonParameterized:
      return runNonParamPostcond(kernel, options);
    case Method::Auto: {
      Report r = runParamCheck(kernel, options, options.frameMode, false);
      if (r.outcome == Outcome::Unsupported && options.grid.has_value()) {
        Report fb = runNonParamPostcond(kernel, options);
        fb.caveats.push_back("parameterized method unsupported (" + r.detail +
                             "); fell back to a fixed configuration");
        return fb;
      }
      return r;
    }
  }
  throw PugError("unknown method");
}

Report checkAsserts(const lang::Kernel& kernel, const CheckOptions& options) {
  if (options.method == Method::NonParameterized) {
    // Assert obligations ride along the SSA encoding.
    WallTimer total;
    Report report;
    report.method = "non-parameterized";
    if (!options.grid.has_value()) {
      report.outcome = Outcome::Unsupported;
      report.detail = "non-parameterized checking needs a concrete grid";
      return report;
    }
    expr::Context ctx;
    const encode::EncodeOptions eo = options.encodeOptions();
    encode::EncodedKernel enc;
    try {
      enc = encode::encodeSsa(ctx, kernel, *options.grid, eo, "k");
    } catch (const UnsupportedError& e) {
      report.outcome = Outcome::Unsupported;
      report.unsupportedReason = e.reason();
      report.detail = e.what();
      return report;
    } catch (const PugError& e) {
      report.outcome = Outcome::Unsupported;
      report.detail = e.what();
      return report;
    }
    Expr bad = ctx.bot();
    for (const auto& ob : enc.asserts)
      bad = ctx.mkOr(bad, ctx.mkAnd(ob.guard, ctx.mkNot(ob.cond)));
    auto solver = options.makeSolver();
    solver->setTimeoutMs(options.solverTimeoutMs);
    solver->add(enc.assumptions);
    solver->add(bad);
    WallTimer solve;
    smt::CheckResult r = solver->check();
    report.solveSeconds = solve.seconds();
    ++report.discharge.solverCalls;
    ++report.discharge.fullSmt;
    report.totalSeconds = total.seconds();
    report.outcome = r == smt::CheckResult::Unsat  ? Outcome::Verified
                     : r == smt::CheckResult::Sat ? Outcome::BugFound
                                                  : Outcome::Unknown;
    return report;
  }
  return runParamCheck(kernel, options,
                       options.method == Method::ParameterizedBugHunt
                           ? para::FrameMode::BugHunt
                           : options.frameMode,
                       true);
}

}  // namespace pugpara::check
