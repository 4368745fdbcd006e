#include "check/equiv_checker.h"

#include "abstract/prefilter.h"
#include "check/replay.h"
#include "encode/equivalence.h"
#include "para/vcgen.h"
#include "support/timer.h"

namespace pugpara::check {

namespace {

using expr::Expr;

uint64_t replayCells(uint32_t width) {
  return std::min<uint64_t>(uint64_t{1} << std::min<uint32_t>(width, 62),
                            uint64_t{1} << 16);
}

Report runParameterized(const lang::Kernel& src, const lang::Kernel& tgt,
                        const CheckOptions& options, para::FrameMode mode) {
  WallTimer total;
  Report report;
  report.method = mode == para::FrameMode::BugHunt
                      ? "parameterized-bughunt"
                      : std::string("parameterized(") + para::toString(mode) +
                            ")";
  expr::Context ctx;
  const encode::EncodeOptions eo = options.encodeOptions();

  para::ParamVcSet vcs;
  para::SymbolicConfig cfg;
  para::KernelSummary sumS, sumT;
  try {
    cfg = para::SymbolicConfig::create(ctx, eo);
    sumS = para::extractSummary(ctx, src, cfg, eo, "s");
    sumT = para::extractSummary(ctx, tgt, cfg, eo, "t");
    vcs = para::buildEquivalenceVcs(ctx, sumS, sumT, mode,
                                    options.monoTimeoutMs);
  } catch (const UnsupportedError& e) {
    report.outcome = Outcome::Unsupported;
    report.unsupportedReason = e.reason();
    report.detail = e.what();
    report.totalSeconds = total.seconds();
    return report;
  } catch (const PugError& e) {
    report.outcome = Outcome::Unsupported;
    report.detail = e.what();
    report.totalSeconds = total.seconds();
    return report;
  }
  report.caveats = vcs.caveats;
  report.stats = vcs.stats;

  // VCs the solver left open and the most severe reason it gave; a
  // candidate witness that replay refuted also leaves the verdict open.
  size_t undecided = 0;
  smt::UnknownReason why = smt::UnknownReason::None;
  bool rejected = false;
  // Tier 0: each VC is a standalone conjunction (no shared prefix), so the
  // abstract domain gets one shot at proving it unsatisfiable — i.e. the
  // VC holds — before any solver sees it.
  abstract::Prefilter prefilter;
  // Incremental mode: one solver serves the whole VC batch. The VCs share
  // summary subterms, so the backend encodes them once; each VC is posed
  // as a single assumption and retracts itself.
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

    // SAT: candidate bug. Extract and (optionally) replay.
    auto model = solver->model();
    ReplayInputs ri{cfg.bdimX, cfg.bdimY, cfg.bdimZ,
                    cfg.gdimX, cfg.gdimY, sumS.scalarInputs,
                    sumS.inputArrays, vc.witnesses};
    Counterexample cex = extractCounterexample(*model, ri, ctx, eo.width,
                                               replayCells(eo.width));
    if (options.replayCounterexamples)
      replayEquivalence(src, tgt, cex, eo.width, options.maxReplayThreads);
    report.counterexamples.push_back(std::move(cex));
    const Counterexample& back = report.counterexamples.back();
    if (!options.replayCounterexamples || back.replayConfirmed ||
        !back.replayed) {
      report.outcome = Outcome::BugFound;
      report.detail = "kernels disagree (" + vc.name + ")";
      report.totalSeconds = total.seconds();
      return report;
    }
    // Replay rejected the witness: with caveats/bug-hunt this can happen.
    rejected = true;
    report.detail = "candidate from '" + vc.name +
                    "' did not replay; result inconclusive";
  }

  if (undecided > 0 || rejected) {
    report.outcome = Outcome::Unknown;
    if (undecided > 0) {
      const std::string open = std::to_string(undecided) + " of " +
                               std::to_string(vcs.vcs.size()) +
                               " VCs undecided (" + smt::toString(why) + ")";
      report.detail = rejected ? open + "; " + report.detail : open;
    }
  } else if (mode == para::FrameMode::BugHunt) {
    report.outcome = Outcome::NoBugFound;
    report.detail = "no bug found (bug-hunt is under-approximate)";
  } else {
    report.outcome = Outcome::Verified;
    report.detail = vcs.exact
                        ? "equivalent for any number of threads"
                        : "equivalent modulo the recorded alignment caveats";
  }
  report.totalSeconds = total.seconds();
  return report;
}

Report runNonParameterized(const lang::Kernel& src, const lang::Kernel& tgt,
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

  encode::EncodedKernel encS, encT;
  try {
    encS = encode::encodeSsa(ctx, src, grid, eo, "s");
    encT = encode::encodeSsa(ctx, tgt, grid, eo, "t");
  } catch (const UnsupportedError& e) {
    report.outcome = Outcome::Unsupported;
    report.unsupportedReason = e.reason();
    report.detail = e.what();
    report.totalSeconds = total.seconds();
    return report;
  } catch (const PugError& e) {
    report.outcome = Outcome::Unsupported;
    report.detail = e.what();
    report.totalSeconds = total.seconds();
    return report;
  }
  encode::EquivalenceQuery q = encode::buildEquivalenceQuery(ctx, encS, encT);

  if (options.prefilter) {
    WallTimer pre;
    abstract::Prefilter prefilter;
    const Expr parts[] = {q.assumptions, q.outputsDiffer};
    const bool discharged = prefilter.provesUnsat(parts);
    report.solveSeconds = pre.seconds();
    if (discharged) {
      ++report.discharge.tier0;
      report.outcome = Outcome::Verified;
      report.detail = "equivalent for the " + grid.str() + " configuration";
      report.totalSeconds = total.seconds();
      return report;
    }
  }
  auto solver = options.makeSolver();
  solver->setTimeoutMs(options.solverTimeoutMs);
  solver->add(q.assumptions);
  solver->add(q.outputsDiffer);
  WallTimer solve;
  smt::CheckResult r = solver->check();
  report.solveSeconds += solve.seconds();
  ++report.discharge.solverCalls;
  ++report.discharge.fullSmt;

  switch (r) {
    case smt::CheckResult::Unsat:
      report.outcome = Outcome::Verified;
      report.detail = "equivalent for the " + grid.str() + " configuration";
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
      ri.scalarInputs = encS.scalarInputs;
      ri.inputArrays = encS.inputArrays;
      ri.witnesses = q.indexVars;
      Counterexample cex = extractCounterexample(*model, ri, ctx, eo.width,
                                                 replayCells(eo.width));
      if (options.replayCounterexamples)
        replayEquivalence(src, tgt, cex, eo.width, options.maxReplayThreads);
      report.counterexamples.push_back(std::move(cex));
      report.outcome = Outcome::BugFound;
      report.detail = "kernels disagree under " + grid.str();
      break;
    }
  }
  report.totalSeconds = total.seconds();
  return report;
}

}  // namespace

Report checkEquivalence(const lang::Kernel& src, const lang::Kernel& tgt,
                        const CheckOptions& options) {
  switch (options.method) {
    case Method::Parameterized:
      return runParameterized(src, tgt, options, options.frameMode);
    case Method::ParameterizedBugHunt:
      return runParameterized(src, tgt, options, para::FrameMode::BugHunt);
    case Method::NonParameterized:
      return runNonParameterized(src, tgt, options);
    case Method::Auto: {
      Report r = runParameterized(src, tgt, options, options.frameMode);
      if (r.outcome == Outcome::Unsupported && options.grid.has_value()) {
        Report fallback = runNonParameterized(src, tgt, options);
        fallback.caveats.push_back(
            "parameterized method unsupported here (" + r.detail +
            "); fell back to a fixed configuration");
        return fallback;
      }
      return r;
    }
  }
  throw PugError("unknown method");
}

}  // namespace pugpara::check
