#include "check/equiv_checker.h"

#include "check/discharge.h"
#include "encode/equivalence.h"

namespace pugpara::check {

namespace {

Report runParameterized(const lang::Kernel& src, const lang::Kernel& tgt,
                        const CheckOptions& options, para::FrameMode mode) {
  const std::string method =
      mode == para::FrameMode::BugHunt
          ? "parameterized-bughunt"
          : std::string("parameterized(") + para::toString(mode) + ")";
  return runOrReject(method, [&](Report& report) {
    expr::Context ctx;
    const encode::EncodeOptions eo = options.encodeOptions();
    const para::SymbolicConfig cfg = para::SymbolicConfig::create(ctx, eo);
    const para::KernelSummary sumS =
        para::extractSummary(ctx, src, cfg, eo, "s");
    const para::KernelSummary sumT =
        para::extractSummary(ctx, tgt, cfg, eo, "t");
    const para::ParamVcSet vcs = para::buildEquivalenceVcs(
        ctx, sumS, sumT, mode, options.monoTimeoutMs);
    report.caveats = vcs.caveats;
    report.stats = vcs.stats;

    ObligationSet set = vcObligations(vcs, replayInputs(cfg, sumS), options);
    set.replay = [&](Counterexample& cex) {
      replayEquivalence(src, tgt, cex, eo.width, options.maxReplayThreads);
    };
    set.failure = "kernels disagree";
    if (mode == para::FrameMode::BugHunt) {
      set.allClear = Outcome::NoBugFound;
      set.allClearDetail = "no bug found (bug-hunt is under-approximate)";
    } else {
      set.allClearDetail =
          vcs.exact ? "equivalent for any number of threads"
                    : "equivalent modulo the recorded alignment caveats";
    }
    discharge(ctx, set, options, report);
  });
}

Report runNonParameterized(const lang::Kernel& src, const lang::Kernel& tgt,
                           const CheckOptions& options,
                           const encode::GridConfig& grid) {
  return runOrReject("non-parameterized", [&](Report& report) {
    expr::Context ctx;
    const encode::EncodeOptions eo = options.encodeOptions();
    const encode::EncodedKernel encS =
        encode::encodeSsa(ctx, src, grid, eo, "s");
    const encode::EncodedKernel encT =
        encode::encodeSsa(ctx, tgt, grid, eo, "t");
    const encode::EquivalenceQuery q =
        encode::buildEquivalenceQuery(ctx, encS, encT);

    ObligationSet set;
    set.obligations.push_back(
        {grid.str(), {q.assumptions, q.outputsDiffer}, q.indexVars});
    set.inputs = replayInputs(ctx, grid, encS);
    set.replay = [&](Counterexample& cex) {
      replayEquivalence(src, tgt, cex, eo.width, options.maxReplayThreads);
    };
    set.failure = "kernels disagree";
    set.allClearDetail = "equivalent for the " + grid.str() + " configuration";
    discharge(ctx, set, options, report);
  });
}

}  // namespace

Report checkEquivalence(const lang::Kernel& src, const lang::Kernel& tgt,
                        const CheckOptions& options) {
  return dispatchMethod(
      options,
      [&](para::FrameMode mode) {
        return runParameterized(src, tgt, options, mode);
      },
      [&](const encode::GridConfig& grid) {
        return runNonParameterized(src, tgt, options, grid);
      });
}

}  // namespace pugpara::check
