#include "check/postcond_checker.h"

#include "check/discharge.h"

namespace pugpara::check {

namespace {

using expr::Expr;

/// Postconditions and asserts share both methods; only postconditions
/// replay, since the VM evaluates no assert.
Report runParameterized(const lang::Kernel& kernel,
                        const CheckOptions& options, para::FrameMode mode,
                        bool asserts) {
  const char* method = mode == para::FrameMode::BugHunt
                           ? "parameterized-bughunt"
                           : "parameterized";
  return runOrReject(method, [&](Report& report) {
    expr::Context ctx;
    const encode::EncodeOptions eo = options.encodeOptions();
    const para::SymbolicConfig cfg = para::SymbolicConfig::create(ctx, eo);
    const para::KernelSummary sum =
        para::extractSummary(ctx, kernel, cfg, eo, "k");
    const para::ParamVcSet vcs =
        asserts ? para::buildAssertVcs(ctx, sum, mode, options.monoTimeoutMs)
                : para::buildPostcondVcs(ctx, sum, eo, mode,
                                         options.monoTimeoutMs);
    report.caveats = vcs.caveats;
    report.stats = vcs.stats;

    ObligationSet set = vcObligations(vcs, replayInputs(cfg, sum), options);
    if (!asserts)
      set.replay = [&](Counterexample& cex) {
        replayPostcondition(kernel, cex, eo.width, options.maxReplayThreads);
      };
    set.failure = asserts ? "assertion violated" : "postcondition violated";
    if (!vcs.exact) {
      set.allClear = Outcome::NoBugFound;
      set.allClearDetail = "no violation found (under-approximate premises)";
    } else {
      set.allClearDetail = "holds for any number of threads";
    }
    discharge(ctx, set, options, report);
  });
}

Report runNonParameterized(const lang::Kernel& kernel,
                           const CheckOptions& options,
                           const encode::GridConfig& grid, bool asserts) {
  return runOrReject("non-parameterized", [&](Report& report) {
    expr::Context ctx;
    const encode::EncodeOptions eo = options.encodeOptions();
    const encode::EncodedKernel enc =
        encode::encodeSsa(ctx, kernel, grid, eo, "k");

    ObligationSet set;
    std::vector<Expr> failures, witnesses;
    if (asserts) {
      for (const auto& ob : enc.asserts)
        failures.push_back(ctx.mkAnd(ob.guard, ctx.mkNot(ob.cond)));
      set.failure = "assertion violated";
    } else {
      for (const auto& pc : enc.postconds) {
        failures.push_back(ctx.mkNot(pc.formula));
        witnesses.insert(witnesses.end(), pc.specVars.begin(),
                         pc.specVars.end());
      }
      set.replay = [&](Counterexample& cex) {
        replayPostcondition(kernel, cex, eo.width, options.maxReplayThreads);
      };
      set.failure = "postcondition violated";
    }
    // The grid's one obligation: some assert or postcondition fails.
    if (failures.empty()) {
      set.allClearDetail = asserts ? "kernel declares no asserts"
                                   : "kernel declares no postconditions";
    } else {
      Expr violated = ctx.bot();
      for (Expr f : failures) violated = ctx.mkOr(violated, f);
      set.obligations.push_back(
          {grid.str(), {enc.assumptions, violated}, std::move(witnesses)});
      set.allClearDetail = "holds for the " + grid.str() + " configuration";
    }
    set.inputs = replayInputs(ctx, grid, enc);
    discharge(ctx, set, options, report);
  });
}

Report dispatch(const lang::Kernel& kernel, const CheckOptions& options,
                bool asserts) {
  return dispatchMethod(
      options,
      [&](para::FrameMode mode) {
        return runParameterized(kernel, options, mode, asserts);
      },
      [&](const encode::GridConfig& grid) {
        return runNonParameterized(kernel, options, grid, asserts);
      });
}

}  // namespace

Report checkPostconditions(const lang::Kernel& kernel,
                           const CheckOptions& options) {
  return dispatch(kernel, options, /*asserts=*/false);
}

Report checkAsserts(const lang::Kernel& kernel, const CheckOptions& options) {
  return dispatch(kernel, options, /*asserts=*/true);
}

}  // namespace pugpara::check
