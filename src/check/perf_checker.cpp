#include "check/perf_checker.h"

#include "expr/subst.h"
#include "para/loops.h"
#include "para/vcgen.h"
#include "support/timer.h"

namespace pugpara::check {

namespace {

using expr::Expr;
using lang::MemSpace;
using para::ConditionalAssignment;

class PerfChecker {
 public:
  PerfChecker(const lang::Kernel& kernel, const CheckOptions& options,
              const PerfOptions& perf, Report& report)
      : kernel_(kernel), options_(options), perf_(perf), report_(report) {}

  void run() {
    const encode::EncodeOptions eo = options_.encodeOptions();
    cfg_ = para::SymbolicConfig::create(ctx_, eo);
    sum_ = para::extractSummary(ctx_, kernel_, cfg_, eo, "k");

    for (const para::Segment& seg : sum_.segments) {
      if (seg.loop.has_value()) {
        Expr active = ctx_.mkAnd(
            seg.loop->guard,
            para::loopReachabilityInvariant(ctx_, *seg.loop, sum_.width));
        for (const para::BiSummary& bi : seg.loop->bodyBis)
          checkInterval(bi, active);
      } else {
        for (const para::BiSummary& bi : seg.bis)
          checkInterval(bi, ctx_.top());
      }
    }

    if (report_.outcome == Outcome::BugFound) return;
    if (undecided_ > 0) {
      // An undecided query is a hole in the claim, never "no conflict".
      report_.outcome = Outcome::Unknown;
      report_.detail = std::to_string(undecided_) + " quer" +
                       (undecided_ == 1 ? "y" : "ies") +
                       " undecided (timeout/fragment); absence of bank "
                       "conflicts and uncoalesced accesses not established";
      return;
    }
    report_.outcome = Outcome::Verified;
    report_.detail = "no bank conflicts or uncoalesced accesses, for any "
                     "number of threads";
  }

 private:
  struct Access {
    Expr guard, addr;
    const lang::VarDecl* array;
    SourceLoc loc;
  };

  /// Every static shared/global access site of an interval (reads + writes).
  std::vector<Access> accesses(const para::BiSummary& bi, bool shared) {
    std::vector<Access> out;
    for (const auto& [array, cas] : bi.cas) {
      if ((array->space == MemSpace::Shared) != shared) continue;
      for (const auto& ca : cas) out.push_back({ca.guard, ca.addr, array, ca.loc});
    }
    for (const auto& rd : bi.reads) {
      if ((rd.array->space == MemSpace::Shared) != shared) continue;
      out.push_back({rd.guard, rd.addr, rd.array, rd.loc});
    }
    return out;
  }

  expr::SubstMap instMap(const para::ThreadInstance& inst) {
    expr::SubstMap m = inst.substFrom(sum_.canonical);
    for (Expr tl : sum_.threadLocalFresh)
      m.emplace(tl.node(), ctx_.freshVar(tl.varName() + "_pf", tl.sort()));
    return m;
  }

  /// Sat means a bug; an Unknown answer is counted, so it can only leave
  /// the verdict open.
  bool satisfiable(Expr constraint) {
    auto solver = options_.makeSolver();
    solver->setTimeoutMs(options_.solverTimeoutMs);
    solver->add(sum_.assumptions);
    solver->add(constraint);
    WallTimer t;
    smt::CheckResult r = solver->check();
    report_.solveSeconds += t.seconds();
    if (r == smt::CheckResult::Unknown) ++undecided_;
    return r == smt::CheckResult::Sat;
  }

  /// Same half-warp slice: equal block, equal (ty, tz) row, tx in the same
  /// group of `halfWarp` threads.
  Expr sameHalfWarp(const para::ThreadInstance& a,
                    const para::ThreadInstance& b) {
    const uint32_t w = sum_.width;
    Expr hw = ctx_.bvVal(perf_.halfWarp, w);
    return ctx_.mkAnd(
        ctx_.mkAnd(ctx_.mkEq(a.bx, b.bx), ctx_.mkEq(a.by, b.by)),
        ctx_.mkAnd(ctx_.mkAnd(ctx_.mkEq(a.ty, b.ty), ctx_.mkEq(a.tz, b.tz)),
                   ctx_.mkEq(ctx_.mkUDiv(a.tx, hw), ctx_.mkUDiv(b.tx, hw))));
  }

  void checkInterval(const para::BiSummary& bi, Expr active) {
    const uint32_t w = sum_.width;

    // Bank conflicts: same access site, same half-warp, same bank,
    // different addresses.
    for (const Access& acc : accesses(bi, /*shared=*/true)) {
      para::ThreadInstance a =
          para::ThreadInstance::fresh(ctx_, cfg_, w, "pf_a");
      para::ThreadInstance b =
          para::ThreadInstance::fresh(ctx_, cfg_, w, "pf_b");
      expr::SubstMap ma = instMap(a), mb = instMap(b);
      Expr ga = expr::substitute(acc.guard, ma);
      Expr gb = expr::substitute(acc.guard, mb);
      Expr aa = expr::substitute(acc.addr, ma);
      Expr ab = expr::substitute(acc.addr, mb);
      Expr banks = ctx_.bvVal(perf_.banks, w);
      Expr conflict = ctx_.mkAnd(
          ctx_.mkAnd(a.domain, b.domain),
          ctx_.mkAnd(
              ctx_.mkAnd(ga, gb),
              ctx_.mkAnd(sameHalfWarp(a, b),
                         ctx_.mkAnd(ctx_.mkEq(ctx_.mkURem(aa, banks),
                                              ctx_.mkURem(ab, banks)),
                                    ctx_.mkNe(aa, ab)))));
      conflict = ctx_.mkAnd(conflict, active);
      if (satisfiable(conflict))
        record("bank conflict on '" + acc.array->name + "' at " +
               acc.loc.str());
    }

    // Coalescing: adjacent threads of a half-warp must touch adjacent
    // global addresses (strict 1.x rule).
    for (const Access& acc : accesses(bi, /*shared=*/false)) {
      para::ThreadInstance a =
          para::ThreadInstance::fresh(ctx_, cfg_, w, "pf_c");
      para::ThreadInstance b =
          para::ThreadInstance::fresh(ctx_, cfg_, w, "pf_d");
      expr::SubstMap ma = instMap(a), mb = instMap(b);
      Expr one = ctx_.bvVal(1, w);
      Expr adjacent = ctx_.mkEq(b.tx, ctx_.mkAdd(a.tx, one));
      Expr ga = expr::substitute(acc.guard, ma);
      Expr gb = expr::substitute(acc.guard, mb);
      Expr aa = expr::substitute(acc.addr, ma);
      Expr ab = expr::substitute(acc.addr, mb);
      Expr bad = ctx_.mkAnd(
          ctx_.mkAnd(a.domain, b.domain),
          ctx_.mkAnd(ctx_.mkAnd(ga, gb),
                     ctx_.mkAnd(ctx_.mkAnd(adjacent, sameHalfWarp(a, b)),
                                ctx_.mkNe(ab, ctx_.mkAdd(aa, one)))));
      bad = ctx_.mkAnd(bad, active);
      if (satisfiable(bad))
        record("non-coalesced access to '" + acc.array->name + "' at " +
               acc.loc.str());
    }
  }

  void record(std::string what) {
    report_.outcome = Outcome::BugFound;
    if (!report_.detail.empty()) report_.detail += "; ";
    report_.detail += what;
  }

  const lang::Kernel& kernel_;
  const CheckOptions& options_;
  const PerfOptions& perf_;
  expr::Context ctx_;
  para::SymbolicConfig cfg_;
  para::KernelSummary sum_;
  Report& report_;
  size_t undecided_ = 0;
};

}  // namespace

Report checkPerformance(const lang::Kernel& kernel,
                        const CheckOptions& options,
                        const PerfOptions& perf) {
  return runOrReject("parameterized-perf", [&](Report& report) {
    PerfChecker(kernel, options, perf, report).run();
  });
}

}  // namespace pugpara::check
