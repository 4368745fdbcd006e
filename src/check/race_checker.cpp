#include "check/race_checker.h"

#include <sstream>

#include "abstract/prefilter.h"
#include "expr/subst.h"
#include "para/loops.h"
#include "para/vcgen.h"
#include "support/timer.h"

namespace pugpara::check {

namespace {

using expr::Expr;
using lang::MemSpace;
using lang::VarDecl;
using para::ConditionalAssignment;

class RaceChecker {
 public:
  RaceChecker(const lang::Kernel& kernel, const CheckOptions& options,
              Report& report)
      : kernel_(kernel), options_(options), report_(report) {}

  void run() {
    const encode::EncodeOptions eo = options_.encodeOptions();
    cfg_ = para::SymbolicConfig::create(ctx_, eo);
    sum_ = para::extractSummary(ctx_, kernel_, cfg_, eo, "k");

    for (const para::Segment& seg : sum_.segments) {
      if (seg.loop.has_value()) {
        report_.caveats.push_back(
            "barrier-carrying loop: loop entry/exit are modeled as interval "
            "boundaries, so races between pre-loop writes and first-"
            "iteration reads require an explicit barrier before the loop");
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

    if (report_.outcome != Outcome::BugFound) {
      if (unknownQueries_ > 0) {
        // An undecided pair query means the race-freedom claim has a hole;
        // never silently fold it into "race-free".
        report_.outcome = Outcome::Unknown;
        report_.detail = std::to_string(unknownQueries_) +
                         " pair quer" + (unknownQueries_ == 1 ? "y" : "ies") +
                         " undecided (timeout/fragment); race freedom not "
                         "established";
      } else {
        report_.outcome = Outcome::Verified;
        report_.detail = benignOverlaps_ == 0
                             ? "race-free for any number of threads"
                             : "no value-changing races; " +
                                   std::to_string(benignOverlaps_) +
                                   " benign same-value overlap(s)";
      }
    }
  }

 private:
  /// A symbolic thread bound to one side of every pair query, with the
  /// substitution that maps canonical-thread summaries onto it
  /// (thread-local temporaries re-freshened per instance).
  struct Instance {
    para::ThreadInstance inst;
    expr::SubstMap map;
  };

  /// A conditional access (write or read) substituted onto an instance.
  struct Access {
    Expr guard, addr, value;  // value stays null for reads
  };

  Instance makeInstance(const std::string& hint) {
    para::ThreadInstance inst =
        para::ThreadInstance::fresh(ctx_, cfg_, sum_.width, "rc_" + hint);
    expr::SubstMap m = inst.substFrom(sum_.canonical);
    for (Expr tl : sum_.threadLocalFresh)
      m.emplace(tl.node(),
                ctx_.freshVar(tl.varName() + "_" + hint, tl.sort()));
    return {inst, std::move(m)};
  }

  /// One substitution path for both the write and the read side.
  Access bind(Expr guard, Expr addr, Expr value, const Instance& in) {
    return {expr::substitute(guard, in.map), expr::substitute(addr, in.map),
            value.isNull() ? Expr() : expr::substitute(value, in.map)};
  }
  Access bind(const ConditionalAssignment& ca, const Instance& in) {
    return bind(ca.guard, ca.addr, ca.value, in);
  }
  Access bind(const para::ReadRecord& rd, const Instance& in) {
    return bind(rd.guard, rd.addr, Expr(), in);
  }

  Expr sameBlock(const para::ThreadInstance& a,
                 const para::ThreadInstance& b) {
    return ctx_.mkAnd(ctx_.mkEq(a.bx, b.bx), ctx_.mkEq(a.by, b.by));
  }

  /// The per-pair part of a query: both accesses happen and hit the same
  /// address (same block too, for block-shared memory). Everything
  /// pair-independent — kernel assumptions, interval activation, thread
  /// domains, distinctness — lives in the interval prefix instead.
  Expr overlapAssumption(const Access& x, const Access& y,
                         const VarDecl* array) {
    Expr o = ctx_.mkAnd(ctx_.mkAnd(x.guard, y.guard),
                        ctx_.mkEq(x.addr, y.addr));
    if (array->space == MemSpace::Shared) o = ctx_.mkAnd(o, sameBlockAb_);
    return o;
  }

  /// Decides prefix ∧ assumptions through the tiered pipeline: Tier 0
  /// (abstract domain, zero solver calls), Tier 1 (cone-of-influence slice
  /// of the prefix), full SMT. Both shortcut tiers only ever settle Unsat;
  /// anything else escalates, so verdicts match the unfiltered path.
  /// Incremental mode poses queries as assumption-only checks on the
  /// interval's long-lived solver; fresh mode rebuilds a solver per query
  /// (the pre-incremental baseline). The timer wraps the whole pipeline so
  /// prefilter overhead is charged to solveSeconds honestly.
  smt::CheckResult query(std::initializer_list<Expr> assumptions) {
    WallTimer t;
    smt::CheckResult r = queryTiered(std::vector<Expr>(assumptions));
    report_.solveSeconds += t.seconds();
    if (r == smt::CheckResult::Unknown) noteUnknown();
    return r;
  }

  smt::CheckResult queryTiered(const std::vector<Expr>& asms) {
    if (prefilter_ != nullptr && prefilter_->provesUnsat(asms)) {
      ++report_.discharge.tier0;
      return smt::CheckResult::Unsat;
    }
    // Tier 1: try the cone-of-influence slice first. Unsat under a subset
    // of the prefix is Unsat under all of it; Sat/Unknown proves nothing
    // and falls through to the full query.
    std::vector<size_t> rel;
    bool trySlice = false;
    if (prefilter_ != nullptr) {
      rel = slicer_.relevant(asms);
      trySlice = rel.size() < prefixConjuncts_.size();
    }
    if (solver_ != nullptr) {
      if (prefilter_ != nullptr) {
        if (trySlice) {
          std::vector<Expr> lits;
          for (size_t i : rel) lits.push_back(selectors_[i]);
          lits.insert(lits.end(), asms.begin(), asms.end());
          ++report_.discharge.solverCalls;
          if (solver_->checkAssuming(lits) == smt::CheckResult::Unsat) {
            ++report_.discharge.sliced;
            return smt::CheckResult::Unsat;
          }
        }
        std::vector<Expr> lits(selectors_);
        lits.insert(lits.end(), asms.begin(), asms.end());
        ++report_.discharge.solverCalls;
        ++report_.discharge.fullSmt;
        return solver_->checkAssuming(lits);
      }
      ++report_.discharge.solverCalls;
      ++report_.discharge.fullSmt;
      return solver_->checkAssuming(asms);
    }
    if (trySlice) {
      auto s = options_.makeSolver();
      s->setTimeoutMs(options_.solverTimeoutMs);
      for (size_t i : rel) s->add(prefixConjuncts_[i]);
      for (Expr a : asms) s->add(a);
      ++report_.discharge.solverCalls;
      if (s->check() == smt::CheckResult::Unsat) {
        ++report_.discharge.sliced;
        return smt::CheckResult::Unsat;
      }
    }
    auto s = options_.makeSolver();
    s->setTimeoutMs(options_.solverTimeoutMs);
    for (Expr p : prefix_) s->add(p);
    for (Expr a : asms) s->add(a);
    ++report_.discharge.solverCalls;
    ++report_.discharge.fullSmt;
    return s->check();
  }

  void noteUnknown() {
    if (unknownQueries_++ == 0)
      report_.caveats.push_back(
          "at least one pair query returned unknown; the verdict is "
          "downgraded to unknown unless a race is found elsewhere");
  }

  /// Lower bound on the interval's query count (the weak overlap queries;
  /// Sat answers add refinement queries on top).
  static size_t plannedQueries(const para::BiSummary& bi) {
    size_t n = 0;
    for (const auto& [array, cas] : bi.cas) {
      n += cas.size() * (cas.size() + 1) / 2;  // write-write incl. self
      for (const para::ReadRecord& rd : bi.reads)
        if (rd.array == array) n += cas.size();
    }
    return n;
  }

  void checkInterval(const para::BiSummary& bi, Expr active) {
    // Two shared thread instances serve every pair of this interval: the
    // instances are just symbolic names, and each pair query is an
    // independent assumption set, so reusing them is sound and lets the
    // prefix (assumptions + activation + domains + distinctness) be
    // asserted once per interval instead of once per query.
    Instance a = makeInstance("a");
    Instance b = makeInstance("b");
    sameBlockAb_ = sameBlock(a.inst, b.inst);
    prefix_ = {sum_.assumptions, active, a.inst.domain, b.inst.domain,
               a.inst.distinctFrom(b.inst)};
    prefixConjuncts_.clear();
    for (Expr p : prefix_) abstract::flattenAnd(p, prefixConjuncts_);
    if (options_.prefilter) {
      if (prefilter_ == nullptr)
        prefilter_ = std::make_unique<abstract::Prefilter>();
      prefilter_->setPrefix(prefixConjuncts_);
      slicer_.build(prefixConjuncts_);
    }
    selectors_.clear();
    solver_.reset();
    // A long-lived solver pays off through reuse: the prefix is encoded
    // once and everything learned transfers to the next pair query. An
    // interval that poses a single query has nothing to reuse — and a
    // query posed as an assumption is slightly harder than the same
    // formula asserted outright (learnt clauses drag the assumption
    // literal along; no top-level simplification) — so such intervals
    // stay on the fresh-per-query path even in incremental mode.
    if (options_.incrementalSolving && plannedQueries(bi) >= 2) {
      solver_ = options_.makeSolver();
      solver_->setTimeoutMs(options_.solverTimeoutMs);
      if (options_.prefilter) {
        // Selector-guarded prefix: each conjunct is asserted behind a fresh
        // boolean, so a query can enable just its cone-of-influence slice
        // (or all of them for the full formula) via assumptions while the
        // solver's learnt state still persists across queries.
        for (Expr c : prefixConjuncts_) {
          Expr s = ctx_.freshVar("sel", expr::Sort::boolSort());
          selectors_.push_back(s);
          solver_->add(ctx_.mkImplies(s, c));
        }
      } else {
        for (Expr p : prefix_) solver_->add(p);
      }
    }

    for (const auto& [array, cas] : bi.cas) {
      for (size_t i = 0; i < cas.size(); ++i) {
        const Access wa = bind(cas[i], a);
        // Write-write: every CA pair, including a CA against itself.
        for (size_t j = i; j < cas.size(); ++j) {
          const Access wb = bind(cas[j], b);
          const Expr overlap = overlapAssumption(wa, wb, array);
          // The weak overlap query runs first: disjoint pairs — the common
          // case — are settled by its single Unsat. Only an overlapping
          // pair pays for the value-difference refinement, posed as one
          // extra assumption on the same prefix.
          if (query({overlap}) != smt::CheckResult::Sat) continue;
          switch (query({overlap, ctx_.mkNe(wa.value, wb.value)})) {
            case smt::CheckResult::Sat:
              record("write-write race on '" + array->name + "' (" +
                     cas[i].loc.str() + " vs " + cas[j].loc.str() + ")");
              break;
            case smt::CheckResult::Unsat:
              ++benignOverlaps_;
              break;
            case smt::CheckResult::Unknown:
              break;  // counted by query()
          }
        }
        // Read-write against every recorded read.
        for (const para::ReadRecord& rd : bi.reads) {
          if (rd.array != array) continue;
          const Access rb = bind(rd, b);
          if (query({overlapAssumption(wa, rb, array)}) ==
              smt::CheckResult::Sat)
            record("read-write race on '" + array->name + "' (write at " +
                   cas[i].loc.str() + ")");
        }
      }
    }
    solver_.reset();
  }

  void record(std::string what) {
    report_.outcome = Outcome::BugFound;
    if (!report_.detail.empty()) report_.detail += "; ";
    report_.detail += what;
  }

  const lang::Kernel& kernel_;
  const CheckOptions& options_;
  expr::Context ctx_;
  para::SymbolicConfig cfg_;
  para::KernelSummary sum_;
  Report& report_;
  size_t benignOverlaps_ = 0;
  size_t unknownQueries_ = 0;

  // Per-interval query state (set by checkInterval).
  std::unique_ptr<smt::Solver> solver_;  // null in fresh-per-query mode
  std::vector<Expr> prefix_;
  Expr sameBlockAb_;

  // Tiered-discharge state. prefilter_ is null when options_.prefilter is
  // off; its affine memo persists across intervals.
  std::unique_ptr<abstract::Prefilter> prefilter_;
  abstract::CoiSlicer slicer_;
  std::vector<Expr> prefixConjuncts_;
  std::vector<Expr> selectors_;  // parallel to prefixConjuncts_
};

}  // namespace

Report checkRaces(const lang::Kernel& kernel, const CheckOptions& options) {
  return runOrReject("parameterized-race", [&](Report& report) {
    RaceChecker(kernel, options, report).run();
  });
}

}  // namespace pugpara::check
