// Tests of the concurrent verification engine, the batch CheckRequest API
// and the solver-query cache. These are the tests the ThreadSanitizer
// preset runs (scripts/tier1.sh) — keep every fixture name matched by the
// Engine*/QueryCache*/StructuralHash* filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "check/session.h"
#include "engine/engine.h"
#include "expr/context.h"
#include "expr/hash.h"
#include "kernels/corpus.h"
#include "smt/query_cache.h"
#include "support/faultinject.h"

namespace pugpara {
namespace {

using check::CheckKind;
using check::CheckOptions;
using check::CheckRequest;
using check::CheckResult;
using check::Outcome;
using check::VerificationSession;
using engine::EngineOptions;
using engine::VerificationEngine;
using expr::Context;
using expr::Expr;
using expr::Sort;
using kernels::combinedSource;

CheckOptions fastOpts(uint32_t width = 8) {
  CheckOptions o;
  o.method = check::Method::Parameterized;
  o.width = width;
  o.solverTimeoutMs = 120000;
  return o;
}

/// The shared small batch: cheap, mixed outcomes (verified + bug-found).
std::vector<CheckRequest> smallBatch() {
  std::vector<CheckRequest> reqs;
  for (const char* k : {"vecAdd", "racyHistogram"}) {
    for (CheckKind kind :
         {CheckKind::Races, CheckKind::Asserts, CheckKind::Postconditions}) {
      CheckRequest r;
      r.kind = kind;
      r.kernel = k;
      r.options = fastOpts();
      reqs.push_back(std::move(r));
    }
  }
  return reqs;
}

std::vector<Outcome> outcomes(const std::vector<CheckResult>& rs) {
  std::vector<Outcome> out;
  for (const auto& r : rs) out.push_back(r.report.outcome);
  return out;
}

// ---- StructuralHash --------------------------------------------------------

TEST(StructuralHashTest, StableAcrossContexts) {
  auto build = [](Context& ctx) {
    Expr x = ctx.var("x", Sort::bv(16));
    Expr y = ctx.var("y", Sort::bv(16));
    return ctx.mkUlt(ctx.mkAdd(ctx.mkMul(x, y), ctx.bvVal(7, 16)), y);
  };
  Context a, b;
  EXPECT_EQ(expr::structuralHash(build(a)), expr::structuralHash(build(b)));
}

TEST(StructuralHashTest, DistinguishesStructure) {
  Context ctx;
  Expr x = ctx.var("x", Sort::bv(16));
  Expr y = ctx.var("y", Sort::bv(16));
  const uint64_t add = expr::structuralHash(ctx.mkAdd(x, y));
  EXPECT_NE(add, expr::structuralHash(ctx.mkSub(x, y)));
  EXPECT_NE(add, expr::structuralHash(ctx.mkAdd(x, x)));
  // Different variable names are different queries.
  EXPECT_NE(expr::structuralHash(x), expr::structuralHash(y));
  // Same name at a different width is a different query (built in a second
  // Context; reusing a name at a different sort within one is a PugError).
  Context wide;
  EXPECT_NE(expr::structuralHash(x),
            expr::structuralHash(wide.var("x", Sort::bv(32))));
  // Seeds act as independent hash functions.
  EXPECT_NE(expr::structuralHash(x, 1), expr::structuralHash(x, 2));
}

TEST(StructuralHashTest, AssertionSetIsOrderInsensitive) {
  Context ctx;
  Expr a = ctx.mkUlt(ctx.var("x", Sort::bv(8)), ctx.bvVal(3, 8));
  Expr b = ctx.mkUlt(ctx.var("y", Sort::bv(8)), ctx.bvVal(5, 8));
  const std::vector<Expr> ab = {a, b}, ba = {b, a};
  EXPECT_EQ(expr::structuralHash(ab), expr::structuralHash(ba));
  const std::vector<Expr> aa = {a, a};
  EXPECT_NE(expr::structuralHash(ab), expr::structuralHash(aa));
}

// ---- QueryCache ------------------------------------------------------------

TEST(QueryCacheTest, HitOnIdenticalRepeatedQuery) {
  smt::QueryCache cache;
  // Same query built in two different contexts, unsat both times.
  for (int round = 0; round < 2; ++round) {
    Context ctx;
    auto solver = smt::makeCachingSolver(smt::makeZ3Solver(), cache);
    Expr x = ctx.var("x", Sort::bv(8));
    solver->add(ctx.mkUlt(x, ctx.bvVal(10, 8)));
    solver->add(ctx.mkUlt(ctx.bvVal(20, 8), x));
    EXPECT_EQ(solver->check(), smt::CheckResult::Unsat);
  }
  const smt::QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(QueryCacheTest, UnknownIsNeverCached) {
  smt::QueryCache cache;
  Context ctx;
  // MiniSMT answers Unknown on quantified formulas; that must not stick.
  Expr t = ctx.var("t", Sort::bv(8));
  Expr a = ctx.var("a", Sort::bv(8));
  std::vector<Expr> bound = {t};
  Expr q = ctx.mkForall(bound, ctx.mkUlt(t, a));
  auto mini = smt::makeCachingSolver(smt::makeMiniSolver(), cache);
  mini->add(q);
  EXPECT_EQ(mini->check(), smt::CheckResult::Unknown);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(QueryCacheTest, SatStillProducesAModel) {
  smt::QueryCache cache;
  for (int round = 0; round < 2; ++round) {
    Context ctx;
    auto solver = smt::makeCachingSolver(smt::makeZ3Solver(), cache);
    Expr x = ctx.var("x", Sort::bv(8));
    Expr c = ctx.mkEq(ctx.mkAdd(x, ctx.bvVal(1, 8)), ctx.bvVal(5, 8));
    solver->add(c);
    ASSERT_EQ(solver->check(), smt::CheckResult::Sat);
    // Even on the cache-hit round the model must be real and satisfying.
    auto m = solver->model();
    EXPECT_EQ(m->evalBv(x), 4u);
  }
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST(QueryCacheTest, SaveAndLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "pugpara_qcache_test.txt";
  smt::QueryCache cache;
  {
    Context ctx;
    auto solver = smt::makeCachingSolver(smt::makeZ3Solver(), cache);
    Expr x = ctx.var("x", Sort::bv(8));
    solver->add(ctx.mkUlt(x, ctx.bvVal(10, 8)));
    solver->add(ctx.mkUlt(ctx.bvVal(20, 8), x));
    EXPECT_EQ(solver->check(), smt::CheckResult::Unsat);
  }
  ASSERT_TRUE(cache.save(path));

  smt::QueryCache fresh;
  ASSERT_TRUE(fresh.load(path));
  EXPECT_EQ(fresh.size(), cache.size());
  {
    // The reloaded cache short-circuits the same query: no backend needed.
    Context ctx;
    auto solver = smt::makeCachingSolver(smt::makeZ3Solver(), fresh);
    Expr x = ctx.var("x", Sort::bv(8));
    solver->add(ctx.mkUlt(x, ctx.bvVal(10, 8)));
    solver->add(ctx.mkUlt(ctx.bvVal(20, 8), x));
    EXPECT_EQ(solver->check(), smt::CheckResult::Unsat);
  }
  EXPECT_EQ(fresh.stats().hits, 1u);
  std::remove(path.c_str());
}

TEST(QueryCacheTest, LruEvictionAtCapacity) {
  smt::QueryCache cache(/*capacity=*/3);
  cache.insert({1, 1}, smt::CheckResult::Unsat);
  cache.insert({2, 2}, smt::CheckResult::Unsat);
  cache.insert({3, 3}, smt::CheckResult::Unsat);
  cache.insert({4, 4}, smt::CheckResult::Unsat);  // evicts {1,1}
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup({1, 1}).has_value());
  EXPECT_TRUE(cache.lookup({4, 4}).has_value());
}

TEST(QueryCacheTest, LookupRefreshesRecency) {
  smt::QueryCache cache(/*capacity=*/2);
  cache.insert({1, 1}, smt::CheckResult::Unsat);
  cache.insert({2, 2}, smt::CheckResult::Sat);
  EXPECT_TRUE(cache.lookup({1, 1}).has_value());  // {2,2} is now coldest
  cache.insert({3, 3}, smt::CheckResult::Unsat);
  EXPECT_TRUE(cache.lookup({1, 1}).has_value());
  EXPECT_FALSE(cache.lookup({2, 2}).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(QueryCacheTest, SetCapacityShrinkEvictsColdestFirst) {
  smt::QueryCache cache;  // unbounded
  for (uint64_t i = 1; i <= 4; ++i)
    cache.insert({i, i}, smt::CheckResult::Unsat);
  EXPECT_TRUE(cache.lookup({1, 1}).has_value());  // refresh the oldest
  cache.setCapacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_TRUE(cache.lookup({1, 1}).has_value());
  EXPECT_TRUE(cache.lookup({4, 4}).has_value());
  EXPECT_FALSE(cache.lookup({2, 2}).has_value());
  EXPECT_FALSE(cache.lookup({3, 3}).has_value());
}

TEST(QueryCacheTest, SinkFiresOncePerNewEntryOnly) {
  smt::QueryCache cache;
  std::vector<std::pair<smt::QueryKey, smt::CheckResult>> seen;
  cache.setSink([&](const smt::QueryKey& k, smt::CheckResult r) {
    seen.emplace_back(k, r);
  });
  cache.insert({1, 1}, smt::CheckResult::Unsat);
  cache.insert({1, 1}, smt::CheckResult::Unsat);  // refresh: no re-notify
  cache.insert({2, 2}, smt::CheckResult::Unknown);  // dropped: no notify
  cache.prime({3, 3}, smt::CheckResult::Sat);       // replay: no notify
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, (smt::QueryKey{1, 1}));
  EXPECT_EQ(seen[0].second, smt::CheckResult::Unsat);
  cache.setSink(nullptr);
  cache.insert({4, 4}, smt::CheckResult::Sat);
  EXPECT_EQ(seen.size(), 1u);
}

// ---- Engine ----------------------------------------------------------------

TEST(EngineTest, BatchResultsDeterministicAcrossJobCounts) {
  VerificationSession s(combinedSource({"vecAdd", "racyHistogram"}, 8));
  const std::vector<CheckRequest> reqs = smallBatch();

  std::vector<Outcome> baseline;
  for (unsigned jobs : {1u, 2u, 8u}) {
    EngineOptions eo;
    eo.jobs = jobs;
    VerificationEngine eng(eo);
    const std::vector<CheckResult> rs = eng.runAll(s, reqs);
    ASSERT_EQ(rs.size(), reqs.size());
    // Results arrive in request order with the request's identity echoed.
    for (size_t i = 0; i < rs.size(); ++i) {
      EXPECT_EQ(rs[i].kind, reqs[i].kind);
      EXPECT_EQ(rs[i].kernel, reqs[i].kernel);
    }
    if (jobs == 1) {
      baseline = outcomes(rs);
      // Sanity: the batch has real content, not six Unsupported.
      EXPECT_EQ(rs[3].report.outcome, Outcome::BugFound) << rs[3].label();
      EXPECT_EQ(rs[0].report.outcome, Outcome::Verified) << rs[0].label();
    } else {
      EXPECT_EQ(outcomes(rs), baseline) << "jobs=" << jobs;
    }
  }
}

TEST(EngineTest, SharedCacheHitsAcrossIdenticalChecks) {
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "vecAdd";
  r.options = fastOpts();
  const std::vector<CheckRequest> reqs = {r, r};  // identical twice

  VerificationEngine eng;
  const std::vector<CheckResult> rs = eng.runAll(s, reqs);
  EXPECT_EQ(rs[0].report.outcome, Outcome::Verified) << rs[0].report.str();
  EXPECT_EQ(rs[1].report.outcome, rs[0].report.outcome);
  EXPECT_GE(eng.cache().stats().hits, 1u) << "second run must hit the cache";
}

TEST(EngineTest, PerCheckDeadlineSurfacesUnknownWithoutPoisoningSiblings) {
  VerificationSession s(combinedSource({"vecAdd", "racyHistogram"}, 8));

  CheckRequest hard;  // real check, absurd deadline: must come back Unknown
  hard.kind = CheckKind::Races;
  hard.kernel = "racyHistogram";
  hard.options = fastOpts();
  hard.deadlineMs = 1;

  CheckRequest easy;  // no deadline: must be unaffected by the sibling
  easy.kind = CheckKind::Races;
  easy.kernel = "vecAdd";
  easy.options = fastOpts();

  EngineOptions eo;
  eo.jobs = 2;
  VerificationEngine eng(eo);
  const std::vector<CheckRequest> reqs = {hard, easy};
  const std::vector<CheckResult> rs = eng.runAll(s, reqs);
  EXPECT_EQ(rs[0].report.outcome, Outcome::Unknown) << rs[0].report.str();
  EXPECT_EQ(rs[1].report.outcome, Outcome::Verified) << rs[1].report.str();
}

TEST(EngineTest, UnknownKernelDoesNotPoisonBatch) {
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest bad;
  bad.kind = CheckKind::Races;
  bad.kernel = "noSuchKernel";
  bad.options = fastOpts();
  CheckRequest good;
  good.kind = CheckKind::Races;
  good.kernel = "vecAdd";
  good.options = fastOpts();

  VerificationEngine eng;
  const std::vector<CheckRequest> reqs = {bad, good};
  const std::vector<CheckResult> rs = eng.runAll(s, reqs);
  EXPECT_EQ(rs[0].report.outcome, Outcome::Unsupported);
  EXPECT_EQ(rs[1].report.outcome, Outcome::Verified) << rs[1].report.str();
}

TEST(EngineTest, CancelAllDrainsBatchAsUnknown) {
  VerificationSession s(combinedSource({"vecAdd", "racyHistogram"}, 8));
  VerificationEngine eng;
  eng.cancelAll();  // cancelled before the batch: every check drains fast
  const std::vector<CheckRequest> reqs = smallBatch();
  const std::vector<CheckResult> rs = eng.runAll(s, reqs);
  for (const auto& r : rs)
    EXPECT_NE(r.report.outcome, Outcome::BugFound) << r.label();
  // vecAdd's postcondition VC never reached the solver; its Unknown says
  // the engine interrupted it.
  const check::Report& post = rs[2].report;
  EXPECT_EQ(post.outcome, Outcome::Unknown) << post.str();
  EXPECT_NE(post.detail.find("undecided (interrupted)"), std::string::npos)
      << post.str();
}

TEST(EngineTest, CancelAllStopsInFlightSolve) {
  // cancelAll() must interrupt a solver call already in flight, not only
  // checks that have yet to start. The 16-bit transposeOpt race check
  // holds either backend in one solver call for tens of seconds, so the
  // cancel lands mid-solve; without the interrupt the check runs on until
  // that call returns.
  VerificationSession s(combinedSource({"transposeOpt"}, 16));
  for (smt::Backend backend : {smt::Backend::Z3, smt::Backend::Mini}) {
    SCOPED_TRACE(backend == smt::Backend::Z3 ? "z3" : "mini");
    CheckRequest r;
    r.kind = CheckKind::Races;
    r.kernel = "transposeOpt";
    r.options = fastOpts(16);
    r.options.backend = backend;
    r.options.solverTimeoutMs = 60000;
    EngineOptions eo;
    eo.maxRetries = 0;
    eo.failover = false;
    VerificationEngine eng(eo);

    using Clock = std::chrono::steady_clock;
    CheckResult res;
    Clock::time_point finished;
    std::thread worker([&] {
      res = eng.run(s, r);
      finished = Clock::now();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const Clock::time_point cancelled = Clock::now();
    eng.cancelAll();
    worker.join();
    EXPECT_LT(finished - cancelled, std::chrono::seconds(10));
    EXPECT_EQ(res.report.outcome, Outcome::Unknown) << res.report.str();
  }
}

TEST(EngineTest, SessionRunEchoesTheRequest) {
  VerificationSession s(combinedSource({"racyHistogram"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "racyHistogram";
  r.options = fastOpts();
  const CheckResult result = s.run(r);
  EXPECT_EQ(result.kind, CheckKind::Races);
  EXPECT_EQ(result.kernel, "racyHistogram");
  EXPECT_EQ(result.report.outcome, Outcome::BugFound) << result.report.str();
  EXPECT_EQ(result.report.method, "parameterized-race");
  EXPECT_GT(result.report.totalSeconds, 0.0);
  EXPECT_EQ(result.label(), "races(racyHistogram)");
  EXPECT_EQ(r.label(), result.label());
}

TEST(EngineTest, ResultJsonIsWellFormed) {
  VerificationSession s(combinedSource({"racyHistogram"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "racyHistogram";
  r.options = fastOpts();
  const std::string j = s.run(r).json();
  // Structural spot-checks (no JSON parser in-tree by design).
  EXPECT_NE(j.find("\"kind\":\"races\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"outcome\":\"bug-found\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"counterexamples\":["), std::string::npos) << j;
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'))
      << j;
}

// ---- Containment ladder ----------------------------------------------------

/// Arms a chaos spec for one test body and disarms on scope exit (the
/// registry is process-global).
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    std::string err;
    EXPECT_TRUE(fault::configure(spec, &err)) << err;
  }
  ~FaultGuard() { fault::reset(); }
};

TEST(EngineTest, DeadlineExpiryYieldsTimeoutFailureInfoNeverVerified) {
  VerificationSession s(combinedSource({"racyHistogram"}, 8));
  CheckRequest hard;
  hard.kind = CheckKind::Races;
  hard.kernel = "racyHistogram";
  hard.options = fastOpts();
  hard.deadlineMs = 1;  // expires mid-check, every attempt included
  VerificationEngine eng;
  const CheckResult r = eng.run(s, hard);
  // A deadline-clipped check must degrade, never claim Verified.
  ASSERT_EQ(r.report.outcome, Outcome::Unknown) << r.report.str();
  EXPECT_EQ(r.report.failure.kind, check::FailureKind::Timeout)
      << r.report.str();
  // The taxonomy reaches --json consumers.
  const std::string j = r.json();
  EXPECT_NE(j.find("\"failure\":{\"kind\":\"timeout\""), std::string::npos)
      << j;
}

TEST(EngineTest, RetryRecoversFromInjectedTransientTimeout) {
  FaultGuard guard("solver.check.mini=once@timeout");
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "vecAdd";
  r.options = fastOpts();
  r.options.backend = smt::Backend::Mini;
  r.options.prefilter = false;  // force real solver traffic past tier 0
  VerificationEngine eng;  // maxRetries=1 default: one retry absorbs `once`
  const CheckResult res = eng.run(s, r);
  EXPECT_EQ(res.report.outcome, Outcome::Verified) << res.report.str();
  EXPECT_EQ(res.report.failure.kind, check::FailureKind::None);
  bool caveated = false;
  for (const auto& c : res.report.caveats)
    caveated = caveated || c.find("containment") != std::string::npos;
  EXPECT_TRUE(caveated) << res.report.str();
}

TEST(EngineTest, FailoverRecoversFromPersistentBackendCrash) {
  FaultGuard guard("solver.check.mini=always@crash");
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "vecAdd";
  r.options = fastOpts();
  r.options.backend = smt::Backend::Mini;
  r.options.prefilter = false;
  EngineOptions eo;
  eo.maxRetries = 0;  // straight to the failover rung
  VerificationEngine eng(eo);
  const CheckResult res = eng.run(s, r);
  // Z3 is not armed: the alternate backend settles the check for real.
  EXPECT_EQ(res.report.outcome, Outcome::Verified) << res.report.str();
  EXPECT_EQ(res.report.failure.kind, check::FailureKind::None);
  bool caveated = false;
  for (const auto& c : res.report.caveats)
    caveated = caveated || c.find("failover") != std::string::npos;
  EXPECT_TRUE(caveated) << res.report.str();
}

TEST(EngineTest, FailoverBackendGetsItsOwnRetry) {
  // MiniSMT crashes on every attempt, so the retry goes to it and fails
  // too; Z3's first attempt then times out once. The alternate backend
  // gets its own retry and settles the check.
  FaultGuard guard(
      "solver.check.mini=always@crash,solver.check.z3=once@timeout");
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "vecAdd";
  r.options = fastOpts();
  r.options.backend = smt::Backend::Mini;
  r.options.prefilter = false;
  VerificationEngine eng;  // default maxRetries = 1
  const CheckResult res = eng.run(s, r);
  EXPECT_EQ(res.report.outcome, Outcome::Verified) << res.report.str();
  EXPECT_EQ(res.report.failure.kind, check::FailureKind::None);
  bool caveated = false;
  for (const auto& c : res.report.caveats)
    caveated = caveated || c.find("failover") != std::string::npos;
  EXPECT_TRUE(caveated) << res.report.str();
}

TEST(EngineTest, ExhaustedLadderDegradesWithStructuredFailureInfo) {
  FaultGuard guard("solver.check.mini=always@timeout");
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "vecAdd";
  r.options = fastOpts();
  r.options.backend = smt::Backend::Mini;
  r.options.prefilter = false;
  EngineOptions eo;
  eo.maxRetries = 0;
  eo.failover = false;  // every rung disabled: the degrade rung answers
  VerificationEngine eng(eo);
  const CheckResult res = eng.run(s, r);
  EXPECT_EQ(res.report.outcome, Outcome::Unknown) << res.report.str();
  EXPECT_EQ(res.report.failure.kind, check::FailureKind::Timeout);
  EXPECT_EQ(res.report.failure.retries, 0u);
  EXPECT_FALSE(res.report.failure.failedOver);
  EXPECT_FALSE(res.report.failure.detail.empty());
}

TEST(EngineTest, PerfUndecidedQueriesAreNeverVerified) {
  // Every Z3 query times out, and no rung of the ladder may answer in its
  // place: the bank conflict transposeOpt has at 8 bits stays undecided,
  // which must not read as "no conflict".
  FaultGuard guard("solver.check.z3=always@timeout");
  VerificationSession s(combinedSource({"transposeOpt"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Performance;
  r.kernel = "transposeOpt";
  r.options = fastOpts();
  r.options.backend = smt::Backend::Z3;
  EngineOptions eo;
  eo.maxRetries = 0;
  eo.failover = false;
  VerificationEngine eng(eo);
  const CheckResult res = eng.run(s, r);
  EXPECT_EQ(res.report.outcome, Outcome::Unknown) << res.report.str();
  EXPECT_NE(res.report.detail.find("undecided"), std::string::npos)
      << res.report.str();
}

TEST(EngineTest, InjectedCrashWithoutLadderYieldsBackendCrashFailure) {
  FaultGuard guard("solver.check.mini=always@crash");
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  CheckRequest r;
  r.kind = CheckKind::Races;
  r.kernel = "vecAdd";
  r.options = fastOpts();
  r.options.backend = smt::Backend::Mini;
  r.options.prefilter = false;
  EngineOptions eo;
  eo.maxRetries = 0;
  eo.failover = false;
  VerificationEngine eng(eo);
  const CheckResult res = eng.run(s, r);
  EXPECT_EQ(res.report.outcome, Outcome::Unknown) << res.report.str();
  EXPECT_EQ(res.report.failure.kind, check::FailureKind::BackendCrash);
}

}  // namespace
}  // namespace pugpara
