// Fuzz suite for the MiniSMT raw-speed techniques. Every technique (LBD
// clause management, chronological backtracking, inprocessing, word-level
// rewriting) is toggled independently and the solver is cross-checked
// against ground truth: exhaustive enumeration for random CNF at the SAT
// core, Z3 for random bit-vector formulas at the Solver interface.
// Incremental interleavings of addClause and solve(assumptions)
// specifically target the inprocessing/incrementality interaction —
// variable elimination must never lose a clause that a later assumption
// still needs (the restore-on-mention path).
#include <gtest/gtest.h>

#include <vector>

#include "expr/context.h"
#include "expr/eval.h"
#include "smt/mini/sat_solver.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace pugpara::smt {
namespace {

using expr::Context;
using expr::Expr;
using expr::Sort;
using mini::Lit;
using mini::SatConfig;
using mini::SatResult;
using mini::SatSolver;
using mini::Var;

// ---- Ground truth for CNF: exhaustive enumeration ---------------------------------

bool clauseSat(const std::vector<Lit>& clause, uint64_t assignment) {
  for (Lit l : clause) {
    const bool v = (assignment >> l.var()) & 1;
    if (v != l.negated()) return true;
  }
  return false;
}

/// Is there an assignment satisfying all clauses and all assumption
/// literals? nVars <= 20.
bool bruteForceSat(uint32_t nVars, const std::vector<std::vector<Lit>>& cnf,
                   const std::vector<Lit>& assumptions = {}) {
  for (uint64_t a = 0; a < (uint64_t{1} << nVars); ++a) {
    bool ok = true;
    for (Lit l : assumptions)
      if (((a >> l.var()) & 1) == l.negated()) {
        ok = false;
        break;
      }
    for (size_t i = 0; ok && i < cnf.size(); ++i)
      if (!clauseSat(cnf[i], a)) ok = false;
    if (ok) return true;
  }
  return false;
}

std::vector<Lit> randomClause(SplitMix64& rng, uint32_t nVars) {
  const size_t len = 1 + rng.below(3);
  std::vector<Lit> c;
  for (size_t i = 0; i < len; ++i)
    c.emplace_back(static_cast<Var>(rng.below(nVars)), rng.below(2) == 0);
  return c;
}

/// The toggle matrix: every technique off in turn, plus a configuration
/// with short restart and chronological-backtracking thresholds, so tiny
/// CNFs reach restarts and chronological backtracking.
std::vector<SatConfig> configMatrix() {
  std::vector<SatConfig> out;
  SatConfig base;
  out.push_back(base);  // everything on
  SatConfig noLbd = base;
  noLbd.lbdReduce = false;
  out.push_back(noLbd);
  SatConfig noChrono = base;
  noChrono.chrono = false;
  out.push_back(noChrono);
  SatConfig noInproc = base;
  noInproc.inprocess = false;
  out.push_back(noInproc);
  SatConfig allOff = base;
  allOff.lbdReduce = allOff.chrono = allOff.inprocess = false;
  out.push_back(allOff);
  SatConfig eager = base;
  eager.restartBase = 16;
  eager.chronoDistance = 4;
  out.push_back(eager);
  return out;
}

class SatFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatFuzz, RandomCnfMatchesBruteForceUnderEveryConfig) {
  SplitMix64 rng(GetParam() * 0x9e3779b9 + 1);
  const uint32_t nVars = 6 + static_cast<uint32_t>(rng.below(7));
  const size_t nClauses = nVars * 3 + rng.below(nVars * 2);
  std::vector<std::vector<Lit>> cnf;
  for (size_t i = 0; i < nClauses; ++i)
    cnf.push_back(randomClause(rng, nVars));
  const bool expect = bruteForceSat(nVars, cnf);

  for (const SatConfig& cfg : configMatrix()) {
    SatSolver s(cfg);
    for (uint32_t v = 0; v < nVars; ++v) s.newVar();
    bool rootOk = true;
    for (const auto& c : cnf) rootOk = s.addClause(c) && rootOk;
    const SatResult r = rootOk ? s.solve() : SatResult::Unsat;
    ASSERT_EQ(r, expect ? SatResult::Sat : SatResult::Unsat)
        << "seed " << GetParam() << " nVars " << nVars;
    if (r == SatResult::Sat) {
      uint64_t a = 0;
      for (uint32_t v = 0; v < nVars; ++v)
        if (s.modelValue(v)) a |= uint64_t{1} << v;
      for (const auto& c : cnf)
        ASSERT_TRUE(clauseSat(c, a)) << "model violates clause, seed "
                                     << GetParam();
    }
  }
}

TEST_P(SatFuzz, IncrementalInterleavingsKeepAssumptionClauses) {
  // Alternate clause batches with assumption solves. Inprocessing runs
  // between solves and may eliminate variables that only later become
  // assumptions or reappear in new clauses — both must be restored, and
  // no verdict may ever differ from ground truth on the full clause set.
  SplitMix64 rng(GetParam() * 0x51ed2701 + 7);
  const uint32_t nVars = 6 + static_cast<uint32_t>(rng.below(5));
  for (const SatConfig& cfg : configMatrix()) {
    SatSolver s(cfg);
    for (uint32_t v = 0; v < nVars; ++v) s.newVar();
    std::vector<std::vector<Lit>> cnf;
    bool rootOk = true;
    for (int round = 0; round < 6; ++round) {
      const size_t batch = 1 + rng.below(4);
      for (size_t i = 0; i < batch; ++i) {
        cnf.push_back(randomClause(rng, nVars));
        rootOk = s.addClause(cnf.back()) && rootOk;
      }
      std::vector<Lit> assume;
      const size_t nAssume = rng.below(3);
      for (size_t i = 0; i < nAssume; ++i)
        assume.emplace_back(static_cast<Var>(rng.below(nVars)),
                            rng.below(2) == 0);
      const bool expect = bruteForceSat(nVars, cnf, assume);
      const SatResult r = rootOk ? s.solve(assume) : SatResult::Unsat;
      ASSERT_EQ(r, expect ? SatResult::Sat : SatResult::Unsat)
          << "seed " << GetParam() << " round " << round;
      if (r == SatResult::Sat) {
        uint64_t a = 0;
        for (uint32_t v = 0; v < nVars; ++v)
          if (s.modelValue(v)) a |= uint64_t{1} << v;
        for (Lit l : assume)
          ASSERT_TRUE(clauseSat({l}, a)) << "assumption violated";
        for (const auto& c : cnf)
          ASSERT_TRUE(clauseSat(c, a)) << "clause violated after round "
                                       << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatFuzz, ::testing::Range<uint64_t>(0, 25));

// ---- Variable elimination: restore and freeze ------------------------------------

TEST(SatInprocessTest, EliminatedVariableIsRestoredForAssumptions) {
  // v occurs in exactly (v ∨ a) and (¬v ∨ b): a textbook no-growth
  // elimination candidate (single resolvent a ∨ b). After the first solve
  // eliminates it, assuming ¬a forces v and b through the ORIGINAL
  // clauses — the solver must restore them, not answer from the resolvent
  // alone.
  SatSolver s;
  const Var v = s.newVar(), a = s.newVar(), b = s.newVar();
  s.addClause({Lit(v, false), Lit(a, false)});
  s.addClause({Lit(v, true), Lit(b, false)});
  ASSERT_EQ(s.solve(), SatResult::Sat);

  std::vector<Lit> assume = {Lit(a, true)};
  ASSERT_EQ(s.solve(assume), SatResult::Sat);
  EXPECT_FALSE(s.modelValue(a));
  EXPECT_TRUE(s.modelValue(v));  // (v ∨ a) with ¬a
  EXPECT_TRUE(s.modelValue(b));  // (¬v ∨ b) with v

  assume = {Lit(a, true), Lit(b, true)};
  EXPECT_EQ(s.solve(assume), SatResult::Unsat);
}

TEST(SatInprocessTest, FrozenVariableIsNeverEliminated) {
  SatSolver s;
  const Var v = s.newVar(), a = s.newVar(), b = s.newVar();
  s.setFrozen(v);
  s.addClause({Lit(v, false), Lit(a, false)});
  s.addClause({Lit(v, true), Lit(b, false)});
  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.isFrozen(v));
  EXPECT_FALSE(s.isEliminated(v));
}

TEST(SatInprocessTest, ModelCoversEliminatedVariables) {
  // A chain x0 -> x1 -> ... -> x7 where the interior variables are prime
  // elimination candidates. After solving, EVERY variable must have a
  // model value consistent with the original chain.
  SatSolver s;
  const int n = 8;
  std::vector<Var> x;
  for (int i = 0; i < n; ++i) x.push_back(s.newVar());
  for (int i = 0; i + 1 < n; ++i)
    s.addClause({Lit(x[i], true), Lit(x[i + 1], false)});  // x_i -> x_{i+1}
  s.addClause({Lit(x[0], false)});                         // x0
  ASSERT_EQ(s.solve(), SatResult::Sat);
  for (int i = 0; i < n; ++i)
    EXPECT_TRUE(s.modelValue(x[i])) << "x" << i;
}

// ---- Bit-vector fuzz: every MiniTuning variant against Z3 ------------------------

struct TuningCase {
  const char* name;
  MiniTuning tuning;
};

std::vector<TuningCase> tuningMatrix() {
  MiniTuning on;  // defaults: everything on
  MiniTuning noLbd = on;
  noLbd.lbd = false;
  MiniTuning noChrono = on;
  noChrono.chrono = false;
  MiniTuning noInproc = on;
  noInproc.inprocess = false;
  MiniTuning noRewrite = on;
  noRewrite.rewrite = false;
  MiniTuning allOff = on;
  allOff.lbd = allOff.chrono = allOff.inprocess = allOff.rewrite = false;
  return {{"on", on},           {"noLbd", noLbd},
          {"noChrono", noChrono}, {"noInproc", noInproc},
          {"noRewrite", noRewrite}, {"allOff", allOff}};
}

class BvFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BvFuzz, RandomFormulasAgreeWithZ3UnderEveryTuning) {
  SplitMix64 rng(GetParam() * 2654435761 + 3);
  Context ctx;
  const uint32_t width = 4 + static_cast<uint32_t>(rng.below(10));
  Sort bv = Sort::bv(width);
  std::vector<Expr> pool = {ctx.var("x", bv), ctx.var("y", bv),
                            ctx.var("z", bv), ctx.bvVal(rng.next(), width),
                            ctx.bvVal(rng.below(8), width),
                            ctx.bvVal(1, width)};
  using K = expr::Kind;
  const K ops[] = {K::BvAdd, K::BvSub,  K::BvMul,  K::BvAnd, K::BvOr,
                   K::BvXor, K::BvShl,  K::BvLShr, K::BvAShr, K::BvUDiv,
                   K::BvURem};
  for (int i = 0; i < 12; ++i) {
    Expr a = pool[rng.below(pool.size())];
    Expr b = pool[rng.below(pool.size())];
    pool.push_back(ctx.mkBvBin(ops[rng.below(std::size(ops))], a, b));
  }
  std::vector<Expr> constraints;
  for (int i = 0; i < 3; ++i) {
    Expr a = pool[rng.below(pool.size())];
    Expr b = pool[rng.below(pool.size())];
    switch (rng.below(4)) {
      case 0: constraints.push_back(ctx.mkEq(a, b)); break;
      case 1: constraints.push_back(ctx.mkUlt(a, b)); break;
      case 2: constraints.push_back(ctx.mkSlt(a, b)); break;
      default: constraints.push_back(ctx.mkNe(a, b)); break;
    }
  }

  auto z3 = makeZ3Solver();
  for (Expr c : constraints) z3->add(c);
  const CheckResult rz = z3->check();

  for (const TuningCase& tc : tuningMatrix()) {
    auto mini = makeMiniSolver(tc.tuning);
    mini->setTimeoutMs(30000);
    for (Expr c : constraints) mini->add(c);
    const CheckResult rm = mini->check();
    ASSERT_NE(rm, CheckResult::Unknown)
        << tc.name << " seed " << GetParam();
    EXPECT_EQ(rz, rm) << tc.name << " seed " << GetParam() << " width "
                      << width;
    if (rm == CheckResult::Sat) {
      auto m = mini->model();
      expr::Env env;
      for (const char* name : {"x", "y", "z"}) {
        Expr v = ctx.var(name, bv);
        env.bindBv(v, m->evalBv(v));
      }
      for (Expr c : constraints)
        EXPECT_TRUE(expr::evalBool(c, env))
            << tc.name << " model violates constraint, seed " << GetParam();
    }
  }
}

TEST_P(BvFuzz, IncrementalCheckAssumingAgreesWithZ3) {
  // Shared prefix + per-query assumptions, the engine's hot path. The
  // rewriter runs on assumptions too, and inprocessing runs between the
  // checkAssuming calls on the mini side.
  SplitMix64 rng(GetParam() * 0xdeadbeef + 11);
  Context ctx;
  const uint32_t width = 4 + static_cast<uint32_t>(rng.below(6));
  Sort bv = Sort::bv(width);
  Expr x = ctx.var("x", bv), y = ctx.var("y", bv), z = ctx.var("z", bv);
  std::vector<Expr> pool = {x, y, z, ctx.bvVal(rng.next(), width)};
  using K = expr::Kind;
  const K ops[] = {K::BvAdd, K::BvSub, K::BvMul, K::BvXor, K::BvShl};
  for (int i = 0; i < 6; ++i) {
    Expr a = pool[rng.below(pool.size())];
    Expr b = pool[rng.below(pool.size())];
    pool.push_back(ctx.mkBvBin(ops[rng.below(std::size(ops))], a, b));
  }
  Expr prefix = ctx.mkUlt(pool[rng.below(pool.size())],
                          pool[rng.below(pool.size())]);

  for (const TuningCase& tc : tuningMatrix()) {
    auto z3 = makeZ3Solver();
    auto mini = makeMiniSolver(tc.tuning);
    mini->setTimeoutMs(30000);
    z3->add(prefix);
    mini->add(prefix);
    for (int q = 0; q < 4; ++q) {
      Expr a = pool[rng.below(pool.size())];
      Expr b = pool[rng.below(pool.size())];
      Expr assumption = q % 2 == 0 ? ctx.mkEq(a, b) : ctx.mkUlt(a, b);
      std::vector<Expr> assume = {assumption};
      const CheckResult rz = z3->checkAssuming(assume);
      const CheckResult rm = mini->checkAssuming(assume);
      ASSERT_NE(rm, CheckResult::Unknown)
          << tc.name << " seed " << GetParam() << " query " << q;
      EXPECT_EQ(rz, rm) << tc.name << " seed " << GetParam() << " query "
                        << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BvFuzz, ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace pugpara::smt
