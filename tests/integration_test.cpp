// Cross-module integration and property tests:
//  * verified-implies-concretely-equal: whenever a checker PROVES
//    equivalence, the VM must agree on random inputs (and vice versa for
//    found bugs, via replay);
//  * postcondition checks across grids for every specified corpus kernel;
//  * mutant sweeps where symbolic verdicts and concrete differential
//    testing must never contradict each other.
#include <gtest/gtest.h>

#include <cstring>

#include "check/session.h"
#include "exec/compiler.h"
#include "exec/machine.h"
#include "kernels/corpus.h"
#include "kernels/mutate.h"
#include "support/rng.h"

namespace pugpara {
namespace {

using check::CheckKind;
using check::CheckOptions;
using check::Method;
using check::Outcome;
using check::Report;
using check::VerificationSession;

/// Runs two kernels on the same random inputs; true when all outputs match.
bool concretelyEqual(const lang::Kernel& a, const lang::Kernel& b,
                     const encode::GridConfig& grid, uint32_t width,
                     uint64_t seed) {
  auto ca = exec::compile(a);
  auto cb = exec::compile(b);
  exec::LaunchParams p;
  p.grid = {grid.gdimX, grid.gdimY, 1};
  p.block = {grid.bdimX, grid.bdimY, grid.bdimZ};
  p.width = width;
  SplitMix64 rng(seed);
  std::vector<exec::Buffer> ba, bb;
  const size_t cells = size_t{1} << std::min(width, 12u);
  for (const auto& param : a.params) {
    if (param->type.isPointer) {
      exec::Buffer buf(param->name, cells);
      for (size_t i = 0; i < cells; ++i)
        buf.store(i, expr::maskToWidth(rng.next(), width));
      ba.push_back(buf);
      bb.push_back(buf);
    } else {
      p.scalarArgs.push_back(grid.gdimX * grid.bdimX);  // size-like scalars
    }
  }
  auto ra = exec::launch(ca, p, ba);
  auto rb = exec::launch(cb, p, bb);
  if (!ra.completed || !rb.completed) return ra.completed == rb.completed;
  for (size_t i = 0; i < ba.size(); ++i)
    if (ba[i].raw() != bb[i].raw()) return false;
  return true;
}

// ---- Verified equivalence implies concrete equality ---------------------------

TEST(SoundnessTest, VerifiedPairsAgreeConcretely) {
  struct PairCase {
    const char* a;
    const char* b;
    encode::GridConfig grid;
  };
  const PairCase cases[] = {
      {"transposeNaive", "transposeOpt", {2, 2, 4, 4, 1}},
      {"reduceMod", "reduceStrided", {2, 1, 8, 1, 1}},
      {"reduceMod", "reduceSequential", {2, 1, 8, 1, 1}},
  };
  for (const auto& c : cases) {
    VerificationSession s(kernels::combinedSource({c.a, c.b}, 16));
    CheckOptions o;
    o.method = Method::NonParameterized;
    o.width = 16;
    o.grid = c.grid;
    Report r = s.run({CheckKind::Equivalence, c.a, c.b, o, {}, 0}).report;
    ASSERT_EQ(r.outcome, Outcome::Verified) << c.a << " vs " << c.b << ": "
                                            << r.str();
    for (uint64_t seed = 1; seed <= 8; ++seed)
      EXPECT_TRUE(concretelyEqual(s.kernel(c.a), s.kernel(c.b), c.grid, 16,
                                  seed))
          << c.a << " vs " << c.b << " seed " << seed;
  }
}

// ---- Mutant sweep: symbolic and concrete verdicts must be consistent ----------

class MutantSweep
    : public ::testing::TestWithParam<kernels::MutationKind> {};

TEST_P(MutantSweep, SymbolicVerdictNeverContradictsConcreteRuns) {
  const uint32_t width = 12;
  const encode::GridConfig grid{2, 1, 4, 1, 1};
  auto base = lang::parseAndAnalyze(
      kernels::combinedSource({"reduceStrided"}, width));
  const lang::Kernel& original = *base->kernels[0];

  const size_t sites =
      std::min<size_t>(kernels::countSites(original, GetParam()), 3);
  for (size_t site = 0; site < sites; ++site) {
    auto prog = lang::parseAndAnalyze(
        kernels::combinedSource({"reduceStrided"}, width));
    auto mutant = kernels::mutateAt(*prog->kernels[0], GetParam(), site);
    std::string name = mutant.kernel->name;
    std::string description = mutant.description;
    prog->kernels.push_back(std::move(mutant.kernel));
    VerificationSession s(std::move(prog));

    CheckOptions o;
    o.method = Method::NonParameterized;
    o.width = width;
    o.grid = grid;
    o.solverTimeoutMs = 15000;  // hard mutants may time out; Unknown is fine
    o.replayCounterexamples = false;  // this test runs its own differential
    Report r = s.run({CheckKind::Equivalence, "reduceStrided", name, o, {}, 0})
                   .report;

    // Concrete differential over several random inputs.
    bool anyDiff = false;
    for (uint64_t seed = 1; seed <= 6 && !anyDiff; ++seed)
      anyDiff = !concretelyEqual(s.kernel("reduceStrided"), s.kernel(name),
                                 grid, width, seed);

    if (r.outcome == Outcome::Verified) {
      // Proven equivalent: no input may distinguish them.
      EXPECT_FALSE(anyDiff) << description;
    } else if (anyDiff && r.outcome != Outcome::Unknown) {
      // Concretely different: the checker must not claim equivalence.
      EXPECT_EQ(r.outcome, Outcome::BugFound) << description;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MutantSweep,
    ::testing::Values(kernels::MutationKind::AddressOffByOne,
                      kernels::MutationKind::GuardNegate,
                      kernels::MutationKind::CompareSwap,
                      kernels::MutationKind::ArithSwap,
                      kernels::MutationKind::ConstantTweak),
    [](const auto& info) {
      std::string name = kernels::toString(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---- Postconditions across grids ------------------------------------------------

class PostcondGrid : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PostcondGrid, SpecifiedCorpusKernelsHoldOnEveryGrid) {
  const uint32_t n = GetParam();
  // vecAdd is linear and checks quickly at 16 bits; saxpy multiplies a
  // symbolic scalar into symbolic data, the exact bit-width sensitivity the
  // paper reports ("we must concretize some of the symbolic variables") —
  // 8 bits keeps the multiplier miter tractable.
  struct KernelWidth { const char* name; uint32_t width; };
  for (KernelWidth kw : {KernelWidth{"vecAdd", 16}, KernelWidth{"saxpy", 8}}) {
    VerificationSession s(kernels::combinedSource({kw.name}, kw.width));
    CheckOptions o;
    o.method = Method::NonParameterized;
    o.width = kw.width;
    o.grid = encode::GridConfig{n / 4, 1, 4, 1, 1};
    o.solverTimeoutMs = 60000;
    Report r = s.run({CheckKind::Postconditions, kw.name, "", o, {}, 0}).report;
    EXPECT_EQ(r.outcome, Outcome::Verified) << kw.name << " n=" << n << ": "
                                            << r.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PostcondGrid,
                         ::testing::Values(4u, 8u, 16u, 32u));

TEST(PostcondTest, TransposePostcondAcrossGrids) {
  VerificationSession s(kernels::combinedSource({"transposeNaive"}, 16));
  for (encode::GridConfig grid :
       {encode::GridConfig{1, 1, 2, 2, 1}, encode::GridConfig{2, 2, 2, 2, 1},
        encode::GridConfig{1, 2, 4, 2, 1}}) {
    CheckOptions o;
    o.method = Method::NonParameterized;
    o.width = 16;
    o.grid = grid;
    Report r = s.run({CheckKind::Postconditions, "transposeNaive", "", o,
                      {}, 0}).report;
    EXPECT_EQ(r.outcome, Outcome::Verified) << grid.str() << ": " << r.str();
  }
}

// ---- Non-parameterized self-equivalence of the loop-heavy kernels --------------

TEST(SelfEquivalenceTest, ScanAndBitonicAgainstThemselves) {
  for (const char* name : {"scanNaive", "bitonicSort"}) {
    // A renamed copy of the same kernel must be provably equivalent.
    std::string src = kernels::combinedSource({name}, 12);
    std::string copy = src;
    size_t pos = copy.find(name);
    ASSERT_NE(pos, std::string::npos);
    copy.replace(pos, std::strlen(name), std::string(name) + "B");
    VerificationSession s(src + copy);
    CheckOptions o;
    o.method = Method::NonParameterized;
    o.width = 12;
    o.grid = encode::GridConfig{1, 1, 8, 1, 1};
    Report r = s.run({CheckKind::Equivalence, name, std::string(name) + "B", o,
                      {}, 0}).report;
    EXPECT_EQ(r.outcome, Outcome::Verified) << name << ": " << r.str();
  }
}

// ---- Failure-path behavior -------------------------------------------------------

TEST(FailureModeTest, UnknownKernelNameThrows) {
  VerificationSession s("void k(int *a) { a[0] = 1; }");
  EXPECT_THROW((void)s.kernel("nope"), PugError);
}

TEST(FailureModeTest, FrontEndErrorsSurfaceInConstructor) {
  EXPECT_THROW(VerificationSession s("void k(int *a) { a[0] = ; }"),
               PugError);
  EXPECT_THROW(VerificationSession s("void k(int *a) { b[0] = 1; }"),
               PugError);
}

TEST(FailureModeTest, NonParamWithoutGridIsUnsupported) {
  VerificationSession s(kernels::combinedSource({"vecAdd"}, 8));
  CheckOptions o;
  o.method = Method::NonParameterized;  // no grid provided
  Report r = s.run({CheckKind::Postconditions, "vecAdd", "", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Unsupported);
}

TEST(FailureModeTest, MismatchedSignaturesRejected) {
  VerificationSession s(R"(
void a(int *x) { x[0] = 1; }
void b(int *x, int *y) { x[0] = 1; y[0] = 1; }
)");
  CheckOptions o;
  o.width = 8;
  Report r = s.run({CheckKind::Equivalence, "a", "b", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Unsupported);
}

TEST(FailureModeTest, ParamUnsupportedShapesReportCleanly) {
  // Nested barrier loops: the parameterized method must refuse with a
  // diagnostic, not crash or mis-verify.
  VerificationSession s(kernels::combinedSource({"bitonicSort"}, 12));
  CheckOptions o;
  o.method = Method::Parameterized;
  o.width = 12;
  Report r = s.run({CheckKind::Races, "bitonicSort", "", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Unsupported);
  EXPECT_NE(r.detail.find("nested"), std::string::npos) << r.detail;
}

// ---- Assertion checking through the session -----------------------------------

TEST(AssertIntegrationTest, GuardedAccessPatternVerified) {
  const char* src = R"(
void guarded(int *a, int n) {
  assume(n == gdim.x * bdim.x && bdim.y == 1 && bdim.z == 1 && gdim.y == 1);
  int i = bid.x * bdim.x + tid.x;
  if (i < n) {
    assert(i >= 0 && i < n);
    a[i] = i;
  }
}
)";
  VerificationSession s(src);
  CheckOptions o;
  o.method = Method::Parameterized;
  o.width = 8;
  Report r = s.run({CheckKind::Asserts, "guarded", "", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(AssertIntegrationTest, OffByOneGuardCaught) {
  const char* src = R"(
void guarded(int *a, int n) {
  assume(n == gdim.x * bdim.x && bdim.y == 1 && bdim.z == 1 && gdim.y == 1);
  int i = bid.x * bdim.x + tid.x;
  if (i <= n) {
    assert(i < n);
    a[i % n] = i;
  }
}
)";
  VerificationSession s(src);
  CheckOptions o;
  o.method = Method::Parameterized;
  o.width = 8;
  Report r = s.run({CheckKind::Asserts, "guarded", "", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
}

TEST(AssertIntegrationTest, NonParamViolationCarriesWitness) {
  // The fourth thread of the grid breaks the assert; the concrete-grid
  // check must report it with the launch that does.
  const char* src = R"(
void guarded(int *a) {
  int i = bid.x * bdim.x + tid.x;
  assert(i < 3);
  a[i] = i;
}
)";
  VerificationSession s(src);
  CheckOptions o;
  o.method = Method::NonParameterized;
  o.width = 8;
  o.grid = encode::GridConfig{1, 1, 4, 1, 1};
  Report r = s.run({CheckKind::Asserts, "guarded", "", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  ASSERT_EQ(r.counterexamples.size(), 1u) << r.str();
  const check::Counterexample& cex = r.counterexamples[0];
  EXPECT_EQ(cex.bdimX, 4u) << r.str();
  EXPECT_EQ(cex.bdimY, 1u) << r.str();
  EXPECT_EQ(cex.bdimZ, 1u) << r.str();
}

}  // namespace
}  // namespace pugpara
