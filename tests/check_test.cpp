// End-to-end tests of the top-level checkers (the tool's public face):
// equivalence, postconditions, races, performance bugs, counterexample
// replay — on the built-in kernel corpus.
#include <gtest/gtest.h>

#include "check/session.h"
#include "kernels/corpus.h"
#include "kernels/mutate.h"

namespace pugpara::check {
namespace {

using kernels::combinedSource;

CheckOptions paramOpts(uint32_t width = 8) {
  CheckOptions o;
  o.method = Method::Parameterized;
  o.width = width;
  o.solverTimeoutMs = 120000;
  return o;
}

TEST(EquivCheckerTest, TransposePlusCVerifiedParametrically) {
  VerificationSession s(
      combinedSource({"transposeNaive", "transposeOpt"}, 8));
  CheckOptions o = paramOpts(8);
  o.concretize = {{"bdim.x", 4}, {"bdim.y", 4}, {"bdim.z", 1}};
  Report r = s.run({CheckKind::Equivalence, "transposeNaive", "transposeOpt", o,
                    {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(EquivCheckerTest, NonSquareHiddenAssumptionRevealed) {
  // Without the square-block assumption the optimized kernel is wrong for
  // some configurations — PUGpara finds one and replay confirms it.
  VerificationSession s(
      combinedSource({"transposeNaive", "transposeOptNoSquare"}, 8));
  CheckOptions o = paramOpts(8);
  o.method = Method::ParameterizedBugHunt;
  Report r = s.run({CheckKind::Equivalence, "transposeNaive",
                    "transposeOptNoSquare", o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  ASSERT_FALSE(r.counterexamples.empty());
  EXPECT_TRUE(r.counterexamples[0].replayConfirmed) << r.str();
  // The witness block must indeed be non-square.
  EXPECT_NE(r.counterexamples[0].bdimX, r.counterexamples[0].bdimY);
}

TEST(EquivCheckerTest, ReductionLoopAlignedVerified) {
  VerificationSession s(combinedSource({"reduceMod", "reduceStrided"}, 8));
  Report r = s.run({CheckKind::Equivalence, "reduceMod", "reduceStrided",
                    paramOpts(8), {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(EquivCheckerTest, SequentialReductionNeedsNonParam) {
  // Interleaved vs sequential addressing is NOT per-iteration equivalent;
  // the parameterized alignment cannot conclude, but the non-parameterized
  // method proves it for a concrete grid (the paper's fallback).
  VerificationSession s(
      combinedSource({"reduceMod", "reduceSequential"}, 12));
  CheckOptions o = paramOpts(12);
  Report rp = s.run({CheckKind::Equivalence, "reduceMod", "reduceSequential", o,
                     {}, 0}).report;
  EXPECT_NE(rp.outcome, Outcome::Verified);
  EXPECT_NE(rp.outcome, Outcome::BugFound) << rp.str();

  o.method = Method::NonParameterized;
  o.grid = encode::GridConfig{1, 1, 8, 1, 1};
  Report rn = s.run({CheckKind::Equivalence, "reduceMod", "reduceSequential", o,
                     {}, 0}).report;
  EXPECT_EQ(rn.outcome, Outcome::Verified) << rn.str();
}

TEST(EquivCheckerTest, MutatedReductionCaughtAndReplayed) {
  VerificationSession base(combinedSource({"reduceStrided"}, 8));
  auto mutant = kernels::mutateAt(base.kernel("reduceStrided"),
                                  kernels::MutationKind::AddressOffByOne, 2);
  auto prog = lang::parseAndAnalyze(combinedSource({"reduceStrided"}, 8));
  prog->kernels.push_back(std::move(mutant.kernel));
  VerificationSession s(std::move(prog));

  // Shifting the write address moves the write SET, which bug-hunt mode
  // cannot see (it assumes every read has a writer — the paper's
  // under-approximation); the exact frame encoding catches it.
  CheckOptions o = paramOpts(8);
  Report r = s.run({CheckKind::Equivalence, "reduceStrided",
                    s.program().kernels[1]->name, o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  ASSERT_FALSE(r.counterexamples.empty());
  EXPECT_TRUE(r.counterexamples[0].replayConfirmed) << r.str();
}

TEST(EquivCheckerTest, NonParamBitonicSelfEquivalence) {
  // Nested barrier loops: parameterized mode refuses, Auto falls back to
  // the concrete grid and verifies the (trivially true) self-equivalence.
  VerificationSession s(combinedSource({"bitonicSort"}, 12) +
                        combinedSource({"bitonicSort"}, 12)
                            .replace(combinedSource({"bitonicSort"}, 12)
                                         .find("bitonicSort"),
                                     strlen("bitonicSort"), "bitonicSortB"));
  CheckOptions o;
  o.method = Method::Auto;
  o.width = 12;
  o.grid = encode::GridConfig{1, 1, 4, 1, 1};
  Report r = s.run({CheckKind::Equivalence, "bitonicSort", "bitonicSortB", o,
                    {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
  EXPECT_EQ(r.method, "non-parameterized");

  // At 5 threads the solver finds a witness against this self-equivalence
  // that the VM refutes. A refuted witness is no bug: the check ends open
  // and keeps the witness with its replay verdict.
  o.method = Method::NonParameterized;
  o.backend = smt::Backend::Z3;
  o.grid = encode::GridConfig{1, 1, 5, 1, 1};
  Report five = s.run({CheckKind::Equivalence, "bitonicSort", "bitonicSortB",
                       o, {}, 0}).report;
  EXPECT_EQ(five.outcome, Outcome::Unknown) << five.str();
  ASSERT_EQ(five.counterexamples.size(), 1u) << five.str();
  EXPECT_TRUE(five.counterexamples[0].replayed) << five.str();
  EXPECT_FALSE(five.counterexamples[0].replayConfirmed) << five.str();
}


TEST(EquivCheckerTest, ReverseFullySymbolicEquivalence) {
  // Linear addressing: the parameterized method proves this optimization
  // with NOTHING concretized — thread count, block size, sizes and inputs
  // all symbolic (the case the transpose needs "+C" for).
  VerificationSession s(combinedSource({"reverseNaive", "reverseOpt"}, 8));
  Report r = s.run({CheckKind::Equivalence, "reverseNaive", "reverseOpt",
                    paramOpts(8), {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(PerfCheckerTest, ReversePairCoalescingContrast) {
  CheckOptions o = paramOpts(8);
  VerificationSession naive(combinedSource({"reverseNaive"}, 8));
  Report rn = naive.run({CheckKind::Performance, "reverseNaive", "", o, {}, 0})
                  .report;
  EXPECT_EQ(rn.outcome, Outcome::BugFound) << rn.str();
  VerificationSession opt(combinedSource({"reverseOpt"}, 8));
  Report ro = opt.run({CheckKind::Performance, "reverseOpt", "", o, {}, 0})
                  .report;
  EXPECT_EQ(ro.outcome, Outcome::Verified) << ro.str();
}

TEST(PostcondCheckerTest, VecAddVerifiedParametrically) {
  VerificationSession s(combinedSource({"vecAdd"}, 8));
  Report r = s.run({CheckKind::Postconditions, "vecAdd", "", paramOpts(8),
                    {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(PostcondCheckerTest, SaxpyMutantCaughtWithReplay) {
  VerificationSession base(combinedSource({"saxpy"}, 8));
  auto mutant = kernels::mutateAt(base.kernel("saxpy"),
                                  kernels::MutationKind::ArithSwap, 1);
  auto prog = std::make_unique<lang::Program>();
  prog->kernels.push_back(std::move(mutant.kernel));
  VerificationSession s(std::move(prog));
  CheckOptions o = paramOpts(8);
  Report r = s.run({CheckKind::Postconditions, s.program().kernels[0]->name, "",
                    o, {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  ASSERT_FALSE(r.counterexamples.empty());
  EXPECT_TRUE(r.counterexamples[0].replayConfirmed) << r.str();
}

TEST(PostcondCheckerTest, ReplayBindsWitnessesInFirstReadOrder) {
  // Two spec variables: replay must bind the witness values to i and j in
  // the order the VC listed them. Swapped, `j == i + 1` is false and the
  // replay would reject a real violation (a[0] == a[1] == 0).
  VerificationSession s(R"(
void witnessOrder(int *a) {
  assume(gdim.x == 1 && gdim.y == 1 && bdim.y == 1 && bdim.z == 1);
  a[tid.x] = (tid.x == 1) ? 0 : tid.x;
  int i, j;
  postcond(i < bdim.x && j < bdim.x && j == i + 1 => a[i] < a[j]);
}
)");
  Report r = s.run({CheckKind::Postconditions, "witnessOrder", "",
                    paramOpts(8), {}, 0})
                 .report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  ASSERT_FALSE(r.counterexamples.empty());
  EXPECT_EQ(r.counterexamples[0].witnessValues.size(), 2u) << r.str();
  EXPECT_TRUE(r.counterexamples[0].replayConfirmed) << r.str();
}

TEST(PostcondCheckerTest, NonParamTransposePostcond) {
  VerificationSession s(combinedSource({"transposeNaive"}, 16));
  CheckOptions o;
  o.method = Method::NonParameterized;
  o.width = 16;
  o.grid = encode::GridConfig{2, 2, 2, 2, 1};
  Report r = s.run({CheckKind::Postconditions, "transposeNaive", "", o, {}, 0})
                 .report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(RaceCheckerTest, CorpusKernelsAreRaceFree) {
  for (const char* name : {"transposeOpt", "reduceMod", "reduceStrided"}) {
    VerificationSession s(combinedSource({name}, 8));
    Report r = s.run({CheckKind::Races, name, "", paramOpts(8), {}, 0}).report;
    EXPECT_EQ(r.outcome, Outcome::Verified) << name << ": " << r.str();
  }
}

TEST(RaceCheckerTest, RacyHistogramFlagged) {
  VerificationSession s(combinedSource({"racyHistogram"}, 8));
  Report r = s.run({CheckKind::Races, "racyHistogram", "", paramOpts(8), {}, 0})
                 .report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  EXPECT_NE(r.detail.find("race"), std::string::npos);
}

TEST(RaceCheckerTest, MissingBarrierIntroducesRace) {
  // Producer/consumer without the separating barrier: thread t writes slot
  // t while its neighbour reads it.
  const char* racy = R"(
void shiftNoBarrier(int *out, int *in) {
  __shared__ int s[bdim.x];
  s[tid.x] = in[tid.x];
  out[tid.x] = s[(tid.x + 1) % bdim.x];
}
)";
  VerificationSession s(racy);
  Report r = s.run({CheckKind::Races, "shiftNoBarrier", "", paramOpts(8),
                    {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();

  // With the barrier restored the same kernel is race-free.
  const char* fixed = R"(
void shiftWithBarrier(int *out, int *in) {
  __shared__ int s[bdim.x];
  s[tid.x] = in[tid.x];
  __syncthreads();
  out[tid.x] = s[(tid.x + 1) % bdim.x];
}
)";
  VerificationSession s2(fixed);
  Report r2 = s2.run({CheckKind::Races, "shiftWithBarrier", "", paramOpts(8),
                      {}, 0}).report;
  EXPECT_EQ(r2.outcome, Outcome::Verified) << r2.str();
}

TEST(PerfCheckerTest, NaiveTransposeIsUncoalesced) {
  VerificationSession s(combinedSource({"transposeNaive"}, 8));
  Report r = s.run({CheckKind::Performance, "transposeNaive", "", paramOpts(8),
                    {}, 0}).report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  EXPECT_NE(r.detail.find("non-coalesced"), std::string::npos) << r.str();
}

TEST(PerfCheckerTest, PaddedTransposeCleanAt16x16) {
  // The padded tile removes bank conflicts for the canonical 16x16 block
  // (pitch 17 is odd); the optimized kernel is fully clean there.
  VerificationSession s(combinedSource({"transposeOpt"}, 16));
  CheckOptions o = paramOpts(16);
  o.concretize = {{"bdim.x", 16}, {"bdim.y", 16}, {"bdim.z", 1}};
  Report r = s.run({CheckKind::Performance, "transposeOpt", "", o, {}, 0})
                 .report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

TEST(PerfCheckerTest, StridedReductionHasBankConflicts) {
  // Needs a block of 64 threads (stride 2k >= 16), hence width 16.
  VerificationSession s(combinedSource({"reduceStrided"}, 16));
  CheckOptions o = paramOpts(16);
  o.concretize = {{"bdim.x", 64}, {"bdim.y", 1}, {"bdim.z", 1}};
  Report r = s.run({CheckKind::Performance, "reduceStrided", "", o, {}, 0})
                 .report;
  EXPECT_EQ(r.outcome, Outcome::BugFound) << r.str();
  EXPECT_NE(r.detail.find("bank conflict"), std::string::npos) << r.str();
}

TEST(PerfCheckerTest, SequentialReductionConflictFree) {
  VerificationSession s(combinedSource({"reduceSequential"}, 16));
  CheckOptions o = paramOpts(16);
  o.concretize = {{"bdim.x", 64}, {"bdim.y", 1}, {"bdim.z", 1}};
  Report r = s.run({CheckKind::Performance, "reduceSequential", "", o, {}, 0})
                 .report;
  EXPECT_EQ(r.outcome, Outcome::Verified) << r.str();
}

}  // namespace
}  // namespace pugpara::check
