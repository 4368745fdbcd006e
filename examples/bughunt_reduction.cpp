// Bug hunting across a mutant population (the paper's Table III workflow):
// inject address/guard bugs into the strided reduction and check each
// mutant against the original, parametrically.
//
// Build & run:   cmake --build build && ./build/examples/bughunt_reduction
#include <cstdio>

#include "check/session.h"
#include "kernels/corpus.h"
#include "kernels/mutate.h"

int main() {
  using namespace pugpara;
  constexpr uint32_t kWidth = 8;

  auto base = lang::parseAndAnalyze(
      kernels::combinedSource({"reduceStrided"}, kWidth));
  const lang::Kernel& original = *base->kernels[0];

  auto mutants = kernels::enumerateMutants(original, /*maxPerKind=*/2);
  std::printf("generated %zu mutants of reduceStrided\n\n", mutants.size());

  check::CheckOptions opts;
  opts.method = check::Method::Parameterized;  // exact frames: misses nothing
  opts.width = kWidth;
  opts.solverTimeoutMs = 60000;

  int caught = 0, equivalent = 0, inconclusive = 0;
  for (auto& m : mutants) {
    // Build a session holding the original and this mutant.
    auto prog = lang::parseAndAnalyze(
        kernels::combinedSource({"reduceStrided"}, kWidth));
    std::string mutantName = m.kernel->name;
    prog->kernels.push_back(std::move(m.kernel));
    check::VerificationSession session(std::move(prog));

    check::Report r = session.run({check::CheckKind::Equivalence,
                                   "reduceStrided", mutantName, opts, {}, 0})
                          .report;
    const char* verdict = "?";
    switch (r.outcome) {
      case check::Outcome::BugFound:
        verdict = "BUG";
        ++caught;
        break;
      case check::Outcome::Verified:
        // Some mutations are semantics-preserving (e.g. <= where < cannot
        // be reached) — proving THAT is also useful information.
        verdict = "equivalent";
        ++equivalent;
        break;
      default:
        verdict = "inconclusive";
        ++inconclusive;
        break;
    }
    std::printf("%-14s %-38s %.2fs  %s\n", verdict, m.description.c_str(),
                r.solveSeconds,
                r.counterexamples.empty()
                    ? ""
                    : r.counterexamples[0].str().c_str());
  }

  std::printf("\n%d bugs found, %d proved equivalent, %d inconclusive "
              "(of %zu mutants)\n",
              caught, equivalent, inconclusive, mutants.size());
  return caught > 0 ? 0 : 1;
}
