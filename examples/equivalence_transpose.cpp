// The paper's flagship scenario (Sec. II): check that the memory-coalescing
// optimization of the matrix transpose preserves semantics — for any number
// of threads — and reveal the optimized kernel's hidden square-block
// assumption.
//
// Build & run:   cmake --build build && ./build/examples/equivalence_transpose
#include <cstdio>

#include "check/session.h"
#include "kernels/corpus.h"

int main() {
  using namespace pugpara;
  constexpr uint32_t kWidth = 8;

  check::VerificationSession session(kernels::combinedSource(
      {"transposeNaive", "transposeOpt", "transposeOptNoSquare"}, kWidth));

  // 1. naive vs optimized, "+C": the block extent is pinned to 4x4 but the
  //    grid — and with it the thread count — stays symbolic.
  check::CheckOptions opts;
  opts.method = check::Method::Parameterized;
  opts.width = kWidth;
  opts.concretize = {{"bdim.x", 4}, {"bdim.y", 4}, {"bdim.z", 1}};

  std::printf("== transposeNaive vs transposeOpt (+C, any grid) ==\n");
  check::Report ok = session.run({check::CheckKind::Equivalence,
                                  "transposeNaive", "transposeOpt", opts,
                                  {}, 0}).report;
  std::printf("%s\n\n", ok.str().c_str());

  // 2. Drop the square-block assumption: PUGpara finds a non-square
  //    configuration on which the optimization is wrong, and the VM replay
  //    demonstrates the disagreement concretely.
  check::CheckOptions hunt;
  hunt.method = check::Method::ParameterizedBugHunt;
  hunt.width = kWidth;

  std::printf("== transposeNaive vs transposeOptNoSquare (bug hunt) ==\n");
  check::Report bug = session.run({check::CheckKind::Equivalence,
                                   "transposeNaive", "transposeOptNoSquare",
                                   hunt, {}, 0}).report;
  std::printf("%s\n\n", bug.str().c_str());
  if (!bug.counterexamples.empty()) {
    const auto& cex = bug.counterexamples[0];
    std::printf("hidden assumption revealed: the optimized transpose needs "
                "square blocks;\nwitness block is %llux%llu\n",
                static_cast<unsigned long long>(cex.bdimX),
                static_cast<unsigned long long>(cex.bdimY));
  }

  // 3. The same question answered the old-fashioned way, for one concrete
  //    4x4-blocks configuration (Sec. III) — what PUG could do.
  check::CheckOptions fixed;
  fixed.method = check::Method::NonParameterized;
  fixed.width = 16;
  fixed.grid = encode::GridConfig{2, 2, 4, 4, 1};

  std::printf("== non-parameterized cross-check (64 threads) ==\n");
  check::VerificationSession session16(kernels::combinedSource(
      {"transposeNaive", "transposeOpt"}, 16));
  check::Report np = session16.run({check::CheckKind::Equivalence,
                                    "transposeNaive", "transposeOpt", fixed,
                                    {}, 0}).report;
  std::printf("%s\n", np.str().c_str());

  return ok.outcome == check::Outcome::Verified &&
                 bug.outcome == check::Outcome::BugFound &&
                 np.outcome == check::Outcome::Verified
             ? 0
             : 1;
}
