// Ablation B: the frame-handling modes of Sec. IV-D — monotonicity-based
// quantifier elimination vs native quantifiers vs fast bug-hunting — on
// postcondition proofs that genuinely need frame reasoning, plus a buggy
// variant to show what each mode finds.
#include "bench_util.h"
#include "para/vcgen.h"
#include "support/timer.h"

namespace {

using namespace pugpara;
using namespace pugpara::bench;

void runRow(const char* label, const std::string& src, const char* kernel,
            para::FrameMode mode) {
  check::VerificationSession s(src);
  check::CheckOptions o;
  o.method = mode == para::FrameMode::BugHunt
                 ? check::Method::ParameterizedBugHunt
                 : check::Method::Parameterized;
  o.frameMode = mode;
  o.width = 8;
  o.solverTimeoutMs = timeoutMs();
  check::Report r = s.run({check::CheckKind::Postconditions, kernel, "", o,
                           {}, 0}).report;
  std::printf("  %-16s %-13s %8s   qe=%zu forall=%zu uniform=%zu inst=%zu\n",
              para::toString(mode), check::toString(r.outcome),
              cell(r).c_str(), r.stats.qeCerts, r.stats.forallCerts,
              r.stats.uniformCerts, r.stats.instances);
}

}  // namespace

int main() {
  // A kernel whose postcondition needs the FRAME: cells >= n keep their
  // old value; proving that requires knowing nobody wrote them.
  const char* frameKernel = R"(
void prefixInit(int *a, int n) {
  assume(gdim.x == 1 && gdim.y == 1 && bdim.y == 1 && bdim.z == 1);
  assume(n >= 0 && n <= bdim.x);
  if (tid.x < n) a[tid.x] = 7;
  int i;
  postcond(i >= 0 && i < n => a[i] == 7);
}
)";
  // Its buggy sibling (writes one cell short). This is a FRAME bug: the
  // postcondition fails on the one cell nobody wrote, which is precisely
  // the class of bugs bug-hunt mode gives up on (Sec. IV-D's
  // under-approximation) — expect it to miss.
  const char* buggyKernel = R"(
void prefixInit(int *a, int n) {
  assume(gdim.x == 1 && gdim.y == 1 && bdim.y == 1 && bdim.z == 1);
  assume(n >= 0 && n <= bdim.x);
  if (tid.x < n - 1) a[tid.x] = 7;
  int i;
  postcond(i >= 0 && i < n => a[i] == 7);
}
)";

  std::printf("Ablation: frame-premise handling (Sec. IV-D), postcondition "
              "checking\n\n");
  std::printf("correct kernel (expect verified in exact modes, no-bug-found "
              "in bug-hunt):\n");
  for (auto mode : {para::FrameMode::MonotoneQe, para::FrameMode::NativeForall,
                    para::FrameMode::BugHunt})
    runRow("prefixInit", frameKernel, "prefixInit", mode);

  std::printf("\nbuggy kernel — a frame bug (expect bug-found in the exact "
              "modes and\nno-bug-found in bug-hunt, the paper's "
              "under-approximation):\n");
  for (auto mode : {para::FrameMode::MonotoneQe, para::FrameMode::NativeForall,
                    para::FrameMode::BugHunt})
    runRow("prefixInit-bug", buggyKernel, "prefixInit", mode);

  std::printf("\nTakeaway: monotone QE discharges the frames without "
              "quantifiers (qe > 0),\nwhich is what lets quantifier-free "
              "backends participate; the paper's\ngeneration of solvers "
              "required exactly this.\n");
  return 0;
}
