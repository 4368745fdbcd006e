// Ablation A: sensitivity to the bit-vector width — the paper: "Z3's
// expressions are based on bit vectors; thus the solving time depends on
// the number of bits" (the kernels multiply extensively).
#include "bench_util.h"

int main() {
  using namespace pugpara;
  using namespace pugpara::bench;

  std::printf("Ablation: bit-width sensitivity (transpose equivalence, "
              "parameterized +C)\n\n");
  std::printf("%8s %12s %10s\n", "width", "outcome", "solve (s)");

  for (uint32_t width : {6u, 8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
    check::VerificationSession s(kernels::combinedSource(
        {"transposeNaive", "transposeOpt"}, width));
    check::CheckOptions o;
    o.method = check::Method::Parameterized;
    o.width = width;
    o.solverTimeoutMs = timeoutMs();
    o.concretize = {{"bdim.x", 4}, {"bdim.y", 4}, {"bdim.z", 1},
                    {"width", 8},  {"height", 8}};
    o.replayCounterexamples = false;
    check::Report r = s.run({check::CheckKind::Equivalence, "transposeNaive",
                             "transposeOpt", o, {}, 0}).report;
    std::printf("%8u %12s %10s\n", width, check::toString(r.outcome),
                cell(r).c_str());
  }

  std::printf("\nReduction pair for comparison (loop-aligned, fully "
              "symbolic config):\n");
  std::printf("%8s %12s %10s\n", "width", "outcome", "solve (s)");
  for (uint32_t width : {8u, 10u, 12u, 14u, 16u}) {
    check::VerificationSession s(
        kernels::combinedSource({"reduceMod", "reduceStrided"}, width));
    check::CheckOptions o;
    o.method = check::Method::Parameterized;
    o.width = width;
    o.solverTimeoutMs = timeoutMs();
    o.replayCounterexamples = false;
    check::Report r = s.run({check::CheckKind::Equivalence, "reduceMod",
                             "reduceStrided", o, {}, 0}).report;
    std::printf("%8u %12s %10s\n", width, check::toString(r.outcome),
                cell(r).c_str());
  }
  return 0;
}
