// Quickstart: verify the functional correctness of a small kernel for an
// ARBITRARY number of threads, then break it and watch the checker produce
// a replay-confirmed counterexample.
//
// Build & run:   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "check/session.h"

int main() {
  using namespace pugpara;

  // A kernel with its specification: every thread writes one cell, and the
  // postcondition pins the whole output. `n` and the launch configuration
  // stay symbolic — the proof covers every grid and every input.
  const char* source = R"(
void vecAdd(int *c, int *a, int *b, int n) {
  assume(n == gdim.x * bdim.x && bdim.y == 1 && bdim.z == 1 && gdim.y == 1);
  int i = bid.x * bdim.x + tid.x;
  if (i < n) c[i] = a[i] + b[i];
  int j;
  postcond(j >= 0 && j < n => c[j] == a[j] + b[j]);
}

void vecAddBroken(int *c, int *a, int *b, int n) {
  assume(n == gdim.x * bdim.x && bdim.y == 1 && bdim.z == 1 && gdim.y == 1);
  int i = bid.x * bdim.x + tid.x;
  if (i < n) c[i] = a[i] - b[i];   // oops
  int j;
  postcond(j >= 0 && j < n => c[j] == a[j] + b[j]);
}
)";

  check::VerificationSession session(source);

  check::CheckOptions opts;
  opts.method = check::Method::Parameterized;
  opts.width = 8;  // bit-width of the symbolic model

  std::printf("== checking vecAdd (parameterized: any #threads) ==\n");
  check::Report good = session.run({check::CheckKind::Postconditions, "vecAdd",
                                    "", opts, {}, 0}).report;
  std::printf("%s\n\n", good.str().c_str());

  std::printf("== checking vecAddBroken ==\n");
  check::Report bad = session.run({check::CheckKind::Postconditions,
                                   "vecAddBroken", "", opts, {}, 0}).report;
  std::printf("%s\n\n", bad.str().c_str());

  std::printf("== and their equivalence ==\n");
  check::Report eq = session.run({check::CheckKind::Equivalence, "vecAdd",
                                  "vecAddBroken", opts, {}, 0}).report;
  std::printf("%s\n", eq.str().c_str());

  return good.outcome == check::Outcome::Verified &&
                 bad.outcome == check::Outcome::BugFound &&
                 eq.outcome == check::Outcome::BugFound
             ? 0
             : 1;
}
