// Race and performance-bug checking, symbolically (any #threads) AND
// dynamically (the VM's GRace-style monitors) — the two methodology rows of
// the paper's Table I, side by side on the same kernels.
//
// Build & run:   cmake --build build && ./build/examples/race_and_banks
#include <cstdio>

#include "check/session.h"
#include "exec/compiler.h"
#include "exec/machine.h"
#include "kernels/corpus.h"
#include "support/rng.h"

namespace {

using namespace pugpara;

/// Dynamic check: run on ONE concrete configuration with monitors armed.
void dynamicCheck(const char* name, uint32_t width) {
  const auto& e = kernels::entry(name);
  auto prog = lang::parseAndAnalyze(kernels::sourceFor(e, width));
  auto compiled = exec::compile(*prog->kernels[0]);

  exec::LaunchParams p;
  p.grid = {e.defaultGrid.gdimX, e.defaultGrid.gdimY, 1};
  p.block = {e.defaultGrid.bdimX, e.defaultGrid.bdimY, e.defaultGrid.bdimZ};
  p.width = width;
  p.monitors.enabled = true;

  SplitMix64 rng(99);
  std::vector<exec::Buffer> bufs;
  for (const auto& param : prog->kernels[0]->params) {
    if (param->type.isPointer) {
      exec::Buffer b(param->name, 512);
      for (size_t i = 0; i < b.size(); ++i) b.store(i, rng.below(64));
      bufs.push_back(std::move(b));
    } else {
      p.scalarArgs.push_back(e.defaultGrid.gdimX * e.defaultGrid.bdimX);
    }
  }
  auto r = exec::launch(compiled, p, bufs);
  std::printf("  dynamic  (%s): %zu race(s), %zu bank conflict(s), %zu "
              "uncoalesced access(es)%s\n",
              e.defaultGrid.str().c_str(), r.races.size(),
              r.bankConflicts.size(), r.uncoalesced.size(),
              r.completed ? "" : (" [" + r.error + "]").c_str());
  for (const auto& race : r.races)
    std::printf("           %s\n", race.str().c_str());
}

void symbolicCheck(const char* name, uint32_t width,
                   const check::CheckOptions& opts) {
  check::VerificationSession session(kernels::combinedSource({name}, width));
  check::Report races = session.run({check::CheckKind::Races, name, "", opts,
                                     {}, 0}).report;
  check::Report perf = session.run({check::CheckKind::Performance, name, "",
                                    opts, {}, 0}).report;
  std::printf("  symbolic (any #threads): races: %s | perf: %s\n",
              check::toString(races.outcome), perf.detail.c_str());
}

}  // namespace

int main() {
  check::CheckOptions opts;
  opts.method = check::Method::Parameterized;
  opts.width = 8;

  std::printf("== racyHistogram: a real race ==\n");
  symbolicCheck("racyHistogram", 8, opts);
  dynamicCheck("racyHistogram", 8);

  std::printf("\n== transposeNaive: race-free but uncoalesced ==\n");
  symbolicCheck("transposeNaive", 8, opts);
  dynamicCheck("transposeNaive", 8);

  std::printf("\n== reduceStrided: race-free, bank conflicts at 64 threads "
              "==\n");
  check::CheckOptions wide = opts;
  wide.width = 16;
  wide.concretize = {{"bdim.x", 64}, {"bdim.y", 1}, {"bdim.z", 1}};
  symbolicCheck("reduceStrided", 16, wide);

  std::printf("\nNote how the dynamic monitors see only the one executed\n"
              "configuration, while the symbolic checkers quantify over all "
              "of them\n(Table I of the paper).\n");
  return 0;
}
