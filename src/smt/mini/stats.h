// Process-wide MiniSMT counters. Each MiniSolver aggregates its SAT
// solver's statistics and its rewriter's work here when it is destroyed;
// the CLI --json block and the ablation bench read a snapshot. Atomic
// because engine worker threads destroy solvers concurrently.
#pragma once

#include <atomic>
#include <cstdint>

namespace pugpara::smt::mini {

struct MiniGlobalStats {
  std::atomic<uint64_t> conflicts{0};
  std::atomic<uint64_t> decisions{0};
  std::atomic<uint64_t> propagations{0};
  std::atomic<uint64_t> restarts{0};
  std::atomic<uint64_t> learnts{0};
  // LBD histogram of learnt clauses (glue <= 2 / 3..6 / > 6).
  std::atomic<uint64_t> lbdGlue{0};
  std::atomic<uint64_t> lbdMid{0};
  std::atomic<uint64_t> lbdLarge{0};
  std::atomic<uint64_t> learntsDeleted{0};
  std::atomic<uint64_t> chronoBacktracks{0};
  std::atomic<uint64_t> inprocessRuns{0};
  std::atomic<uint64_t> subsumed{0};
  std::atomic<uint64_t> strengthened{0};
  std::atomic<uint64_t> eliminatedVars{0};
  std::atomic<uint64_t> restoredVars{0};
  std::atomic<uint64_t> rewrites{0};  // word-level rewriter hits
};

inline MiniGlobalStats& miniGlobalStats() {
  static MiniGlobalStats s;
  return s;
}

/// Plain-value copy for printing.
struct MiniStatsSnapshot {
  uint64_t conflicts, decisions, propagations, restarts, learnts;
  uint64_t lbdGlue, lbdMid, lbdLarge, learntsDeleted, chronoBacktracks;
  uint64_t inprocessRuns, subsumed, strengthened, eliminatedVars,
      restoredVars;
  uint64_t rewrites;
};

inline MiniStatsSnapshot snapshotMiniStats() {
  const MiniGlobalStats& g = miniGlobalStats();
  return {g.conflicts.load(),      g.decisions.load(),
          g.propagations.load(),   g.restarts.load(),
          g.learnts.load(),        g.lbdGlue.load(),
          g.lbdMid.load(),         g.lbdLarge.load(),
          g.learntsDeleted.load(), g.chronoBacktracks.load(),
          g.inprocessRuns.load(),  g.subsumed.load(),
          g.strengthened.load(),   g.eliminatedVars.load(),
          g.restoredVars.load(),   g.rewrites.load()};
}

inline void resetMiniStats() {
  MiniGlobalStats& g = miniGlobalStats();
  g.conflicts = 0;
  g.decisions = 0;
  g.propagations = 0;
  g.restarts = 0;
  g.learnts = 0;
  g.lbdGlue = 0;
  g.lbdMid = 0;
  g.lbdLarge = 0;
  g.learntsDeleted = 0;
  g.chronoBacktracks = 0;
  g.inprocessRuns = 0;
  g.subsumed = 0;
  g.strengthened = 0;
  g.eliminatedVars = 0;
  g.restoredVars = 0;
  g.rewrites = 0;
}

}  // namespace pugpara::smt::mini
