// Shared helpers for the table-reproduction benches: environment-tunable
// solver timeout, paper-style cell formatting ("T.O", '*' for found bugs),
// and grid construction per thread count.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "check/session.h"
#include "engine/engine.h"
#include "kernels/corpus.h"

namespace pugpara::bench {

/// Per-check solver budget. The paper used 5 minutes; the default here is
/// 20 s so a full bench sweep stays interactive. Override with
/// PUGPARA_TIMEOUT_MS=300000 for a paper-faithful run.
inline uint32_t timeoutMs() {
  if (const char* env = std::getenv("PUGPARA_TIMEOUT_MS"))
    return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  return 20000;
}

/// Worker threads for regenerating a table (PUGPARA_JOBS; default: one per
/// hardware thread). The engine guarantees outcomes identical to jobs=1 —
/// only the wall-clock changes — so the tables parallelize freely. The
/// *measured* per-cell solve times do gain scheduling noise under load;
/// set PUGPARA_JOBS=1 for paper-grade timing columns.
inline unsigned benchJobs() {
  if (const char* env = std::getenv("PUGPARA_JOBS"))
    return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Engine configuration every table bench runs its batch with
/// (PUGPARA_JOBS).
inline engine::EngineOptions benchEngineOptions() {
  engine::EngineOptions eo;
  eo.jobs = benchJobs();
  return eo;
}

/// Formats one result cell the way the paper's tables do:
///   seconds        — check finished (Verified / NoBugFound)
///   seconds*       — a real difference / bug was found ('*' rows)
///   T.O            — solver exceeded its budget
///   n/a            — method does not apply to this kernel shape
inline std::string cell(const check::Report& r) {
  char buf[32];
  switch (r.outcome) {
    case check::Outcome::Verified:
    case check::Outcome::NoBugFound:
      std::snprintf(buf, sizeof buf, "%.2f", r.solveSeconds);
      return buf;
    case check::Outcome::BugFound:
      std::snprintf(buf, sizeof buf, "%.2f*", r.solveSeconds);
      return buf;
    case check::Outcome::Unknown:
      return "T.O";
    case check::Outcome::Unsupported:
      return "n/a";
  }
  return "?";
}

inline void printRow(const std::string& label,
                     const std::vector<std::string>& cells) {
  std::printf("%-22s", label.c_str());
  for (const auto& c : cells) std::printf(" %10s", c.c_str());
  std::printf("\n");
}

/// Square-block transpose grid for a total thread count (2x2 blocks).
inline encode::GridConfig transposeGrid(uint32_t threads) {
  switch (threads) {
    case 4: return {1, 1, 2, 2, 1};
    case 8: return {2, 1, 2, 2, 1};
    case 16: return {2, 2, 2, 2, 1};
    case 32: return {4, 2, 2, 2, 1};
    case 64: return {4, 4, 2, 2, 1};
    case 128: return {8, 4, 2, 2, 1};
    default: return {threads / 4, 1, 2, 2, 1};
  }
}

/// Single-block 1-D reduction grid.
inline encode::GridConfig reductionGrid(uint32_t threads) {
  return {1, 1, threads, 1, 1};
}

}  // namespace pugpara::bench
