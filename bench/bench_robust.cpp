// Robustness benchmark: quantifies what the fault-containment layer costs
// when nothing is failing, and proves it earns its keep when something is.
//
// Three phases over the built-in corpus (3 checks per kernel):
//   bare    engine with the containment ladder off (maxRetries=0, no
//           failover, no memory budget) and the fault registry disarmed —
//           the pre-containment configuration
//   armored ladder defaults (retry + failover) plus a generous per-solver
//           memory budget, registry still disarmed — what every run pays
//           now that the machinery is compiled in
//   chaos   armored engine under injected faults (transient timeouts,
//           sporadic crashes, resource squeezes) — every verdict must match
//           the unfaulted run of the backend that gave it and nothing may
//           escape the ladder
//
// Plus a micro-measurement of the disarmed fault-site fast path (ns/op for
// the check every instrumented site performs when chaos is off).
//
// Emits BENCH_robust.json. Exit 1 when a gate fails:
//   * any verdict differs between bare and armored (registry disarmed)
//   * armored total latency is >5% above bare (min over reps)
//   * any chaos scenario changes a verdict or leaks an uncontained failure.
//     A check the ladder failed over is answered by Z3, which decides some
//     checks MiniSMT cannot (quantified frames), so its verdict is compared
//     with an unfaulted Z3 run with the same retries; every other check
//     with the unfaulted MiniSMT run.
//
// Env: PUGPARA_TIMEOUT_MS (solver budget, default 20000),
//      PUGPARA_JOBS (workers, default: hardware threads),
//      PUGPARA_ROBUST_REPS (timing repetitions, default 3).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "support/faultinject.h"

namespace {

using namespace pugpara;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Workload {
  std::vector<std::unique_ptr<check::VerificationSession>> sessions;
  std::vector<engine::BoundCheck> checks;
};

Workload buildWorkload(const check::CheckOptions& opts) {
  Workload w;
  for (const kernels::CorpusEntry& e : kernels::corpus()) {
    auto session = std::make_unique<check::VerificationSession>(
        kernels::sourceFor(e, opts.width));
    for (const check::CheckKind kind :
         {check::CheckKind::Races, check::CheckKind::Asserts,
          check::CheckKind::Postconditions}) {
      engine::BoundCheck bc;
      bc.session = session.get();
      bc.request.kind = kind;
      bc.request.kernel = e.name;
      bc.request.options = opts;
      w.checks.push_back(std::move(bc));
    }
    w.sessions.push_back(std::move(session));
  }
  return w;
}

struct RunOutcome {
  double ms = 0;
  std::vector<std::string> verdicts;  // "kind|kernel=outcome", request order
  std::vector<bool> failedOver;       // answered by the alternate backend
  size_t degraded = 0;                // results carrying a FailureInfo
  size_t unknowns = 0;
};

/// True when the ladder moved the check to the alternate backend: a
/// degraded result records it in its FailureInfo, any other in a caveat.
bool wasFailedOver(const check::Report& r) {
  if (r.failure.failedOver) return true;
  for (const std::string& c : r.caveats)
    if (c.find("failover") != std::string::npos) return true;
  return false;
}

RunOutcome runBatch(const Workload& w, const engine::EngineOptions& eopts) {
  engine::VerificationEngine engine(eopts);  // fresh: no cross-run cache heat
  const Clock::time_point t0 = Clock::now();
  const std::vector<check::CheckResult> results = engine.runAll(w.checks);
  RunOutcome out;
  out.ms = msSince(t0);
  for (const check::CheckResult& r : results) {
    out.verdicts.push_back(std::string(check::toString(r.kind)) + "|" +
                           r.kernel + "=" + check::toString(r.report.outcome));
    out.failedOver.push_back(wasFailedOver(r.report));
    if (r.report.failure.kind != check::FailureKind::None) ++out.degraded;
    if (r.report.outcome == check::Outcome::Unknown) ++out.unknowns;
  }
  return out;
}

engine::EngineOptions bareOptions() {
  engine::EngineOptions eo;
  eo.jobs = bench::benchJobs();
  eo.maxRetries = 0;
  eo.failover = false;
  eo.memoryBudgetMb = 0;
  return eo;
}

engine::EngineOptions armoredOptions() {
  engine::EngineOptions eo;
  eo.jobs = bench::benchJobs();
  eo.maxRetries = 1;
  eo.failover = true;
  eo.memoryBudgetMb = 4096;  // sentinel armed but far from the workload
  return eo;
}

/// ns/op of the disarmed fast path every instrumented site runs per event.
double disarmedSiteNs() {
  fault::reset();
  constexpr int kIters = 5'000'000;
  std::atomic<unsigned> sink{0};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    if (fault::enabled() && fault::fire("solver.check.mini"))
      sink.fetch_add(1, std::memory_order_relaxed);
  }
  const double ms = msSince(t0);
  if (sink.load() != 0) std::abort();  // disarmed sites must never fire
  return ms * 1e6 / kIters;
}

struct ChaosScenario {
  const char* name;
  const char* spec;
};

std::string verdictDiff(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const std::string& x = i < a.size() ? a[i] : "<missing>";
    const std::string& y = i < b.size() ? b[i] : "<missing>";
    if (x != y) return x + " vs " + y;
  }
  return "";
}

}  // namespace

int main() {
  check::CheckOptions opts;
  opts.method = check::Method::Parameterized;
  opts.solverTimeoutMs = bench::timeoutMs();
  opts.backend = smt::Backend::Mini;
  opts.width = 8;
  opts.prefilter = false;  // force solver traffic through the fault sites

  const Workload w = buildWorkload(opts);
  int reps = 3;
  if (const char* env = std::getenv("PUGPARA_ROBUST_REPS"))
    reps = std::max(1, std::atoi(env));

  std::printf("== robust bench: %zu checks, width=%u timeout=%ums reps=%d ==\n",
              w.checks.size(), opts.width, opts.solverTimeoutMs, reps);

  // Phase 1+2: bare vs armored, interleaved, min over reps (registry off).
  fault::reset();
  double bareMin = 1e300, armoredMin = 1e300;
  RunOutcome bare, armored;
  for (int r = 0; r < reps; ++r) {
    RunOutcome b = runBatch(w, bareOptions());
    RunOutcome a = runBatch(w, armoredOptions());
    std::printf("  rep %d: bare %9.2f ms, armored %9.2f ms\n", r + 1, b.ms,
                a.ms);
    if (b.ms < bareMin) bareMin = b.ms;
    if (a.ms < armoredMin) armoredMin = a.ms;
    bare = std::move(b);
    armored = std::move(a);
  }
  const double overheadPct =
      bareMin > 0 ? 100.0 * (armoredMin - bareMin) / bareMin : 0;
  const bool verdictEquality = bare.verdicts == armored.verdicts;
  const bool overheadOk = overheadPct < 5.0;
  const bool disarmedClean = armored.degraded == 0;
  std::printf("overhead: bare %.1f ms vs armored %.1f ms -> %+.2f%%\n",
              bareMin, armoredMin, overheadPct);
  if (!verdictEquality)
    std::fprintf(stderr, "bench_robust: VERDICT MISMATCH bare/armored: %s\n",
                 verdictDiff(bare.verdicts, armored.verdicts).c_str());

  // Phase 3: disarmed fault-site fast path.
  const double siteNs = disarmedSiteNs();
  std::printf("disarmed site check: %.2f ns/op\n", siteNs);

  // The reference for checks the ladder fails over: what Z3 answers on
  // its own, with the retries the ladder gives it after a failover.
  check::CheckOptions z3opts = opts;
  z3opts.backend = smt::Backend::Z3;
  const Workload wz3 = buildWorkload(z3opts);
  engine::EngineOptions z3eo = armoredOptions();
  z3eo.failover = false;
  const RunOutcome z3 = runBatch(wz3, z3eo);
  std::printf("z3 reference: %9.2f ms\n", z3.ms);

  // Phase 4: chaos matrix — armored engine under injected faults. Each
  // scenario must keep every verdict identical to the unfaulted run of the
  // backend that gave it.
  const std::vector<ChaosScenario> scenarios = {
      {"transient-timeout", "seed=7,solver.check.mini=first=2@timeout"},
      {"resource-squeeze", "seed=7,solver.check.mini=first=2@resource"},
      {"sporadic-crash", "seed=7,solver.check.mini=p=150@crash"},
      {"persistent-crash", "seed=7,solver.check.mini=always@crash"},
  };
  struct ChaosResult {
    std::string name;
    double ms = 0;
    bool verdictsEqual = false;
    size_t failedOver = 0;
    size_t degraded = 0;
    uint64_t fires = 0;
  };
  std::vector<ChaosResult> chaos;
  bool chaosOk = true;
  for (const ChaosScenario& s : scenarios) {
    std::string err;
    if (!fault::configure(s.spec, &err)) {
      std::fprintf(stderr, "bench_robust: bad spec %s: %s\n", s.spec,
                   err.c_str());
      return 1;
    }
    const RunOutcome run = runBatch(w, armoredOptions());
    std::vector<std::string> expected = armored.verdicts;
    for (size_t i = 0; i < expected.size(); ++i)
      if (run.failedOver[i]) expected[i] = z3.verdicts[i];
    ChaosResult cr;
    cr.name = s.name;
    cr.ms = run.ms;
    cr.verdictsEqual = run.verdicts == expected;
    cr.failedOver = static_cast<size_t>(
        std::count(run.failedOver.begin(), run.failedOver.end(), true));
    cr.degraded = run.degraded;
    cr.fires = fault::totalFires();
    fault::reset();
    std::printf(
        "  chaos %-18s %9.2f ms  fires=%llu failedOver=%zu degraded=%zu  %s\n",
        s.name, cr.ms, static_cast<unsigned long long>(cr.fires),
        cr.failedOver, cr.degraded,
        cr.verdictsEqual ? "verdicts equal" : "MISMATCH");
    if (!cr.verdictsEqual) {
      chaosOk = false;
      std::fprintf(stderr, "bench_robust: chaos %s verdict diff: %s\n", s.name,
                   verdictDiff(expected, run.verdicts).c_str());
    }
    if (cr.fires == 0) {
      chaosOk = false;
      std::fprintf(stderr, "bench_robust: chaos %s injected nothing\n",
                   s.name);
    }
    chaos.push_back(std::move(cr));
  }

  std::ofstream json("BENCH_robust.json");
  json << "{\"bench\":\"robust\",\"config\":{\"checks\":" << w.checks.size()
       << ",\"width\":" << opts.width
       << ",\"timeoutMs\":" << opts.solverTimeoutMs << ",\"reps\":" << reps
       << ",\"jobs\":" << bench::benchJobs()
       << "},\"overhead\":{\"bareMinMs\":" << bareMin
       << ",\"armoredMinMs\":" << armoredMin
       << ",\"overheadPct\":" << overheadPct
       << ",\"disarmedSiteNs\":" << siteNs
       << "},\"z3ReferenceMs\":" << z3.ms << ",\"chaos\":[";
  for (size_t i = 0; i < chaos.size(); ++i) {
    const ChaosResult& c = chaos[i];
    json << (i ? "," : "") << "{\"name\":\"" << c.name << "\",\"ms\":" << c.ms
         << ",\"fires\":" << c.fires << ",\"failedOver\":" << c.failedOver
         << ",\"degraded\":" << c.degraded
         << ",\"verdictsEqual\":" << (c.verdictsEqual ? "true" : "false")
         << "}";
  }
  json << "],\"gates\":{\"verdictEquality\":"
       << (verdictEquality ? "true" : "false")
       << ",\"overheadUnder5Pct\":" << (overheadOk ? "true" : "false")
       << ",\"disarmedNoDegradation\":" << (disarmedClean ? "true" : "false")
       << ",\"chaosContained\":" << (chaosOk ? "true" : "false") << "}}\n";
  json.close();

  if (!verdictEquality || !disarmedClean) {
    std::fprintf(stderr, "bench_robust: FAIL: bare/armored equality gate\n");
    return 1;
  }
  if (!overheadOk) {
    std::fprintf(stderr, "bench_robust: FAIL: overhead gate (%.2f%% >= 5%%)\n",
                 overheadPct);
    return 1;
  }
  if (!chaosOk) {
    std::fprintf(stderr, "bench_robust: FAIL: chaos containment gate\n");
    return 1;
  }
  std::printf("bench_robust: PASS (overhead %+.2f%%, %zu chaos scenarios "
              "contained)\n",
              overheadPct, chaos.size());
  return 0;
}
