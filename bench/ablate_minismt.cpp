// Ablation G: the MiniSMT raw-speed push — LBD clause management,
// chronological backtracking, inprocessing and word-level rewriting. Three
// claims, measured separately:
//
//  * Agreement — on the full corpus race workload plus injected-bug
//    mutants, all techniques OFF versus all ON must return identical
//    verdicts (every technique is solution-preserving; any disagreement
//    is a soundness bug and fails the run).
//  * Ablation — leave-one-out timings on a multi-query workload: total
//    MiniSMT solve time with each technique disabled in turn, plus the
//    everything-off configuration (the PR-3-era SAT core) as baseline.
//    The net all-on vs all-off ratio is the raw-speed claim.
//  * Equivalence — the Table II "+C" parameterized equivalence pairs at
//    full width (transpose 32b, reduction 12b): Z3 versus MiniSMT. The
//    acceptance bar is MiniSMT within 2x of Z3 wall-clock.
//    PUGPARA_MINI_FAST=1 shrinks the widths for CI.
//
// Emits BENCH_minismt.json next to the table for machine consumption.
#include <memory>
#include <vector>

#include "bench_util.h"
#include "kernels/mutate.h"
#include "smt/mini/stats.h"
#include "support/json.h"
#include "support/timer.h"

namespace {

using namespace pugpara;
using namespace pugpara::bench;

struct Task {
  std::string label;
  const check::VerificationSession* session;
  std::string kernel;
  uint32_t width;
};

struct ModeRun {
  double solveSeconds = 0;
  std::vector<check::Outcome> outcomes;
};

ModeRun runRaces(const std::vector<Task>& tasks, const smt::MiniTuning& mini) {
  std::vector<engine::BoundCheck> checks;
  for (const Task& t : tasks) {
    check::CheckOptions o;
    o.method = check::Method::Parameterized;
    o.width = t.width;
    o.backend = smt::Backend::Mini;
    o.mini = mini;
    o.solverTimeoutMs = timeoutMs();
    o.replayCounterexamples = false;
    checks.push_back(
        {t.session, {check::CheckKind::Races, t.kernel, "", o, {}, 0}});
  }
  engine::VerificationEngine eng(benchEngineOptions());
  std::vector<check::CheckResult> results = eng.runAll(checks);
  ModeRun run;
  for (const check::CheckResult& r : results) {
    run.solveSeconds += r.report.solveSeconds;
    run.outcomes.push_back(r.report.outcome);
  }
  return run;
}

struct EquivPair {
  const char* label;
  const char* src;
  const char* tgt;
  uint32_t width;
  bool transpose;
};

/// One Table II "+C" parameterized equivalence check on a given backend.
ModeRun runEquiv(const check::VerificationSession* session,
                 const EquivPair& p, smt::Backend backend,
                 const smt::MiniTuning& mini) {
  check::CheckOptions o;
  o.method = check::Method::Parameterized;
  o.width = p.width;
  o.backend = backend;
  o.mini = mini;
  o.solverTimeoutMs = timeoutMs();
  if (p.transpose) {
    o.concretize = {{"bdim.x", 4}, {"bdim.y", 4}, {"bdim.z", 1},
                    {"width", 8},  {"height", 8}};
  } else {
    o.concretize = {{"bdim.x", 8}, {"bdim.y", 1}, {"bdim.z", 1}};
  }
  o.replayCounterexamples = false;
  engine::VerificationEngine eng(benchEngineOptions());
  std::vector<engine::BoundCheck> checks = {
      {session, {check::CheckKind::Equivalence, p.src, p.tgt, o, {}, 0}}};
  std::vector<check::CheckResult> results = eng.runAll(checks);
  ModeRun run;
  run.solveSeconds = results[0].report.solveSeconds;
  run.outcomes.push_back(results[0].report.outcome);
  return run;
}

}  // namespace

int main() {
  const bool fast = std::getenv("PUGPARA_MINI_FAST") != nullptr;
  std::printf("Ablation: MiniSMT raw-speed techniques (LBD / chrono / "
              "inprocess / rewrite)%s\n\n",
              fast ? "  [fast widths]" : "");

  std::vector<std::unique_ptr<check::VerificationSession>> sessions;
  auto corpusSession = [&](uint32_t width) {
    std::vector<std::string> names;
    for (const auto& e : kernels::corpus()) names.push_back(e.name);
    sessions.push_back(std::make_unique<check::VerificationSession>(
        kernels::combinedSource(names, width)));
    return sessions.back().get();
  };
  struct MutantSpec {
    const char* base;
    kernels::MutationKind kind;
    size_t site;
  };
  const MutantSpec mutantSpecs[] = {
      {"transposeOpt", kernels::MutationKind::AddressOffByOne, 3},
      {"reduceStrided", kernels::MutationKind::AddressOffByOne, 2},
  };
  auto mutantTask = [&](const MutantSpec& m, uint32_t width) {
    auto prog =
        lang::parseAndAnalyze(kernels::combinedSource({m.base}, width));
    auto mutant = kernels::mutateAt(*prog->kernels[0], m.kind, m.site);
    std::string mutantName = mutant.kernel->name;
    prog->kernels.push_back(std::move(mutant.kernel));
    sessions.push_back(
        std::make_unique<check::VerificationSession>(std::move(prog)));
    return Task{std::string(m.base) + "+bug", sessions.back().get(),
                mutantName, width};
  };

  smt::MiniTuning allOn;  // defaults
  smt::MiniTuning allOff;
  allOff.lbd = allOff.chrono = allOff.inprocess = allOff.rewrite = false;

  // ---- Agreement: full corpus + mutants, all-off vs all-on ----------------
  const check::VerificationSession* agree8 = corpusSession(8);
  std::vector<Task> agreeTasks;
  for (const auto& e : kernels::corpus())
    agreeTasks.push_back({e.name, agree8, e.name, 8});
  for (const MutantSpec& m : mutantSpecs)
    agreeTasks.push_back(mutantTask(m, 8));

  const ModeRun aOff = runRaces(agreeTasks, allOff);
  const ModeRun aOn = runRaces(agreeTasks, allOn);
  const bool agree = aOff.outcomes == aOn.outcomes;
  std::printf("agreement (corpus w8 + mutants, %zu tasks): %s\n",
              agreeTasks.size(), agree ? "all-off == all-on" : "DISAGREE");
  if (!agree)
    for (size_t i = 0; i < agreeTasks.size(); ++i)
      if (aOff.outcomes[i] != aOn.outcomes[i])
        std::printf("  %s: off=%s on=%s\n", agreeTasks[i].label.c_str(),
                    check::toString(aOff.outcomes[i]),
                    check::toString(aOn.outcomes[i]));

  // ---- Leave-one-out ablation on the multi-query speed workload -----------
  const uint32_t speedWidth = fast ? 8 : 16;
  const check::VerificationSession* speedS = corpusSession(speedWidth);
  std::vector<Task> speedTasks;
  for (const char* name : {"reduceMod", "reduceStrided", "reduceSequential",
                           "scanNaive", "scalarProd", "racyHistogram"})
    speedTasks.push_back({name, speedS, name, speedWidth});

  struct Ablation {
    const char* name;
    smt::MiniTuning tuning;
  };
  smt::MiniTuning noLbd = allOn;
  noLbd.lbd = false;
  smt::MiniTuning noChrono = allOn;
  noChrono.chrono = false;
  smt::MiniTuning noInproc = allOn;
  noInproc.inprocess = false;
  smt::MiniTuning noRewrite = allOn;
  noRewrite.rewrite = false;
  const Ablation ablations[] = {
      {"all-on", allOn},         {"no-lbd", noLbd},
      {"no-chrono", noChrono},   {"no-inprocess", noInproc},
      {"no-rewrite", noRewrite}, {"all-off", allOff},
  };

  std::printf("\nleave-one-out ablation (race workload, w=%u, seconds):\n",
              speedWidth);
  printRow("Config", {"solve (s)", "verdicts"});
  std::string jsonAblations;
  double onSeconds = 0, offSeconds = 0;
  bool ablAgree = true;
  std::vector<check::Outcome> onOutcomes;
  for (const Ablation& a : ablations) {
    const ModeRun r = runRaces(speedTasks, a.tuning);
    if (std::string(a.name) == "all-on") {
      onSeconds = r.solveSeconds;
      onOutcomes = r.outcomes;
    }
    if (std::string(a.name) == "all-off") offSeconds = r.solveSeconds;
    const bool same = onOutcomes.empty() || r.outcomes == onOutcomes;
    ablAgree = ablAgree && same;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", r.solveSeconds);
    printRow(a.name, {buf, same ? "agree" : "DISAGREE"});
    if (!jsonAblations.empty()) jsonAblations += ",";
    jsonAblations += "{\"config\":" + json::quote(a.name) +
                     ",\"solve_seconds\":" + json::number(r.solveSeconds) +
                     ",\"verdicts_agree\":" + (same ? "true" : "false") + "}";
  }
  const double netSpeedup = onSeconds > 0 ? offSeconds / onSeconds : 0;
  std::printf("net all-on vs all-off: %.2fx\n", netSpeedup);

  // ---- Equivalence at full width: Z3 vs MiniSMT ----------------------------
  const EquivPair equivPairs[] = {
      {"Transpose", "transposeNaive", "transposeOpt",
       fast ? 8u : 32u, true},
      {"Reduction", "reduceMod", "reduceStrided", fast ? 8u : 12u, false},
  };
  std::printf("\nparameterized +C equivalence (solve seconds):\n");
  printRow("Pair", {"Z3", "MiniSMT", "verdicts"});
  std::string jsonEquiv;
  double z3Total = 0, miniTotal = 0;
  bool equivAgree = true;
  for (const EquivPair& p : equivPairs) {
    sessions.push_back(std::make_unique<check::VerificationSession>(
        kernels::combinedSource({p.src, p.tgt}, p.width)));
    const check::VerificationSession* s = sessions.back().get();
    const ModeRun rz = runEquiv(s, p, smt::Backend::Z3, allOn);
    const ModeRun rm = runEquiv(s, p, smt::Backend::Mini, allOn);
    z3Total += rz.solveSeconds;
    miniTotal += rm.solveSeconds;
    const bool same = rz.outcomes == rm.outcomes;
    equivAgree = equivAgree && same;
    char bz[32], bm[32];
    std::snprintf(bz, sizeof bz, "%.3f", rz.solveSeconds);
    std::snprintf(bm, sizeof bm, "%.3f", rm.solveSeconds);
    char label[64];
    std::snprintf(label, sizeof label, "%s (%ub)", p.label, p.width);
    printRow(label, {bz, bm, same ? "agree" : "DISAGREE"});
    if (!jsonEquiv.empty()) jsonEquiv += ",";
    jsonEquiv += "{\"pair\":" + json::quote(label) +
                 ",\"width\":" + std::to_string(p.width) +
                 ",\"z3_seconds\":" + json::number(rz.solveSeconds) +
                 ",\"mini_seconds\":" + json::number(rm.solveSeconds) +
                 ",\"z3_outcome\":" +
                 json::quote(check::toString(rz.outcomes[0])) +
                 ",\"mini_outcome\":" +
                 json::quote(check::toString(rm.outcomes[0])) +
                 ",\"verdicts_agree\":" + (same ? "true" : "false") + "}";
  }
  const bool within2x = miniTotal <= 2.0 * z3Total || z3Total == 0;
  std::printf("equivalence totals: Z3 %.3fs, MiniSMT %.3fs (%.2fx of Z3, "
              "bar: 2x)\n",
              z3Total, miniTotal, z3Total > 0 ? miniTotal / z3Total : 0);

  // ---- Emit ---------------------------------------------------------------
  const smt::mini::MiniStatsSnapshot ms = smt::mini::snapshotMiniStats();
  std::string perTask;
  for (size_t i = 0; i < agreeTasks.size(); ++i) {
    if (i != 0) perTask += ",";
    perTask += "{\"task\":" + json::quote(agreeTasks[i].label) +
               ",\"off\":" + json::quote(check::toString(aOff.outcomes[i])) +
               ",\"on\":" + json::quote(check::toString(aOn.outcomes[i])) + "}";
  }
  std::string out =
      "{\"bench\":\"minismt\",\"fast\":" + std::string(fast ? "true" : "false") +
      ",\"timeout_ms\":" + std::to_string(timeoutMs()) +
      ",\"jobs\":" + std::to_string(benchJobs()) +
      ",\"agreement_tasks\":" + std::to_string(agreeTasks.size()) +
      ",\"verdicts_agree\":" + (agree && ablAgree && equivAgree ? "true"
                                                                : "false") +
      ",\"net_speedup_all_on_vs_all_off\":" + json::number(netSpeedup) +
      ",\"ablations\":[" + jsonAblations + "]" +
      ",\"equivalence\":[" + jsonEquiv + "]" +
      ",\"equiv_z3_seconds\":" + json::number(z3Total) +
      ",\"equiv_mini_seconds\":" + json::number(miniTotal) +
      ",\"mini_within_2x_of_z3\":" + (within2x ? "true" : "false") +
      ",\"agreement_verdicts\":[" + perTask + "]" +
      ",\"mini_stats\":{\"conflicts\":" + std::to_string(ms.conflicts) +
      ",\"learnts\":" + std::to_string(ms.learnts) +
      ",\"lbd_glue\":" + std::to_string(ms.lbdGlue) +
      ",\"lbd_mid\":" + std::to_string(ms.lbdMid) +
      ",\"lbd_large\":" + std::to_string(ms.lbdLarge) +
      ",\"learnts_deleted\":" + std::to_string(ms.learntsDeleted) +
      ",\"chrono_backtracks\":" + std::to_string(ms.chronoBacktracks) +
      ",\"inprocess_runs\":" + std::to_string(ms.inprocessRuns) +
      ",\"subsumed\":" + std::to_string(ms.subsumed) +
      ",\"strengthened\":" + std::to_string(ms.strengthened) +
      ",\"eliminated_vars\":" + std::to_string(ms.eliminatedVars) +
      ",\"restored_vars\":" + std::to_string(ms.restoredVars) +
      ",\"rewrites\":" + std::to_string(ms.rewrites) + "}}";
  if (std::FILE* f = std::fopen("BENCH_minismt.json", "w")) {
    std::fprintf(f, "%s\n", out.c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_minismt.json\n");
  } else {
    std::printf("\ncould not write BENCH_minismt.json\n");
  }

  const bool ok = agree && ablAgree && equivAgree;
  std::printf("verdicts %s; net speedup %.2fx; MiniSMT %s the 2x-of-Z3 "
              "bar\n",
              ok ? "agree across every configuration" : "DISAGREE",
              netSpeedup, within2x ? "meets" : "MISSES");
  // CI contract: identical verdicts under every technique combination are
  // a hard failure if violated (every technique must be solution-
  // preserving). Timing bars are reported, not enforced — CI machines are
  // noisy; BENCH_minismt.json carries the measurements.
  return ok ? 0 : 1;
}
