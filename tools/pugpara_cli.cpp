// pugpara — command-line driver for the PUGpara checkers.
//
// Batch mode (the default when the first argument is a file):
//   pugpara FILE [--list] [--dump]
//   pugpara FILE --postcond K | --asserts K | --races K | --perf K
//   pugpara FILE --equiv A B
//   pugpara FILE --all                 (races+asserts+postcond, every kernel)
// common flags:   --method param|bughunt|nonparam|auto   (default: param)
//                 --width N                              (default: 16)
//                 --backend z3|mini                      (default: z3)
//                 --grid GX,GY,BX,BY,BZ   (enables the nonparam method)
//                 --concretize name=value (repeatable; "+C" knob)
//                 --timeout MS            (default: 60000)
//                 --memory MB             per-query solver memory budget
//                                         (0 = unlimited; breach -> unknown
//                                         with failure kind "resource")
//                 --no-replay
//                 --no-prefilter  disable the tiered query-discharge
//                                 pipeline (abstract-domain Tier 0 +
//                                 cone-of-influence slicing Tier 1)
// MiniSMT flags:  --no-lbd        disable LBD learnt-clause management
//                 --no-chrono     disable chronological backtracking
//                 --no-inprocess  disable subsumption/variable elimination
//                 --no-rewrite    disable the word-level rewriter
// engine flags:   --jobs N      worker threads for batches (0 = auto, default 1)
//                 --json        machine-readable results on stdout
//                 --deadline MS per-check wall-clock budget (overruns -> unknown)
//                 --cache FILE  persistent solver-query cache (loaded+saved)
//                 --retries N   containment-ladder retries per backend
//                               (budget doubles each retry; default 1)
//                 --no-failover do not fail over to the alternate backend
//                 --inject SPEC deterministic chaos injection, e.g.
//                               "seed=7,solver.check.mini=once@timeout"
//                               (also via PUGPARA_FAULTS; off otherwise)
//
// Daemon mode:
//   pugpara serve [--socket PATH] [--port N] [--jobs N] [--queue N]
//                 [--cache-dir DIR] [--cache-cap N] [--deadline MS]
//                 [--method M] [--width N] [--backend B] [--timeout MS]
//                 [--memory MB] [--retries N] [--no-failover] [--inject SPEC]
//                 [--no-prefilter]
//   pugpara submit (--socket PATH | --host H --port N) FILE
//                 [--all] [--races K|--asserts K|--postcond K|--perf K|
//                  --equiv A B] [--method M] [--width N] [--backend B]
//                 [--timeout MS] [--memory MB] [--deadline MS]
//                 [--no-prefilter] [--no-replay] [--id ID] [--json]
//   pugpara submit (--socket ...|--host/--port) --ping|--stats|--shutdown
//   pugpara corpus [--width N] [--list]      (dump the built-in corpus)
//   pugpara ir FILE [--kernel K] [--ir-no-opt]
//                 (dump the PIR of each kernel before and after the pass
//                  pipeline; --ir-no-opt skips the optimized dump)
//
// Batch-mode IR flag: --ir-no-opt  check the lowered PIR without running
//                                  the pass pipeline (GVN/DCE) first
//
// Exit code: 0 verified / no bug found, 1 bug found, 2 unknown, 3 usage or
// front-end error (and, for submit, transport/overload failures).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/session.h"
#include "engine/engine.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "ir/pir.h"
#include "ir/query.h"
#include "kernels/corpus.h"
#include "lang/ast_printer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "smt/mini/stats.h"
#include "support/faultinject.h"

namespace {

using namespace pugpara;

void usage() {
  std::fprintf(stderr,
               "usage: pugpara FILE [--list|--dump] [--all] "
               "[--postcond K|--asserts K|--races K|--perf K|--equiv A B]\n"
               "       [--method param|bughunt|nonparam|auto] [--width N]\n"
               "       [--backend z3|mini] [--grid GX,GY,BX,BY,BZ]\n"
               "       [--concretize name=value]... [--timeout MS] "
               "[--no-replay] [--no-prefilter]\n"
               "       [--no-lbd] [--no-chrono] [--no-inprocess] "
               "[--no-rewrite]\n"
               "       [--jobs N] [--json] [--deadline MS] [--cache FILE]\n"
               "       [--memory MB] [--retries N] [--no-failover] "
               "[--inject SPEC]\n"
               "   or: pugpara serve [--socket PATH] [--port N] [--jobs N] "
               "[--queue N] [--cache-dir DIR]\n"
               "       [--cache-cap N] [--deadline MS] [--method M] "
               "[--width N] [--backend B]\n"
               "       [--timeout MS] [--no-prefilter]\n"
               "   or: pugpara submit (--socket PATH|--host H --port N) "
               "[FILE] [check flags] [--json]\n"
               "       [--ping|--stats|--shutdown]\n"
               "   or: pugpara corpus [--width N] [--list]\n"
               "   or: pugpara ir FILE [--kernel K] [--ir-no-opt]\n"
               "batch IR flag: [--ir-no-opt]\n");
}

int outcomeCode(const check::Report& r) {
  switch (r.outcome) {
    case check::Outcome::Verified:
    case check::Outcome::NoBugFound:
      return 0;
    case check::Outcome::BugFound:
      return 1;
    default:
      return 2;
  }
}

// Shared argv helpers; `i` is the caller's loop index.
std::string argNext(int argc, char** argv, int& i, const char* what) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "pugpara: %s expects an argument\n", what);
    std::exit(3);
  }
  return argv[++i];
}

uint64_t argNextNum(int argc, char** argv, int& i, const char* what) {
  const std::string v = argNext(argc, argv, i, what);
  try {
    size_t pos = 0;
    const uint64_t n = std::stoull(v, &pos);
    if (pos == v.size()) return n;
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "pugpara: %s expects a number, got '%s'\n", what,
               v.c_str());
  std::exit(3);
}

bool parseMethodFlag(const std::string& m, check::CheckOptions* opts) {
  if (m == "param") opts->method = check::Method::Parameterized;
  else if (m == "bughunt") opts->method = check::Method::ParameterizedBugHunt;
  else if (m == "nonparam") opts->method = check::Method::NonParameterized;
  else if (m == "auto") opts->method = check::Method::Auto;
  else return false;
  return true;
}

bool parseBackendFlag(const std::string& b, check::CheckOptions* opts) {
  if (b == "z3") opts->backend = smt::Backend::Z3;
  else if (b == "mini") opts->backend = smt::Backend::Mini;
  else return false;
  return true;
}

bool applyInject(const std::string& spec) {
  std::string err;
  if (!fault::configure(spec, &err)) {
    std::fprintf(stderr, "pugpara: bad --inject spec: %s\n", err.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// pugpara serve
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_signal = 0;
void onSignal(int sig) { g_signal = sig; }

int serveMain(int argc, char** argv) {
  serve::ServeOptions sopts;
  sopts.defaults.method = check::Method::Parameterized;
  sopts.defaults.solverTimeoutMs = 60000;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      sopts.socketPath = argNext(argc, argv, i, "--socket");
    } else if (arg == "--port") {
      sopts.tcpPort = static_cast<uint16_t>(argNextNum(argc, argv, i, "--port"));
    } else if (arg == "--jobs") {
      sopts.jobs = static_cast<unsigned>(argNextNum(argc, argv, i, "--jobs"));
    } else if (arg == "--queue") {
      sopts.queueCapacity = argNextNum(argc, argv, i, "--queue");
    } else if (arg == "--cache-dir") {
      sopts.cacheDir = argNext(argc, argv, i, "--cache-dir");
    } else if (arg == "--cache-cap") {
      sopts.queryCacheCapacity = argNextNum(argc, argv, i, "--cache-cap");
    } else if (arg == "--deadline") {
      sopts.defaultDeadlineMs =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--deadline"));
    } else if (arg == "--method") {
      if (!parseMethodFlag(argNext(argc, argv, i, "--method"),
                           &sopts.defaults)) {
        usage();
        return 3;
      }
    } else if (arg == "--width") {
      sopts.defaults.width =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--width"));
    } else if (arg == "--backend") {
      if (!parseBackendFlag(argNext(argc, argv, i, "--backend"),
                            &sopts.defaults)) {
        usage();
        return 3;
      }
    } else if (arg == "--timeout") {
      sopts.defaults.solverTimeoutMs =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--timeout"));
    } else if (arg == "--memory") {
      sopts.defaults.memoryBudgetMb =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--memory"));
    } else if (arg == "--retries") {
      sopts.maxRetries =
          static_cast<unsigned>(argNextNum(argc, argv, i, "--retries"));
    } else if (arg == "--no-failover") {
      sopts.failover = false;
    } else if (arg == "--inject") {
      if (!applyInject(argNext(argc, argv, i, "--inject"))) return 3;
    } else if (arg == "--no-prefilter") {
      sopts.defaults.prefilter = false;
    } else {
      std::fprintf(stderr, "pugpara serve: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }
  if (sopts.socketPath.empty() && sopts.tcpPort == 0) {
    std::fprintf(stderr,
                 "pugpara serve: need --socket PATH and/or --port N\n");
    return 3;
  }

  serve::Server server(sopts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "pugpara serve: %s\n", err.c_str());
    return 3;
  }
  if (!sopts.socketPath.empty())
    std::fprintf(stderr, "pugpara serve: listening on unix:%s\n",
                 sopts.socketPath.c_str());
  if (server.boundTcpPort() != 0)
    std::fprintf(stderr, "pugpara serve: listening on tcp:127.0.0.1:%u\n",
                 server.boundTcpPort());
  std::fprintf(stderr,
               "pugpara serve: cache-dir=%s queue=%zu deadline=%ums\n",
               sopts.cacheDir.empty() ? "(memory)" : sopts.cacheDir.c_str(),
               sopts.queueCapacity, sopts.defaultDeadlineMs);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // Signal handlers cannot notify the server's condvar, so poll the flag.
  while (!server.waitFor(200)) {
    if (g_signal != 0) break;
  }
  server.stop();
  const serve::ServeStats st = server.stats();
  std::fprintf(stderr,
               "pugpara serve: exiting: %llu connection(s), %llu request(s), "
               "%llu check(s) run, %llu memo hit(s), %llu shed\n",
               static_cast<unsigned long long>(st.connections),
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.checksRun),
               static_cast<unsigned long long>(st.memoHits),
               static_cast<unsigned long long>(st.shedChecks));
  return 0;
}

// ---------------------------------------------------------------------------
// pugpara submit
// ---------------------------------------------------------------------------

int submitMain(int argc, char** argv) {
  std::string socketPath, host = "127.0.0.1", file, id = "cli";
  uint16_t port = 0;
  bool jsonOut = false;
  serve::Request req;
  req.kind = "all";
  req.options.method = check::Method::Parameterized;
  req.options.solverTimeoutMs = 60000;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      socketPath = argNext(argc, argv, i, "--socket");
    } else if (arg == "--host") {
      host = argNext(argc, argv, i, "--host");
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(argNextNum(argc, argv, i, "--port"));
    } else if (arg == "--json") {
      jsonOut = true;
    } else if (arg == "--id") {
      id = argNext(argc, argv, i, "--id");
    } else if (arg == "--ping") {
      req.op = serve::Request::Op::Ping;
    } else if (arg == "--stats") {
      req.op = serve::Request::Op::Stats;
    } else if (arg == "--shutdown") {
      req.op = serve::Request::Op::Shutdown;
    } else if (arg == "--all") {
      req.kind = "all";
    } else if (arg == "--races") {
      req.kind = "races";
      req.kernel = argNext(argc, argv, i, "--races");
    } else if (arg == "--asserts") {
      req.kind = "asserts";
      req.kernel = argNext(argc, argv, i, "--asserts");
    } else if (arg == "--postcond") {
      req.kind = "postcond";
      req.kernel = argNext(argc, argv, i, "--postcond");
    } else if (arg == "--perf") {
      req.kind = "perf";
      req.kernel = argNext(argc, argv, i, "--perf");
    } else if (arg == "--equiv") {
      req.kind = "equiv";
      req.kernel = argNext(argc, argv, i, "--equiv");
      req.kernel2 = argNext(argc, argv, i, "--equiv");
    } else if (arg == "--method") {
      if (!parseMethodFlag(argNext(argc, argv, i, "--method"), &req.options)) {
        usage();
        return 3;
      }
    } else if (arg == "--width") {
      req.options.width =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--width"));
    } else if (arg == "--backend") {
      if (!parseBackendFlag(argNext(argc, argv, i, "--backend"),
                            &req.options)) {
        usage();
        return 3;
      }
    } else if (arg == "--timeout") {
      req.options.solverTimeoutMs =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--timeout"));
    } else if (arg == "--memory") {
      req.options.memoryBudgetMb =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--memory"));
    } else if (arg == "--deadline") {
      req.deadlineMs =
          static_cast<uint32_t>(argNextNum(argc, argv, i, "--deadline"));
    } else if (arg == "--no-prefilter") {
      req.options.prefilter = false;
    } else if (arg == "--no-replay") {
      req.options.replayCounterexamples = false;
    } else if (!arg.empty() && arg[0] != '-' && file.empty()) {
      file = arg;
    } else {
      std::fprintf(stderr, "pugpara submit: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }

  if (socketPath.empty() && port == 0) {
    std::fprintf(stderr,
                 "pugpara submit: need --socket PATH or --host/--port\n");
    return 3;
  }
  req.id = id;
  if (req.op == serve::Request::Op::Check) {
    if (file.empty()) {
      std::fprintf(stderr, "pugpara submit: need a FILE to check\n");
      return 3;
    }
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "pugpara submit: cannot open '%s'\n", file.c_str());
      return 3;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    req.source = buffer.str();
  }

  serve::Client client;
  std::string err;
  const bool connected = socketPath.empty()
                             ? client.connectTcp(host, port, &err)
                             : client.connectUnix(socketPath, &err);
  if (!connected) {
    std::fprintf(stderr, "pugpara submit: %s\n", err.c_str());
    return 3;
  }

  auto printEvent = [&](const serve::jsonp::Value& ev, const std::string& raw) {
    if (jsonOut) {
      std::printf("%s\n", raw.c_str());
      return;
    }
    const std::string event = ev.getString("event");
    if (event == "result") {
      const serve::jsonp::Value* result = ev.find("result");
      const serve::jsonp::Value* report = result ? result->find("report") : nullptr;
      if (!result || !report) return;
      const serve::jsonp::Value* solve = report->find("solveSeconds");
      const std::string detail = report->getString("detail");
      std::printf("%s(%s): %s (%s, %.3gs solve)%s%s%s\n",
                  result->getString("kind", "?").c_str(),
                  result->getString("kernel", "?").c_str(),
                  report->getString("outcome", "unknown").c_str(),
                  report->getString("method", "?").c_str(),
                  solve && solve->kind == serve::jsonp::Value::Kind::Number
                      ? solve->number
                      : 0.0,
                  detail.empty() ? "" : ": ", detail.c_str(),
                  ev.getBool("cached", false) ? "  [cached]" : "");
    } else if (event == "done") {
      std::fprintf(stderr,
                   "pugpara submit: done: %llu check(s), %llu memo hit(s), "
                   "%.3f ms\n",
                   static_cast<unsigned long long>(ev.getU64("checks", 0)),
                   static_cast<unsigned long long>(ev.getU64("memoHits", 0)),
                   ev.find("elapsedMs") ? ev.find("elapsedMs")->number : 0.0);
    } else if (event == "overloaded") {
      std::fprintf(stderr,
                   "pugpara submit: server overloaded (%llu shed)\n",
                   static_cast<unsigned long long>(ev.getU64("shed", 0)));
    } else if (event == "error") {
      std::fprintf(stderr, "pugpara submit: server error: %s\n",
                   ev.getString("error").c_str());
    } else if (event == "pong") {
      std::printf("pong\n");
    } else if (event == "stats") {
      std::printf("%s\n", raw.c_str());
    } else if (event == "bye") {
      std::printf("bye\n");
    }
  };

  const serve::SubmitOutcome out = serve::submit(client, req, printEvent);
  if (req.op != serve::Request::Op::Check) {
    const char* want = req.op == serve::Request::Op::Ping     ? "pong"
                       : req.op == serve::Request::Op::Stats  ? "stats"
                                                              : "bye";
    if (out.terminal == want) return 0;
    std::fprintf(stderr, "pugpara submit: %s\n",
                 out.error.empty() ? "unexpected terminal event"
                                   : out.error.c_str());
    return 3;
  }
  if (out.terminal != "done" && !jsonOut && !out.error.empty())
    std::fprintf(stderr, "pugpara submit: %s\n", out.error.c_str());
  return out.exitCode();
}

// ---------------------------------------------------------------------------
// pugpara corpus
// ---------------------------------------------------------------------------

int corpusMain(int argc, char** argv) {
  uint32_t width = 16;
  bool list = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--width") {
      width = static_cast<uint32_t>(argNextNum(argc, argv, i, "--width"));
    } else if (arg == "--list") {
      list = true;
    } else {
      std::fprintf(stderr, "pugpara corpus: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }
  if (list) {
    for (const auto& e : kernels::corpus())
      std::printf("%-24s %-12s %s\n", e.name.c_str(), e.family.c_str(),
                  e.description.c_str());
    return 0;
  }
  std::vector<std::string> names;
  for (const auto& e : kernels::corpus()) names.push_back(e.name);
  std::printf("%s", kernels::combinedSource(names, width).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// pugpara ir — dump the PIR of a file's kernels before/after the passes
// ---------------------------------------------------------------------------

int irMain(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "pugpara ir: need a FILE\n");
    usage();
    return 3;
  }
  std::string kernelName;
  bool optimize = true;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel") {
      kernelName = argNext(argc, argv, i, "--kernel");
    } else if (arg == "--ir-no-opt") {
      optimize = false;
    } else {
      std::fprintf(stderr, "pugpara ir: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }

  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "pugpara ir: cannot open '%s'\n", argv[2]);
    return 3;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  try {
    check::VerificationSession session(buffer.str());
    bool found = false;
    for (const auto& k : session.program().kernels) {
      if (!kernelName.empty() && k->name != kernelName) continue;
      found = true;
      auto fn = ir::lower(*k);
      std::printf("== %s (lowered) ==\n%s", k->name.c_str(),
                  ir::dump(*fn).c_str());
      if (optimize) {
        auto opt = ir::runPasses(*fn);
        std::printf("== %s (after passes) ==\n%s", k->name.c_str(),
                    ir::dump(*opt).c_str());
        fn = opt;
      }
      const uint32_t axes = ir::storeIndexThreadAxes(*fn);
      std::printf("store-index thread axes:%s%s%s%s\n",
                  (axes & 1u) != 0 ? " tid.x" : "",
                  (axes & 2u) != 0 ? " tid.y" : "",
                  (axes & 4u) != 0 ? " tid.z" : "",
                  axes == 0 ? " (none)" : "");
    }
    if (!found) {
      std::fprintf(stderr, "pugpara ir: no kernel named '%s'\n",
                   kernelName.c_str());
      return 3;
    }
    return 0;
  } catch (const PugError& e) {
    std::fprintf(stderr, "pugpara ir: %s\n", e.what());
    return 3;
  }
}

// ---------------------------------------------------------------------------
// batch mode (the original single-shot CLI)
// ---------------------------------------------------------------------------

int batchMain(int argc, char** argv) {
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "pugpara: cannot open '%s'\n", argv[1]);
    return 3;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  check::CheckOptions opts;
  opts.method = check::Method::Parameterized;
  opts.solverTimeoutMs = 60000;

  enum class Action { Summary, List, Dump, Postcond, Asserts, Races, Perf,
                      Equiv };
  Action action = Action::Summary;
  std::string k1, k2;

  engine::EngineOptions eopts;
  bool jsonOut = false;
  uint32_t deadlineMs = 0;
  std::string cachePath;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      return argNext(argc, argv, i, what);
    };
    auto nextNum = [&](const char* what) -> uint64_t {
      return argNextNum(argc, argv, i, what);
    };
    if (arg == "--list") action = Action::List;
    else if (arg == "--dump") action = Action::Dump;
    else if (arg == "--all") action = Action::Summary;
    else if (arg == "--postcond") { action = Action::Postcond; k1 = next("--postcond"); }
    else if (arg == "--asserts") { action = Action::Asserts; k1 = next("--asserts"); }
    else if (arg == "--races") { action = Action::Races; k1 = next("--races"); }
    else if (arg == "--perf") { action = Action::Perf; k1 = next("--perf"); }
    else if (arg == "--equiv") {
      action = Action::Equiv;
      k1 = next("--equiv");
      k2 = next("--equiv");
    } else if (arg == "--method") {
      if (!parseMethodFlag(next("--method"), &opts)) { usage(); return 3; }
    } else if (arg == "--width") {
      opts.width = static_cast<uint32_t>(nextNum("--width"));
    } else if (arg == "--backend") {
      if (!parseBackendFlag(next("--backend"), &opts)) { usage(); return 3; }
    } else if (arg == "--grid") {
      const std::string g = next("--grid");
      encode::GridConfig grid;
      if (std::sscanf(g.c_str(), "%u,%u,%u,%u,%u", &grid.gdimX, &grid.gdimY,
                      &grid.bdimX, &grid.bdimY, &grid.bdimZ) != 5) {
        std::fprintf(stderr, "pugpara: --grid expects GX,GY,BX,BY,BZ\n");
        return 3;
      }
      opts.grid = grid;
    } else if (arg == "--concretize") {
      const std::string kv = next("--concretize");
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "pugpara: --concretize expects name=value\n");
        return 3;
      }
      const std::string val = kv.substr(eq + 1);
      try {
        size_t pos = 0;
        opts.concretize[kv.substr(0, eq)] = std::stoull(val, &pos);
        if (pos != val.size()) throw std::invalid_argument(val);
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "pugpara: --concretize expects name=value, got '%s'\n",
                     kv.c_str());
        return 3;
      }
    } else if (arg == "--timeout") {
      opts.solverTimeoutMs = static_cast<uint32_t>(nextNum("--timeout"));
    } else if (arg == "--memory") {
      opts.memoryBudgetMb = static_cast<uint32_t>(nextNum("--memory"));
    } else if (arg == "--no-replay") {
      opts.replayCounterexamples = false;
    } else if (arg == "--no-prefilter") {
      opts.prefilter = false;
    } else if (arg == "--ir-no-opt") {
      opts.irOptimize = false;
    } else if (arg == "--no-lbd") {
      opts.mini.lbd = false;
    } else if (arg == "--no-chrono") {
      opts.mini.chrono = false;
    } else if (arg == "--no-inprocess") {
      opts.mini.inprocess = false;
    } else if (arg == "--no-rewrite") {
      opts.mini.rewrite = false;
    } else if (arg == "--jobs") {
      eopts.jobs = static_cast<unsigned>(nextNum("--jobs"));
    } else if (arg == "--json") {
      jsonOut = true;
    } else if (arg == "--deadline") {
      deadlineMs = static_cast<uint32_t>(nextNum("--deadline"));
    } else if (arg == "--cache") {
      cachePath = next("--cache");
    } else if (arg == "--retries") {
      eopts.maxRetries = static_cast<unsigned>(nextNum("--retries"));
    } else if (arg == "--no-failover") {
      eopts.failover = false;
    } else if (arg == "--inject") {
      if (!applyInject(next("--inject"))) return 3;
    } else {
      std::fprintf(stderr, "pugpara: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }

  try {
    check::VerificationSession session(buffer.str());

    switch (action) {
      case Action::List:
        for (const auto& k : session.program().kernels)
          std::printf("%s  (%zu params%s)\n", k->name.c_str(),
                      k->params.size(),
                      k->usesBarrier ? ", uses barriers" : "");
        return 0;
      case Action::Dump:
        for (const auto& k : session.program().kernels)
          std::printf("%s\n", lang::printKernel(*k).c_str());
        return 0;
      default:
        break;
    }

    // Every checking action runs through the engine: build the batch, run
    // it on the worker pool, print in deterministic request order.
    std::vector<check::CheckRequest> requests;
    auto push = [&](check::CheckKind kind, const std::string& a,
                    const std::string& b = "") {
      check::CheckRequest r;
      r.kind = kind;
      r.kernel = a;
      r.kernel2 = b;
      r.options = opts;
      r.deadlineMs = deadlineMs;
      requests.push_back(std::move(r));
    };
    switch (action) {
      case Action::Postcond: push(check::CheckKind::Postconditions, k1); break;
      case Action::Asserts: push(check::CheckKind::Asserts, k1); break;
      case Action::Races: push(check::CheckKind::Races, k1); break;
      case Action::Perf: push(check::CheckKind::Performance, k1); break;
      case Action::Equiv: push(check::CheckKind::Equivalence, k1, k2); break;
      case Action::Summary:
        for (const auto& k : session.program().kernels) {
          push(check::CheckKind::Races, k->name);
          push(check::CheckKind::Asserts, k->name);
          push(check::CheckKind::Postconditions, k->name);
        }
        break;
      default:
        break;
    }

    eopts.cache = std::make_shared<smt::QueryCache>();
    if (!cachePath.empty()) eopts.cache->load(cachePath);

    engine::VerificationEngine engine(eopts);
    std::vector<check::CheckResult> results =
        engine.runAll(session, requests);

    int worst = 0;
    if (jsonOut) {
      std::printf("{\"results\":[");
      for (size_t i = 0; i < results.size(); ++i) {
        std::printf("%s%s", i ? "," : "", results[i].json().c_str());
        worst = std::max(worst, outcomeCode(results[i].report));
      }
      const smt::QueryCache::Stats cs = engine.cache().stats();
      check::DischargeStats total;
      for (const auto& r : results) {
        total.tier0 += r.report.discharge.tier0;
        total.sliced += r.report.discharge.sliced;
        total.fullSmt += r.report.discharge.fullSmt;
        total.solverCalls += r.report.discharge.solverCalls;
      }
      std::printf(
          "],\"engine\":{\"jobs\":%u,\"prefilter\":%s,"
          "\"cacheHits\":%llu,\"cacheMisses\":%llu,\"cacheInsertions\":%llu,"
          "\"cacheEvictions\":%llu,"
          "\"tier0Discharged\":%llu,\"slicedQueries\":%llu,"
          "\"fullSmtQueries\":%llu,\"solverCalls\":%llu},",
          eopts.jobs, opts.prefilter ? "true" : "false",
          static_cast<unsigned long long>(cs.hits),
          static_cast<unsigned long long>(cs.misses),
          static_cast<unsigned long long>(cs.insertions),
          static_cast<unsigned long long>(cs.evictions),
          static_cast<unsigned long long>(total.tier0),
          static_cast<unsigned long long>(total.sliced),
          static_cast<unsigned long long>(total.fullSmt),
          static_cast<unsigned long long>(total.solverCalls));
      const smt::mini::MiniStatsSnapshot ms = smt::mini::snapshotMiniStats();
      std::printf(
          "\"minismt\":{\"conflicts\":%llu,\"decisions\":%llu,"
          "\"propagations\":%llu,\"restarts\":%llu,\"learnts\":%llu,"
          "\"lbdHistogram\":{\"glue\":%llu,\"mid\":%llu,\"large\":%llu},"
          "\"learntsDeleted\":%llu,\"chronoBacktracks\":%llu,"
          "\"inprocessRuns\":%llu,\"subsumed\":%llu,\"strengthened\":%llu,"
          "\"eliminatedVars\":%llu,\"restoredVars\":%llu,"
          "\"rewrites\":%llu}}\n",
          static_cast<unsigned long long>(ms.conflicts),
          static_cast<unsigned long long>(ms.decisions),
          static_cast<unsigned long long>(ms.propagations),
          static_cast<unsigned long long>(ms.restarts),
          static_cast<unsigned long long>(ms.learnts),
          static_cast<unsigned long long>(ms.lbdGlue),
          static_cast<unsigned long long>(ms.lbdMid),
          static_cast<unsigned long long>(ms.lbdLarge),
          static_cast<unsigned long long>(ms.learntsDeleted),
          static_cast<unsigned long long>(ms.chronoBacktracks),
          static_cast<unsigned long long>(ms.inprocessRuns),
          static_cast<unsigned long long>(ms.subsumed),
          static_cast<unsigned long long>(ms.strengthened),
          static_cast<unsigned long long>(ms.eliminatedVars),
          static_cast<unsigned long long>(ms.restoredVars),
          static_cast<unsigned long long>(ms.rewrites));
    } else if (action == Action::Summary) {
      // Grouped per kernel, three properties per group (request order).
      for (size_t i = 0; i < results.size(); ++i) {
        if (i % 3 == 0)
          std::printf("== %s ==\n", results[i].kernel.c_str());
        const char* tag = i % 3 == 0   ? "races:   "
                          : i % 3 == 1 ? "asserts: "
                                       : "postcond:";
        std::printf("  %s %s\n", tag, results[i].report.str().c_str());
        worst = std::max(worst, outcomeCode(results[i].report));
      }
    } else {
      for (const auto& r : results) {
        std::printf("%s\n", r.report.str().c_str());
        worst = std::max(worst, outcomeCode(r.report));
      }
    }

    if (!jsonOut && (requests.size() > 1 || !cachePath.empty())) {
      const smt::QueryCache::Stats cs = engine.cache().stats();
      std::fprintf(stderr,
                   "pugpara: engine: %zu checks, jobs=%u, cache: %llu "
                   "hit(s), %llu miss(es)\n",
                   requests.size(), eopts.jobs,
                   static_cast<unsigned long long>(cs.hits),
                   static_cast<unsigned long long>(cs.misses));
    }
    if (!cachePath.empty() && !engine.cache().save(cachePath))
      std::fprintf(stderr, "pugpara: warning: cannot write cache '%s'\n",
                   cachePath.c_str());
    return worst;
  } catch (const PugError& e) {
    std::fprintf(stderr, "pugpara: %s\n", e.what());
    return 3;
  }
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  // Chaos injection stays dormant unless PUGPARA_FAULTS (or --inject) arms
  // it — one relaxed atomic load per site otherwise.
  fault::initFromEnv();
  if (argc < 2) {
    usage();
    return 3;
  }
  const std::string first = argv[1];
  if (first == "serve") return serveMain(argc, argv);
  if (first == "submit") return submitMain(argc, argv);
  if (first == "corpus") return corpusMain(argc, argv);
  if (first == "ir") return irMain(argc, argv);
  if (first == "--help" || first == "-h") {
    usage();
    return 0;
  }
  return batchMain(argc, argv);
}
