#include "serve/protocol.h"

#include <algorithm>
#include <sstream>

#include "serve/json_parse.h"
#include "support/json.h"

namespace pugpara::serve {

namespace {

bool parseMethod(const std::string& m, check::Method* out) {
  if (m == "param" || m == "parameterized") *out = check::Method::Parameterized;
  else if (m == "bughunt" || m == "parameterized-bughunt")
    *out = check::Method::ParameterizedBugHunt;
  else if (m == "nonparam" || m == "non-parameterized")
    *out = check::Method::NonParameterized;
  else if (m == "auto") *out = check::Method::Auto;
  else return false;
  return true;
}

bool parseBackend(const std::string& b, smt::Backend* out) {
  if (b == "z3") *out = smt::Backend::Z3;
  else if (b == "mini") *out = smt::Backend::Mini;
  else return false;
  return true;
}

}  // namespace

bool parseKind(const std::string& kind, check::CheckKind* out) {
  if (kind == "races") *out = check::CheckKind::Races;
  else if (kind == "asserts") *out = check::CheckKind::Asserts;
  else if (kind == "postcond") *out = check::CheckKind::Postconditions;
  else if (kind == "equiv") *out = check::CheckKind::Equivalence;
  else if (kind == "perf") *out = check::CheckKind::Performance;
  else return false;
  return true;
}

bool parseRequest(const std::string& line, const check::CheckOptions& defaults,
                  Request* out, std::string* err) {
  jsonp::Value v;
  if (!jsonp::parse(line, &v, err)) return false;
  if (!v.isObject()) {
    if (err) *err = "request is not a JSON object";
    return false;
  }
  out->id = v.getString("id");
  const std::string op = v.getString("op", "check");
  if (op == "check") out->op = Request::Op::Check;
  else if (op == "ping") out->op = Request::Op::Ping;
  else if (op == "stats") out->op = Request::Op::Stats;
  else if (op == "shutdown") out->op = Request::Op::Shutdown;
  else {
    if (err) *err = "unknown op '" + op + "'";
    return false;
  }
  if (out->op != Request::Op::Check) return true;

  out->source = v.getString("source");
  if (out->source.empty()) {
    if (err) *err = "check request has no source";
    return false;
  }
  out->kind = v.getString("kind", "all");
  check::CheckKind ignored;
  if (out->kind != "all" && !parseKind(out->kind, &ignored)) {
    if (err) *err = "unknown kind '" + out->kind + "'";
    return false;
  }
  out->kernel = v.getString("kernel");
  out->kernel2 = v.getString("kernel2");
  if (out->kind != "all" && out->kernel.empty()) {
    if (err) *err = "kind '" + out->kind + "' requires a kernel";
    return false;
  }
  if (out->kind == "equiv" && out->kernel2.empty()) {
    if (err) *err = "kind 'equiv' requires kernel2";
    return false;
  }
  out->deadlineMs = static_cast<uint32_t>(v.getU64("deadline_ms", 0));

  out->options = defaults;
  if (const jsonp::Value* o = v.find("options")) {
    if (!o->isObject()) {
      if (err) *err = "'options' must be an object";
      return false;
    }
    if (const jsonp::Value* m = o->find("method")) {
      if (!m->isString() || !parseMethod(m->str, &out->options.method)) {
        if (err) *err = "bad options.method";
        return false;
      }
    }
    if (const jsonp::Value* b = o->find("backend")) {
      if (!b->isString() || !parseBackend(b->str, &out->options.backend)) {
        if (err) *err = "bad options.backend";
        return false;
      }
    }
    if (o->find("width"))
      out->options.width = static_cast<uint32_t>(o->getU64("width", 16));
    if (o->find("timeout_ms"))
      out->options.solverTimeoutMs =
          static_cast<uint32_t>(o->getU64("timeout_ms", 60000));
    if (o->find("memory_mb"))
      out->options.memoryBudgetMb =
          static_cast<uint32_t>(o->getU64("memory_mb", 0));
    out->options.prefilter = o->getBool("prefilter", out->options.prefilter);
    out->options.replayCounterexamples =
        o->getBool("replay", out->options.replayCounterexamples);
    out->options.incrementalSolving =
        o->getBool("incremental", out->options.incrementalSolving);
  }
  return true;
}

std::string encodeRequest(const Request& req) {
  std::ostringstream os;
  os << "{\"op\":";
  switch (req.op) {
    case Request::Op::Check: os << "\"check\""; break;
    case Request::Op::Ping: os << "\"ping\""; break;
    case Request::Op::Stats: os << "\"stats\""; break;
    case Request::Op::Shutdown: os << "\"shutdown\""; break;
  }
  os << ",\"id\":" << json::quote(req.id);
  if (req.op == Request::Op::Check) {
    os << ",\"source\":" << json::quote(req.source)
       << ",\"kind\":" << json::quote(req.kind)
       << ",\"kernel\":" << json::quote(req.kernel)
       << ",\"kernel2\":" << json::quote(req.kernel2)
       << ",\"deadline_ms\":" << req.deadlineMs << ",\"options\":{"
       << "\"method\":" << json::quote(toString(req.options.method))
       << ",\"backend\":"
       << (req.options.backend == smt::Backend::Z3 ? "\"z3\"" : "\"mini\"")
       << ",\"width\":" << req.options.width
       << ",\"timeout_ms\":" << req.options.solverTimeoutMs
       << ",\"memory_mb\":" << req.options.memoryBudgetMb
       << ",\"prefilter\":" << (req.options.prefilter ? "true" : "false")
       << ",\"replay\":"
       << (req.options.replayCounterexamples ? "true" : "false")
       << ",\"incremental\":"
       << (req.options.incrementalSolving ? "true" : "false") << "}";
  }
  os << "}";
  return os.str();
}

std::string resultEvent(const std::string& id, size_t seq, bool cached,
                        const std::string& resultJson) {
  std::ostringstream os;
  os << "{\"id\":" << json::quote(id) << ",\"event\":\"result\",\"seq\":" << seq
     << ",\"cached\":" << (cached ? "true" : "false")
     << ",\"result\":" << resultJson << "}\n";
  return os.str();
}

std::string doneEvent(const std::string& id, size_t checks, size_t memoHits,
                      double elapsedMs, const std::string& cacheStatsJson) {
  std::ostringstream os;
  os << "{\"id\":" << json::quote(id) << ",\"event\":\"done\",\"checks\":"
     << checks << ",\"memoHits\":" << memoHits
     << ",\"elapsedMs\":" << json::number(elapsedMs)
     << ",\"cache\":" << cacheStatsJson << "}\n";
  return os.str();
}

std::string errorEvent(const std::string& id, const std::string& message,
                       const std::string& kind) {
  std::string out = "{\"id\":" + json::quote(id) + ",\"event\":\"error\"";
  if (!kind.empty()) out += ",\"kind\":" + json::quote(kind);
  out += ",\"error\":" + json::quote(message) + "}\n";
  return out;
}

std::string overloadedEvent(const std::string& id, size_t shed,
                            size_t streamed, size_t queueDepth,
                            size_t capacity) {
  std::ostringstream os;
  os << "{\"id\":" << json::quote(id)
     << ",\"event\":\"overloaded\",\"kind\":\"shed\",\"shed\":" << shed
     << ",\"streamed\":" << streamed << ",\"queued\":" << queueDepth
     << ",\"capacity\":" << capacity << "}\n";
  return os.str();
}

std::string pongEvent(const std::string& id) {
  return "{\"id\":" + json::quote(id) + ",\"event\":\"pong\"}\n";
}

std::string statsEvent(const std::string& id, const std::string& statsJson) {
  return "{\"id\":" + json::quote(id) + ",\"event\":\"stats\",\"stats\":" +
         statsJson + "}\n";
}

std::string byeEvent(const std::string& id) {
  return "{\"id\":" + json::quote(id) + ",\"event\":\"bye\"}\n";
}

std::string canonicalCheckString(const std::string& source,
                                 const check::CheckRequest& req) {
  std::ostringstream os;
  // '\x1f' separators keep adjacent fields from gluing into ambiguity.
  const char sep = '\x1f';
  os << 'v' << kSemanticsVersion << sep << source << sep
     << check::toString(req.kind) << sep
     << req.kernel << sep << req.kernel2 << sep
     << toString(req.options.method) << sep << req.options.width << sep
     << (req.options.backend == smt::Backend::Z3 ? "z3" : "mini") << sep
     << static_cast<int>(req.options.frameMode) << sep
     << req.options.ssaEquations << req.options.replayCounterexamples << sep
     << req.options.maxReplayThreads << sep;
  if (req.options.grid)
    os << req.options.grid->gdimX << ',' << req.options.grid->gdimY << ','
       << req.options.grid->bdimX << ',' << req.options.grid->bdimY << ','
       << req.options.grid->bdimZ;
  os << sep;
  // Order-insensitive encoding of the concretization map.
  std::vector<std::pair<std::string, uint64_t>> conc(
      req.options.concretize.begin(), req.options.concretize.end());
  std::sort(conc.begin(), conc.end());
  for (const auto& [k, val] : conc) os << k << '=' << val << ';';
  os << sep << req.options.mini.lbd << req.options.mini.chrono
     << req.options.mini.inprocess << req.options.mini.rewrite;
  return os.str();
}

}  // namespace pugpara::serve
