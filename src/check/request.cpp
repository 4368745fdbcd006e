#include "check/request.h"

#include "check/equiv_checker.h"
#include "check/postcond_checker.h"
#include "check/race_checker.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "support/timer.h"

namespace pugpara::check {

const char* toString(CheckKind k) {
  switch (k) {
    case CheckKind::Equivalence: return "equivalence";
    case CheckKind::Postconditions: return "postconditions";
    case CheckKind::Asserts: return "asserts";
    case CheckKind::Races: return "races";
    case CheckKind::Performance: return "performance";
  }
  return "?";
}

namespace {

std::string makeLabel(CheckKind kind, const std::string& kernel,
                      const std::string& kernel2) {
  std::string out = toString(kind);
  out += '(';
  out += kernel;
  if (kind == CheckKind::Equivalence) {
    out += ", ";
    out += kernel2;
  }
  out += ')';
  return out;
}

}  // namespace

std::string CheckRequest::label() const {
  return makeLabel(kind, kernel, kernel2);
}

std::string CheckResult::label() const {
  return makeLabel(kind, kernel, kernel2);
}

std::string CheckResult::json() const {
  std::string out = "{\"kind\":";
  out += json::quote(toString(kind));
  out += ",\"kernel\":";
  out += json::quote(kernel);
  if (kind == CheckKind::Equivalence) {
    out += ",\"kernel2\":";
    out += json::quote(kernel2);
  }
  out += ",\"report\":";
  out += report.json();
  out += '}';
  return out;
}

CheckResult runCheck(const lang::Program& program,
                     const CheckRequest& request) {
  WallTimer total;
  CheckResult result;
  result.kind = request.kind;
  result.kernel = request.kernel;
  result.kernel2 = request.kernel2;

  auto find = [&](const std::string& name) -> const lang::Kernel& {
    const lang::Kernel* k = program.findKernel(name);
    if (k == nullptr) throw PugError("no kernel named '" + name + "'");
    return *k;
  };

  result.report = runOrReject("none", [&](Report& report) {
    const lang::Kernel& k1 = find(request.kernel);
    switch (request.kind) {
      case CheckKind::Equivalence:
        report = checkEquivalence(k1, find(request.kernel2), request.options);
        break;
      case CheckKind::Postconditions:
        report = checkPostconditions(k1, request.options);
        break;
      case CheckKind::Asserts:
        report = checkAsserts(k1, request.options);
        break;
      case CheckKind::Races:
        report = checkRaces(k1, request.options);
        break;
      case CheckKind::Performance:
        report = checkPerformance(k1, request.options, request.perf);
        break;
    }
  });
  result.report.totalSeconds = total.seconds();
  return result;
}

}  // namespace pugpara::check
