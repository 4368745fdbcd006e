#include "check/report.h"

#include <sstream>

#include "check/options.h"
#include "support/diagnostics.h"
#include "support/json.h"

namespace pugpara::check {

const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Verified: return "verified";
    case Outcome::BugFound: return "bug-found";
    case Outcome::NoBugFound: return "no-bug-found";
    case Outcome::Unknown: return "unknown";
    case Outcome::Unsupported: return "unsupported";
  }
  return "?";
}

const char* toString(FailureKind k) {
  switch (k) {
    case FailureKind::None: return "none";
    case FailureKind::Timeout: return "timeout";
    case FailureKind::Resource: return "resource";
    case FailureKind::BackendCrash: return "backend_crash";
    case FailureKind::Io: return "io";
    case FailureKind::Shed: return "shed";
  }
  return "?";
}

std::string FailureInfo::json() const {
  std::ostringstream os;
  os << "{\"kind\":" << json::quote(toString(kind))
     << ",\"detail\":" << json::quote(detail) << ",\"retries\":" << retries
     << ",\"failedOver\":" << (failedOver ? "true" : "false") << '}';
  return os.str();
}

std::string Counterexample::str() const {
  std::ostringstream os;
  os << "grid(" << gdimX << "x" << gdimY << ") block(" << bdimX << "x"
     << bdimY << "x" << bdimZ << ")";
  if (!scalarArgs.empty()) {
    os << " args(";
    for (size_t i = 0; i < scalarArgs.size(); ++i)
      os << (i ? ", " : "") << scalarArgs[i];
    os << ")";
  }
  if (!witnessValues.empty()) {
    os << " witness(";
    for (size_t i = 0; i < witnessValues.size(); ++i)
      os << (i ? ", " : "") << witnessValues[i];
    os << ")";
  }
  if (replayed)
    os << (replayConfirmed ? " [replay: CONFIRMED]" : " [replay: rejected]");
  return os.str();
}

std::string Counterexample::json() const {
  std::ostringstream os;
  os << "{\"grid\":[" << gdimX << ',' << gdimY << "],\"block\":[" << bdimX
     << ',' << bdimY << ',' << bdimZ << "],\"scalarArgs\":[";
  for (size_t i = 0; i < scalarArgs.size(); ++i)
    os << (i ? "," : "") << scalarArgs[i];
  os << "],\"witnessValues\":[";
  for (size_t i = 0; i < witnessValues.size(); ++i)
    os << (i ? "," : "") << witnessValues[i];
  os << "],\"inputArrays\":[";
  for (size_t i = 0; i < inputArrays.size(); ++i) {
    os << (i ? ",[" : "[");
    for (size_t j = 0; j < inputArrays[i].size(); ++j)
      os << (j ? "," : "") << inputArrays[i][j];
    os << ']';
  }
  os << "],\"replayed\":" << (replayed ? "true" : "false")
     << ",\"replayConfirmed\":" << (replayConfirmed ? "true" : "false")
     << ",\"replayDetail\":" << json::quote(replayDetail) << '}';
  return os.str();
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"outcome\":" << json::quote(toString(outcome))
     << ",\"method\":" << json::quote(method)
     << ",\"detail\":" << json::quote(detail)
     << ",\"solveSeconds\":" << json::number(solveSeconds)
     << ",\"totalSeconds\":" << json::number(totalSeconds) << ",\"caveats\":[";
  for (size_t i = 0; i < caveats.size(); ++i)
    os << (i ? "," : "") << json::quote(caveats[i]);
  os << "]";
  if (!unsupportedReason.empty())
    os << ",\"unsupported\":{\"reason\":" << json::quote(unsupportedReason)
       << "}";
  if (failure.kind != FailureKind::None)
    os << ",\"failure\":" << failure.json();
  os << ",\"stats\":{\"instances\":" << stats.instances
     << ",\"qeCerts\":" << stats.qeCerts
     << ",\"forallCerts\":" << stats.forallCerts
     << ",\"uniformCerts\":" << stats.uniformCerts
     << ",\"tier0Discharged\":" << discharge.tier0
     << ",\"slicedQueries\":" << discharge.sliced
     << ",\"fullSmtQueries\":" << discharge.fullSmt
     << ",\"solverCalls\":" << discharge.solverCalls
     << "},\"counterexamples\":[";
  for (size_t i = 0; i < counterexamples.size(); ++i)
    os << (i ? "," : "") << counterexamples[i].json();
  os << "]}";
  return os.str();
}

std::string Report::str() const {
  std::ostringstream os;
  os << toString(outcome) << " (" << method << ", " << solveSeconds
     << "s solve)";
  if (!detail.empty()) os << ": " << detail;
  if (!unsupportedReason.empty())
    os << "\n  unsupported: " << unsupportedReason;
  if (failure.kind != FailureKind::None) {
    os << "\n  failure: " << toString(failure.kind);
    if (failure.retries > 0) os << " after " << failure.retries << " retries";
    if (failure.failedOver) os << " (failed over)";
    if (!failure.detail.empty()) os << " — " << failure.detail;
  }
  for (const auto& c : caveats) os << "\n  caveat: " << c;
  for (const auto& cx : counterexamples) os << "\n  cex: " << cx.str();
  return os.str();
}

Report runOrReject(std::string method,
                   const std::function<void(Report&)>& check) {
  Report report;
  report.method = std::move(method);
  try {
    check(report);
  } catch (const PugError& e) {
    report.outcome = Outcome::Unsupported;
    report.detail = e.what();
    if (const auto* u = dynamic_cast<const UnsupportedError*>(&e))
      report.unsupportedReason = u->reason();
  }
  return report;
}

}  // namespace pugpara::check
