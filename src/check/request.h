// The uniform check API: one request/result pair for every property the
// tool can verify.
//
// A CheckRequest names the check kind (equivalence / postconditions /
// asserts / races / performance), the kernels and the options. A request
// is a plain value — cheap to copy, trivially batched — and is consumed in
// two ways:
//   * one at a time:   session.run(request).report
//   * in batches:      engine.runAll(session, requests)   (src/engine)
// Every check goes through runCheck(), which times it and turns a
// front-end rejection into Outcome::Unsupported.
#pragma once

#include <cstdint>
#include <string>

#include "check/options.h"
#include "check/perf_checker.h"
#include "check/report.h"
#include "lang/ast.h"

namespace pugpara::check {

enum class CheckKind {
  Equivalence,     // kernel vs kernel2
  Postconditions,  // postcond(...) specs of kernel
  Asserts,         // assert(...) statements of kernel
  Races,           // data races in kernel
  Performance,     // bank conflicts / non-coalesced accesses in kernel
};

[[nodiscard]] const char* toString(CheckKind k);

struct CheckRequest {
  CheckKind kind = CheckKind::Postconditions;
  std::string kernel;   // primary kernel name
  std::string kernel2;  // equivalence target (Equivalence only)
  CheckOptions options;
  PerfOptions perf;  // Performance only

  /// Per-check wall-clock deadline enforced by the engine (milliseconds,
  /// 0 = none beyond options.solverTimeoutMs). A check that overruns it
  /// surfaces Outcome::Unknown; sibling checks in the batch are unaffected.
  uint32_t deadlineMs = 0;

  /// Display label, e.g. "races(histogram)" or "equiv(a, b)".
  [[nodiscard]] std::string label() const;
};

struct CheckResult {
  CheckKind kind = CheckKind::Postconditions;
  std::string kernel;
  std::string kernel2;
  Report report;

  [[nodiscard]] std::string label() const;
  [[nodiscard]] bool ok() const { return report.ok(); }
  /// One JSON object: {"kind", "kernel", ..., "report": Report::json()}.
  [[nodiscard]] std::string json() const;
};

/// Executes one request against an analyzed program. Front-end problems
/// (unknown kernel name, shape outside the fragment) come back as
/// Outcome::Unsupported instead of throwing, so one bad request never
/// poisons a batch.
[[nodiscard]] CheckResult runCheck(const lang::Program& program,
                                   const CheckRequest& request);

}  // namespace pugpara::check
