// Check outcomes and reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "para/resolve.h"

namespace pugpara::check {

enum class Outcome {
  Verified,     // property proven (for the method's scope)
  BugFound,     // counterexample found (replay-confirmed when enabled)
  NoBugFound,   // under-approximate search found nothing (bug-hunt mode)
  Unknown,      // solver gave up / timed out
  Unsupported,  // kernel shape outside the method's fragment
};

[[nodiscard]] const char* toString(Outcome o);

/// Why a check had to degrade. `None` means the verdict stands on its own;
/// anything else classifies the failure the engine contained on the way to
/// the (usually Unknown) verdict it returned instead of crashing.
enum class FailureKind : uint8_t {
  None,          // no containment needed
  Timeout,       // deadline/time budget exhausted (incl. watchdog kills)
  Resource,      // memory budget breached / allocation failure
  BackendCrash,  // a solver backend threw; barrier absorbed it
  Io,            // persistent-store write failure degraded the run
  Shed,          // admission control rejected the work before solving
};

[[nodiscard]] const char* toString(FailureKind k);

/// Structured record of the containment path a degraded check took.
/// Attached to Report (and thence --json / the wire protocol) so clients
/// can distinguish "honestly unknown" from "gave up after N retries".
struct FailureInfo {
  FailureKind kind = FailureKind::None;
  std::string detail;     // free-form: what failed, at which rung
  uint32_t retries = 0;   // retry attempts consumed, on either backend
  bool failedOver = false;  // alternate backend was tried

  [[nodiscard]] std::string json() const;
};

/// A concrete disagreement witness extracted from a SAT model.
struct Counterexample {
  uint64_t bdimX = 1, bdimY = 1, bdimZ = 1, gdimX = 1, gdimY = 1;
  std::vector<uint64_t> scalarArgs;
  /// Input array contents (only cells the replay materializes).
  std::vector<std::vector<uint64_t>> inputArrays;
  std::vector<uint64_t> witnessValues;  // VC witness vars (indices, k, ...)
  bool replayed = false;
  bool replayConfirmed = false;
  std::string replayDetail;

  [[nodiscard]] std::string str() const;
  /// Machine-readable form (one JSON object).
  [[nodiscard]] std::string json() const;
};

/// Where each checker query was settled by the tiered discharge pipeline.
struct DischargeStats {
  uint64_t tier0 = 0;        // settled by the abstract domain, no solver call
  uint64_t sliced = 0;       // settled by a cone-of-influence sliced query
  uint64_t fullSmt = 0;      // needed the full formula
  uint64_t solverCalls = 0;  // backend check()/checkAssuming() invocations

  [[nodiscard]] uint64_t queries() const { return tier0 + sliced + fullSmt; }
};

struct Report {
  Outcome outcome = Outcome::Unknown;
  std::string method;      // which encoding ran ("parameterized", ...)
  std::string detail;      // free-form explanation
  /// Stable machine-readable slug when outcome == Unsupported (e.g.
  /// "nonuniform-barrier", "loop-initializer"); empty when the rejecting
  /// layer predates structured reasons. Rendered as "unsupported":
  /// {"reason": ...} in json().
  std::string unsupportedReason;
  double solveSeconds = 0;
  double totalSeconds = 0;
  std::vector<std::string> caveats;
  /// Set (kind != None) only when the engine degraded this check through
  /// the containment ladder; omitted from json()/str() otherwise so
  /// undegraded output stays byte-identical with older builds.
  FailureInfo failure;
  para::ResolveStats stats;
  DischargeStats discharge;
  std::vector<Counterexample> counterexamples;

  [[nodiscard]] bool ok() const { return outcome == Outcome::Verified; }
  /// Human-readable rendering (unchanged, the CLI default).
  [[nodiscard]] std::string str() const;
  /// Machine-readable rendering: outcome, method, timings, caveats, stats
  /// and counterexamples as one JSON object (the CLI's --json format).
  [[nodiscard]] std::string json() const;
};

/// The one front-end rejection: runs `check` on a report labelled
/// `method`. A PugError it throws (a kernel outside the method's fragment,
/// an unknown kernel name) turns the report Unsupported, with the reason
/// slug an UnsupportedError carries.
[[nodiscard]] Report runOrReject(std::string method,
                                 const std::function<void(Report&)>& check);

}  // namespace pugpara::check
