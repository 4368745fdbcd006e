// The concurrent verification engine.
//
// Takes a batch of CheckRequests and executes them on a worker thread pool
// with per-check deadlines, cooperative cancellation and a shared
// thread-safe solver-query cache (smt::QueryCache). Checks are independent
// by construction — every check owns its expression context and solver — so
// the batch outcome is identical to a sequential run regardless of the job
// count; only wall-clock changes.
//
// The engine threads its machinery through CheckOptions::solverFactory, so
// the checkers themselves stay single-threaded and oblivious: each solver
// they create is transparently wrapped with (inside-out) the
// deadline/cancellation governor and the query cache. Every query goes to
// one backend solver.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "check/request.h"
#include "check/session.h"
#include "smt/query_cache.h"

namespace pugpara::engine {

/// Internal cancellation token (defined in engine.cpp).
struct CancelState;
/// Internal overrun watchdog (defined in engine.cpp).
class Watchdog;

struct EngineOptions {
  /// Worker threads for runAll. 1 = sequential (the default, deterministic
  /// baseline); 0 = one per hardware thread.
  unsigned jobs = 1;
  /// Deadline applied to checks whose request leaves deadlineMs at 0.
  uint32_t defaultDeadlineMs = 0;
  /// Containment ladder: retry attempts per backend (with exponential
  /// time/memory budget backoff). 0 disables retries.
  unsigned maxRetries = 1;
  /// Containment ladder: after the retries are exhausted, re-run the check
  /// on the alternate backend (Z3 <-> MiniSMT), which gets its own
  /// `maxRetries` retries, before degrading to a caveated Unknown.
  bool failover = true;
  /// Per-solver memory budget in MiB applied to checks whose request
  /// leaves CheckOptions::memoryBudgetMb at 0 (0 = unlimited).
  uint32_t memoryBudgetMb = 0;
  /// Shared query cache; the engine creates a private one when null. Pass
  /// your own to share hits across engines or persist them (QueryCache::
  /// load/save).
  std::shared_ptr<smt::QueryCache> cache;
};

/// A request bound to the session that owns its kernels — the unit the
/// worker pool consumes. Lets one batch span several sessions (the bench
/// tables verify many independently parsed kernel pairs at once).
struct BoundCheck {
  const check::VerificationSession* session = nullptr;
  check::CheckRequest request;
};

class VerificationEngine {
 public:
  explicit VerificationEngine(EngineOptions options = {});
  ~VerificationEngine();

  VerificationEngine(const VerificationEngine&) = delete;
  VerificationEngine& operator=(const VerificationEngine&) = delete;

  /// Executes the batch; results come back in request order. Outcomes are
  /// independent of `jobs`. Never throws for per-check failures — those
  /// surface as Outcome::Unsupported / Unknown in the matching result.
  std::vector<check::CheckResult> runAll(
      const check::VerificationSession& session,
      std::span<const check::CheckRequest> requests);
  std::vector<check::CheckResult> runAll(std::span<const BoundCheck> checks);

  /// Single-request convenience (same wrapping, no pool).
  check::CheckResult run(const check::VerificationSession& session,
                         const check::CheckRequest& request);

  /// Cooperative cancellation: every in-flight solver call is interrupted
  /// and every remaining check in current/future batches completes
  /// immediately with Outcome::Unknown. Irreversible for this engine.
  void cancelAll();

  [[nodiscard]] smt::QueryCache& cache() { return *cache_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  check::CheckResult runOne(const BoundCheck& check);
  /// Synthesizes the contained-crash result for one failed attempt.
  static check::CheckResult crashResult(const check::CheckRequest& req,
                                        const std::string& what);

  EngineOptions options_;
  std::shared_ptr<smt::QueryCache> cache_;
  std::shared_ptr<CancelState> cancel_;
  /// Hard-cancels solvers overrunning their clamped time budget by >2x
  /// (a stuck backend that ignores its own timeout must not wedge a
  /// worker thread forever). Shared into every governed solver frame.
  std::shared_ptr<Watchdog> watchdog_;
};

}  // namespace pugpara::engine
