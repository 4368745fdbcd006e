#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace pugpara::engine {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-check wall-clock deadline. Disabled when `enabled` is false.
struct Deadline {
  Clock::time_point end{};
  bool enabled = false;

  [[nodiscard]] uint32_t remainingMs() const {
    if (!enabled) return 0;  // caller treats 0 as "no deadline bound"
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    end - Clock::now())
                    .count();
    return left > 0 ? static_cast<uint32_t>(left) : 0;
  }
  [[nodiscard]] bool expired() const {
    return enabled && Clock::now() >= end;
  }
};

/// Per-attempt failure channel shared between the governed solver frames of
/// one check. `clipped` is the soundness fence (see GovernedSolver);
/// `worst` classifies what went wrong for the escalation ladder, combining
/// concurrent reports by enum order (Resource outranks Timeout, a crash
/// outranks both).
struct FailureSignal {
  std::atomic<bool> clipped{false};
  std::atomic<uint8_t> worst{0};

  void note(check::FailureKind k) {
    uint8_t v = static_cast<uint8_t>(k);
    uint8_t cur = worst.load(std::memory_order_relaxed);
    while (cur < v &&
           !worst.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] check::FailureKind kind() const {
    return static_cast<check::FailureKind>(
        worst.load(std::memory_order_acquire));
  }
};

}  // namespace

/// Shared cancellation token: a sticky flag plus the set of live solvers to
/// interrupt. Solvers register around their check() calls so cancelAll()
/// reaches queries already in flight.
struct CancelState {
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::unordered_set<smt::Solver*> live;

  void enter(smt::Solver* s) {
    std::lock_guard<std::mutex> lock(mu);
    live.insert(s);
    if (cancelled.load(std::memory_order_acquire)) s->requestStop();
  }
  void leave(smt::Solver* s) {
    std::lock_guard<std::mutex> lock(mu);
    live.erase(s);
  }
  void cancel() {
    cancelled.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu);
    for (smt::Solver* s : live) s->requestStop();
  }
};

/// Detects solvers overrunning their clamped time budget by >2x and
/// hard-cancels them via requestStop(). Backends are *supposed* to honor
/// setTimeoutMs, but a stuck propagation loop, a Z3 call that checks its
/// ticker rarely, or an injected fault can blow straight through it — and a
/// wedged solver pins a worker thread for good. One lazily started scanner
/// thread covers every in-flight check of the engine.
class Watchdog {
 public:
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Registers a solver with its hard-kill time; returns a ticket for
  /// disarm(). The pointer must stay valid until disarmed.
  uint64_t arm(smt::Solver* solver, Clock::time_point hardKill) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = nextId_++;
    entries_[id] = Entry{solver, hardKill, false};
    if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
    return id;
  }

  /// Deregisters; true when the watchdog had already killed this solver.
  bool disarm(uint64_t ticket) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(ticket);
    if (it == entries_.end()) return false;
    const bool killed = it->second.killed;
    entries_.erase(it);
    return killed;
  }

  [[nodiscard]] uint64_t kills() const {
    std::lock_guard<std::mutex> lock(mu_);
    return kills_;
  }

 private:
  struct Entry {
    smt::Solver* solver = nullptr;
    Clock::time_point hardKill{};
    bool killed = false;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      const auto now = Clock::now();
      for (auto& [id, e] : entries_) {
        if (e.killed || now < e.hardKill) continue;
        e.killed = true;
        ++kills_;
        // requestStop is the one cross-thread-safe Solver entry point.
        e.solver->requestStop();
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t nextId_ = 1;
  uint64_t kills_ = 0;
  bool stopping_ = false;
};

namespace {

/// Enforces the engine's per-check deadline and cancellation on one inner
/// solver: clamps every check()'s timeout to the remaining budget, answers
/// Unknown outright once the deadline passed or the engine was cancelled,
/// and keeps the inner solver reachable for cancelAll() while solving.
///
/// Every Unknown the governor causes (early bail-out or a clamped budget
/// running dry) is recorded in `clipped`. The engine needs that signal:
/// several checkers pose Sat-seeking queries ("does a racing pair exist?")
/// and read non-Sat as proof, so a governed Unknown they cannot distinguish
/// from Unsat would silently turn a deadline into a Verified verdict. runOne
/// downgrades such results to Outcome::Unknown after the fact.
class GovernedSolver final : public smt::Solver {
 public:
  GovernedSolver(std::unique_ptr<smt::Solver> inner,
                 std::shared_ptr<CancelState> cancel, Deadline deadline,
                 std::shared_ptr<FailureSignal> signal,
                 std::shared_ptr<Watchdog> watchdog)
      : inner_(std::move(inner)),
        cancel_(std::move(cancel)),
        deadline_(deadline),
        signal_(std::move(signal)),
        watchdog_(std::move(watchdog)) {}

  void push() override { inner_->push(); }
  void pop() override { inner_->pop(); }
  void add(expr::Expr assertion) override { inner_->add(assertion); }

  smt::CheckResult check() override {
    return governed([this]() { return inner_->check(); });
  }

  smt::CheckResult checkAssuming(
      std::span<const expr::Expr> assumptions) override {
    return governed(
        [this, assumptions]() { return inner_->checkAssuming(assumptions); });
  }

  [[nodiscard]] std::unique_ptr<smt::Model> model() override {
    return inner_->model();
  }

  void setTimeoutMs(uint32_t ms) override { requestedTimeoutMs_ = ms; }
  void setMemoryBudgetMb(uint32_t mb) override {
    inner_->setMemoryBudgetMb(mb);
  }
  void requestStop() override { inner_->requestStop(); }
  [[nodiscard]] smt::UnknownReason unknownReason() const override {
    return bailedOut_ != smt::UnknownReason::None ? bailedOut_
                                                  : inner_->unknownReason();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  template <typename CheckFn>
  smt::CheckResult governed(CheckFn runCheck) {
    bailedOut_ = smt::UnknownReason::None;
    if (cancel_->cancelled.load(std::memory_order_acquire)) {
      bailedOut_ = smt::UnknownReason::Interrupted;
      return clip();
    }
    if (deadline_.expired()) {
      bailedOut_ = smt::UnknownReason::Timeout;
      return clip();
    }

    uint32_t budget = requestedTimeoutMs_;
    if (const uint32_t left = deadline_.remainingMs(); left != 0)
      budget = budget == 0 ? left : std::min(budget, left);
    inner_->setTimeoutMs(budget);

    // Bounded budgets get a hard backstop: a backend overrunning its soft
    // timeout by >2x is force-stopped by the watchdog so a stuck solver
    // can never pin this worker thread indefinitely.
    // Both registries hold raw solver pointers, so deregistration must
    // survive a throwing backend (e.g. an injected crash): a leaked entry
    // would have the watchdog or cancelAll() dereference a freed solver
    // long after this frame unwound.
    struct Registration {
      CancelState* cancel = nullptr;
      Watchdog* watchdog = nullptr;
      smt::Solver* solver = nullptr;
      uint64_t ticket = 0;
      bool armed = false;
      bool killed = false;
      bool released = false;
      void release() {
        if (released) return;
        released = true;
        cancel->leave(solver);
        if (armed) killed = watchdog->disarm(ticket);
      }
      ~Registration() { release(); }
    } reg;
    reg.cancel = cancel_.get();
    reg.watchdog = watchdog_.get();
    reg.solver = inner_.get();
    reg.armed = watchdog_ != nullptr && budget != 0;
    if (reg.armed)
      reg.ticket = watchdog_->arm(inner_.get(),
                                  Clock::now() + std::chrono::milliseconds(
                                                     uint64_t{budget} * 2));

    cancel_->enter(inner_.get());
    smt::CheckResult r = runCheck();
    reg.release();
    const bool killed = reg.killed;

    if (r != smt::CheckResult::Unknown) return r;
    if (killed) {
      // Overran 2x its budget and had to be hard-cancelled — a timeout for
      // classification purposes, and clipped for the soundness fence.
      signal_->note(check::FailureKind::Timeout);
      return clip();
    }
    // Classify the backend's own Unknown so the escalation ladder can pick
    // a remedy (bigger memory budget vs. more time vs. failover).
    switch (inner_->unknownReason()) {
      case smt::UnknownReason::Resource:
        signal_->note(check::FailureKind::Resource);
        break;
      case smt::UnknownReason::Timeout:
      case smt::UnknownReason::Interrupted:
        signal_->note(check::FailureKind::Timeout);
        break;
      default:
        break;  // Unsupported/None: not a containment failure
    }
    if (deadline_.enabled ||
        cancel_->cancelled.load(std::memory_order_acquire))
      return clip();
    return r;
  }

  smt::CheckResult clip() {
    signal_->clipped.store(true, std::memory_order_release);
    signal_->note(check::FailureKind::Timeout);
    return smt::CheckResult::Unknown;
  }

  std::unique_ptr<smt::Solver> inner_;
  std::shared_ptr<CancelState> cancel_;
  Deadline deadline_;
  std::shared_ptr<FailureSignal> signal_;
  std::shared_ptr<Watchdog> watchdog_;
  uint32_t requestedTimeoutMs_ = 0;
  /// Why the last check() answered Unknown without reaching the inner
  /// solver (None when it did reach it).
  smt::UnknownReason bailedOut_ = smt::UnknownReason::None;
};

}  // namespace

VerificationEngine::VerificationEngine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache ? options_.cache
                            : std::make_shared<smt::QueryCache>()),
      cancel_(std::make_shared<CancelState>()),
      watchdog_(std::make_shared<Watchdog>()) {}

VerificationEngine::~VerificationEngine() = default;

namespace {

/// One rung of the escalation ladder: the attempt's result plus what the
/// failure channel recorded while it ran.
struct Attempt {
  check::CheckResult result;
  check::FailureKind kind = check::FailureKind::None;
};

[[nodiscard]] bool retryable(const Attempt& a) {
  if (a.result.report.outcome != check::Outcome::Unknown) return false;
  return a.kind == check::FailureKind::Timeout ||
         a.kind == check::FailureKind::Resource ||
         a.kind == check::FailureKind::BackendCrash;
}

[[nodiscard]] uint32_t doubled(uint32_t v) {
  return v > (UINT32_MAX >> 1) ? UINT32_MAX : v * 2;
}

}  // namespace

check::CheckResult VerificationEngine::runOne(const BoundCheck& check) {
  const check::CheckRequest& base = check.request;

  // The deadline is resolved ONCE and spans the whole ladder: retries and
  // failover buy a stuck check more chances, never more wall-clock than
  // the client agreed to.
  const uint32_t deadlineMs =
      base.deadlineMs != 0 ? base.deadlineMs : options_.defaultDeadlineMs;
  Deadline deadline;
  if (deadlineMs != 0) {
    deadline.enabled = true;
    deadline.end = Clock::now() + std::chrono::milliseconds(deadlineMs);
  }

  // Ladder state: budgets back off exponentially on retry, the backend
  // flips once on failover.
  smt::Backend backend = base.options.backend;
  uint32_t timeoutMs = base.options.solverTimeoutMs;
  uint32_t memoryMb = base.options.memoryBudgetMb != 0
                          ? base.options.memoryBudgetMb
                          : options_.memoryBudgetMb;

  auto attempt = [&]() -> Attempt {
    check::CheckRequest req = base;
    req.options.backend = backend;
    req.options.solverTimeoutMs = timeoutMs;
    req.options.memoryBudgetMb = memoryMb;
    auto signal = std::make_shared<FailureSignal>();
    std::shared_ptr<CancelState> cancel = cancel_;
    std::shared_ptr<Watchdog> watchdog = watchdog_;
    smt::QueryCache* cache = cache_.get();
    const smt::Backend b = backend;
    const smt::MiniTuning mini = base.options.mini;
    req.options.solverFactory = [b, mini, cancel, cache, deadline, signal,
                                 watchdog]() -> std::unique_ptr<smt::Solver> {
      std::unique_ptr<smt::Solver> s = std::make_unique<GovernedSolver>(
          smt::makeSolver(b, mini), cancel, deadline, signal, watchdog);
      return smt::makeCachingSolver(std::move(s), *cache);
    };

    Attempt a;
    try {
      a.result = check.session->run(req);
      // A clipped query makes any "nothing found" verdict vacuous:
      // Sat-seeking checkers read the governor's Unknown as Unsat, so
      // without this fence a 1 ms deadline could certify a racy kernel
      // race-free. Positive findings stand — a Sat answer is ground truth
      // no matter what was clipped.
      if (signal->clipped.load(std::memory_order_acquire) &&
          (a.result.report.outcome == check::Outcome::Verified ||
           a.result.report.outcome == check::Outcome::NoBugFound)) {
        a.result.report.outcome = check::Outcome::Unknown;
        a.result.report.detail =
            "deadline/cancellation interrupted at least one solver query; "
            "partial verdict withheld (was: " + a.result.report.detail + ")";
      }
      a.kind = signal->kind();
    } catch (const std::bad_alloc&) {
      a.result = crashResult(req, "allocation failure during check");
      a.kind = check::FailureKind::Resource;
    } catch (const std::exception& e) {
      // runCheck already absorbs front-end PugErrors as Unsupported; an
      // exception reaching here means a backend blew up mid-solve. Contain
      // it as an Unknown the ladder can retry instead of killing the batch.
      a.result = crashResult(req, e.what());
      a.kind = check::FailureKind::BackendCrash;
    }
    return a;
  };

  uint32_t retries = 0;
  bool failedOver = false;
  Attempt a = attempt();

  const auto ladderLive = [&]() {
    return !deadline.expired() &&
           !cancel_->cancelled.load(std::memory_order_acquire);
  };

  // Rung 1: up to maxRetries retries on the current backend with
  // exponential budget backoff. A deadline that already ran out is the
  // client's hard contract — no rung may outlive it.
  const auto retryOnBackend = [&]() {
    for (unsigned n = 0;
         n < options_.maxRetries && retryable(a) && ladderLive(); ++n) {
      ++retries;
      if (a.kind == check::FailureKind::Timeout)
        timeoutMs = doubled(timeoutMs);
      if (a.kind == check::FailureKind::Resource && memoryMb != 0)
        memoryMb = doubled(memoryMb);
      a = attempt();
    }
  };
  retryOnBackend();

  // Rung 2: fail over to the alternate backend. The retries above went to
  // the failed backend, so the alternate gets its own under the same
  // backoff rules: a first attempt that times out is retried with a
  // doubled budget, as it would be on the primary.
  if (retryable(a) && options_.failover && ladderLive()) {
    failedOver = true;
    backend = backend == smt::Backend::Mini ? smt::Backend::Z3
                                            : smt::Backend::Mini;
    a = attempt();
    retryOnBackend();
  }

  // Rung 3: degrade. The verdict we have is the verdict we return — but a
  // degraded Unknown carries the structured failure record, and a decided
  // answer that needed the ladder says so in a caveat.
  check::CheckResult result = std::move(a.result);
  if (result.report.outcome == check::Outcome::Unknown &&
      a.kind != check::FailureKind::None) {
    result.report.failure.kind = a.kind;
    result.report.failure.retries = retries;
    result.report.failure.failedOver = failedOver;
    if (result.report.failure.detail.empty())
      result.report.failure.detail =
          std::string("containment ladder exhausted (") +
          check::toString(a.kind) + " on " +
          (failedOver ? "both backends" : "primary backend") + ")";
  } else if (retries > 0 || failedOver) {
    std::string how = failedOver ? "failover to the alternate backend"
                                 : "retry with a larger budget";
    result.report.caveats.push_back(
        "containment: answered after " + how);
  }
  return result;
}

check::CheckResult VerificationEngine::crashResult(
    const check::CheckRequest& req, const std::string& what) {
  check::CheckResult result;
  result.kind = req.kind;
  result.kernel = req.kernel;
  result.kernel2 = req.kernel2;
  result.report.outcome = check::Outcome::Unknown;
  result.report.method = "none";
  result.report.detail = "internal error: " + what;
  result.report.failure.detail = "backend crashed: " + what;
  return result;
}

std::vector<check::CheckResult> VerificationEngine::runAll(
    std::span<const BoundCheck> checks) {
  std::vector<check::CheckResult> results(checks.size());

  unsigned jobs = options_.jobs;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  jobs = static_cast<unsigned>(
      std::min<size_t>(jobs, checks.size() == 0 ? 1 : checks.size()));

  if (jobs <= 1) {
    for (size_t i = 0; i < checks.size(); ++i) results[i] = runOne(checks[i]);
    return results;
  }

  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= checks.size()) return;
      results[i] = runOne(checks[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs - 1);
  for (unsigned t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is the pool's first worker
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<check::CheckResult> VerificationEngine::runAll(
    const check::VerificationSession& session,
    std::span<const check::CheckRequest> requests) {
  std::vector<BoundCheck> bound;
  bound.reserve(requests.size());
  for (const check::CheckRequest& r : requests)
    bound.push_back({&session, r});
  return runAll(bound);
}

check::CheckResult VerificationEngine::run(
    const check::VerificationSession& session,
    const check::CheckRequest& request) {
  return runOne({&session, request});
}

void VerificationEngine::cancelAll() { cancel_->cancel(); }

}  // namespace pugpara::engine
