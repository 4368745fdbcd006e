// `pugpara serve` — the long-running verification daemon.
//
// Keeps one engine process hot across many requests: parsed programs are
// reused through a content-addressed session cache, full check results
// through the result memo, and individual solver queries through the
// LRU-capped query cache — both caches optionally disk-backed under
// --cache-dir so warmth survives restarts.
//
// Threading model:
//   * one accept thread per listener (Unix socket and/or loopback TCP);
//   * one reader thread per connection: parses request lines, answers memo
//     hits inline (microsecond path, no queue hop), admits the rest;
//   * a fixed worker pool drains the bounded check queue, running each
//     check through engine::VerificationEngine::run (per-check deadlines,
//     cancellation, query cache — the same wrapping the batch CLI gets);
//   * results stream back the moment each check settles, serialized per
//     connection by a write mutex. Request order is NOT delivery order —
//     events carry the request id and a seq number instead.
//
// Admission control is a hard bound, not a queue: when a request's
// non-memoized checks don't all fit into the remaining queue capacity the
// whole remainder is shed with an `overloaded` event. Shedding beats
// unbounded queueing — the client knows immediately and can back off,
// retry elsewhere, or drop priority work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check/session.h"
#include "engine/engine.h"
#include "serve/protocol.h"
#include "serve/result_memo.h"
#include "smt/cache_store.h"

namespace pugpara::serve {

struct ServeOptions {
  /// Unix-domain socket path ("" = no Unix listener). Unlinked on bind and
  /// on shutdown.
  std::string socketPath;
  /// TCP port on 127.0.0.1 (0 = no TCP listener). Loopback only — the
  /// daemon trusts its callers; put a real gateway in front for anything
  /// wider.
  uint16_t tcpPort = 0;

  /// Worker threads draining the check queue. 0 = one per hardware thread.
  unsigned jobs = 0;
  /// Bounded admission: maximum checks queued (not yet picked up by a
  /// worker). Requests whose expansion exceeds the free capacity are shed.
  size_t queueCapacity = 256;

  /// Cache directory ("" = in-memory only). Holds `queries.pqc` (query
  /// cache journal) and `results.pqr` (result memo journal) plus their
  /// .lock files.
  std::string cacheDir;
  /// LRU cap for the in-memory query cache (entries; 0 = unbounded).
  size_t queryCacheCapacity = 1 << 20;

  /// Default CheckOptions a wire request starts from before its own
  /// "options" member is overlaid.
  check::CheckOptions defaults;
  /// Deadline for requests that leave deadline_ms at 0 (0 = none).
  uint32_t defaultDeadlineMs = 0;
  /// Containment-ladder knobs (engine::EngineOptions::maxRetries/failover).
  unsigned maxRetries = 1;
  bool failover = true;
};

struct ServeStats {
  uint64_t connections = 0;
  uint64_t requests = 0;      // check requests parsed OK
  uint64_t checksRun = 0;     // checks solved by workers
  uint64_t memoHits = 0;      // checks answered by the result memo
  uint64_t shedChecks = 0;    // checks rejected by admission control
  uint64_t parseErrors = 0;
  uint64_t sessionsParsed = 0;   // distinct sources parsed
  uint64_t sessionHits = 0;      // source re-submissions that reused a parse
  size_t queueDepth = 0;
  smt::QueryCache::Stats queryCache;
  ResultMemo::Stats memo;
  smt::AppendLog::Stats queryStore;

  [[nodiscard]] std::string json() const;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds listeners, opens the persistent stores, starts the pool. False
  /// (with `err` filled) when a listener or store cannot be set up.
  bool start(std::string* err);

  /// Blocks until stop() is called or a client sends `shutdown`.
  void wait();

  /// Bounded wait; true when shutdown was requested. Lets the CLI poll a
  /// signal flag (signal handlers cannot safely notify the condvar).
  bool waitFor(uint32_t ms);

  /// Orderly shutdown: stop accepting, unblock readers, drain workers,
  /// flush the stores. Idempotent; safe from any thread except a
  /// connection's own reader (the shutdown op instead signals wait()).
  void stop();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeOptions& options() const { return options_; }
  /// Actual TCP port after start() (useful with an ephemeral request).
  [[nodiscard]] uint16_t boundTcpPort() const { return boundTcpPort_; }

 private:
  struct Conn;
  struct Group;
  struct Job;

  void acceptLoop(int listenFd);
  void readerLoop(std::shared_ptr<Conn> conn);
  void handleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  void handleCheck(const std::shared_ptr<Conn>& conn, Request req);
  void workerLoop();
  void finishCheck(const Job& job, const std::string& outcome,
                   const std::string& resultJson, bool cached);
  std::shared_ptr<check::VerificationSession> sessionFor(
      const std::string& source);

  ServeOptions options_;

  // Destruction order matters (reverse of declaration): the engine — and
  // with it every solver that can insert into the cache — dies first; then
  // the store, whose close() deregisters its sink from the cache; the
  // cache itself dies last, after nothing points into it anymore.
  std::shared_ptr<smt::QueryCache> cache_;
  smt::PersistentQueryStore queryStore_;
  ResultMemo memo_;
  std::unique_ptr<engine::VerificationEngine> engine_;

  // Content-addressed parse cache: source text → analyzed session. Bounded
  // crudely (cleared when oversized) — parses are cheap relative to solves;
  // the point is skipping re-parse/re-analysis on the hot resubmit path.
  std::mutex sessionsMu_;
  std::unordered_map<std::string, std::shared_ptr<check::VerificationSession>>
      sessions_;

  // Bounded check queue + worker pool.
  mutable std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;

  // Listeners and connections.
  std::vector<int> listenFds_;
  std::vector<std::thread> acceptThreads_;
  std::mutex connsMu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> connThreads_;
  uint16_t boundTcpPort_ = 0;

  std::atomic<bool> stopping_{false};
  std::mutex waitMu_;
  std::condition_variable waitCv_;
  bool stopRequested_ = false;

  mutable std::mutex statsMu_;
  ServeStats stats_;
};

}  // namespace pugpara::serve
