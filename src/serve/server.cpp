#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>

#include "serve/net_io.h"
#include "support/diagnostics.h"
#include "support/faultinject.h"
#include "support/json.h"

namespace pugpara::serve {

namespace {
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Synthesized verdict for a check the worker barrier contained: Unknown,
/// tagged with the failure taxonomy so the client can tell why.
check::CheckResult degradedResult(const check::CheckRequest& req,
                                  const std::string& what,
                                  check::FailureKind kind) {
  check::CheckResult r;
  r.kind = req.kind;
  r.kernel = req.kernel;
  r.kernel2 = req.kernel2;
  r.report.outcome = check::Outcome::Unknown;
  r.report.method = "none";
  r.report.detail = "internal error: " + what;
  r.report.failure.kind = kind;
  r.report.failure.detail = what;
  return r;
}
}  // namespace

std::string ServeStats::json() const {
  std::ostringstream os;
  os << "{\"connections\":" << connections << ",\"requests\":" << requests
     << ",\"checksRun\":" << checksRun << ",\"memoHits\":" << memoHits
     << ",\"shedChecks\":" << shedChecks << ",\"parseErrors\":" << parseErrors
     << ",\"sessionsParsed\":" << sessionsParsed
     << ",\"sessionHits\":" << sessionHits << ",\"queueDepth\":" << queueDepth
     << ",\"queryCache\":{\"hits\":" << queryCache.hits
     << ",\"misses\":" << queryCache.misses
     << ",\"insertions\":" << queryCache.insertions
     << ",\"evictions\":" << queryCache.evictions
     << "},\"resultMemo\":{\"hits\":" << memo.hits
     << ",\"misses\":" << memo.misses << ",\"insertions\":" << memo.insertions
     << ",\"loaded\":" << memo.loaded << ",\"corrupt\":" << memo.corrupt
     << ",\"persistent\":" << (memo.persistent ? "true" : "false")
     << ",\"writable\":" << (memo.writable ? "true" : "false")
     << "},\"queryStore\":{\"loaded\":" << queryStore.loaded
     << ",\"corrupt\":" << queryStore.corrupt
     << ",\"appended\":" << queryStore.appended
     << ",\"ioErrors\":" << queryStore.ioErrors
     << ",\"writable\":" << (queryStore.writable ? "true" : "false") << "}}";
  return os.str();
}

/// One client connection. Writes from workers and the reader interleave, so
/// every event goes out under the write mutex as one complete line.
struct Server::Conn {
  int fd = -1;
  std::mutex writeMu;
  std::atomic<bool> closed{false};

  void sendLine(const std::string& line) {
    std::lock_guard<std::mutex> guard(writeMu);
    if (closed.load(std::memory_order_acquire)) return;
    // netio::sendAll retries EINTR/short writes and maps a vanished peer
    // (EPIPE/ECONNRESET) to false — client-gone, never a daemon error.
    if (!netio::sendAll(fd, line.data(), line.size()))
      closed.store(true, std::memory_order_release);
  }
};

/// One check request in flight: results stream as checks settle, the done
/// event fires when the last one lands, whichever thread that happens on.
struct Server::Group {
  std::string id;
  std::shared_ptr<Conn> conn;
  std::atomic<size_t> remaining{0};
  std::atomic<uint64_t> memoHits{0};
  size_t total = 0;
  Clock::time_point start = Clock::now();
};

struct Server::Job {
  std::shared_ptr<Group> group;
  std::shared_ptr<check::VerificationSession> session;
  std::string source;  // memo key input (the session cache key)
  check::CheckRequest request;
  size_t seq = 0;
};

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err) *err = why;
    for (int fd : listenFds_) ::close(fd);
    listenFds_.clear();
    return false;
  };

  cache_ = std::make_shared<smt::QueryCache>(options_.queryCacheCapacity);
  if (!options_.cacheDir.empty()) {
    if (::mkdir(options_.cacheDir.c_str(), 0755) != 0 && errno != EEXIST)
      return fail("cannot create cache dir '" + options_.cacheDir + "': " +
                  std::strerror(errno));
    const std::string qpath = options_.cacheDir + "/queries.pqc";
    if (!queryStore_.open(qpath, *cache_))
      return fail("cannot open query store '" + qpath + "'");
    const std::string rpath = options_.cacheDir + "/results.pqr";
    if (!memo_.openPersistent(rpath))
      return fail("cannot open result store '" + rpath + "'");
  }

  engine::EngineOptions eopts;
  eopts.jobs = 1;  // the serve pool schedules; the engine just wraps solvers
  eopts.defaultDeadlineMs = options_.defaultDeadlineMs;
  eopts.maxRetries = options_.maxRetries;
  eopts.failover = options_.failover;
  eopts.cache = cache_;
  engine_ = std::make_unique<engine::VerificationEngine>(eopts);

  if (!options_.socketPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path))
      return fail("socket path too long: " + options_.socketPath);
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail("socket(AF_UNIX) failed");
    ::unlink(options_.socketPath.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      return fail("cannot bind Unix socket '" + options_.socketPath + "': " +
                  std::strerror(errno));
    }
    listenFds_.push_back(fd);
  }
  if (options_.tcpPort != 0 || options_.socketPath.empty()) {
    // TCP is loopback-only; with no Unix path configured an ephemeral port
    // (tcpPort 0) still gives the daemon a listener.
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcpPort);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      return fail("cannot bind 127.0.0.1:" +
                  std::to_string(options_.tcpPort) + ": " +
                  std::strerror(errno));
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    boundTcpPort_ = ntohs(addr.sin_port);
    listenFds_.push_back(fd);
  }

  unsigned jobs = options_.jobs;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i)
    workers_.emplace_back([this] { workerLoop(); });
  for (int fd : listenFds_)
    acceptThreads_.emplace_back([this, fd] { acceptLoop(fd); });
  return true;
}

void Server::acceptLoop(int listenFd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listenFd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    const int fd = ::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> guard(connsMu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      conns_.push_back(conn);
      connThreads_.emplace_back([this, conn] { readerLoop(conn); });
    }
    std::lock_guard<std::mutex> guard(statsMu_);
    ++stats_.connections;
  }
}

void Server::readerLoop(std::shared_ptr<Conn> conn) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const long n = netio::recvSome(conn->fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handleLine(conn, line);
    }
  }
  conn->closed.store(true, std::memory_order_release);
  // The reader owns the connection's lifetime: once it gives up (peer gone,
  // recv error, or an injected sock.recv drop), shut the socket down so the
  // peer sees EOF instead of blocking forever on a response that will never
  // come. The fd itself is closed by stop() — shutdown here is safe against
  // that path, ::close would race with fd reuse.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::handleLine(const std::shared_ptr<Conn>& conn,
                        const std::string& line) {
  // Per-request exception barrier: one poisoned request answers a
  // structured error event and dies alone — the daemon and every other
  // connection keep running. bad_alloc is split out so the client can
  // tell resource exhaustion from a plain crash.
  Request req;
  try {
    std::string err;
    if (!parseRequest(line, options_.defaults, &req, &err)) {
      {
        std::lock_guard<std::mutex> guard(statsMu_);
        ++stats_.parseErrors;
      }
      conn->sendLine(errorEvent(req.id, err));
      return;
    }
    switch (req.op) {
      case Request::Op::Ping:
        conn->sendLine(pongEvent(req.id));
        return;
      case Request::Op::Stats:
        conn->sendLine(statsEvent(req.id, stats().json()));
        return;
      case Request::Op::Shutdown: {
        conn->sendLine(byeEvent(req.id));
        std::lock_guard<std::mutex> guard(waitMu_);
        stopRequested_ = true;
        waitCv_.notify_all();
        return;
      }
      case Request::Op::Check:
        handleCheck(conn, std::move(req));
        return;
    }
  } catch (const std::bad_alloc&) {
    conn->sendLine(errorEvent(req.id, "out of memory handling request",
                              toString(check::FailureKind::Resource)));
  } catch (const std::exception& e) {
    conn->sendLine(errorEvent(req.id,
                              std::string("internal error: ") + e.what(),
                              toString(check::FailureKind::BackendCrash)));
  }
}

std::shared_ptr<check::VerificationSession> Server::sessionFor(
    const std::string& source) {
  {
    std::lock_guard<std::mutex> guard(sessionsMu_);
    auto it = sessions_.find(source);
    if (it != sessions_.end()) {
      std::lock_guard<std::mutex> sguard(statsMu_);
      ++stats_.sessionHits;
      return it->second;
    }
  }
  // Parse outside the map lock: a slow parse must not serialize unrelated
  // readers. A racing duplicate parse is possible and harmless.
  auto session = std::make_shared<check::VerificationSession>(source);
  std::lock_guard<std::mutex> guard(sessionsMu_);
  if (sessions_.size() >= 64) sessions_.clear();  // crude but bounded
  sessions_.emplace(source, session);
  std::lock_guard<std::mutex> sguard(statsMu_);
  ++stats_.sessionsParsed;
  return session;
}

void Server::handleCheck(const std::shared_ptr<Conn>& conn, Request req) {
  std::shared_ptr<check::VerificationSession> session;
  try {
    session = sessionFor(req.source);
  } catch (const PugError& e) {
    {
      std::lock_guard<std::mutex> guard(statsMu_);
      ++stats_.parseErrors;
    }
    conn->sendLine(errorEvent(req.id, std::string("front-end: ") + e.what()));
    return;
  }

  // Expand to the concrete check list ("all" mirrors the CLI's --all).
  std::vector<check::CheckRequest> checks;
  auto push = [&](check::CheckKind kind, const std::string& a,
                  const std::string& b = "") {
    check::CheckRequest r;
    r.kind = kind;
    r.kernel = a;
    r.kernel2 = b;
    r.options = req.options;
    r.deadlineMs = req.deadlineMs;
    checks.push_back(std::move(r));
  };
  if (req.kind == "all") {
    for (const auto& k : session->program().kernels) {
      push(check::CheckKind::Races, k->name);
      push(check::CheckKind::Asserts, k->name);
      push(check::CheckKind::Postconditions, k->name);
    }
  } else {
    check::CheckKind kind;
    parseKind(req.kind, &kind);  // validated by parseRequest
    push(kind, req.kernel, req.kernel2);
  }
  if (checks.empty()) {
    conn->sendLine(errorEvent(req.id, "source has no kernels"));
    return;
  }
  {
    std::lock_guard<std::mutex> guard(statsMu_);
    ++stats_.requests;
  }

  auto group = std::make_shared<Group>();
  group->id = req.id;
  group->conn = conn;
  group->total = checks.size();
  group->remaining.store(checks.size(), std::memory_order_release);

  // Memo pass: identical re-submissions stream straight from the map — no
  // queue hop, no solver, microseconds. Only misses compete for capacity.
  std::vector<Job> jobs;
  size_t streamed = 0;
  for (size_t i = 0; i < checks.size(); ++i) {
    const ResultKey key = resultKey(req.source, checks[i]);
    if (auto hit = memo_.lookup(key)) {
      conn->sendLine(resultEvent(req.id, i, /*cached=*/true, hit->resultJson));
      group->memoHits.fetch_add(1, std::memory_order_relaxed);
      ++streamed;
      {
        std::lock_guard<std::mutex> guard(statsMu_);
        ++stats_.memoHits;
      }
      if (group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        conn->sendLine(doneEvent(req.id, group->total,
                                 group->memoHits.load(), msSince(group->start),
                                 stats().json()));
        return;
      }
      continue;
    }
    Job job;
    job.group = group;
    job.session = session;
    job.source = req.source;
    job.request = checks[i];
    job.seq = i;
    jobs.push_back(std::move(job));
  }

  // Admission: all-or-nothing for the non-memoized remainder. The
  // `queue.admit` chaos site forces the shed path without real pressure.
  const bool injectShed =
      fault::enabled() && fault::fire("queue.admit").has_value();
  {
    std::unique_lock<std::mutex> lk(queueMu_);
    if (injectShed || queue_.size() + jobs.size() > options_.queueCapacity) {
      const size_t depth = queue_.size();
      lk.unlock();
      {
        std::lock_guard<std::mutex> guard(statsMu_);
        stats_.shedChecks += jobs.size();
      }
      conn->sendLine(overloadedEvent(req.id, jobs.size(), streamed, depth,
                                     options_.queueCapacity));
      return;
    }
    for (Job& j : jobs) queue_.push_back(std::move(j));
  }
  queueCv_.notify_all();
}

void Server::workerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(queueMu_);
      queueCv_.wait(lk, [&] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // Worker barrier: a check that escapes the engine's own containment
    // still settles its group (done event fires, siblings unaffected) with
    // an Unknown verdict carrying the failure taxonomy.
    check::CheckResult result;
    try {
      result = engine_->run(*job.session, job.request);
    } catch (const std::bad_alloc&) {
      result = degradedResult(job.request, "out of memory in worker",
                              check::FailureKind::Resource);
    } catch (const std::exception& e) {
      result = degradedResult(job.request,
                              std::string("worker crash: ") + e.what(),
                              check::FailureKind::BackendCrash);
    }
    {
      std::lock_guard<std::mutex> guard(statsMu_);
      ++stats_.checksRun;
    }
    finishCheck(job, check::toString(result.report.outcome), result.json(),
                /*cached=*/false);
  }
}

void Server::finishCheck(const Job& job, const std::string& outcome,
                         const std::string& resultJson, bool cached) {
  if (!cached)
    memo_.insert(resultKey(job.source, job.request), outcome, resultJson);
  job.group->conn->sendLine(
      resultEvent(job.group->id, job.seq, cached, resultJson));
  if (job.group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    job.group->conn->sendLine(
        doneEvent(job.group->id, job.group->total, job.group->memoHits.load(),
                  msSince(job.group->start), stats().json()));
  }
}

void Server::wait() {
  std::unique_lock<std::mutex> lk(waitMu_);
  waitCv_.wait(lk, [&] { return stopRequested_; });
}

bool Server::waitFor(uint32_t ms) {
  std::unique_lock<std::mutex> lk(waitMu_);
  return waitCv_.wait_for(lk, std::chrono::milliseconds(ms),
                          [&] { return stopRequested_; });
}

void Server::stop() {
  // Wake workers (queued-but-unstarted checks are dropped — their
  // connections are about to close anyway). The flag is set under the
  // queue lock: a worker between its wait predicate and the wait itself
  // would otherwise miss the notify and block forever.
  {
    std::lock_guard<std::mutex> guard(queueMu_);
    if (stopping_.exchange(true)) return;
    queueCv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> guard(waitMu_);
    stopRequested_ = true;
    waitCv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // Stop accepting (shutting the listeners down wakes a blocked poll),
  // then unblock every reader.
  for (int fd : listenFds_) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : acceptThreads_) t.join();
  acceptThreads_.clear();
  for (int fd : listenFds_) ::close(fd);
  listenFds_.clear();
  if (!options_.socketPath.empty()) ::unlink(options_.socketPath.c_str());
  {
    std::lock_guard<std::mutex> guard(connsMu_);
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
  }
  for (std::thread& t : connThreads_) t.join();
  {
    std::lock_guard<std::mutex> guard(connsMu_);
    for (const auto& c : conns_) ::close(c->fd);
    conns_.clear();
    connThreads_.clear();
  }
  // Settle the journals so a restart sees everything this run learned.
  memo_.flush();
  queryStore_.flush();
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> guard(statsMu_);
    s = stats_;
  }
  {
    std::lock_guard<std::mutex> guard(queueMu_);
    s.queueDepth = queue_.size();
  }
  if (cache_) s.queryCache = cache_->stats();
  s.memo = memo_.stats();
  s.queryStore = queryStore_.stats();
  return s;
}

}  // namespace pugpara::serve
