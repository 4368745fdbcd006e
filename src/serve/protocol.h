// The serve wire protocol: newline-delimited JSON over a byte stream.
//
// One JSON object per line in each direction. Client → server requests:
//
//   {"op":"check","id":"r1","source":"<mini-CUDA text>","kind":"races",
//    "kernel":"transposeOpt","kernel2":"","deadline_ms":0,
//    "options":{"method":"param","width":8,"backend":"z3",
//               "timeout_ms":20000,"memory_mb":0,"prefilter":true,
//               "replay":true,"incremental":true}}
//   {"op":"ping","id":"p"}        liveness probe
//   {"op":"stats","id":"s"}       cache/queue/counter snapshot
//   {"op":"shutdown","id":"q"}    orderly daemon stop
//
// `kind` is one of races|asserts|postcond|equiv|perf|all; "all" expands to
// races+asserts+postcond for every kernel in `source` (the CLI's --all).
// Unknown option members are ignored (forward compatibility); a malformed
// line or unknown op yields an `error` event.
//
// Server → client events, streamed as they land (`id` echoes the request):
//
//   {"id":"r1","event":"result","seq":0,"cached":false,"result":{...}}
//   {"id":"r1","event":"done","checks":3,"memoHits":1,"elapsedMs":12.5,
//    "cache":{...}}                                    terminal on success
//   {"id":"r1","event":"overloaded","kind":"shed","shed":3,...} terminal
//   {"id":"r1","event":"error","kind":"io","error":"..."}       terminal
//     (`kind`, when present, is a FailureKind taxonomy string:
//      timeout|resource|backend_crash|io|shed)
//   {"id":"p","event":"pong"} / {"id":"s","event":"stats",...} /
//   {"id":"q","event":"bye"}                                    terminal
//
// `result` embeds check::CheckResult::json() verbatim; `cached:true` marks
// a content-addressed memo hit that never touched a solver.
#pragma once

#include <cstdint>
#include <string>

#include "check/request.h"

namespace pugpara::serve {

struct Request {
  enum class Op { Check, Ping, Stats, Shutdown };

  Op op = Op::Check;
  std::string id;
  std::string source;
  std::string kind;  // races|asserts|postcond|equiv|perf|all
  std::string kernel;
  std::string kernel2;
  check::CheckOptions options;  // defaults overlaid with wire members
  uint32_t deadlineMs = 0;
};

/// Parses one request line. `defaults` seeds the options the wire may
/// override (the daemon's --backend/--timeout defaults). Returns false and
/// fills `err` on malformed JSON, unknown op, or unusable field values;
/// fills `out->id` when the line carried one (so the error can be
/// correlated).
bool parseRequest(const std::string& line, const check::CheckOptions& defaults,
                  Request* out, std::string* err);

/// Maps a wire `kind` string to a CheckKind. Returns false for "all" and
/// unknown strings ("all" is an expansion, not a kind).
bool parseKind(const std::string& kind, check::CheckKind* out);

/// Builds the request line the client sends (the inverse of parseRequest;
/// only wire-visible options are encoded).
[[nodiscard]] std::string encodeRequest(const Request& req);

// ---- Server → client events (each returns one full line, '\n' included) ---

[[nodiscard]] std::string resultEvent(const std::string& id, size_t seq,
                                      bool cached,
                                      const std::string& resultJson);
[[nodiscard]] std::string doneEvent(const std::string& id, size_t checks,
                                    size_t memoHits, double elapsedMs,
                                    const std::string& cacheStatsJson);
/// `kind` (optional) carries the FailureKind taxonomy string
/// ("backend_crash", "io", ...) so clients can machine-classify the error;
/// empty omits the member (wire-compatible with older clients).
[[nodiscard]] std::string errorEvent(const std::string& id,
                                     const std::string& message,
                                     const std::string& kind = "");
[[nodiscard]] std::string overloadedEvent(const std::string& id, size_t shed,
                                          size_t streamed, size_t queueDepth,
                                          size_t capacity);
[[nodiscard]] std::string pongEvent(const std::string& id);
[[nodiscard]] std::string statsEvent(const std::string& id,
                                     const std::string& statsJson);
[[nodiscard]] std::string byeEvent(const std::string& id);

/// Version of the verdict semantics, the first field of every
/// canonicalCheckString. Bump it whenever verdict semantics change (integer
/// width rules, out-of-bounds handling, what replay accepts, ...), so that
/// results persisted by an older build are never served again.
inline constexpr uint32_t kSemanticsVersion = 2;

/// Canonical content-addressed identity of a check: kSemanticsVersion, the
/// source text and every option that can change the outcome. Deliberately
/// excludes time budgets (solverTimeoutMs, deadlineMs) — a decided verdict
/// is ground truth no matter the budget that produced it — so a
/// re-submission under a different deadline still hits. Also excludes
/// `prefilter` and `incrementalSolving`, which never change a verdict, and
/// the memo stores only settled outcomes. The MiniTuning bits stay: they
/// can change which witness a check gets, and so whether replay confirms
/// it. Feeds the serve result memo's 128-bit key.
[[nodiscard]] std::string canonicalCheckString(const std::string& source,
                                               const check::CheckRequest& req);

}  // namespace pugpara::serve
