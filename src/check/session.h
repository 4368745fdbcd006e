// VerificationSession: the library's convenience facade. Owns the parsed
// program and executes CheckRequests against it through run(), the one
// entry point for every check kind. This is the API the examples, benches
// and most downstream users go through; batches of requests go through
// engine::VerificationEngine instead, which runs them on a worker pool
// with a shared solver-query cache.
#pragma once

#include <memory>
#include <string>

#include "check/equiv_checker.h"
#include "check/perf_checker.h"
#include "check/postcond_checker.h"
#include "check/race_checker.h"
#include "check/request.h"
#include "lang/parser.h"

namespace pugpara::check {

class VerificationSession {
 public:
  /// Parses and analyzes a translation unit (one or more kernels).
  /// Throws PugError with diagnostics on front-end errors.
  explicit VerificationSession(std::string_view source)
      : program_(lang::parseAndAnalyze(source)) {}

  /// Takes ownership of an externally built program (e.g. mutated kernels).
  explicit VerificationSession(std::unique_ptr<lang::Program> program)
      : program_(std::move(program)) {}

  [[nodiscard]] const lang::Kernel& kernel(const std::string& name) const {
    const lang::Kernel* k = program_->findKernel(name);
    require(k != nullptr, "no kernel named '" + name + "'");
    return *k;
  }
  [[nodiscard]] const lang::Program& program() const { return *program_; }

  /// The uniform entry point: executes one CheckRequest. Thread-safe for
  /// concurrent calls (the program is read-only after construction and every
  /// check builds its own expression context and solver).
  [[nodiscard]] CheckResult run(const CheckRequest& request) const {
    return runCheck(*program_, request);
  }

 private:
  std::unique_ptr<lang::Program> program_;
};

}  // namespace pugpara::check
