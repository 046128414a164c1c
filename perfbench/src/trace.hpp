// Monotonic clock and in-memory span log for the benchmark driver.
//
// Every timestamp is CLOCK_MONOTONIC nanoseconds (std::chrono::steady_clock
// on Linux), the same clock Python's time.monotonic_ns() reads, so records
// written by this driver can be joined with timestamps taken by run.py.
//
// A span is (name, start, end, parent, op): spans of one client op share
// `op`, and `parent` is the span that was open on the same thread when this
// one began. Spans stay in memory and are written once, at exit; run.py
// computes each span's self time (its duration minus what its children
// cover).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread still has open. `name` must be a string literal.
  std::int64_t begin(const char* name, std::uint64_t op = 0);
  /// Closes the span `id`, which must be the calling thread's innermost.
  void end(std::int64_t id);

  /// Writes one tab-separated line per span:
  /// `id parent name start_ns end_ns op`. False when the file cannot be
  /// written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t op = 0;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null log records nothing, so untraced code paths share the
/// traced ones.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint64_t op = 0)
      : log_(log), id_(log != nullptr ? log->begin(name, op) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

/// CPU time (user + system) of every thread of this process except the
/// calling one, in nanoseconds, read from /proc/self/task.
[[nodiscard]] std::int64_t other_threads_cpu_ns();

}  // namespace perfbench
