// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around calls into the
// simulator's public functions; nothing inside the simulator is
// instrumented. Each span has a name, a category (the layer), a start and
// an end on the host's steady clock, the id of the span that caused it and
// free-form arguments. Spans stay in memory and are written out once, as
// Chrome trace-event JSON, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string cat;
  int tid = 0;
  Clock::time_point start;
  Clock::time_point end;
  rair::campaign::JsonValue args;

  double durS() const { return seconds(start, end); }
};

/// Thread-safe span store. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves a span id before the span ends, so children can name their
  /// cause while it is still open. 0 when disabled.
  std::uint64_t newId() { return enabled_ ? nextId_.fetch_add(1) : 0; }

  /// Records a finished span under a reserved (or fresh, when 0) id.
  void record(std::uint64_t id, std::string_view name, std::string_view cat,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0,
              rair::campaign::JsonValue args = {});

  /// Durations in seconds of every span with this name, in record order.
  std::vector<double> durations(std::string_view name) const;

  /// Writes {"traceEvents": [...], "otherData": metadata}; false on I/O
  /// failure.
  bool writeChromeTrace(const std::string& path,
                        const rair::campaign::JsonValue& metadata) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> nextId_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

}  // namespace perfbench
