// The benchmark's three workloads and the metrics they report.
//
// Every workload repeats one deterministic operation (a whole campaign, or
// one long 16x16 run) for the requested wall time and reports medians over
// the repetitions. Each repetition sets up again from scratch, so set-up
// time is measured as often as the rest. The untraced run reports the
// end-to-end metrics; the traced run reports the per-layer metrics,
// derived from spans recorded around calls into the simulator's public
// functions (see README.md for the list and the predictions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory for results files, warm caches and checkpoints.
  std::string workDir;
  /// Campaign workers and mesh16_knee shard threads: min(2, usable
  /// cores). Fewer threads than vCPUs keep other tenants' load from
  /// turning into stalled workers and barriers (see README.md).
  int threads = 1;
  /// Multiplies the fixed mesh16_knee injection rate. 1 in every real
  /// run; the benchmark's own tests raise it to prove that a growing
  /// backlog is reported as a failure.
  double kneeScale = 1.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// False where the metric does not apply to the workload; reported as
  /// 0 and marked n/a in the human-readable table.
  bool applies = true;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check (empty when every output was correct).
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Canonical records of the first repetition, one JSON line each; the
  /// caller compares their digest against the stored reference.
  std::vector<std::string> records;
  /// Repetitions measured (each produced the records above).
  int reps = 0;

  void fail(std::string why, std::uint64_t ops = 1) {
    failed += ops;
    failures.push_back(std::move(why));
  }
  void metric(std::string name, std::string unit, double value,
              bool applies = true) {
    metrics.push_back({std::move(name), std::move(unit), value, applies});
  }
};

bool isWorkload(const std::string& name);

/// Runs one workload; the tracer is enabled exactly when opts.trace is.
Outcome runWorkload(const Options& opts, Tracer& tracer);

/// Prints the calibrated mesh16_knee rate (the recipe in README.md).
int calibrateKnee(int threads);

}  // namespace perfbench
