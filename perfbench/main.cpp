// perfbench: the repository benchmark's measuring program. run.py builds
// and runs it; see README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --threads T --work-dir DIR --records FILE [--trace-out FILE]
//   perfbench --calibrate-knee
//
// Prints a table of every metric with its unit, then, as the last line,
// one JSON object: {"attempted", "failed", "reps", "na",
// "metrics": {name: {"value", "unit"}}}. Canonical records of the first
// repetition go to --records, one per line.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "campaign/json.h"
#include "workloads.h"

namespace {

using rair::campaign::JsonValue;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig09_campaign|mesh16_knee|"
               "faults_retx --seed N --seconds S --trace 0|1 --threads T\n"
               "                 --work-dir DIR --records FILE "
               "[--trace-out FILE] [--knee-scale X]\n"
               "       perfbench --calibrate-knee\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build "
                       "(CMAKE_BUILD_TYPE=%s)\n", PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  perfbench::Options opts;
  std::string recordsPath, tracePath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--calibrate-knee") return perfbench::calibrateKnee(4);
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      opts.trace = v == "1";
    } else if (arg == "--threads") {
      opts.threads = std::atoi(v.c_str());
    } else if (arg == "--work-dir") {
      opts.workDir = v;
    } else if (arg == "--records") {
      recordsPath = v;
    } else if (arg == "--trace-out") {
      tracePath = v;
    } else if (arg == "--knee-scale") {
      opts.kneeScale = std::atof(v.c_str());
    } else {
      return usage();
    }
  }
  if (!perfbench::isWorkload(opts.workload) || opts.threads < 1 ||
      opts.workDir.empty() || recordsPath.empty() || !(opts.seconds > 0.0) ||
      !(opts.kneeScale > 0.0))
    return usage();

  perfbench::Tracer tracer(opts.trace);
  const perfbench::Outcome out = perfbench::runWorkload(opts, tracer);

  std::ofstream records(recordsPath, std::ios::trunc);
  for (const std::string& r : out.records) records << r << '\n';
  if (!records.flush()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", recordsPath.c_str());
    return 1;
  }
  if (opts.trace && !tracePath.empty()) {
    JsonValue meta = JsonValue::Object{};
    meta.set("workload", JsonValue(opts.workload));
    meta.set("seed", JsonValue(opts.seed));
    meta.set("threads", JsonValue(opts.threads));
    meta.set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
    meta.set("compiler", JsonValue(PERFBENCH_COMPILER));
    if (!tracer.writeChromeTrace(tracePath, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", tracePath.c_str());
      return 1;
    }
  }

  std::printf("%-24s %16s  %s\n", "metric", "value", "unit");
  JsonValue metrics = JsonValue::Object{};
  JsonValue::Array na;
  for (const perfbench::Metric& m : out.metrics) {
    if (m.applies)
      std::printf("%-24s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    else
      std::printf("%-24s %16s  %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    JsonValue v = JsonValue::Object{};
    v.set("value", JsonValue(m.value));
    v.set("unit", JsonValue(m.unit));
    metrics.set(m.name, std::move(v));
    if (!m.applies) na.emplace_back(m.name);
  }
  for (const std::string& f : out.failures)
    std::printf("FAILED: %s\n", f.c_str());

  JsonValue result = JsonValue::Object{};
  result.set("attempted", JsonValue(out.attempted));
  result.set("failed", JsonValue(out.failed));
  result.set("reps", JsonValue(out.reps));
  result.set("na", JsonValue(std::move(na)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
