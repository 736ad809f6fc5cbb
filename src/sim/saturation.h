// Empirical saturation-load calibration.
//
// The paper expresses application loads as fractions of the application's
// saturation load ("10% of its saturation load", Sec. V.B). Saturation is
// found the standard way (Dally & Towles): sweep the injection rate and
// locate the knee where average latency blows past a multiple of the
// zero-load latency.
#pragma once

#include <functional>

#include "sim/scenario.h"

namespace rair {

struct SaturationOptions {
  double kneeFactor = 4.0;   ///< saturated when APL > kneeFactor x zero-load
  double zeroLoadRate = 0.005;  ///< rate used to estimate zero-load APL
  double startRate = 0.02;
  double growth = 1.3;       ///< geometric scan factor
  double maxRate = 1.0;      ///< flits/cycle/node upper bound (link rate)
  int bisectIters = 7;
  /// Short simulation windows: saturation needs the knee location, not
  /// tight confidence intervals.
  Cycle warmupCycles = 2'000;
  Cycle measureCycles = 10'000;
  Cycle drainLimit = 30'000;
  /// Warm-state cache directory for the probe runs (snapshot subsystem).
  /// The scan and bisection probe a deterministic rate sequence, so a
  /// repeated calibration — a re-run campaign, another figure sharing the
  /// calibration — restores every probe's warm-up instead of simulating
  /// it. Empty disables caching.
  std::string warmCacheDir;
};

/// A saturation probe: `aplAtRate(rate, ceiling)` returns the mean latency
/// at the given injection rate, or a huge value / +inf when the network
/// failed to drain. Only the verdict against `ceiling` matters, so once a
/// probe has proven that its final APL would exceed `ceiling` it may stop
/// and return any value above it. The zero-load probe gets +inf (its value
/// sets the knee); every scan and bisection probe gets kneeFactor x
/// zero-load.
using LatencyProbe = std::function<double(double rate, double ceiling)>;

/// Generic knee finder over a monotone latency-vs-rate curve. The
/// zero-load probe must return a finite, positive latency.
double findSaturationRate(const LatencyProbe& aplAtRate,
                          const SaturationOptions& opts = {});

/// Adapter for probes without early verdicts: `aplAtRate(rate)` always
/// returns the full-run latency.
double findSaturationRate(const std::function<double(double)>& aplAtRate,
                          const SaturationOptions& opts = {});

/// Saturation rate of one application's traffic shape running *alone* on
/// the chip under the round-robin baseline — the reference the paper's
/// "x% of saturation load" figures are defined against. The app's
/// injectionRate field is ignored (it is the swept variable).
double appSaturationRate(const Mesh& mesh, const RegionMap& regions,
                         AppTrafficSpec app,
                         const SaturationOptions& opts = {},
                         RoutingKind routing = RoutingKind::LocalAdaptive);

}  // namespace rair
