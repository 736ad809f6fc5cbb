#include "sim/saturation.h"

#include <cmath>
#include <limits>

#include "common/assert.h"

namespace rair {

double findSaturationRate(const LatencyProbe& aplAtRate,
                          const SaturationOptions& opts) {
  const double zeroLoad =
      aplAtRate(opts.zeroLoadRate, std::numeric_limits<double>::infinity());
  RAIR_CHECK_MSG(std::isfinite(zeroLoad) && zeroLoad > 0.0,
                 "zero-load latency probe failed (no packets measured or "
                 "the network did not drain); raise drainLimit or lower "
                 "zeroLoadRate");
  const double knee = opts.kneeFactor * zeroLoad;

  // Geometric scan for the first saturated rate.
  double lastGood = opts.zeroLoadRate;
  double firstBad = -1.0;
  for (double rate = opts.startRate; rate <= opts.maxRate;
       rate *= opts.growth) {
    if (aplAtRate(rate, knee) > knee) {
      firstBad = rate;
      break;
    }
    lastGood = rate;
  }
  if (firstBad < 0.0) return opts.maxRate;  // never saturated within bounds

  // Bisect the knee.
  for (int i = 0; i < opts.bisectIters; ++i) {
    const double mid = 0.5 * (lastGood + firstBad);
    if (aplAtRate(mid, knee) > knee) {
      firstBad = mid;
    } else {
      lastGood = mid;
    }
  }
  return 0.5 * (lastGood + firstBad);
}

double findSaturationRate(const std::function<double(double)>& aplAtRate,
                          const SaturationOptions& opts) {
  return findSaturationRate(
      [&aplAtRate](double rate, double) { return aplAtRate(rate); }, opts);
}

double appSaturationRate(const Mesh& mesh, const RegionMap& regions,
                         AppTrafficSpec app, const SaturationOptions& opts,
                         RoutingKind routing) {
  auto aplAtRate = [&](double rate, double ceiling) {
    SimConfig cfg;
    cfg.warmupCycles = opts.warmupCycles;
    cfg.measureCycles = opts.measureCycles;
    cfg.drainLimit = opts.drainLimit;
    AppTrafficSpec solo = app;
    solo.injectionRate = rate;
    SchemeSpec scheme = schemeRoRr(routing);
    // Index the stats table by the app's real id (regions beyond it idle).
    std::vector<AppTrafficSpec> apps(static_cast<size_t>(app.app) + 1);
    for (AppId a = 0; a <= app.app; ++a) {
      apps[static_cast<size_t>(a)].app = a;
      apps[static_cast<size_t>(a)].injectionRate = 0.0;
    }
    apps[static_cast<size_t>(app.app)] = solo;
    const auto res = runScenario(ScenarioSpec(mesh, regions)
                                     .withConfig(cfg)
                                     .withScheme(scheme)
                                     .withApps(std::move(apps))
                                     .withWarmCache(opts.warmCacheDir)
                                     .withLatencyCeiling(ceiling, {app.app}));
    if (!res.run.fullyDrained) {
      // Could not drain, or proven above the ceiling: saturated.
      return std::numeric_limits<double>::infinity();
    }
    return res.appApl[static_cast<size_t>(app.app)];
  };
  return findSaturationRate(aplAtRate, opts);
}

}  // namespace rair
