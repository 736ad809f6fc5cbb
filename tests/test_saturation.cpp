#include "sim/saturation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "scenarios/paper_scenarios.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Saturation, FindsKneeOfAnalyticCurve) {
  // Synthetic M/M/1-style latency curve saturating at rate 0.4:
  // apl(r) = L0 / (1 - r/0.4), diverging at the knee.
  const double L0 = 20.0;
  auto apl = [&](double r) {
    if (r >= 0.4) return 1e9;
    return L0 / (1.0 - r / 0.4);
  };
  SaturationOptions opts;
  const double sat = findSaturationRate(apl, opts);
  // APL crosses 4x zero-load at r = 0.3 (1/(1-r/0.4) = 4 -> r = 0.3).
  EXPECT_NEAR(sat, 0.3, 0.02);
}

TEST(Saturation, NeverSaturatingReturnsMaxRate) {
  auto apl = [](double) { return 10.0; };
  SaturationOptions opts;
  opts.maxRate = 0.8;
  EXPECT_DOUBLE_EQ(findSaturationRate(apl, opts), 0.8);
}

TEST(Saturation, KneeFactorShiftsResult) {
  auto apl = [](double r) { return 10.0 / std::max(1e-9, 1.0 - r); };
  SaturationOptions loose;
  loose.kneeFactor = 8.0;
  SaturationOptions tight;
  tight.kneeFactor = 2.0;
  EXPECT_GT(findSaturationRate(apl, loose), findSaturationRate(apl, tight));
}

TEST(Saturation, KneeBelowStartRateBisectsLowerInterval) {
  // The knee sits below the geometric scan's start rate: the very first
  // probe is already saturated, so bisection must work the interval
  // [zeroLoadRate, startRate] instead of running off a bogus bracket.
  auto apl = [](double r) { return r < 0.01 ? 10.0 : 1e9; };
  SaturationOptions opts;  // zeroLoadRate 0.005, startRate 0.02
  const double sat = findSaturationRate(apl, opts);
  EXPECT_GE(sat, opts.zeroLoadRate);
  EXPECT_LE(sat, opts.startRate);
  EXPECT_NEAR(sat, 0.01, 0.002);
}

TEST(Saturation, KneeInsideLastGeometricGapReportsMaxRate) {
  // With growth 1.3 the scan's last probe below maxRate = 1.0 is ~0.787;
  // a knee hiding in the unprobed (0.787, 1.0] tail is indistinguishable
  // from never-saturating, so the finder reports maxRate — and must never
  // exceed the link-rate bound while doing so.
  auto apl = [](double r) { return r > 0.95 ? 1e9 : 10.0; };
  SaturationOptions opts;  // maxRate 1.0
  const double sat = findSaturationRate(apl, opts);
  EXPECT_DOUBLE_EQ(sat, opts.maxRate);
}

TEST(Saturation, KneeNearUpperBoundBisectsWithinLastProbedStep) {
  // A knee in the last *probed* step (just under the 0.787 final probe)
  // must be bracketed and bisected, not rounded up to maxRate.
  auto apl = [](double r) { return r > 0.7 ? 1e9 : 10.0; };
  SaturationOptions opts;  // maxRate 1.0
  const double sat = findSaturationRate(apl, opts);
  EXPECT_LT(sat, opts.maxRate);
  EXPECT_NEAR(sat, 0.7, 0.02);
}

TEST(Saturation, KneeBeyondMaxRateClampsToMaxRate) {
  // Saturation only past the search bound: the scan exhausts its range
  // without ever bracketing a knee and must return maxRate, not diverge.
  auto apl = [](double r) { return r > 1.5 ? 1e9 : 10.0; };
  SaturationOptions opts;
  opts.maxRate = 0.9;
  EXPECT_DOUBLE_EQ(findSaturationRate(apl, opts), 0.9);
}

TEST(Saturation, NeverDrainingCellTerminatesWithinBisectIters) {
  // A cell that never drains reports +inf APL at every probed rate above
  // zero load (see appSaturationRate). The finder must terminate after
  // the zero-load probe, one scan probe and bisectIters bisection probes
  // — never loop hunting for a finite latency.
  SaturationOptions opts;
  int calls = 0;
  auto apl = [&](double r) {
    ++calls;
    if (r <= opts.zeroLoadRate) return 5.0;
    return std::numeric_limits<double>::infinity();
  };
  const double sat = findSaturationRate(apl, opts);
  EXPECT_LE(calls, 2 + opts.bisectIters);
  EXPECT_GE(sat, opts.zeroLoadRate);
  EXPECT_LE(sat, opts.startRate);
}

TEST(Saturation, ProbesReceiveTheCeilingTheirVerdictNeeds) {
  // The zero-load probe sets the knee, so it must run to completion
  // (+inf); every later probe is judged against kneeFactor x zero-load.
  const double L0 = 20.0;
  SaturationOptions opts;
  std::vector<double> ceilings;
  auto apl = [&](double r, double ceiling) {
    ceilings.push_back(ceiling);
    return r >= 0.4 ? 1e9 : L0 / (1.0 - r / 0.4);
  };
  findSaturationRate(apl, opts);
  ASSERT_GE(ceilings.size(), 2u);
  EXPECT_EQ(ceilings[0], kInf);
  const double zeroLoad = L0 / (1.0 - opts.zeroLoadRate / 0.4);
  for (std::size_t i = 1; i < ceilings.size(); ++i)
    EXPECT_EQ(ceilings[i], opts.kneeFactor * zeroLoad) << "probe " << i;
}

TEST(Saturation, OneArgumentProbeMatchesTwoArgumentProbe) {
  // The one-argument overload is a thin adapter: on the analytic curves
  // it must give exactly the two-argument result.
  const std::vector<std::function<double(double)>> curves = {
      [](double r) { return r >= 0.4 ? 1e9 : 20.0 / (1.0 - r / 0.4); },
      [](double r) { return 10.0 / std::max(1e-9, 1.0 - r); },
      [](double r) { return r < 0.01 ? 10.0 : 1e9; },
      [](double r) { return r > 0.7 ? kInf : 10.0; },
      [](double) { return 10.0; },
  };
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const auto& curve = curves[i];
    const LatencyProbe twoArg = [&](double r, double) { return curve(r); };
    EXPECT_EQ(findSaturationRate(curve), findSaturationRate(twoArg))
        << "curve " << i;
  }
}

TEST(SaturationDeathTest, NonFiniteZeroLoadLatencyIsRejected) {
  // A zero-load probe that cannot drain reports +inf; accepting it would
  // make the knee infinite and silently report maxRate.
  auto apl = [](double, double) { return kInf; };
  EXPECT_DEATH(findSaturationRate(apl), "zero-load");
  auto nan = [](double) { return std::nan(""); };
  EXPECT_DEATH(findSaturationRate(nan), "zero-load");
}

// ---- Early verdicts on the real simulator ---------------------------------

/// The campaign's half-mesh calibration: App 0 alone on the west half.
double halfSat(bool fastWindows) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  AppTrafficSpec shape;
  shape.app = 0;
  return appSaturationRate(m, rm, shape,
                           campaign::paperSatOptions(fastWindows));
}

// The "halves/halfSat" values every campaign record rests on, as the
// calibration computed them before probes had early verdicts (every probe
// simulated to completion).
constexpr double kHalfSatFast = 0.38195418397913583;
constexpr double kHalfSatPaper = 0.37943395842502126;

TEST(SaturationEarlyVerdict, HalfSatIsBitIdenticalWithCeiling) {
  EXPECT_EQ(halfSat(true), kHalfSatFast);
}

TEST(SaturationEarlyVerdict, PaperWindowHalfSatIsBitIdenticalWithCeiling) {
  EXPECT_EQ(halfSat(false), kHalfSatPaper);
}

// The fast-window Fig. 17 flood rate, as computed before its probes had
// early verdicts (every probe simulated to completion).
constexpr double kFig17AttackRateFast = 0.22308761784824604;

TEST(SaturationEarlyVerdict, Fig17FloodRateIsBitIdenticalWithCeiling) {
  campaign::BuildContext ctx = campaign::defaultBuildContext(true);
  double flood = 0.0;
  ctx.value = [&flood](const std::string& key,
                       const std::function<double()>& fn) {
    const double v = fn();
    if (key == "fig17/attackRate") flood = v;
    return v;
  };
  campaign::buildBuiltinCampaign("fig17", ctx);
  EXPECT_EQ(flood, kFig17AttackRateFast);
}

// Fast-window fig12 scenario (a) rates — three low apps aimed at a high
// fourth, the high app calibrated by the joint probe over the high apps'
// mean APL — as computed before probes had early verdicts.
const std::vector<double> kFig12aRates = {
    0.070229165341078717, 0.05664346945403196, 0.05664346945403196,
    0.5679854733312848};

TEST(SaturationEarlyVerdict, JointCalibrationIsBitIdenticalWithCeiling) {
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  const std::array<double, 4> fractions = {
      scenarios::kLowLoadFraction, scenarios::kLowLoadFraction,
      scenarios::kLowLoadFraction, scenarios::kHighLoadFraction};
  EXPECT_EQ(scenarios::calibrateLoads(m, rm,
                                      scenarios::fourAppLowTowardHigh(0, 0),
                                      fractions,
                                      campaign::paperSatOptions(true)),
            kFig12aRates);
}

/// App 0 alone on the west half at `rate`, fast calibration windows.
ScenarioSpec soloSpec(const Mesh& m, const RegionMap& rm, double rate) {
  const SaturationOptions opts = campaign::paperSatOptions(true);
  SimConfig cfg;
  cfg.warmupCycles = opts.warmupCycles;
  cfg.measureCycles = opts.measureCycles;
  cfg.drainLimit = opts.drainLimit;
  std::vector<AppTrafficSpec> apps(1);
  apps[0].app = 0;
  apps[0].injectionRate = rate;
  return ScenarioSpec(m, rm)
      .withConfig(cfg)
      .withScheme(schemeRoRr())
      .withApps(std::move(apps));
}

Cycle measureEndOf(const ScenarioSpec& spec) {
  return spec.config.warmupCycles + spec.config.measureCycles;
}

/// A finished run of an assembled scenario, with the simulator kept alive
/// so its ledger still shows the packets in flight when the run stopped.
struct Finished {
  AssembledScenario as;
  RunResult res;
};

/// Builds `spec`, optionally restores `snap` into it, and runs it.
Finished finish(const ScenarioSpec& spec,
                const std::vector<std::uint8_t>* snap = nullptr) {
  Finished f{assembleScenario(spec), {}};
  if (snap != nullptr) {
    snapshot::Reader r(*snap);
    f.as.sim->restore(r);
  }
  f.res = f.as.sim->run();
  return f;
}

/// App 0's lower bound where `f` stopped, recomputed from outside the
/// simulator: the collected latencies plus the ages of the measured
/// packets the ledger still holds.
double lowerBoundAtStop(const Finished& f) {
  const StatsCollector& stats = f.res.stats;
  std::uint64_t count = 0;
  std::uint64_t age = 0;
  f.as.sim->ledger().forEachLive([&](const Packet& p) {
    if (!stats.inMeasurementWindow(p.createCycle)) return;
    ++count;
    age += f.res.cyclesRun - p.createCycle;
  });
  return stats.aplLowerBound(0, count, age);
}

/// The state of `spec`'s simulation after exactly `cycles` cycles.
std::vector<std::uint8_t> snapshotAt(const ScenarioSpec& spec, Cycle cycles) {
  AssembledScenario as = assembleScenario(spec);
  as.sim->begin();
  while (as.sim->now() < cycles) as.sim->stepCycle();
  snapshot::Writer w;
  as.sim->save(w);
  return w.payload();
}

TEST(SaturationEarlyVerdict, SaturatedProbeStopsAtTheCeiling) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  // Past the half-mesh knee the bound is already about 914 cycles when the
  // window closes (a realistic knee, ~60, stops the run right there); a
  // higher ceiling puts the stop inside the drain.
  constexpr double kRate = 0.466;
  constexpr double kCeiling = 1000.0;
  ScenarioSpec spec = soloSpec(m, rm, kRate);
  const Cycle measureEnd = measureEndOf(spec);
  const Cycle hardStop = measureEnd + spec.config.drainLimit;

  const ScenarioResult full = runScenario(spec);
  EXPECT_TRUE(!full.run.fullyDrained || full.appApl[0] > kCeiling);

  spec.withLatencyCeiling(kCeiling, {0});
  const Finished early = finish(spec);
  EXPECT_EQ(early.res.termination, Termination::LatencyCeiling);
  EXPECT_STREQ(terminationName(early.res.termination), "latency_ceiling");
  EXPECT_FALSE(early.res.fullyDrained);
  EXPECT_GT(early.res.cyclesRun, measureEnd);
  EXPECT_LT(early.res.cyclesRun, hardStop);
  EXPECT_LT(early.res.cyclesRun, full.run.cyclesRun);
  EXPECT_GT(lowerBoundAtStop(early), kCeiling);

  // It stops on the first cycle the bound passes the ceiling: a run cut
  // one cycle earlier by the drain limit still has its bound at or below.
  ScenarioSpec cut = spec;
  cut.config.drainLimit = early.res.cyclesRun - 1 - measureEnd;
  const Finished before = finish(cut);
  EXPECT_EQ(before.res.termination, Termination::DrainLimit);
  EXPECT_LE(lowerBoundAtStop(before), kCeiling);
}

TEST(SaturationEarlyVerdict, LowerBoundRisesToTheFinalApl) {
  // Below the knee the run drains: from the end of the measurement window
  // on, the bound never decreases and never exceeds the final APL, and
  // equals it bit for bit once the last measured packet is delivered.
  // Each sample resumes the state at the window's end and runs it on to a
  // drain limit `k` cycles later.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const ScenarioSpec spec = soloSpec(m, rm, 0.3);
  const Cycle measureEnd = measureEndOf(spec);
  const std::vector<std::uint8_t> snap = snapshotAt(spec, measureEnd);

  const Finished drained = finish(spec, &snap);
  ASSERT_TRUE(drained.res.fullyDrained);
  const double finalApl = drained.res.stats.appApl(0);
  EXPECT_EQ(lowerBoundAtStop(drained), finalApl);

  const Cycle drainCycles = drained.res.cyclesRun - measureEnd;
  ASSERT_GT(drainCycles, 1u);
  const Cycle stride = std::max<Cycle>(1, drainCycles / 40);
  double prev = 0.0;
  for (Cycle k = 0; k < drainCycles; k += stride) {
    ScenarioSpec cut = spec;
    cut.config.drainLimit = k;
    const Finished f = finish(cut, &snap);
    ASSERT_EQ(f.res.termination, Termination::DrainLimit) << "k " << k;
    const double bound = lowerBoundAtStop(f);
    EXPECT_LE(bound, finalApl) << "k " << k;
    EXPECT_GE(bound, prev) << "k " << k;
    prev = bound;
  }
}

TEST(SaturationEarlyVerdict, SaveRestoreMidDrainKeepsTheLowerBound) {
  // The bound is derived from serialized state (collected latencies and
  // the ledger), so a run resumed mid-drain stops on the same cycle with
  // the same bound as the uninterrupted one, and the snapshot bytes do
  // not change.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  ScenarioSpec spec = soloSpec(m, rm, 0.466);
  const Cycle measureEnd = measureEndOf(spec);
  const Cycle savePoint = measureEnd + 500;

  // Ceiling: the bound 700 cycles into the drain, so the run stops after
  // the save point.
  ScenarioSpec cut = spec;
  cut.config.drainLimit = 700;
  const double ceiling = lowerBoundAtStop(finish(cut));
  spec.withLatencyCeiling(ceiling, {0});

  AssembledScenario a = assembleScenario(spec);
  std::vector<std::uint8_t> snap;
  a.sim->setSnapshotHook(
      [&snap](const Simulator& sim, Cycle) {
        snapshot::Writer w;
        sim.save(w);
        snap = w.payload();
      },
      savePoint);
  Finished uninterrupted{std::move(a), {}};
  uninterrupted.res = uninterrupted.as.sim->run();
  ASSERT_EQ(uninterrupted.res.termination, Termination::LatencyCeiling);
  ASSERT_GT(uninterrupted.res.cyclesRun, measureEnd + 700);
  ASSERT_FALSE(snap.empty());

  AssembledScenario b = assembleScenario(spec);
  snapshot::Reader r(snap);
  b.sim->restore(r);
  snapshot::Writer again;
  b.sim->save(again);
  EXPECT_EQ(again.payload(), snap);

  const Finished resumed = finish(spec, &snap);
  EXPECT_EQ(resumed.res.termination, Termination::LatencyCeiling);
  EXPECT_EQ(resumed.res.cyclesRun, uninterrupted.res.cyclesRun);
  EXPECT_EQ(lowerBoundAtStop(resumed), lowerBoundAtStop(uninterrupted));
  EXPECT_GT(lowerBoundAtStop(resumed), ceiling);
}

TEST(SaturationEarlyVerdictDeathTest, CeilingWithFaultPlanIsRejected) {
  // Fault drops leave the measured set, so the bound would not hold.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  fault::FaultPlan plan;
  plan.linkOutage(100, m.nodeAt({1, 1}), Dir::East, 50);
  ScenarioSpec spec =
      soloSpec(m, rm, 0.1).withFaults(plan).withLatencyCeiling(50.0, {0});
  EXPECT_DEATH(runScenario(spec), "fault hook");
}

TEST(Saturation, EmpiricalHalfMeshSaturation) {
  // App 0 on the west half of an 8x8 mesh with uniform intra-region
  // traffic: saturation must land at a plausible mesh throughput —
  // clearly above 0.1 and below the 1.0 link bound.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  AppTrafficSpec app;
  app.app = 0;
  SaturationOptions opts;
  opts.measureCycles = 4'000;
  opts.warmupCycles = 1'000;
  opts.drainLimit = 10'000;
  opts.bisectIters = 4;
  const double sat = appSaturationRate(m, rm, app, opts);
  EXPECT_GT(sat, 0.1);
  EXPECT_LT(sat, 1.0);
}

TEST(Saturation, InterRegionTrafficSaturatesEarlier) {
  // Sending everything across the chip adds hops and shared-channel
  // contention, so saturation drops versus region-local traffic.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  SaturationOptions opts;
  opts.measureCycles = 4'000;
  opts.warmupCycles = 1'000;
  opts.drainLimit = 10'000;
  opts.bisectIters = 4;

  AppTrafficSpec local;
  local.app = 0;
  const double satLocal = appSaturationRate(m, rm, local, opts);

  AppTrafficSpec remote;
  remote.app = 0;
  remote.intraFraction = 0.0;
  remote.interFraction = 1.0;
  remote.interTargetApp = 1;
  const double satRemote = appSaturationRate(m, rm, remote, opts);

  EXPECT_LT(satRemote, satLocal);
}

}  // namespace
}  // namespace rair
