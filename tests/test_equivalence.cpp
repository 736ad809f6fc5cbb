// Golden-number equivalence: the allocation-free hot path (packet slab,
// ring-buffer VCs, incremental occupancy/state tracking) must reproduce
// the pre-refactor simulator bit-for-bit. The constants below were
// recorded from the seed implementation's fig09 fast-window campaign
// (campaignSeed = 1); any drift in arbitration order, RNG consumption or
// stats accounting shows up here as an exact-compare failure.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "campaign/builtin.h"
#include "campaign/runner.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"

namespace rair {
namespace {

/// Calibrated half-mesh saturation of the seed fig09 campaign
/// ("halves/halfSat" in its results file). Hard-coding it pins the cell
/// workloads without re-running the calibration bisection.
constexpr double kHalfSat = 0.38195418397913583;

ScenarioResult runFig09Cell(double p, const SchemeSpec& scheme,
                            std::uint64_t seed) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const auto apps = scenarios::twoAppInterRegion(
      p, scenarios::kLowLoadFraction * kHalfSat,
      scenarios::kHighLoadFraction * kHalfSat);
  return runScenario(ScenarioSpec(mesh, regions)
                         .withScheme(scheme)
                         .withApps(apps)
                         .withSeed(seed)
                         .withFastWindows());
}

TEST(Equivalence, CellSeedsMatchSeedCampaign) {
  EXPECT_EQ(campaign::cellSeed(1, 0), 10451216379200822465ull);
  EXPECT_EQ(campaign::cellSeed(1, 1), 13757245211066428519ull);
  EXPECT_EQ(campaign::cellSeed(1, 2), 17911839290282890590ull);
  EXPECT_EQ(campaign::cellSeed(1, 3), 8196980753821780235ull);
  EXPECT_EQ(campaign::cellSeed(1, 4), 8195237237126968761ull);
}

TEST(Equivalence, Fig09RoRrP0MatchesSeedImplementation) {
  const auto r = runFig09Cell(0.0, schemeRoRr(), 10451216379200822465ull);
  ASSERT_EQ(r.appApl.size(), 2u);
  EXPECT_EQ(r.appApl[0], 23.313518113299295);
  EXPECT_EQ(r.appApl[1], 29.36873761982563);
  EXPECT_EQ(r.meanApl, 28.725103050821176);
  EXPECT_EQ(r.run.cyclesRun, 22062u);
  EXPECT_EQ(r.run.packetsCreated, 85324u);
  EXPECT_EQ(r.run.packetsDelivered, 85224u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

TEST(Equivalence, Fig09RaRairP100MatchesSeedImplementation) {
  const auto r = runFig09Cell(1.0, schemeRaRair(), 8042142155559163816ull);
  ASSERT_EQ(r.appApl.size(), 2u);
  EXPECT_EQ(r.appApl[0], 35.292608196093454);
  EXPECT_EQ(r.appApl[1], 37.077724857767421);
  EXPECT_EQ(r.meanApl, 36.895917305942007);
  EXPECT_EQ(r.run.cyclesRun, 22138u);
  EXPECT_EQ(r.run.packetsCreated, 85171u);
  EXPECT_EQ(r.run.packetsDelivered, 85040u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

// ---- Arbitration paths beyond RO_RR and RA_RAIR ---------------------------

/// One fast-window 8x8 halves cell per arbitration path the router's
/// VA_out/SA_in/SA_out loops can take: the flit-reading policies (STC's
/// batch and rank, age), RAIR's fixed-priority and VA-only ablations,
/// DBAR selection, and non-atomic VCs with two message classes. App 0 sends
/// half of its traffic across the region boundary, so both native and
/// foreign packets contend everywhere. The pins were recorded before the
/// router arbitrated from cached per-VC state.
struct ArbPathCell {
  const char* name;
  SchemeSpec scheme;
  bool twoClassNonAtomic;
  double meanApl;
  std::uint64_t flitHops;
  std::uint64_t vaNative, vaForeign, saNative, saForeign;
};

SchemeSpec schemeRoAge() {
  SchemeSpec s;
  s.label = "RO_Age";
  s.policy = PolicyKind::AgeBased;
  return s;
}

const std::vector<ArbPathCell>& arbPathCells() {
  static const std::vector<ArbPathCell> cells = {
      {"RoRank", schemeRoRank(), false, 32.311751158036387, 1311071, 414754,
       21986, 1244792, 66279},
      {"RoAge", schemeRoAge(), false, 34.101286132029088, 1310857, 414805,
       21865, 1244911, 65946},
      {"RairNativeH", schemeRairNativeHigh(), false, 31.671272934295992,
       1311328, 415093, 21717, 1245922, 65406},
      {"RairForeignH", schemeRairForeignHigh(), false, 32.203814403643612,
       1311048, 414750, 21986, 1244757, 66291},
      {"RairVa", schemeRairVaOnly(), false, 31.598193722019513, 1311461,
       414975, 21887, 1245543, 65918},
      {"RaDbar", schemeRaDbar(), false, 29.775936133322983, 1311225, 422774,
       14011, 1269135, 42090},
      {"RaRairTwoClassNonAtomic", schemeRaRair(), true, 32.305436948477087,
       1311947, 414373, 22634, 1243880, 68067},
  };
  return cells;
}

class ArbPathGolden
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ArbPathGolden, MatchesRecordedGolden) {
  const ArbPathCell& cell = arbPathCells()[std::get<0>(GetParam())];
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  auto apps = scenarios::twoAppInterRegion(
      0.5, scenarios::kLowLoadFraction * kHalfSat,
      scenarios::kHighLoadFraction * kHalfSat);
  SimConfig cfg;
  if (cell.twoClassNonAtomic) {
    cfg.net.numClasses = 2;
    cfg.net.atomicVcs = false;
    apps[1].msgClass = MsgClass::Reply;
  }
  const auto r = runScenario(ScenarioSpec(mesh, regions)
                                 .withConfig(cfg)
                                 .withScheme(cell.scheme)
                                 .withApps(apps)
                                 .withSeed(0x5EED)
                                 .withThreads(std::get<1>(GetParam()))
                                 .withFastWindows());
  EXPECT_EQ(r.meanApl, cell.meanApl);
  EXPECT_EQ(r.run.flitHops, cell.flitHops);
  EXPECT_EQ(r.run.termination, Termination::Drained);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_EQ(r.metrics->vaGrantsNative, cell.vaNative);
  EXPECT_EQ(r.metrics->vaGrantsForeign, cell.vaForeign);
  EXPECT_EQ(r.metrics->saGrantsNative, cell.saNative);
  EXPECT_EQ(r.metrics->saGrantsForeign, cell.saForeign);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ArbPathGolden,
    ::testing::Combine(::testing::Range<std::size_t>(0, arbPathCells().size()),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<ArbPathGolden::ParamType>& info) {
      return std::string(arbPathCells()[std::get<0>(info.param)].name) +
             "_t" + std::to_string(std::get<1>(info.param));
    });

/// The first row of the fig09 grid (RO_RR, p in {0,25,50,75,100}) as its
/// own campaign: same campaignSeed and cell order as the full fig09, so
/// cells 0..4 derive the exact same seeds.
campaign::CampaignSpec fig09RoRrRow() {
  campaign::CampaignSpec spec;
  spec.name = "fig09trunc";
  spec.campaignSeed = 1;
  for (const int p : {0, 25, 50, 75, 100}) {
    campaign::CampaignCell cell;
    cell.key = "RO_RR/p" + std::to_string(p);
    cell.labels = {{"scheme", "RO_RR"}, {"p", std::to_string(p)}};
    cell.run = [p](const campaign::CellContext& ctx) {
      return runFig09Cell(p / 100.0, schemeRoRr(), ctx.seed);
    };
    spec.add(std::move(cell));
  }
  return spec;
}

std::vector<std::string> canonicalLines(
    const std::vector<campaign::CellRecord>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs)
    lines.push_back(r.toJsonLine(/*includeVolatile=*/false));
  return lines;
}

TEST(Equivalence, RunnerResultsIndependentOfWorkerCount) {
  const campaign::CampaignSpec spec = fig09RoRrRow();

  campaign::RunnerOptions one;
  one.jobs = 1;
  const auto serial = campaign::runCampaign(spec, one);

  campaign::RunnerOptions four;
  four.jobs = 4;
  const auto parallel = campaign::runCampaign(spec, four);

  ASSERT_EQ(serial.records.size(), 5u);
  EXPECT_EQ(canonicalLines(serial.records), canonicalLines(parallel.records));

  // Spot-check the first cell against the recorded golden numbers — this
  // ties the runner path (cell seeding included) to the seed trajectory,
  // not merely to itself.
  const auto& p0 = serial.records[0];
  EXPECT_EQ(p0.key, "RO_RR/p0");
  EXPECT_EQ(p0.seed, 10451216379200822465ull);
  ASSERT_EQ(p0.appApl.size(), 2u);
  EXPECT_EQ(p0.appApl[0], 23.313518113299295);
  EXPECT_EQ(p0.appApl[1], 29.36873761982563);
  EXPECT_EQ(p0.cyclesRun, 22062u);
}

// ---- Fig. 12 (DPA, four quadrant apps) -----------------------------------

/// Fast-window calibrated loads of the fig12 campaign ("fig12/cal_a" and
/// "fig12/cal_b" in its results file, campaignSeed = 1). Hard-coding them
/// pins the workloads without re-running the saturation bisections.
constexpr double kFig12RatesA[4] = {0.070229165341078717, 0.05664346945403196,
                                    0.05664346945403196, 0.5679854733312848};
constexpr double kFig12RatesB[4] = {0.067957602041636811, 0.067957602041636811,
                                    0.066821820391915865, 0.5679854733312848};

ScenarioResult runFig12Cell(char scen, const SchemeSpec& scheme,
                            std::uint64_t seed) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  auto apps = scen == 'a' ? scenarios::fourAppLowTowardHigh(0, 0)
                          : scenarios::fourAppHighTowardLow(0, 0);
  const double* rates = scen == 'a' ? kFig12RatesA : kFig12RatesB;
  for (std::size_t a = 0; a < 4; ++a) apps[a].injectionRate = rates[a];
  return runScenario(ScenarioSpec(mesh, regions)
                         .withScheme(scheme)
                         .withApps(std::move(apps))
                         .withSeed(seed)
                         .withFastWindows());
}

TEST(Equivalence, Fig12RaRairScenarioAMatchesRecordedGolden) {
  // Seed of cell index 6 (RA_RAIR/a) of the full fig12 campaign.
  const auto r = runFig12Cell('a', schemeRaRair(), 16184226688143867045ull);
  ASSERT_EQ(r.appApl.size(), 4u);
  EXPECT_EQ(r.appApl[0], 24.793486894360605);
  EXPECT_EQ(r.appApl[1], 21.615497076023392);
  EXPECT_EQ(r.appApl[2], 21.577321281840593);
  EXPECT_EQ(r.appApl[3], 34.977863377860075);
  EXPECT_EQ(r.meanApl, 31.979298232502522);
  EXPECT_EQ(r.run.cyclesRun, 22088u);
  EXPECT_EQ(r.run.packetsCreated, 88556u);
  EXPECT_EQ(r.run.packetsDelivered, 88428u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

TEST(Equivalence, Fig12RunnerRowIndependentOfWorkerCount) {
  // The first two cells (RO_RR/a, RO_RR/b) of the full fig12 campaign:
  // same campaignSeed and cell order, so seeds derive identically.
  campaign::CampaignSpec spec;
  spec.name = "fig12trunc";
  spec.campaignSeed = 1;
  for (const char scen : {'a', 'b'}) {
    campaign::CampaignCell cell;
    cell.key = std::string("RO_RR/") + scen;
    cell.labels = {{"scheme", "RO_RR"}, {"scenario", std::string(1, scen)}};
    cell.run = [scen](const campaign::CellContext& ctx) {
      return runFig12Cell(scen, schemeRoRr(), ctx.seed);
    };
    spec.add(std::move(cell));
  }

  campaign::RunnerOptions one;
  one.jobs = 1;
  const auto serial = campaign::runCampaign(spec, one);
  campaign::RunnerOptions four;
  four.jobs = 4;
  const auto parallel = campaign::runCampaign(spec, four);

  ASSERT_EQ(serial.records.size(), 2u);
  EXPECT_EQ(canonicalLines(serial.records), canonicalLines(parallel.records));

  const auto& a = serial.records[0];
  EXPECT_EQ(a.key, "RO_RR/a");
  EXPECT_EQ(a.seed, 10451216379200822465ull);
  ASSERT_EQ(a.appApl.size(), 4u);
  EXPECT_EQ(a.appApl[0], 28.197831261571014);
  EXPECT_EQ(a.appApl[3], 31.845660433216558);
  EXPECT_EQ(a.cyclesRun, 22179u);
  EXPECT_EQ(a.packetsCreated, 88990u);

  const auto& b = serial.records[1];
  EXPECT_EQ(b.seed, 13757245211066428519ull);
  ASSERT_EQ(b.appApl.size(), 4u);
  EXPECT_EQ(b.appApl[0], 18.267169294037011);
  EXPECT_EQ(b.cyclesRun, 22050u);
}

// ---- Fig. 14 (six-app generic RNoC) --------------------------------------

/// Fast-window calibrated loads of the fig14 campaign ("sixapp/cal_UR",
/// campaignSeed = 1), uniform-random global traffic.
constexpr double kFig14Rates[6] = {0.078179636889125367, 0.62591033746705327,
                                   0.14999999999999999,  0.15635927377825073,
                                   0.23453891066737606,  0.62591033746705327};

ScenarioResult runFig14Cell(const SchemeSpec& scheme, std::uint64_t seed) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::sixRegions(mesh);
  const std::vector<double> rates(kFig14Rates, kFig14Rates + 6);
  const auto apps = scenarios::sixAppMixed(PatternKind::UniformRandom, rates);
  return runScenario(ScenarioSpec(mesh, regions)
                         .withScheme(scheme)
                         .withApps(apps)
                         .withSeed(seed)
                         .withFastWindows());
}

TEST(Equivalence, Fig14RaRairMatchesRecordedGolden) {
  // Seed of cell index 3 (RA_RAIR) of the full fig14 campaign.
  const auto r = runFig14Cell(schemeRaRair(), 8196980753821780235ull);
  ASSERT_EQ(r.appApl.size(), 6u);
  EXPECT_EQ(r.appApl[0], 21.290786948176585);
  EXPECT_EQ(r.appApl[1], 32.404580000000003);
  EXPECT_EQ(r.appApl[2], 21.113610657282894);
  EXPECT_EQ(r.appApl[3], 21.894479216819128);
  EXPECT_EQ(r.appApl[4], 22.057012113055183);
  EXPECT_EQ(r.appApl[5], 32.967497127653139);
  EXPECT_EQ(r.meanApl, 28.789471633416458);
  EXPECT_EQ(r.run.cyclesRun, 22051u);
  EXPECT_EQ(r.run.packetsCreated, 141596u);
  EXPECT_EQ(r.run.packetsDelivered, 141429u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

TEST(Equivalence, Fig14RunnerRowIndependentOfWorkerCount) {
  // The first two cells (RO_RR, RA_DBAR) of the full fig14 campaign.
  campaign::CampaignSpec spec;
  spec.name = "fig14trunc";
  spec.campaignSeed = 1;
  for (const SchemeSpec& s : {schemeRoRr(), schemeRaDbar()}) {
    campaign::CampaignCell cell;
    cell.key = s.label;
    cell.labels = {{"scheme", s.label}};
    cell.run = [s](const campaign::CellContext& ctx) {
      return runFig14Cell(s, ctx.seed);
    };
    spec.add(std::move(cell));
  }

  campaign::RunnerOptions one;
  one.jobs = 1;
  const auto serial = campaign::runCampaign(spec, one);
  campaign::RunnerOptions four;
  four.jobs = 4;
  const auto parallel = campaign::runCampaign(spec, four);

  ASSERT_EQ(serial.records.size(), 2u);
  EXPECT_EQ(canonicalLines(serial.records), canonicalLines(parallel.records));

  const auto& rr = serial.records[0];
  EXPECT_EQ(rr.key, "RO_RR");
  EXPECT_EQ(rr.seed, 10451216379200822465ull);
  ASSERT_EQ(rr.appApl.size(), 6u);
  EXPECT_EQ(rr.appApl[0], 21.963269200190808);
  EXPECT_EQ(rr.appApl[5], 29.478742289754777);
  EXPECT_EQ(rr.cyclesRun, 22070u);
  EXPECT_EQ(rr.packetsCreated, 141684u);

  const auto& dbar = serial.records[1];
  EXPECT_EQ(dbar.key, "RA_DBAR");
  EXPECT_EQ(dbar.seed, 13757245211066428519ull);
  EXPECT_EQ(dbar.appApl[0], 21.960865415208399);
  EXPECT_EQ(dbar.cyclesRun, 22051u);
}

}  // namespace
}  // namespace rair
