// ObserverSet: the simulator's dynamic observer list. Attach/detach
// ordering, the absence of a slot-count ceiling, dispatch of all three
// callbacks through a live simulation, and a delivery hook on a sharded
// simulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

/// Appends its id to a shared log on every callback.
struct TaggedObserver final : SimObserver {
  TaggedObserver(int id, std::vector<int>& log) : id(id), log(&log) {}
  void onCycleBegin(Cycle) override { log->push_back(id); }
  int id;
  std::vector<int>* log;
};

TEST(ObserverSet, FiresInAttachmentOrderWithoutSlotCeiling) {
  std::vector<int> log;
  // Eight observers: double the old fixed four-slot array.
  std::vector<TaggedObserver> obs;
  obs.reserve(8);
  for (int i = 0; i < 8; ++i) obs.emplace_back(i, log);

  ObserverSet set;
  EXPECT_TRUE(set.empty());
  for (auto& o : obs) set.attach(&o);
  EXPECT_EQ(set.size(), 8u);

  set.notifyCycleBegin(0);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ObserverSet, DetachPreservesOrderOfTheRest) {
  std::vector<int> log;
  std::vector<TaggedObserver> obs;
  obs.reserve(5);
  for (int i = 0; i < 5; ++i) obs.emplace_back(i, log);

  ObserverSet set;
  for (auto& o : obs) set.attach(&o);

  EXPECT_TRUE(set.detach(&obs[2]));
  EXPECT_FALSE(set.detach(&obs[2]));  // already gone
  EXPECT_FALSE(set.attached(&obs[2]));
  EXPECT_EQ(set.size(), 4u);

  set.notifyCycleBegin(0);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 3, 4}));

  // Re-attaching appends at the end.
  set.attach(&obs[2]);
  log.clear();
  set.notifyCycleBegin(1);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 3, 4, 2}));

  set.clear();
  EXPECT_TRUE(set.empty());
}

// ---- Dispatch through a live simulation -----------------------------------

constexpr double kHalfSat = 0.38195418397913583;

ScenarioSpec smallSpec(const Mesh& mesh, const RegionMap& regions) {
  return ScenarioSpec(mesh, regions)
      .withScheme(schemeRaRair())
      .withApps(scenarios::twoAppInterRegion(
          0.5, scenarios::kLowLoadFraction * kHalfSat,
          scenarios::kHighLoadFraction * kHalfSat))
      .withSeed(7)
      .withFastWindows();
}

/// Counts every callback; records the cycle bounds seen.
struct CountingObserver final : SimObserver {
  void onCycleBegin(Cycle now) override {
    ++begins;
    lastBegin = now;
  }
  void onCycleEnd(Cycle now) override {
    ++ends;
    lastEnd = now;
  }
  void onDelivery(const Packet& p) override {
    ++deliveries;
    lastHops = p.hops;
  }
  int begins = 0, ends = 0, deliveries = 0;
  Cycle lastBegin = 0, lastEnd = 0;
  std::uint16_t lastHops = 0;
};

TEST(ObserverSet, SimulatorDispatchesAllThreeCallbacks) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  AssembledScenario as = assembleScenario(smallSpec(mesh, regions));

  CountingObserver counter;
  as.sim->observers().attach(&counter);
  as.sim->begin();
  for (int i = 0; i < 500; ++i) as.sim->stepCycle();

  EXPECT_EQ(counter.begins, 500);
  EXPECT_EQ(counter.ends, 500);
  EXPECT_EQ(counter.lastBegin, 499u);
  EXPECT_EQ(counter.lastEnd, 499u);
  EXPECT_GT(counter.deliveries, 0);
  EXPECT_GT(counter.lastHops, 0);

  // Detached observers stop firing.
  EXPECT_TRUE(as.sim->observers().detach(&counter));
  as.sim->stepCycle();
  EXPECT_EQ(counter.begins, 500);
}

TEST(ObserverSet, DeliveryHookOnShardedSimulatorKeepsStateByteIdentical) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = smallSpec(mesh, regions);

  // Reference: plain one-shard run without a hook.
  AssembledScenario plain = assembleScenario(spec);
  plain.sim->begin();
  for (int i = 0; i < 2000; ++i) plain.sim->stepCycle();
  snapshot::Writer wp;
  plain.sim->save(wp);

  // Sharded simulator with a no-op delivery hook installed: the hook fires
  // at the coordinator's replay, and the run must match the reference byte
  // for byte. A hooked simulation is never snapshot-eligible.
  AssembledScenario sharded =
      assembleScenario(ScenarioSpec(spec).withThreads(4));
  sharded.sim->setDeliveryHook([](const Packet&, InjectionSink&) {});
  EXPECT_FALSE(sharded.sim->snapshotSupported());
  sharded.sim->begin();
  for (int i = 0; i < 2000; ++i) sharded.sim->stepCycle();
  snapshot::Writer ws;
  sharded.sim->save(ws);

  EXPECT_TRUE(wp.payload() == ws.payload());
}

}  // namespace
}  // namespace rair
