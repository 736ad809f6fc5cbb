// The side-band congestion-information network: local free-VC counts and
// their one-hop-per-cycle aggregation (what DBAR's selection consumes).
#include <gtest/gtest.h>

#include "policy/policy.h"
#include "sim/network.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

NetworkConfig cfg() {
  NetworkConfig c;
  c.vcsPerClass = 5;  // 1 escape + 4 adaptive
  return c;
}

TEST(CongestionInfo, IdleNetworkReportsAllAdaptiveVcsFree) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  const NodeId center = m.nodeAt({1, 1});
  for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West})
    EXPECT_EQ(net.freeVcsThrough(center, d), 4);
}

TEST(CongestionInfo, EdgePortsReportZero) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({0, 0}), Dir::North), 0);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({0, 0}), Dir::West), 0);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({3, 3}), Dir::East), 0);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({3, 3}), Dir::South), 0);
}

TEST(CongestionInfo, AggregationNeedsPropagationTime) {
  Mesh m(8, 1);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  // The aggregates are computed only for DBAR, their one reader.
  Network net(m, rm, cfg(), RoutingKind::Dbar, policy);
  // Before any cycle, the aggregate tables hold zeros.
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 3), 0);
  // After one cycle only the 1-hop term is live (4 free VCs); the deeper
  // terms still add stale zeros from neighbors.
  net.step(0);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 1), 4);
  // After h cycles, an h-hop horizon is fully populated: 4 per hop.
  for (Cycle t = 1; t < 5; ++t) net.step(t);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 1), 4);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 2), 8);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 3), 12);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 5), 20);
}

TEST(CongestionInfo, HorizonClampsAtMeshEdge) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::Dbar, policy);
  for (Cycle t = 0; t < 6; ++t) net.step(t);
  // From (1,1) eastward only 2 more routers exist; a huge horizon is
  // clamped to the stored maximum (width-1 = 3 hops), and hops beyond the
  // edge contribute nothing.
  const NodeId n = m.nodeAt({1, 1});
  const int h3 = net.aggregatedFree(n, Dir::East, 3);
  EXPECT_EQ(net.aggregatedFree(n, Dir::East, 99), h3);
  // 1 hop past (2,1), 2 hops past (3,1): 4 + 4 + 0 (edge) = 8... the
  // 3-hop aggregate counts ports (1,1)E, (2,1)E, (3,1)E; the last is an
  // edge port contributing 0.
  EXPECT_EQ(h3, 8);
}

TEST(CongestionInfo, SideBandIsOffWithoutDbar) {
  // XY and local-adaptive routing never read the aggregates, so the
  // network skips their propagation and the tables stay zero — in the
  // live network and in its snapshot.
  Mesh m(8, 1);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  for (const RoutingKind kind :
       {RoutingKind::Xy, RoutingKind::LocalAdaptive}) {
    Network net(m, rm, cfg(), kind, policy);
    for (Cycle t = 0; t < 5; ++t) net.step(t);
    EXPECT_EQ(net.freeVcsThrough(0, Dir::East), 4);
    EXPECT_EQ(net.aggregatedFree(0, Dir::East, 1), 0);
    EXPECT_EQ(net.aggregatedFree(0, Dir::East, 5), 0);
  }
}

TEST(CongestionInfo, StaleSideBandInSnapshotRestoresAsZeros) {
  // A snapshot from a build that propagated the side-band for every
  // routing kind carries non-zero "net/agg" rows for a local-adaptive
  // network. Restoring it must ignore them, so the state re-saves to the
  // exact bytes this build writes.
  Mesh m(8, 1);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network live(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  for (Cycle t = 0; t < 5; ++t) live.step(t);
  snapshot::Writer current;
  live.save(current);

  // "net/agg" is the first section; splice a stale copy in front of the
  // rest of the current bytes.
  const std::uint32_t aggSize = 8 * 4 * 7;  // nodes x dirs x maxHops
  auto aggSection = [&](int value) {
    snapshot::Writer w;
    w.beginSection("net/agg");
    w.u32(aggSize);
    for (std::uint32_t i = 0; i < 2 * aggSize; ++i) w.i32(value);
    w.endSection();
    return w.payload();
  };
  const std::size_t aggBytes = aggSection(0).size();
  ASSERT_EQ(std::vector<std::uint8_t>(current.payload().begin(),
                                      current.payload().begin() +
                                          static_cast<std::ptrdiff_t>(
                                              aggBytes)),
            aggSection(0));
  std::vector<std::uint8_t> stale = aggSection(7);
  stale.insert(stale.end(),
               current.payload().begin() +
                   static_cast<std::ptrdiff_t>(aggBytes),
               current.payload().end());

  Network restored(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  snapshot::Reader r(stale);
  restored.restore(r);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(restored.aggregatedFree(0, Dir::East, 3), 0);
  snapshot::Writer resaved;
  restored.save(resaved);
  EXPECT_EQ(resaved.payload(), current.payload());
}

TEST(CongestionInfo, OccupiedVcsReduceTheCount) {
  // Push traffic through one column and verify the reported free counts
  // drop at the loaded ports.
  Mesh m(4, 1);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  // Inject long packets from node 0 toward node 3 and stall them by
  // keeping the NIC at node 3 busy — simplest: observe counts drop while
  // flits are in flight.
  Packet p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;
  p.app = 0;
  p.numFlits = 5;
  net.nic(0).enqueue(p);
  Packet q = p;
  q.id = 2;
  net.nic(0).enqueue(q);
  bool dipped = false;
  for (Cycle t = 0; t < 20; ++t) {
    net.step(t);
    if (net.freeVcsThrough(0, Dir::East) < 4) dipped = true;
  }
  EXPECT_TRUE(dipped) << "in-flight packets never occupied an output VC";
  // After draining, everything is free again.
  for (Cycle t = 20; t < 60; ++t) net.step(t);
  EXPECT_EQ(net.freeVcsThrough(0, Dir::East), 4);
  EXPECT_TRUE(net.quiescent());
}

}  // namespace
}  // namespace rair
