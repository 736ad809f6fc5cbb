#include "region/region_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

namespace rair {
namespace {

TEST(RegionMap, HalvesLayout) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  EXPECT_EQ(rm.numApps(), 2);
  // West half belongs to app 0, east half to app 1.
  EXPECT_EQ(rm.appOf(m.nodeAt({0, 0})), 0);
  EXPECT_EQ(rm.appOf(m.nodeAt({3, 7})), 0);
  EXPECT_EQ(rm.appOf(m.nodeAt({4, 0})), 1);
  EXPECT_EQ(rm.appOf(m.nodeAt({7, 7})), 1);
  EXPECT_EQ(rm.nodesOf(0).size(), 32u);
  EXPECT_EQ(rm.nodesOf(1).size(), 32u);
}

TEST(RegionMap, QuadrantsLayout) {
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  EXPECT_EQ(rm.numApps(), 4);
  EXPECT_EQ(rm.appOf(m.nodeAt({0, 0})), 0);  // NW
  EXPECT_EQ(rm.appOf(m.nodeAt({7, 0})), 1);  // NE
  EXPECT_EQ(rm.appOf(m.nodeAt({0, 7})), 2);  // SW
  EXPECT_EQ(rm.appOf(m.nodeAt({7, 7})), 3);  // SE
  for (AppId a = 0; a < 4; ++a) EXPECT_EQ(rm.nodesOf(a).size(), 16u);
}

TEST(RegionMap, SixRegionsPaperLayout) {
  Mesh m(8, 8);
  const auto rm = RegionMap::sixRegions(m);
  EXPECT_EQ(rm.numApps(), 6);
  // Column widths {3,3,2}, row bands of height 4 -> sizes 12,12,8,12,12,8.
  EXPECT_EQ(rm.nodesOf(0).size(), 12u);
  EXPECT_EQ(rm.nodesOf(1).size(), 12u);
  EXPECT_EQ(rm.nodesOf(2).size(), 8u);
  EXPECT_EQ(rm.nodesOf(3).size(), 12u);
  EXPECT_EQ(rm.nodesOf(4).size(), 12u);
  EXPECT_EQ(rm.nodesOf(5).size(), 8u);
  EXPECT_EQ(rm.appOf(m.nodeAt({0, 0})), 0);
  EXPECT_EQ(rm.appOf(m.nodeAt({3, 0})), 1);
  EXPECT_EQ(rm.appOf(m.nodeAt({6, 0})), 2);
  EXPECT_EQ(rm.appOf(m.nodeAt({0, 4})), 3);
  EXPECT_EQ(rm.appOf(m.nodeAt({5, 7})), 4);
  EXPECT_EQ(rm.appOf(m.nodeAt({7, 7})), 5);
}

TEST(RegionMap, EveryNodeAssignedInBlockGrids) {
  Mesh m(8, 8);
  for (const auto& rm :
       {RegionMap::halves(m), RegionMap::quadrants(m), RegionMap::sixRegions(m)}) {
    std::size_t total = 0;
    for (AppId a = 0; a < rm.numApps(); ++a) total += rm.nodesOf(a).size();
    EXPECT_EQ(total, 64u);
    for (NodeId n = 0; n < m.numNodes(); ++n) EXPECT_NE(rm.appOf(n), kNoApp);
  }
}

TEST(RegionMap, RegionsAreDisjoint) {
  Mesh m(8, 8);
  const auto rm = RegionMap::sixRegions(m);
  std::set<NodeId> seen;
  for (AppId a = 0; a < rm.numApps(); ++a) {
    for (NodeId n : rm.nodesOf(a)) {
      EXPECT_TRUE(seen.insert(n).second) << "node in two regions";
    }
  }
}

TEST(RegionMap, SameRegionAndNativeQueries) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const NodeId west = m.nodeAt({1, 1});
  const NodeId west2 = m.nodeAt({2, 5});
  const NodeId east = m.nodeAt({6, 1});
  EXPECT_TRUE(rm.sameRegion(west, west2));
  EXPECT_FALSE(rm.sameRegion(west, east));
  EXPECT_TRUE(rm.isNativeAt(west, 0));
  EXPECT_FALSE(rm.isNativeAt(west, 1));
  EXPECT_TRUE(rm.isNativeAt(east, 1));
}

TEST(RegionMap, UnassignedNodes) {
  Mesh m(4, 4);
  AppSpec a0{0, {0, 1, 4, 5}};
  const RegionMap rm(m, {a0});
  EXPECT_EQ(rm.appOf(0), 0);
  EXPECT_EQ(rm.appOf(15), kNoApp);
  EXPECT_FALSE(rm.sameRegion(14, 15));  // both unassigned -> not a region
  EXPECT_FALSE(rm.isNativeAt(15, 0));
}

TEST(RegionMap, RegionExtentInsideHalves) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  // From (0,0): can move 3 hops east (cols 1..3 in app 0), 7 hops south.
  EXPECT_EQ(rm.regionExtent(m.nodeAt({0, 0}), Dir::East), 3);
  EXPECT_EQ(rm.regionExtent(m.nodeAt({0, 0}), Dir::South), 7);
  EXPECT_EQ(rm.regionExtent(m.nodeAt({0, 0}), Dir::West), 0);
  EXPECT_EQ(rm.regionExtent(m.nodeAt({0, 0}), Dir::North), 0);
  // From (3,4): east neighbor (4,4) is app 1, so extent 0.
  EXPECT_EQ(rm.regionExtent(m.nodeAt({3, 4}), Dir::East), 0);
  EXPECT_EQ(rm.regionExtent(m.nodeAt({3, 4}), Dir::West), 3);
}

TEST(RegionMap, RegionExtentOnUnassignedNodeIsZero) {
  Mesh m(4, 4);
  AppSpec a0{0, {0, 1}};
  const RegionMap rm(m, {a0});
  EXPECT_EQ(rm.regionExtent(10, Dir::North), 0);
  EXPECT_EQ(rm.regionExtent(10, Dir::East), 0);
}

/// DBAR's horizon as first defined: walk neighbors in direction `d` while
/// they belong to n's (assigned) region.
int walkedExtent(const Mesh& mesh, const RegionMap& rm, NodeId n, Dir d) {
  const AppId home = rm.appOf(n);
  int extent = 0;
  NodeId cur = n;
  while (true) {
    const auto next = mesh.neighbor(cur, d);
    if (!next || rm.appOf(*next) != home || home == kNoApp) break;
    cur = *next;
    ++extent;
  }
  return extent;
}

void expectExtentsMatchWalk(const Mesh& mesh, const RegionMap& rm) {
  for (NodeId n = 0; n < mesh.numNodes(); ++n)
    for (int d = 0; d < kNumPorts; ++d)
      ASSERT_EQ(rm.regionExtent(n, static_cast<Dir>(d)),
                walkedExtent(mesh, rm, n, static_cast<Dir>(d)))
          << "node " << n << " dir " << d;
}

TEST(RegionMap, ExtentTableMatchesNeighborWalk) {
  for (const auto& [w, h] : {std::pair{8, 8}, std::pair{16, 16},
                             std::pair{5, 3}, std::pair{7, 9}}) {
    const Mesh m(w, h);
    expectExtentsMatchWalk(m, RegionMap::halves(m));
    expectExtentsMatchWalk(m, RegionMap::quadrants(m));
    expectExtentsMatchWalk(m, RegionMap::sixRegions(m));
    expectExtentsMatchWalk(m, RegionMap::blockGrid(m, std::min(w, 3), 1));
    expectExtentsMatchWalk(m, RegionMap::blockGrid(m, 2, std::min(h, 3)));
  }
  // Unassigned (kNoApp) nodes around and between two irregular regions.
  const Mesh m(6, 5);
  const AppSpec a0{0, {0, 1, 2, 6, 7, 13, 19}};
  const AppSpec a1{1, {4, 5, 11, 17, 16, 22, 28, 29}};
  expectExtentsMatchWalk(m, RegionMap(m, {a0, a1}));
}

TEST(RegionMap, BlockGridGeneric) {
  Mesh m(6, 6);
  const auto rm = RegionMap::blockGrid(m, 3, 2);
  EXPECT_EQ(rm.numApps(), 6);
  for (AppId a = 0; a < 6; ++a) EXPECT_EQ(rm.nodesOf(a).size(), 6u);
}

TEST(RegionMap, BlockGridUnevenSplit) {
  Mesh m(5, 3);
  const auto rm = RegionMap::blockGrid(m, 2, 1);
  EXPECT_EQ(rm.numApps(), 2);
  // Width 5 split into {3,2}.
  EXPECT_EQ(rm.nodesOf(0).size(), 9u);
  EXPECT_EQ(rm.nodesOf(1).size(), 6u);
}

}  // namespace
}  // namespace rair
