#include "region/region_map.h"

#include <algorithm>

#include "common/assert.h"

namespace rair {

RegionMap::RegionMap(const Mesh& mesh, std::vector<AppSpec> apps)
    : apps_(std::move(apps)) {
  nodeApp_.assign(static_cast<size_t>(mesh.numNodes()), kNoApp);
  for (size_t i = 0; i < apps_.size(); ++i) {
    RAIR_CHECK_MSG(apps_[i].id == static_cast<AppId>(i),
                   "AppSpec ids must be dense and in order (0..n-1)");
    for (NodeId n : apps_[i].nodes) {
      RAIR_CHECK(mesh.contains(n));
      RAIR_CHECK_MSG(nodeApp_[static_cast<size_t>(n)] == kNoApp,
                     "node assigned to two applications");
      nodeApp_[static_cast<size_t>(n)] = apps_[i].id;
    }
  }
  // Region extents: walk from every node in every direction until the
  // region (or the mesh) ends.
  extent_.assign(static_cast<size_t>(mesh.numNodes()) * kNumPorts, 0);
  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    const AppId home = appOf(n);
    if (home == kNoApp) continue;
    for (int d = 0; d < kNumPorts; ++d) {
      int extent = 0;
      NodeId cur = n;
      while (const auto next = mesh.neighbor(cur, static_cast<Dir>(d))) {
        if (appOf(*next) != home) break;
        cur = *next;
        ++extent;
      }
      extent_[static_cast<size_t>(n) * kNumPorts + static_cast<size_t>(d)] =
          extent;
    }
  }
}

std::span<const NodeId> RegionMap::nodesOf(AppId a) const {
  RAIR_CHECK(a >= 0 && a < numApps());
  return apps_[static_cast<size_t>(a)].nodes;
}

namespace {

// Splits `total` into `parts` contiguous spans with remainders on the
// leading spans; returns the start offsets (size parts+1, last == total).
std::vector<int> splitSpans(int total, int parts) {
  std::vector<int> starts(static_cast<size_t>(parts) + 1, 0);
  const int base = total / parts;
  const int extra = total % parts;
  for (int i = 0; i < parts; ++i)
    starts[static_cast<size_t>(i) + 1] =
        starts[static_cast<size_t>(i)] + base + (i < extra ? 1 : 0);
  return starts;
}

RegionMap makeBlockGrid(const Mesh& mesh, const std::vector<int>& xStarts,
                        const std::vector<int>& yStarts) {
  const int rx = static_cast<int>(xStarts.size()) - 1;
  const int ry = static_cast<int>(yStarts.size()) - 1;
  std::vector<AppSpec> apps;
  apps.reserve(static_cast<size_t>(rx * ry));
  AppId next = 0;
  for (int by = 0; by < ry; ++by) {
    for (int bx = 0; bx < rx; ++bx) {
      AppSpec spec;
      spec.id = next++;
      for (int y = yStarts[static_cast<size_t>(by)];
           y < yStarts[static_cast<size_t>(by) + 1]; ++y) {
        for (int x = xStarts[static_cast<size_t>(bx)];
             x < xStarts[static_cast<size_t>(bx) + 1]; ++x) {
          spec.nodes.push_back(mesh.nodeAt({x, y}));
        }
      }
      apps.push_back(std::move(spec));
    }
  }
  return RegionMap(mesh, std::move(apps));
}

}  // namespace

RegionMap RegionMap::blockGrid(const Mesh& mesh, int rx, int ry) {
  RAIR_CHECK(rx >= 1 && ry >= 1);
  RAIR_CHECK(rx <= mesh.width() && ry <= mesh.height());
  return makeBlockGrid(mesh, splitSpans(mesh.width(), rx),
                       splitSpans(mesh.height(), ry));
}

RegionMap RegionMap::halves(const Mesh& mesh) {
  return blockGrid(mesh, 2, 1);
}

RegionMap RegionMap::quadrants(const Mesh& mesh) {
  return blockGrid(mesh, 2, 2);
}

RegionMap RegionMap::sixRegions(const Mesh& mesh) {
  if (mesh.width() == 8) {
    // Paper's 8x8 layout (Fig. 13): column widths {3,3,2}, two row bands.
    const std::vector<int> xStarts = {0, 3, 6, 8};
    return makeBlockGrid(mesh, xStarts, splitSpans(mesh.height(), 2));
  }
  return blockGrid(mesh, 3, 2);
}

}  // namespace rair
