// Application-to-core mapping and region bookkeeping.
//
// A RegionMap assigns every mesh node to at most one application; the set
// of nodes owned by an application is its *region* (paper Sec. II). The map
// answers the two queries RAIR needs at full speed:
//   * the AppId tag of a router (to classify passing packets as native or
//     foreign, Sec. IV.E), and
//   * region extents along a row/column (for DBAR's region-bounded
//     congestion horizon, Sec. III.B).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "topology/mesh.h"

namespace rair {

/// One application's placement.
struct AppSpec {
  AppId id = kNoApp;
  std::vector<NodeId> nodes;  ///< cores this application occupies
};

class RegionMap {
 public:
  /// Builds a map from explicit per-app node lists over `mesh`. Node lists
  /// must be disjoint; nodes not listed belong to no app (kNoApp).
  RegionMap(const Mesh& mesh, std::vector<AppSpec> apps);

  int numApps() const { return static_cast<int>(apps_.size()); }

  /// Application tag of node `n` (kNoApp if unassigned).
  AppId appOf(NodeId n) const { return nodeApp_[static_cast<size_t>(n)]; }

  /// Nodes of application `a`.
  std::span<const NodeId> nodesOf(AppId a) const;

  const std::vector<AppSpec>& apps() const { return apps_; }

  /// True when both nodes belong to the same (assigned) application.
  bool sameRegion(NodeId a, NodeId b) const {
    return appOf(a) != kNoApp && appOf(a) == appOf(b);
  }

  /// Whether a packet from application `app` is native at node `n`.
  bool isNativeAt(NodeId n, AppId app) const {
    return appOf(n) != kNoApp && appOf(n) == app;
  }

  /// Number of hops one can move from `n` in direction `d` while staying
  /// inside n's region (0 when the immediate neighbor is outside / absent,
  /// and for unassigned nodes). This is DBAR's congestion-information
  /// horizon, read twice per DBAR selection: a table lookup, built at
  /// construction.
  int regionExtent(NodeId n, Dir d) const {
    return extent_[static_cast<size_t>(n) * kNumPorts +
                   static_cast<size_t>(d)];
  }

  // ---- Canonical layouts used in the paper's evaluation ----------------

  /// Two regions: west half / east half (Fig. 8 scenario).
  static RegionMap halves(const Mesh& mesh);

  /// Four regions: quadrants (Figs. 11 and 16 scenarios).
  static RegionMap quadrants(const Mesh& mesh);

  /// Six regions on an 8x8 mesh (Fig. 13 scenario): a 2-row x 3-column
  /// block grid with column widths {3, 3, 2}, i.e. region sizes
  /// {12, 12, 8, 12, 12, 8}. App numbering is row-major over blocks.
  static RegionMap sixRegions(const Mesh& mesh);

  /// Generic rx-by-ry block grid; blocks get near-equal spans (remainders
  /// spread over the leading blocks). App numbering is row-major.
  static RegionMap blockGrid(const Mesh& mesh, int rx, int ry);

 private:
  std::vector<AppSpec> apps_;
  std::vector<AppId> nodeApp_;
  std::vector<int> extent_;  ///< regionExtent, [node][dir] flattened
};

}  // namespace rair
