// Virtual-channel identity, classes, and per-port VC layout.
//
// Every physical channel carries `numClasses * vcsPerClass` virtual
// channels. VCs are grouped by coherence message class (protocol deadlock
// freedom); within each class block, VC 0 is the *escape* VC of Duato's
// deadlock-avoidance scheme (restricted to dimension-ordered XY routes) and
// the remaining VCs are adaptive.
//
// RAIR's first mechanism, VC regionalization (paper Sec. IV.A), tags each
// adaptive VC with a 1-bit class: *regional* or *global*. The tag does NOT
// restrict which traffic may use the VC — both native and foreign traffic
// may occupy either kind — it only selects the prioritization rule applied
// at VA output arbitration: global VCs always favor foreign traffic, while
// regional VCs follow the DPA decision.
#pragma once

#include <cstdint>

#include "common/assert.h"
#include "packet/packet.h"

namespace rair {

/// Classification of a virtual channel.
enum class VcClass : std::uint8_t {
  Escape,    ///< Duato escape channel: XY dimension-ordered routes only
  Adaptive,  ///< plain adaptive VC (non-RAIR schemes)
  Regional,  ///< RAIR: adaptive VC whose VA_out priority follows DPA
  Global,    ///< RAIR: adaptive VC whose VA_out priority favors foreign
};

/// Computes class membership and RAIR tagging for the VC index space of a
/// physical channel. Immutable; shared by all routers of a network. The
/// per-VC classification is tabulated at construction (one bit per VC, so
/// a channel carries at most kMaxVcs VCs) and never serialized: the hot
/// path reads a bit instead of dividing by vcsPerClass.
class VcLayout {
 public:
  /// Width of the per-VC tables (and of the routers' state bitmasks).
  static constexpr int kMaxVcs = 64;

  /// @param numClasses    number of protocol message classes (>= 1)
  /// @param vcsPerClass   VCs per class (>= 2: one escape + >=1 adaptive)
  /// @param rairPartition when true, adaptive VCs are tagged
  ///                      Regional/Global; otherwise they are Adaptive
  /// @param globalPerClass number of adaptive VCs per class tagged Global
  ///                      (-1 = half of the adaptive VCs, rounded down, at
  ///                      least 1 — the paper's "roughly the same" split)
  VcLayout(int numClasses, int vcsPerClass, bool rairPartition,
           int globalPerClass = -1);

  int numClasses() const { return numClasses_; }
  int vcsPerClass() const { return vcsPerClass_; }
  int totalVcs() const { return totalVcs_; }
  bool rairPartition() const { return rairPartition_; }

  /// Message class served by VC index `vc`.
  MsgClass msgClassOf(int vc) const {
    RAIR_DCHECK(vc >= 0 && vc < totalVcs());
    return static_cast<MsgClass>(vc / vcsPerClass_);
  }

  /// First VC index of a class block.
  int firstVcOf(MsgClass c) const {
    return static_cast<int>(c) * vcsPerClass_;
  }

  /// Classification of VC index `vc`: within each class block, index 0 is
  /// the escape VC and, under the RAIR partition, the last
  /// `globalPerClass` adaptive VCs are Global and the rest Regional.
  VcClass typeOf(int vc) const {
    if (isEscape(vc)) return VcClass::Escape;
    if (!rairPartition_) return VcClass::Adaptive;
    return bit(globalMask_, vc) ? VcClass::Global : VcClass::Regional;
  }

  bool isEscape(int vc) const { return bit(escapeMask_, vc); }
  bool isAdaptive(int vc) const { return !isEscape(vc); }

  int adaptivePerClass() const { return vcsPerClass_ - 1; }
  int globalPerClass() const { return rairPartition_ ? globalPerClass_ : 0; }
  int regionalPerClass() const {
    return rairPartition_ ? adaptivePerClass() - globalPerClass_ : 0;
  }

 private:
  bool bit(std::uint64_t mask, int vc) const {
    RAIR_DCHECK(vc >= 0 && vc < totalVcs_);
    return (mask >> vc) & 1u;
  }

  int numClasses_;
  int vcsPerClass_;
  int totalVcs_;
  bool rairPartition_;
  int globalPerClass_;
  std::uint64_t escapeMask_ = 0;  ///< bit vc set: VC `vc` is an escape VC
  std::uint64_t globalMask_ = 0;  ///< bit vc set: RAIR Global VC
};

}  // namespace rair
