#include "router/vc.h"

#include <algorithm>

namespace rair {

VcLayout::VcLayout(int numClasses, int vcsPerClass, bool rairPartition,
                   int globalPerClass)
    : numClasses_(numClasses),
      vcsPerClass_(vcsPerClass),
      totalVcs_(numClasses * vcsPerClass),
      rairPartition_(rairPartition),
      globalPerClass_(globalPerClass) {
  RAIR_CHECK_MSG(numClasses >= 1 && numClasses <= kMaxMsgClasses,
                 "numClasses out of range");
  RAIR_CHECK_MSG(vcsPerClass >= 2,
                 "need at least one escape and one adaptive VC per class");
  RAIR_CHECK_MSG(totalVcs_ <= kMaxVcs,
                 "per-port VC count exceeds the VC table width");
  if (rairPartition_) {
    if (globalPerClass_ < 0)
      globalPerClass_ = std::max(1, adaptivePerClass() / 2);
    RAIR_CHECK_MSG(globalPerClass_ >= 1 &&
                       globalPerClass_ <= adaptivePerClass() - 1,
                   "RAIR needs at least one regional and one global VC");
  } else {
    globalPerClass_ = 0;
  }
  for (int vc = 0; vc < totalVcs_; ++vc) {
    const int within = vc % vcsPerClass_;
    const std::uint64_t bit = std::uint64_t{1} << vc;
    if (within == 0) escapeMask_ |= bit;
    // Adaptive VCs 1..vcsPerClass-1: the last `globalPerClass_` are Global.
    if (within != 0 && within >= vcsPerClass_ - globalPerClass_)
      globalMask_ |= bit;
  }
}

}  // namespace rair
