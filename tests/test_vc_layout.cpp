#include "router/vc.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace rair {
namespace {

TEST(VcLayout, PlainLayoutClasses) {
  VcLayout l(1, 4, /*rairPartition=*/false);
  EXPECT_EQ(l.totalVcs(), 4);
  EXPECT_EQ(l.typeOf(0), VcClass::Escape);
  EXPECT_EQ(l.typeOf(1), VcClass::Adaptive);
  EXPECT_EQ(l.typeOf(2), VcClass::Adaptive);
  EXPECT_EQ(l.typeOf(3), VcClass::Adaptive);
  EXPECT_EQ(l.globalPerClass(), 0);
  EXPECT_EQ(l.regionalPerClass(), 0);
}

TEST(VcLayout, RairDefaultSplitIsRoughlyEqual) {
  VcLayout l(1, 5, /*rairPartition=*/true);
  // 4 adaptive VCs -> 2 regional + 2 global.
  EXPECT_EQ(l.typeOf(0), VcClass::Escape);
  EXPECT_EQ(l.typeOf(1), VcClass::Regional);
  EXPECT_EQ(l.typeOf(2), VcClass::Regional);
  EXPECT_EQ(l.typeOf(3), VcClass::Global);
  EXPECT_EQ(l.typeOf(4), VcClass::Global);
  EXPECT_EQ(l.regionalPerClass(), 2);
  EXPECT_EQ(l.globalPerClass(), 2);
}

TEST(VcLayout, RairCustomSplit) {
  VcLayout l(1, 5, true, /*globalPerClass=*/1);
  EXPECT_EQ(l.typeOf(1), VcClass::Regional);
  EXPECT_EQ(l.typeOf(2), VcClass::Regional);
  EXPECT_EQ(l.typeOf(3), VcClass::Regional);
  EXPECT_EQ(l.typeOf(4), VcClass::Global);
}

TEST(VcLayout, MultiClassBlocks) {
  VcLayout l(2, 4, true);
  EXPECT_EQ(l.totalVcs(), 8);
  EXPECT_EQ(l.msgClassOf(0), MsgClass::Request);
  EXPECT_EQ(l.msgClassOf(3), MsgClass::Request);
  EXPECT_EQ(l.msgClassOf(4), MsgClass::Reply);
  EXPECT_EQ(l.msgClassOf(7), MsgClass::Reply);
  EXPECT_EQ(l.firstVcOf(MsgClass::Request), 0);
  EXPECT_EQ(l.firstVcOf(MsgClass::Reply), 4);
  // Each class block has its own escape VC.
  EXPECT_EQ(l.typeOf(0), VcClass::Escape);
  EXPECT_EQ(l.typeOf(4), VcClass::Escape);
  // Tagging repeats per class: vcsPerClass=4 -> 3 adaptive, 1 global.
  EXPECT_EQ(l.typeOf(1), VcClass::Regional);
  EXPECT_EQ(l.typeOf(2), VcClass::Regional);
  EXPECT_EQ(l.typeOf(3), VcClass::Global);
  EXPECT_EQ(l.typeOf(5), VcClass::Regional);
  EXPECT_EQ(l.typeOf(7), VcClass::Global);
}

TEST(VcLayout, EscapeAndAdaptiveQueries) {
  VcLayout l(1, 5, true);
  EXPECT_TRUE(l.isEscape(0));
  EXPECT_FALSE(l.isAdaptive(0));
  for (int vc = 1; vc < 5; ++vc) {
    EXPECT_FALSE(l.isEscape(vc));
    EXPECT_TRUE(l.isAdaptive(vc));
  }
}

TEST(VcLayout, Table1Config) {
  // Full-system config of Table 1: 4 VCs per protocol class, 2 classes.
  VcLayout l(2, 4, false);
  EXPECT_EQ(l.totalVcs(), 8);
  EXPECT_EQ(l.adaptivePerClass(), 3);
}

/// The closed-form classification the VcLayout tables are built from:
/// index 0 of each class block is the escape VC; under the RAIR partition
/// the last `globalPerClass` adaptive VCs of a block are Global.
VcClass closedFormType(int vc, int vcsPerClass, bool rair, int global) {
  const int within = vc % vcsPerClass;
  if (within == 0) return VcClass::Escape;
  if (!rair) return VcClass::Adaptive;
  return within >= vcsPerClass - global ? VcClass::Global : VcClass::Regional;
}

TEST(VcLayout, TablesMatchClosedFormClassification) {
  for (int classes = 1; classes <= kMaxMsgClasses; ++classes) {
    for (int perClass = 2; perClass <= 16; ++perClass) {
      // Plain layouts, then every valid RAIR split (-1 = the default).
      std::vector<std::pair<bool, int>> variants = {{false, -1}, {true, -1}};
      for (int g = 1; g <= perClass - 2; ++g) variants.push_back({true, g});
      for (const auto& [rair, requested] : variants) {
        if (rair && perClass < 3) continue;  // needs a regional + a global
        const VcLayout l(classes, perClass, rair, requested);
        ASSERT_EQ(l.totalVcs(), classes * perClass);
        const int global = l.globalPerClass();
        for (int vc = 0; vc < l.totalVcs(); ++vc) {
          const VcClass want = closedFormType(vc, perClass, rair, global);
          ASSERT_EQ(l.typeOf(vc), want)
              << classes << "x" << perClass << " rair=" << rair
              << " global=" << global << " vc=" << vc;
          ASSERT_EQ(l.isEscape(vc), want == VcClass::Escape);
          ASSERT_EQ(l.isAdaptive(vc), want != VcClass::Escape);
          ASSERT_EQ(l.msgClassOf(vc), static_cast<MsgClass>(vc / perClass));
        }
      }
    }
  }
}

TEST(VcLayout, AtMost64VcsPerChannel) {
  EXPECT_EQ(VcLayout(4, 16, true).totalVcs(), VcLayout::kMaxVcs);
  EXPECT_DEATH(VcLayout(4, 17, false), "VC table width");
  EXPECT_DEATH(VcLayout(1, 65, true), "VC table width");
}

}  // namespace
}  // namespace rair
