//===- SupportTest.cpp - Diagnostics / RNG / SourceLoc tests -----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Random.h"
#include "support/SourceLoc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

using namespace closer;

namespace {

TEST(SourceLocTest, ValidityAndRendering) {
  SourceLoc Unknown;
  EXPECT_FALSE(Unknown.isValid());
  EXPECT_EQ(Unknown.str(), "<unknown>");

  SourceLoc Loc(12, 34);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "12:34");
  EXPECT_EQ(Loc, SourceLoc(12, 34));
  EXPECT_FALSE(Loc == SourceLoc(12, 35));
}

TEST(DiagnosticsTest, CountsAndSeverities) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 1), "be careful");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 3), "went wrong");
  Diags.note(SourceLoc(), "context here");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);

  std::string Text = Diags.str();
  EXPECT_NE(Text.find("warning: 1:1: be careful"), std::string::npos);
  EXPECT_NE(Text.find("error: 2:3: went wrong"), std::string::npos);
  EXPECT_NE(Text.find("note: context here"), std::string::npos);

  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  bool Diverged = false;
  for (int I = 0; I != 10; ++I)
    Diverged |= A.next() != B.next();
  EXPECT_TRUE(Diverged);
}

TEST(RngTest, ZeroSeedIsRemapped) {
  Rng Z(0);
  EXPECT_NE(Z.next(), 0u);
}

TEST(RngTest, BelowAndRangeStayInBounds) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.below(10);
    EXPECT_LT(V, 10u);
    int64_t W = R.range(-3, 3);
    EXPECT_GE(W, -3);
    EXPECT_LE(W, 3);
    Seen.insert(W);
  }
  // All seven values of the range appear over 1000 draws.
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, ChanceIsroughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  for (int I = 0; I != 10000; ++I)
    Hits += R.chance(1, 4);
  EXPECT_GT(Hits, 2000);
  EXPECT_LT(Hits, 3000);
}

} // namespace
