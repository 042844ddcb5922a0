//===- SymbolTest.cpp - Interned-name tests ---------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The process-wide name table behind Expr::Name, Stmt::Name and
// CfgNode::Callee: one pointer per spelling, string-like comparisons, and
// agreement between threads that intern at once (a batch close parses
// several files in parallel). TsanTest runs this suite again.
//
//===----------------------------------------------------------------------===//

#include "support/Symbol.h"

#include "gtest/gtest.h"

#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace closer;

static_assert(sizeof(Symbol) == sizeof(void *));

TEST(SymbolTest, EqualSpellingsInternToTheSameSymbol) {
  Symbol A("alpha");
  Symbol B(std::string("alpha"));
  Symbol C(std::string_view("alphabet").substr(0, 5));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A, C);
  EXPECT_EQ(&A.str(), &B.str());
  EXPECT_EQ(&A.str(), &C.str());

  Symbol D("beta");
  EXPECT_NE(A, D);
  EXPECT_NE(&A.str(), &D.str());
  EXPECT_EQ(D.str(), "beta");

  // The default Symbol is the empty name, and interning "" gives it back.
  EXPECT_EQ(Symbol().str(), "");
  EXPECT_EQ(Symbol(), Symbol(""));
}

TEST(SymbolTest, ComparesWithStringsAndCStrings) {
  Symbol S("gamma");
  std::string Str = "gamma";
  EXPECT_TRUE(S == "gamma");
  EXPECT_TRUE("gamma" == S);
  EXPECT_TRUE(S == Str);
  EXPECT_TRUE(Str == S);
  EXPECT_FALSE(S == "gamm");
  EXPECT_FALSE(S == std::string("gammas"));
  EXPECT_TRUE(S != "delta");
  EXPECT_TRUE(std::string("delta") != S);

  // Reads as the string it names.
  const std::string &Ref = S;
  std::string_view View = S;
  EXPECT_EQ(Ref, "gamma");
  EXPECT_EQ(View, "gamma");
  EXPECT_EQ("f::" + S, "f::gamma");
  EXPECT_EQ(std::string("f::") + S, "f::gamma");
  EXPECT_EQ(S + "::x", "gamma::x");
}

TEST(SymbolTest, ThreadsInterningOverlappingNamesAgree) {
  // Thread 0 interns names 0..199 and thread 1 names 100..299, at once;
  // the 100 names both intern must come back as the same pointers.
  constexpr int Count = 200, Shift = 100;
  auto Name = [](int I) { return "symbol_test_thread_" + std::to_string(I); };
  std::vector<const std::string *> Got[2];
  std::vector<std::thread> Threads;
  for (int T = 0; T != 2; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != Count; ++I)
        Got[T].push_back(&Symbol(Name(T * Shift + I)).str());
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (int T = 0; T != 2; ++T)
    for (int I = 0; I != Count; ++I)
      ASSERT_EQ(*Got[T][I], Name(T * Shift + I));
  for (int I = Shift; I != Count; ++I)
    EXPECT_EQ(Got[0][I], Got[1][I - Shift]) << Name(I);
  // And both agree with a later lookup.
  for (int I = 0; I != Count; ++I)
    EXPECT_EQ(Got[0][I], &Symbol(Name(I)).str());
}
