//===- CliTest.cpp - Command-line parsing regression tests ------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Regression tests for the driver's argument parsing, factored into
// support/CommandLine so it can be tested without spawning the binary.
// Historical bugs pinned here:
//  * a positional argument following a boolean flag was swallowed as the
//    flag's value (`closer explore --stop-on-error prog.mc` lost prog.mc);
//  * numeric flag values went through unchecked strtol, so `--depth foo`
//    silently meant 0 and `--max-runs 1e6` silently meant 1.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "gtest/gtest.h"

#include <vector>

using namespace closer;

namespace {

const FlagSpec &spec() {
  static const FlagSpec S = {
      {"--stop-on-error", FlagArity::Bool},
      {"--no-por", FlagArity::Bool},
      {"--depth", FlagArity::Value},
      {"--max-runs", FlagArity::Value},
      {"--time-budget", FlagArity::Value},
      {"--stats-json", FlagArity::Value},
      {"-D", FlagArity::Value},
      {"--progress", FlagArity::OptionalValue},
  };
  return S;
}

Args parse(std::vector<const char *> Argv) {
  Argv.insert(Argv.begin(), {"closer", "explore"});
  return parseArgs(static_cast<int>(Argv.size()), Argv.data(), 2, spec());
}

TEST(CliTest, PositionalAfterBooleanFlagStaysPositional) {
  // The original parser treated every argument after any flag as that
  // flag's value, so the program name here vanished.
  Args A = parse({"--stop-on-error", "prog.mc"});
  EXPECT_TRUE(A.Error.empty()) << A.Error;
  ASSERT_EQ(A.Positional.size(), 1u);
  EXPECT_EQ(A.Positional[0], "prog.mc");
  EXPECT_TRUE(A.has("--stop-on-error"));
}

TEST(CliTest, RoundTripMixedFlagsAndPositionals) {
  Args A = parse({"prog.mc", "--depth", "40", "--no-por",
                  "--stats-json", "out.json", "--stop-on-error"});
  EXPECT_TRUE(A.Error.empty()) << A.Error;
  ASSERT_EQ(A.Positional.size(), 1u);
  EXPECT_EQ(A.Positional[0], "prog.mc");
  EXPECT_EQ(A.intOf("--depth", 0), 40);
  EXPECT_TRUE(A.has("--no-por"));
  EXPECT_TRUE(A.has("--stop-on-error"));
  EXPECT_EQ(A.strOf("--stats-json", ""), "out.json");
  EXPECT_TRUE(A.Error.empty()) << A.Error;
}

TEST(CliTest, EqualsSyntax) {
  Args A = parse({"prog.mc", "--depth=25", "--time-budget=1.5"});
  EXPECT_TRUE(A.Error.empty()) << A.Error;
  EXPECT_EQ(A.intOf("--depth", 0), 25);
  EXPECT_DOUBLE_EQ(A.secondsOf("--time-budget", 0), 1.5);
  EXPECT_TRUE(A.Error.empty()) << A.Error;
}

TEST(CliTest, RejectsNonNumericIntValue) {
  // Used to silently parse as 0 (strtol with no endptr check).
  Args A = parse({"prog.mc", "--depth", "foo"});
  EXPECT_TRUE(A.Error.empty());
  EXPECT_EQ(A.intOf("--depth", 60), 60); // Default returned on failure.
  EXPECT_FALSE(A.Error.empty());
  EXPECT_NE(A.Error.find("--depth"), std::string::npos) << A.Error;
}

TEST(CliTest, RejectsScientificNotationIntValue) {
  // Used to silently parse as 1 (strtol stops at 'e').
  Args A = parse({"prog.mc", "--max-runs", "1e6"});
  EXPECT_EQ(A.intOf("--max-runs", 7), 7);
  EXPECT_FALSE(A.Error.empty());
  EXPECT_NE(A.Error.find("1e6"), std::string::npos) << A.Error;
}

TEST(CliTest, RejectsTrailingGarbageAndOverflow) {
  {
    Args A = parse({"--depth", "12x"});
    A.intOf("--depth", 0);
    EXPECT_FALSE(A.Error.empty());
  }
  {
    Args A = parse({"--depth", "999999999999999999999999"});
    A.intOf("--depth", 0);
    EXPECT_FALSE(A.Error.empty());
  }
}

TEST(CliTest, SecondsRejectNegativeAndGarbage) {
  {
    Args A = parse({"--time-budget", "-3"});
    EXPECT_EQ(A.secondsOf("--time-budget", 0), 0);
    EXPECT_FALSE(A.Error.empty());
  }
  {
    Args A = parse({"--time-budget", "soon"});
    EXPECT_EQ(A.secondsOf("--time-budget", 0), 0);
    EXPECT_FALSE(A.Error.empty());
  }
}

TEST(CliTest, CountsRejectNegative) {
  // Used to wrap through size_t (`--max-runs -1` became 2^64 - 1).
  Args A = parse({"--max-runs", "-1"});
  EXPECT_EQ(A.countOf("--max-runs", 7), 7);
  EXPECT_NE(A.Error.find("--max-runs"), std::string::npos) << A.Error;

  Args B = parse({"--max-runs", "0"});
  EXPECT_EQ(B.countOf("--max-runs", 7), 0);
  EXPECT_EQ(B.countOf("--depth", 5), 5); // Absent flag: the default.
  EXPECT_TRUE(B.Error.empty()) << B.Error;
}

TEST(CliTest, UnknownOptionDiagnosed) {
  Args A = parse({"prog.mc", "--frobnicate"});
  EXPECT_FALSE(A.Error.empty());
  EXPECT_NE(A.Error.find("--frobnicate"), std::string::npos) << A.Error;
}

TEST(CliTest, ValueFlagMissingValueDiagnosed) {
  Args A = parse({"prog.mc", "--depth"});
  EXPECT_FALSE(A.Error.empty());
  EXPECT_NE(A.Error.find("--depth"), std::string::npos) << A.Error;
}

TEST(CliTest, BooleanFlagWithValueDiagnosed) {
  Args A = parse({"--no-por=1", "prog.mc"});
  EXPECT_FALSE(A.Error.empty());
}

TEST(CliTest, OptionalValueNeverConsumesNextArg) {
  // `--progress prog.mc` must keep prog.mc positional; the interval can
  // only be attached with `=`.
  Args A = parse({"--progress", "prog.mc"});
  EXPECT_TRUE(A.Error.empty()) << A.Error;
  ASSERT_EQ(A.Positional.size(), 1u);
  EXPECT_EQ(A.Positional[0], "prog.mc");
  EXPECT_TRUE(A.has("--progress"));
  ASSERT_NE(A.value("--progress"), nullptr);
  EXPECT_TRUE(A.value("--progress")->empty()); // No attached interval.

  Args B = parse({"--progress=0.5", "prog.mc"});
  EXPECT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_DOUBLE_EQ(B.secondsOf("--progress", 2.0), 0.5);
  ASSERT_EQ(B.Positional.size(), 1u);
}

TEST(CliTest, NegativeNumberIsAFlagValueNotAPositional) {
  // `-D -1` style: the value token may itself start with '-'.
  Args A = parse({"prog.mc", "-D", "3"});
  EXPECT_EQ(A.intOf("-D", 1), 3);
  EXPECT_TRUE(A.Error.empty()) << A.Error;
}

TEST(CliTest, FirstErrorWins) {
  Args A = parse({"--depth", "foo", "--max-runs", "bar"});
  A.intOf("--depth", 0);
  std::string First = A.Error;
  A.intOf("--max-runs", 0);
  EXPECT_EQ(A.Error, First);
}

TEST(CliTest, ParseLongAndDoubleHelpers) {
  long L = 0;
  EXPECT_TRUE(parseLong("42", L));
  EXPECT_EQ(L, 42);
  EXPECT_TRUE(parseLong("-7", L));
  EXPECT_EQ(L, -7);
  EXPECT_FALSE(parseLong("", L));
  EXPECT_FALSE(parseLong("1e6", L));
  EXPECT_FALSE(parseLong("0x10", L)); // Base 10 only.

  double D = 0;
  EXPECT_TRUE(parseDouble("1.5", D));
  EXPECT_DOUBLE_EQ(D, 1.5);
  EXPECT_FALSE(parseDouble("nan", D));
  EXPECT_FALSE(parseDouble("inf", D));
  EXPECT_FALSE(parseDouble("abc", D));
}

} // namespace
