//===- RuntimeEdgeTest.cpp - Runtime semantics edge cases --------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/Search.h"
#include "runtime/System.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

/// Runs to quiescence under the always-zero provider; returns the last
/// transition's result.
ExecResult runAll(System &Sys) {
  ZeroChoiceProvider Zero;
  ExecResult Last = Sys.reset(Zero);
  while (!Last.Error) {
    std::vector<int> Enabled = Sys.enabledProcesses();
    if (Enabled.empty())
      break;
    Last = Sys.executeTransition(Enabled.front(), Zero);
  }
  return Last;
}

int64_t lastPayload(const System &Sys) {
  EXPECT_FALSE(Sys.trace().empty());
  return Sys.trace().back().Payload.asInt();
}

TEST(RuntimeEdgeTest, DanglingPointerIntoPoppedFrameIsCaught) {
  auto Mod = mustCompile(R"(
var escape;
chan c[1];

proc leak() {
  var local = 5;
  var p;
  p = &local;
  escape = 1;
  stash(p);
}

proc stash(q) {
  gptr = q;
}

var gptr;

proc main() {
  var v;
  leak();
  v = *gptr;
  send(c, v);
}

process m = main();
)");
  System Sys(*Mod);
  ExecResult R = runAll(Sys);
  ASSERT_TRUE(R.Error);
  EXPECT_EQ(R.Error.Kind, RunErrorKind::BadPointer);
}

TEST(RuntimeEdgeTest, PointerIntoGlobalOutlivesFrames) {
  auto Mod = mustCompile(R"(
var cell;
var gptr;
chan c[1];

proc setup() {
  gptr = &cell;
}

proc main() {
  var v;
  setup();
  *gptr = 99;
  v = *gptr;
  send(c, v);
}

process m = main();
)");
  System Sys(*Mod);
  ExecResult R = runAll(Sys);
  EXPECT_FALSE(R.Error) << R.Error.str();
  EXPECT_EQ(lastPayload(Sys), 99);
}

TEST(RuntimeEdgeTest, StackOverflowOnUnboundedRecursion) {
  auto Mod = mustCompile(R"(
proc spin(n) {
  return spin(n + 1);
}

proc main() {
  var v;
  v = spin(0);
}

process m = main();
)");
  SystemOptions Opts;
  Opts.StackLimit = 32;
  System Sys(*Mod, Opts);
  ZeroChoiceProvider Zero;
  ExecResult R = Sys.reset(Zero);
  ASSERT_TRUE(R.Error);
  EXPECT_EQ(R.Error.Kind, RunErrorKind::StackOverflow);
}

TEST(RuntimeEdgeTest, ArithmeticSemantics) {
  auto Mod = mustCompile(R"(
chan c[16];

proc main() {
  send(c, -7 / 2);
  send(c, -7 % 2);
  send(c, !0);
  send(c, !5);
  send(c, -(3 - 8));
  send(c, (2 < 3) + (3 < 2));
  send(c, 1 && 0);
  send(c, 1 || 0);
}

process m = main();
)");
  System Sys(*Mod);
  runAll(Sys);
  const Trace &T = Sys.trace();
  ASSERT_EQ(T.size(), 8u);
  EXPECT_EQ(T[0].Payload.asInt(), -3); // C-style truncation.
  EXPECT_EQ(T[1].Payload.asInt(), -1);
  EXPECT_EQ(T[2].Payload.asInt(), 1);
  EXPECT_EQ(T[3].Payload.asInt(), 0);
  EXPECT_EQ(T[4].Payload.asInt(), 5);
  EXPECT_EQ(T[5].Payload.asInt(), 1);
  EXPECT_EQ(T[6].Payload.asInt(), 0);
  EXPECT_EQ(T[7].Payload.asInt(), 1);
}

TEST(RuntimeEdgeTest, PointerEqualityComparesTargets) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  var y;
  var p;
  var q;
  p = &x;
  q = &x;
  send(c, p == q);
  q = &y;
  send(c, p == q);
  send(c, p != q);
}

process m = main();
)");
  System Sys(*Mod);
  runAll(Sys);
  const Trace &T = Sys.trace();
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Payload.asInt(), 1);
  EXPECT_EQ(T[1].Payload.asInt(), 0);
  EXPECT_EQ(T[2].Payload.asInt(), 1);
}

TEST(RuntimeEdgeTest, PointerArithmeticIsAnError) {
  auto Mod = mustCompile(R"(
proc main() {
  var x;
  var p;
  var bad;
  p = &x;
  bad = p + 1;
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  ExecResult R = Sys.reset(Zero);
  ASSERT_TRUE(R.Error);
  EXPECT_EQ(R.Error.Kind, RunErrorKind::BadPointer);
}

TEST(RuntimeEdgeTest, UnknownPropagatesThroughArithmeticToPayloads) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var u = unknown;
  send(c, u + 1);
  send(c, u == 5);
}

process m = main();
)");
  System Sys(*Mod);
  ExecResult R = runAll(Sys);
  EXPECT_FALSE(R.Error) << R.Error.str();
  ASSERT_EQ(Sys.trace().size(), 2u);
  EXPECT_TRUE(Sys.trace()[0].Payload.isUnknown());
  EXPECT_TRUE(Sys.trace()[1].Payload.isUnknown());
}

TEST(RuntimeEdgeTest, UnknownArrayIndexIsAnError) {
  auto Mod = mustCompile(R"(
proc main() {
  var a[3];
  a[unknown] = 1;
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  ExecResult R = Sys.reset(Zero);
  ASSERT_TRUE(R.Error);
  EXPECT_EQ(R.Error.Kind, RunErrorKind::UnknownInControl);
}

TEST(RuntimeEdgeTest, NegativeTossBoundIsAnError) {
  auto Mod = mustCompile(R"(
proc main() {
  var v;
  var b = -2;
  v = VS_toss(b);
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  ExecResult R = Sys.reset(Zero);
  ASSERT_TRUE(R.Error);
  EXPECT_EQ(R.Error.Kind, RunErrorKind::BadTossBound);
}

TEST(RuntimeEdgeTest, ChannelCapacityBlocksExactly) {
  auto Mod = mustCompile(R"(
chan c[2];

proc main() {
  send(c, 1);
  send(c, 2);
  send(c, 3);
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  EXPECT_TRUE(Sys.processEnabled(0));
  Sys.executeTransition(0, Zero);
  EXPECT_TRUE(Sys.processEnabled(0));
  Sys.executeTransition(0, Zero);
  // Third send blocks: channel full.
  EXPECT_FALSE(Sys.processEnabled(0));
  EXPECT_EQ(Sys.classify(), GlobalStateKind::Deadlock);
}

TEST(RuntimeEdgeTest, SemaphoreCountsAboveOne) {
  auto Mod = mustCompile(R"(
sem s(2);
chan c[8];

proc main() {
  sem_wait(s);
  sem_wait(s);
  sem_signal(s);
  sem_wait(s);
  send(c, 'ok');
  sem_wait(s);
}

process m = main();
)");
  System Sys(*Mod);
  runAll(Sys);
  // The final wait blocks (count back to 0): classified deadlock. The
  // semaphore operations are themselves visible, so the trace holds the
  // three waits, the signal, and the send.
  EXPECT_EQ(Sys.classify(), GlobalStateKind::Deadlock);
  ASSERT_EQ(Sys.trace().size(), 5u);
  EXPECT_EQ(Sys.trace()[4].Op, BuiltinKind::Send);
  EXPECT_EQ(Sys.trace()[4].Payload.str(), "'ok'");
}

TEST(RuntimeEdgeTest, ArrayPassedByPointerElementwise) {
  auto Mod = mustCompile(R"(
chan c[4];

proc bump(p) {
  *p = *p + 100;
}

proc main() {
  var a[3];
  a[1] = 7;
  bump(&a[1]);
  send(c, a[1]);
}

process m = main();
)");
  System Sys(*Mod);
  ExecResult R = runAll(Sys);
  EXPECT_FALSE(R.Error) << R.Error.str();
  EXPECT_EQ(lastPayload(Sys), 107);
}

/// Runs \p Source to its first runtime error under the interpreter, then
/// again under the bytecode VM, and requires the identical deterministic
/// error from both: same kind, same message, same source location. This is
/// the contract that makes --exec=both a usable oracle — eval-semantics
/// edge cases (division by zero, signed overflow) are errors, never UB,
/// and never engine-dependent.
void expectErrorBothEngines(const std::string &Source, RunErrorKind Kind,
                            const std::string &Message) {
  auto Mod = mustCompile(Source);

  System Interp(*Mod);
  ExecResult RI = runAll(Interp);
  ASSERT_TRUE(RI.Error) << "interpreter ran clean, expected: " << Message;
  EXPECT_EQ(RI.Error.Kind, Kind);
  EXPECT_EQ(RI.Error.Message, Message);

  auto Code = vm::compileModule(*Mod);
  ASSERT_TRUE(Code);
  vm::Vm Engine(Code);
  System VmSys(*Mod);
  VmSys.setEngine(&Engine);
  ExecResult RV = runAll(VmSys);
  ASSERT_TRUE(RV.Error) << "VM ran clean, expected: " << Message;
  EXPECT_EQ(RV.Error.Kind, RI.Error.Kind);
  EXPECT_EQ(RV.Error.Message, RI.Error.Message);
  EXPECT_EQ(RV.Error.Loc.Line, RI.Error.Loc.Line);
  EXPECT_EQ(RV.Error.Loc.Column, RI.Error.Loc.Column);
}

TEST(RuntimeEdgeTest, DivisionByZeroLiteralDivisor) {
  // A literal divisor compiles to the VM's fused DivImm form; the zero
  // check must fire there exactly as in the two-register form.
  expectErrorBothEngines(R"(
proc main() {
  var x = 7;
  var v;
  v = x / 0;
}

process m = main();
)",
                         RunErrorKind::DivisionByZero, "division by zero");
}

TEST(RuntimeEdgeTest, DivisionByZeroComputedDivisor) {
  expectErrorBothEngines(R"(
proc main() {
  var x = 7;
  var y = 3;
  var v;
  v = x / (y - 3);
}

process m = main();
)",
                         RunErrorKind::DivisionByZero, "division by zero");
}

TEST(RuntimeEdgeTest, ModuloByZeroLiteralDivisor) {
  expectErrorBothEngines(R"(
proc main() {
  var x = 7;
  var v;
  v = x % 0;
}

process m = main();
)",
                         RunErrorKind::DivisionByZero, "modulo by zero");
}

TEST(RuntimeEdgeTest, ModuloByZeroComputedDivisor) {
  expectErrorBothEngines(R"(
proc main() {
  var x = 7;
  var y = 3;
  var v;
  v = x % (y - 3);
}

process m = main();
)",
                         RunErrorKind::DivisionByZero, "modulo by zero");
}

TEST(RuntimeEdgeTest, AdditionOverflowIsADeterministicError) {
  expectErrorBothEngines(R"(
proc main() {
  var big = 9223372036854775807;
  var v;
  v = big + 1;
}

process m = main();
)",
                         RunErrorKind::IntegerOverflow,
                         "signed integer overflow in '+'");
}

TEST(RuntimeEdgeTest, SubtractionOverflowIsADeterministicError) {
  // INT64_MIN spelled as (-INT64_MAX - 1): the literal itself fits.
  expectErrorBothEngines(R"(
proc main() {
  var small = -9223372036854775807 - 1;
  var v;
  v = small - 1;
}

process m = main();
)",
                         RunErrorKind::IntegerOverflow,
                         "signed integer overflow in '-'");
}

TEST(RuntimeEdgeTest, MultiplicationOverflowIsADeterministicError) {
  expectErrorBothEngines(R"(
proc main() {
  var a = 3037000500;
  var v;
  v = a * a;
}

process m = main();
)",
                         RunErrorKind::IntegerOverflow,
                         "signed integer overflow in '*'");
}

TEST(RuntimeEdgeTest, DivideMinByMinusOneOverflows) {
  expectErrorBothEngines(R"(
proc main() {
  var small = -9223372036854775807 - 1;
  var v;
  v = small / -1;
}

process m = main();
)",
                         RunErrorKind::IntegerOverflow,
                         "signed integer overflow in '/'");
}

TEST(RuntimeEdgeTest, ModuloMinByMinusOneOverflows) {
  expectErrorBothEngines(R"(
proc main() {
  var small = -9223372036854775807 - 1;
  var v;
  v = small % -1;
}

process m = main();
)",
                         RunErrorKind::IntegerOverflow,
                         "signed integer overflow in '%'");
}

TEST(RuntimeEdgeTest, NegatingMinOverflows) {
  expectErrorBothEngines(R"(
proc main() {
  var small = -9223372036854775807 - 1;
  var v;
  v = -small;
}

process m = main();
)",
                         RunErrorKind::IntegerOverflow,
                         "signed integer overflow in unary '-'");
}

TEST(RuntimeEdgeTest, NearOverflowBoundariesStayClean) {
  // The extremes themselves are representable: INT64_MAX + 0, INT64_MIN
  // preserved through division by 1, and INT64_MIN % -1's cousin
  // INT64_MIN % 1 == 0 all evaluate without error — the overflow checks
  // must not over-trigger at the boundary.
  auto Mod = mustCompile(R"(
chan c[8];

proc main() {
  var big = 9223372036854775807;
  var small = -9223372036854775807 - 1;
  send(c, big + 0);
  send(c, small / 1);
  send(c, small % 1);
  send(c, big - 9223372036854775807);
}

process m = main();
)");
  for (bool UseVm : {false, true}) {
    System Sys(*Mod);
    std::shared_ptr<const vm::CompiledModule> Code;
    std::unique_ptr<vm::Vm> Engine;
    if (UseVm) {
      Code = vm::compileModule(*Mod);
      Engine = std::make_unique<vm::Vm>(Code);
      Sys.setEngine(Engine.get());
    }
    ExecResult R = runAll(Sys);
    EXPECT_FALSE(R.Error) << R.Error.str();
    const Trace &T = Sys.trace();
    ASSERT_EQ(T.size(), 4u);
    EXPECT_EQ(T[0].Payload.asInt(), INT64_MAX);
    EXPECT_EQ(T[1].Payload.asInt(), INT64_MIN);
    EXPECT_EQ(T[2].Payload.asInt(), 0);
    EXPECT_EQ(T[3].Payload.asInt(), 0);
  }
}

TEST(RuntimeEdgeTest, DepthCountsTransitionsNotStatements) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var i;
  var acc = 0;
  for (i = 0; i < 10; i = i + 1)
    acc = acc + i;
  send(c, acc);
  send(c, acc * 2);
}

process m = main();
)");
  System Sys(*Mod);
  runAll(Sys);
  // 30+ invisible statements but only two transitions.
  EXPECT_EQ(Sys.depth(), 2u);
  EXPECT_EQ(lastPayload(Sys), 90);
}

TEST(RuntimeEdgeTest, AstronomicChannelCapacityExploresToCompletion) {
  // A legal declaration whose capacity no storage could hold: channel
  // storage must grow with the items actually sent, never be sized by the
  // declared capacity (that would throw bad_alloc at construction).
  auto Mod = mustCompile(R"(
chan c[1000000000000];

proc producer() {
  var i;
  for (i = 0; i < 3; i = i + 1)
    send(c, i);
}

proc consumer() {
  var j;
  var v;
  for (j = 0; j < 3; j = j + 1)
    v = recv(c);
}

process p = producer();
process q = consumer();
)");
  ASSERT_TRUE(Mod);
  for (ExecMode Exec : {ExecMode::Interp, ExecMode::Vm}) {
    SearchOptions Opts;
    Opts.Exec = Exec;
    Opts.CheckpointInterval = 2;
    SearchResult R = explore(*Mod, Opts);
    EXPECT_TRUE(R.Stats.Completed);
    EXPECT_EQ(R.Stats.Deadlocks, 0u);
    EXPECT_GT(R.Stats.Terminations, 0u);
    EXPECT_EQ(R.Stats.VisibleOpsCovered, 2u);
    EXPECT_TRUE(R.Reports.empty());
  }
}

// Frames hold their arrays inline, and a process's cells are addressed
// with 32-bit offsets and frame bases. A frame that cannot fit must be a
// clean StackOverflow in both engines, raised before any storage is
// allocated, never a truncated size that lets stores run past the cells.
TEST(RuntimeEdgeTest, CalleeFrameTooLargeForAProcessIsAnError) {
  const std::string Source = R"(
proc f() {
  var a[4294967296];
  a[7] = 1;
}

proc main() {
  f();
}

process m = main();
)";
  expectErrorBothEngines(Source, RunErrorKind::StackOverflow,
                         "frame storage limit exceeded");

  // The explorer reports it the same way under either engine and under
  // the differential oracle.
  auto Mod = mustCompile(Source);
  ASSERT_TRUE(Mod);
  for (ExecMode Exec : {ExecMode::Interp, ExecMode::Vm, ExecMode::Both}) {
    SearchOptions Opts;
    Opts.Exec = Exec;
    SearchResult R = explore(*Mod, Opts);
    EXPECT_TRUE(R.Stats.Completed);
    EXPECT_EQ(R.Stats.RuntimeErrors, 1u);
    ASSERT_EQ(R.Reports.size(), 1u);
    EXPECT_EQ(R.Reports[0].Error.Kind, RunErrorKind::StackOverflow);
    EXPECT_EQ(R.Reports[0].Error.Loc.Line, 8u);
  }
}

TEST(RuntimeEdgeTest, FrameWhoseCellCountWouldWrapIsAnError) {
  // 2 * (2^63 - 1) + 2 cells: a plain 64-bit sum wraps to 0.
  expectErrorBothEngines(R"(
proc f() {
  var a[9223372036854775807];
  var b[9223372036854775807];
  var c[2];
  c[1] = 1;
}

proc main() {
  f();
}

process m = main();
)",
                         RunErrorKind::StackOverflow,
                         "frame storage limit exceeded");
}

TEST(RuntimeEdgeTest, MainFrameTooLargeFailsTheInitialState) {
  expectErrorBothEngines(R"(
proc main() {
  var a[2147483648];
  a[0] = 1;
}

process m = main();
)",
                         RunErrorKind::StackOverflow,
                         "frame storage limit exceeded");
}

TEST(RuntimeEdgeTest, GlobalsTooLargeForAProcessAreRejected) {
  // Every process holds a copy of the globals, so the verifier rejects
  // them before any System is built.
  DiagnosticEngine Diags;
  std::unique_ptr<Module> Mod = compileMiniC(R"(
var small[16];
var big[2147483640];

proc main() {
  big[0] = 1;
}

process m = main();
)",
                                             Diags);
  ASSERT_TRUE(Mod) << Diags.str();
  EXPECT_FALSE(verifyModule(*Mod, Diags));
  EXPECT_NE(Diags.str().find("global 'big' takes the globals past the "
                             "2147483647 cells a process can hold"),
            std::string::npos)
      << Diags.str();
}

} // namespace
