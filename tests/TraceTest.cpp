//===- TraceTest.cpp - Visible-trace and value tests -------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "runtime/Trace.h"

#include "runtime/Value.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

VisibleEvent mkEvent(int Proc, BuiltinKind Op, const std::string &Obj,
                     Value Payload, bool HasPayload = true) {
  VisibleEvent E;
  E.ProcessIndex = Proc;
  E.Op = Op;
  E.Object = Obj;
  E.Payload = Payload;
  E.HasPayload = HasPayload;
  return E;
}

TEST(ValueTest, EqualityAndKinds) {
  EXPECT_EQ(Value::makeInt(3), Value::makeInt(3));
  EXPECT_FALSE(Value::makeInt(3) == Value::makeInt(4));
  EXPECT_EQ(Value::makeUnknown(), Value::makeUnknown());
  EXPECT_FALSE(Value::makeInt(0) == Value::makeUnknown());

  Address A;
  A.Sp = Address::Space::Frame;
  A.FrameIndex = 1;
  A.SlotIndex = 2;
  Address B = A;
  EXPECT_EQ(Value::makePointer(A), Value::makePointer(B));
  B.ElemIndex = 3;
  EXPECT_FALSE(Value::makePointer(A) == Value::makePointer(B));
}

TEST(ValueTest, Rendering) {
  EXPECT_EQ(Value::makeInt(42).str(), "42");
  EXPECT_EQ(Value::makeUnknown().str(), "unknown");
  Address A;
  A.Sp = Address::Space::Global;
  A.SlotIndex = 5;
  EXPECT_EQ(Value::makePointer(A).str(), "&[global slot 5]");
}

TEST(TraceTest, EventEquality) {
  VisibleEvent A = mkEvent(0, BuiltinKind::Send, "c", Value::makeInt(1));
  VisibleEvent B = mkEvent(0, BuiltinKind::Send, "c", Value::makeInt(1));
  EXPECT_TRUE(A == B);
  B.Payload = Value::makeInt(2);
  EXPECT_FALSE(A == B);
  B = A;
  B.ProcessIndex = 1;
  EXPECT_FALSE(A == B);
  B = A;
  B.Object = std::string("d");
  EXPECT_FALSE(A == B);
}

TEST(TraceTest, UnknownPayloadSubsumesAnything) {
  VisibleEvent General =
      mkEvent(0, BuiltinKind::Send, "c", Value::makeUnknown());
  VisibleEvent Concrete =
      mkEvent(0, BuiltinKind::Send, "c", Value::makeInt(77));
  EXPECT_TRUE(eventSubsumes(General, Concrete));
  EXPECT_FALSE(eventSubsumes(Concrete, General))
      << "a concrete payload does not subsume unknown";
  // Subsumption never crosses operations or objects.
  VisibleEvent OtherObj =
      mkEvent(0, BuiltinKind::Send, "d", Value::makeInt(77));
  EXPECT_FALSE(eventSubsumes(General, OtherObj));
}

TEST(TraceTest, TraceSubsumptionIsPositional) {
  Trace General = {mkEvent(0, BuiltinKind::Send, "c", Value::makeUnknown()),
                   mkEvent(1, BuiltinKind::Recv, "c", Value::makeInt(5))};
  Trace Concrete = {mkEvent(0, BuiltinKind::Send, "c", Value::makeInt(9)),
                    mkEvent(1, BuiltinKind::Recv, "c", Value::makeInt(5))};
  EXPECT_TRUE(traceSubsumes(General, Concrete));

  Trace Shorter = {Concrete[0]};
  EXPECT_FALSE(traceSubsumes(General, Shorter)) << "length must match";

  std::swap(Concrete[0], Concrete[1]);
  EXPECT_FALSE(traceSubsumes(General, Concrete)) << "order matters";
}

TEST(TraceTest, Rendering) {
  Trace T = {mkEvent(2, BuiltinKind::SemWait, "mutex", Value::makeInt(0),
                     /*HasPayload=*/false),
             mkEvent(0, BuiltinKind::VsAssert, "", Value::makeInt(1))};
  std::string Text = traceToString(T);
  EXPECT_NE(Text.find("P2:sem_wait(mutex)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("P0:VS_assert=1"), std::string::npos) << Text;
}

} // namespace
