//===- Vm.cpp - Direct-threaded bytecode executor -----------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The execution loop. Everything observable — store writes, choice-provider
// calls, trace events, NumTransitions, errors (kind, message, location) —
// must match the tree-walking interpreter exactly; the differential oracle
// (--exec=both) enforces this on every transition it runs. Keep any change
// here in lockstep with System.cpp's runInvisible/execVisible/eval.
//
// Dispatch is direct-threaded via computed goto (GNU C extension): every
// handler ends by jumping straight to the next handler through a label
// table indexed by opcode, which lets the branch predictor key on the
// current opcode instead of a single shared dispatch branch. A portable
// switch-in-loop fallback covers other compilers (and can be forced with
// -DCLOSER_VM_NO_THREADING to measure the dispatch difference).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "runtime/Arith.h"

#include <cassert>

using namespace closer;
using namespace closer::vm;

Vm::Vm(std::shared_ptr<const CompiledModule> C) : Code(std::move(C)) {
  assert(Code && "Vm requires a compiled module");
  Regs.assign(Code->MaxRegs, Value());
}

ExecResult Vm::executeTransition(System &S, int PIdx,
                                 ChoiceProvider &Provider) {
  assert(S.processEnabled(PIdx) && "executing a disabled transition");
  ExecResult Result;
  S.CurrentProcess = PIdx;
  System::ProcessRT &P = S.Processes[PIdx];
  const System::Frame &F = P.Frames.back();
  int32_t Entry = Code->Procs[F.ProcIdx].BodyOffset[F.PC];
  assert(Entry >= 0 && "enabled process not parked at a visible operation");
  run(S, PIdx, Provider, Result, Entry);
  return Result;
}

ExecResult Vm::runPrefix(System &S, int PIdx, ChoiceProvider &Provider) {
  ExecResult Result;
  S.CurrentProcess = PIdx;
  System::ProcessRT &P = S.Processes[PIdx];
  // reset() can diagnose a bad argument binding before the prefix runs;
  // the interpreter's runInvisible consumes that pending error first.
  if (S.PendingError) {
    Result.Error = S.PendingError;
    S.PendingError = RunError();
    S.haltProcess(P);
    return Result;
  }
  if (P.Status == System::ProcStatus::Halted)
    return Result;
  const System::Frame &F = P.Frames.back();
  int32_t Entry = Code->Procs[F.ProcIdx].NodeOffset[F.PC];
  assert(Entry >= 0 && "frame parked at an uncompiled node");
  run(S, PIdx, Provider, Result, Entry);
  return Result;
}

#if defined(__GNUC__) && !defined(CLOSER_VM_NO_THREADING)
#define CLOSER_VM_CGOTO 1
#else
#define CLOSER_VM_CGOTO 0
#endif

// Source location of the instruction in flight (parallel Locs array).
#define VM_LOC() (CM.Locs[static_cast<size_t>(I - CodeArr)])

#if CLOSER_VM_CGOTO
#define VM_CASE(op) L_##op
#define VM_DISPATCH()                                                          \
  do {                                                                         \
    I = &CodeArr[pc++];                                                        \
    goto *Labels[static_cast<size_t>(I->Code)];                                \
  } while (0)
#else
#define VM_CASE(op) case Op::op
#define VM_DISPATCH() goto vm_dispatch
#endif

// Shared prologue of the arithmetic/comparison binaries (everything except
// Eq/Ne): pointer operands are an error, unknown taints the result. The
// interpreter checks pointers before unknowns; keep that order.
#define VM_ARITH_BEGIN()                                                       \
  const Value &VL = Rg[I->B];                                                  \
  const Value &VR = Rg[I->C];                                                  \
  if (VL.isPointer() || VR.isPointer()) {                                      \
    S.fail(RunErrorKind::BadPointer, VM_LOC(), "arithmetic on a pointer");     \
    goto done;                                                                 \
  }                                                                            \
  if (VL.isUnknown() || VR.isUnknown()) {                                      \
    Rg[I->A] = Value::makeUnknown();                                           \
    VM_DISPATCH();                                                             \
  }

#define VM_CHECKED_BIN(CHECKED, OPNAME)                                        \
  do {                                                                         \
    VM_ARITH_BEGIN();                                                          \
    int64_t Out;                                                               \
    if (!CHECKED(VL.asInt(), VR.asInt(), Out)) {                               \
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),                          \
             "signed integer overflow in '" OPNAME "'");                       \
      goto done;                                                               \
    }                                                                          \
    Rg[I->A] = Value::makeInt(Out);                                            \
    VM_DISPATCH();                                                             \
  } while (0)

#define VM_COMPARE_BIN(CMPOP)                                                  \
  do {                                                                         \
    VM_ARITH_BEGIN();                                                          \
    Rg[I->A] = Value::makeInt(VL.asInt() CMPOP VR.asInt());                    \
    VM_DISPATCH();                                                             \
  } while (0)

// Immediate-form prologue: one register operand, the literal side can be
// neither a pointer nor unknown, so the checks collapse to the register.
// Check order (pointer, then unknown) matches the two-register forms.
#define VM_ARITH_IMM_BEGIN()                                                   \
  const Value &V = Rg[I->B];                                                   \
  if (V.isPointer()) {                                                         \
    S.fail(RunErrorKind::BadPointer, VM_LOC(), "arithmetic on a pointer");     \
    goto done;                                                                 \
  }                                                                            \
  if (V.isUnknown()) {                                                         \
    Rg[I->A] = Value::makeUnknown();                                           \
    VM_DISPATCH();                                                             \
  }

#define VM_CHECKED_IMM(CHECKED, OPNAME)                                        \
  do {                                                                         \
    VM_ARITH_IMM_BEGIN();                                                      \
    int64_t Out;                                                               \
    if (!CHECKED(V.asInt(), I->Imm, Out)) {                                    \
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),                          \
             "signed integer overflow in '" OPNAME "'");                       \
      goto done;                                                               \
    }                                                                          \
    Rg[I->A] = Value::makeInt(Out);                                            \
    VM_DISPATCH();                                                             \
  } while (0)

#define VM_COMPARE_IMM(CMPOP)                                                  \
  do {                                                                         \
    VM_ARITH_IMM_BEGIN();                                                      \
    Rg[I->A] = Value::makeInt(V.asInt() CMPOP I->Imm);                         \
    VM_DISPATCH();                                                             \
  } while (0)

void Vm::run(System &S, int PIdx, ChoiceProvider &Provider, ExecResult &Result,
             int32_t Entry) {
  const CompiledModule &CM = *Code;
  const Instr *CodeArr = CM.Code.data();
  Value *Rg = Regs.data();
  System::ProcessRT &P = S.Processes[PIdx];
  // Refetched after CallPush/Ret, the only handlers that resize the frame
  // and cell arrays. Locals is the innermost frame's first cell.
  System::Frame *F = &P.Frames.back();
  const CompiledProc *CP = &CM.Procs[F->ProcIdx];
  Value *Cells = P.Cells.data();
  Value *Locals = Cells + F->Base;
  size_t Steps = 0;
  int32_t pc = Entry;
  const Instr *I = nullptr;

#if CLOSER_VM_CGOTO
  // Must list every label in exact Op declaration order.
  static const void *const Labels[] = {
      &&L_Tick, &&L_AtVisible, &&L_Halt, &&L_Jmp, &&L_Fail,
      &&L_LoadImm, &&L_LoadUnknown, &&L_LoadRet, &&L_LoadLocal,
      &&L_LoadGlobal, &&L_StoreLocal, &&L_StoreGlobal,
      &&L_AddrLocal, &&L_AddrGlobal, &&L_AddrElemLocal, &&L_AddrElemGlobal,
      &&L_LoadAt, &&L_StoreAt, &&L_Deref, &&L_StoreDeref,
      &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Mod,
      &&L_Lt, &&L_Le, &&L_Gt, &&L_Ge, &&L_And, &&L_Or, &&L_Eq, &&L_Ne,
      &&L_AddImm, &&L_SubImm, &&L_MulImm, &&L_DivImm, &&L_ModImm,
      &&L_LtImm, &&L_LeImm, &&L_GtImm, &&L_GeImm, &&L_EqImm, &&L_NeImm,
      &&L_Neg, &&L_Not,
      &&L_BrTruthy, &&L_Switch, &&L_TossBr, &&L_TossVal, &&L_EnvVal,
      &&L_CallPre, &&L_CallPush, &&L_Ret,
      &&L_SendV, &&L_RecvV, &&L_SemWaitV, &&L_SemSignalV,
      &&L_SharedWriteV, &&L_SharedReadV, &&L_AssertV,
      &&L_EventPay, &&L_EventNoPay, &&L_EndVis,
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) ==
                    static_cast<size_t>(Op::EndVis) + 1,
                "label table must cover every opcode");
  VM_DISPATCH();
#else
vm_dispatch:
  I = &CodeArr[pc++];
  switch (I->Code) {
#endif

  VM_CASE(Tick): {
    if (++Steps > S.Options.InvisibleStepLimit) {
      S.fail(RunErrorKind::Divergence, SourceLoc(),
             "invisible step limit exceeded (divergence)");
      goto done;
    }
    VM_DISPATCH();
  }

  VM_CASE(AtVisible): {
    // Transition boundary: park just before the visible operation. The
    // frame PC is only materialized here (and at CallPush) — straight-line
    // compiled code never maintains it.
    F->PC = static_cast<NodeId>(I->X);
    P.Status = System::ProcStatus::AtVisible;
    goto done;
  }

  VM_CASE(Halt): {
    S.haltProcess(P);
    goto done;
  }

  VM_CASE(Jmp): {
    pc = I->X;
    VM_DISPATCH();
  }

  VM_CASE(Fail): {
    const FailInfo &FI = CM.Fails[static_cast<size_t>(I->X)];
    S.fail(FI.Kind, FI.Loc, FI.Message);
    goto done;
  }

  VM_CASE(LoadImm): {
    Rg[I->A] = Value::makeInt(I->Imm);
    VM_DISPATCH();
  }

  VM_CASE(LoadUnknown): {
    Rg[I->A] = Value::makeUnknown();
    VM_DISPATCH();
  }

  VM_CASE(LoadRet): {
    Rg[I->A] = RetVal;
    VM_DISPATCH();
  }

  VM_CASE(LoadLocal): {
    Rg[I->A] = Locals[I->X];
    VM_DISPATCH();
  }

  VM_CASE(LoadGlobal): {
    Rg[I->A] = Cells[I->X];
    VM_DISPATCH();
  }

  VM_CASE(StoreLocal): {
    Locals[I->X] = Rg[I->A];
    VM_DISPATCH();
  }

  VM_CASE(StoreGlobal): {
    Cells[I->X] = Rg[I->A];
    VM_DISPATCH();
  }

  VM_CASE(AddrLocal): {
    Address Ad;
    Ad.Sp = Address::Space::Frame;
    Ad.FrameIndex = static_cast<uint32_t>(P.Frames.size() - 1);
    Ad.SlotIndex = static_cast<uint32_t>(I->X);
    Rg[I->A] = Value::makePointer(Ad);
    VM_DISPATCH();
  }

  VM_CASE(AddrGlobal): {
    Address Ad;
    Ad.Sp = Address::Space::Global;
    Ad.SlotIndex = static_cast<uint32_t>(I->X);
    Rg[I->A] = Value::makePointer(Ad);
    VM_DISPATCH();
  }

  VM_CASE(AddrElemLocal): {
    const Value &Idx = Rg[I->B];
    if (!Idx.isInt()) {
      S.fail(RunErrorKind::UnknownInControl, VM_LOC(),
             "array index is not an integer");
      goto done;
    }
    Address Ad;
    Ad.Sp = Address::Space::Frame;
    Ad.FrameIndex = static_cast<uint32_t>(P.Frames.size() - 1);
    Ad.SlotIndex = static_cast<uint32_t>(I->X);
    // The interpreter truncates the index to 32 bits when forming the
    // address; bounds checking happens at the access.
    Ad.ElemIndex = static_cast<int32_t>(Idx.asInt());
    Rg[I->A] = Value::makePointer(Ad);
    VM_DISPATCH();
  }

  VM_CASE(AddrElemGlobal): {
    const Value &Idx = Rg[I->B];
    if (!Idx.isInt()) {
      S.fail(RunErrorKind::UnknownInControl, VM_LOC(),
             "array index is not an integer");
      goto done;
    }
    Address Ad;
    Ad.Sp = Address::Space::Global;
    Ad.SlotIndex = static_cast<uint32_t>(I->X);
    Ad.ElemIndex = static_cast<int32_t>(Idx.asInt());
    Rg[I->A] = Value::makePointer(Ad);
    VM_DISPATCH();
  }

  VM_CASE(LoadAt): {
    Value V = S.loadAddress(P, Rg[I->B].asPointer());
    if (S.PendingError)
      goto done;
    Rg[I->A] = V;
    VM_DISPATCH();
  }

  VM_CASE(StoreAt): {
    S.storeAddress(P, Rg[I->A].asPointer(), Rg[I->B]);
    if (S.PendingError)
      goto done;
    VM_DISPATCH();
  }

  VM_CASE(Deref): {
    const Value &Ptr = Rg[I->B];
    if (Ptr.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    if (!Ptr.isPointer()) {
      S.fail(RunErrorKind::BadPointer, VM_LOC(),
             "dereference of a non-pointer value");
      goto done;
    }
    Value V = S.loadAddress(P, Ptr.asPointer());
    if (S.PendingError)
      goto done;
    Rg[I->A] = V;
    VM_DISPATCH();
  }

  VM_CASE(StoreDeref): {
    const Value &Ptr = Rg[I->A];
    if (!Ptr.isPointer()) {
      S.fail(RunErrorKind::BadPointer, VM_LOC(),
             "store through a non-pointer value");
      goto done;
    }
    S.storeAddress(P, Ptr.asPointer(), Rg[I->B]);
    if (S.PendingError)
      goto done;
    VM_DISPATCH();
  }

  VM_CASE(Add): { VM_CHECKED_BIN(checkedAdd, "+"); }
  VM_CASE(Sub): { VM_CHECKED_BIN(checkedSub, "-"); }
  VM_CASE(Mul): { VM_CHECKED_BIN(checkedMul, "*"); }

  VM_CASE(Div): {
    VM_ARITH_BEGIN();
    if (VR.asInt() == 0) {
      S.fail(RunErrorKind::DivisionByZero, VM_LOC(), "division by zero");
      goto done;
    }
    int64_t Out;
    if (!checkedDiv(VL.asInt(), VR.asInt(), Out)) {
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),
             "signed integer overflow in '/'");
      goto done;
    }
    Rg[I->A] = Value::makeInt(Out);
    VM_DISPATCH();
  }

  VM_CASE(Mod): {
    VM_ARITH_BEGIN();
    if (VR.asInt() == 0) {
      S.fail(RunErrorKind::DivisionByZero, VM_LOC(), "modulo by zero");
      goto done;
    }
    int64_t Out;
    if (!checkedMod(VL.asInt(), VR.asInt(), Out)) {
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),
             "signed integer overflow in '%'");
      goto done;
    }
    Rg[I->A] = Value::makeInt(Out);
    VM_DISPATCH();
  }

  VM_CASE(Lt): { VM_COMPARE_BIN(<); }
  VM_CASE(Le): { VM_COMPARE_BIN(<=); }
  VM_CASE(Gt): { VM_COMPARE_BIN(>); }
  VM_CASE(Ge): { VM_COMPARE_BIN(>=); }

  VM_CASE(And): {
    VM_ARITH_BEGIN();
    Rg[I->A] = Value::makeInt((VL.asInt() != 0 && VR.asInt() != 0) ? 1 : 0);
    VM_DISPATCH();
  }

  VM_CASE(Or): {
    VM_ARITH_BEGIN();
    Rg[I->A] = Value::makeInt((VL.asInt() != 0 || VR.asInt() != 0) ? 1 : 0);
    VM_DISPATCH();
  }

  VM_CASE(Eq): {
    // Structural equality is the only legal pointer binary; unknown taints.
    const Value &VL = Rg[I->B];
    const Value &VR = Rg[I->C];
    if (VL.isUnknown() || VR.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    Rg[I->A] = Value::makeInt(VL == VR ? 1 : 0);
    VM_DISPATCH();
  }

  VM_CASE(Ne): {
    const Value &VL = Rg[I->B];
    const Value &VR = Rg[I->C];
    if (VL.isUnknown() || VR.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    Rg[I->A] = Value::makeInt(VL == VR ? 0 : 1);
    VM_DISPATCH();
  }

  VM_CASE(AddImm): { VM_CHECKED_IMM(checkedAdd, "+"); }
  VM_CASE(SubImm): { VM_CHECKED_IMM(checkedSub, "-"); }
  VM_CASE(MulImm): { VM_CHECKED_IMM(checkedMul, "*"); }

  VM_CASE(DivImm): {
    VM_ARITH_IMM_BEGIN();
    if (I->Imm == 0) {
      S.fail(RunErrorKind::DivisionByZero, VM_LOC(), "division by zero");
      goto done;
    }
    int64_t Out;
    if (!checkedDiv(V.asInt(), I->Imm, Out)) {
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),
             "signed integer overflow in '/'");
      goto done;
    }
    Rg[I->A] = Value::makeInt(Out);
    VM_DISPATCH();
  }

  VM_CASE(ModImm): {
    VM_ARITH_IMM_BEGIN();
    if (I->Imm == 0) {
      S.fail(RunErrorKind::DivisionByZero, VM_LOC(), "modulo by zero");
      goto done;
    }
    int64_t Out;
    if (!checkedMod(V.asInt(), I->Imm, Out)) {
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),
             "signed integer overflow in '%'");
      goto done;
    }
    Rg[I->A] = Value::makeInt(Out);
    VM_DISPATCH();
  }

  VM_CASE(LtImm): { VM_COMPARE_IMM(<); }
  VM_CASE(LeImm): { VM_COMPARE_IMM(<=); }
  VM_CASE(GtImm): { VM_COMPARE_IMM(>); }
  VM_CASE(GeImm): { VM_COMPARE_IMM(>=); }

  VM_CASE(EqImm): {
    // Structural equality against Int(Imm): unknown taints, a pointer
    // compares unequal (kind mismatch), exactly like the Eq opcode.
    const Value &V = Rg[I->B];
    if (V.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    Rg[I->A] = Value::makeInt(V.isInt() && V.asInt() == I->Imm ? 1 : 0);
    VM_DISPATCH();
  }

  VM_CASE(NeImm): {
    const Value &V = Rg[I->B];
    if (V.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    Rg[I->A] = Value::makeInt(V.isInt() && V.asInt() == I->Imm ? 0 : 1);
    VM_DISPATCH();
  }

  VM_CASE(Neg): {
    // Unary checks unknown before pointer (the interpreter's order).
    const Value &V = Rg[I->B];
    if (V.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    if (V.isPointer()) {
      S.fail(RunErrorKind::BadPointer, VM_LOC(), "arithmetic on a pointer");
      goto done;
    }
    int64_t Out;
    if (!checkedNeg(V.asInt(), Out)) {
      S.fail(RunErrorKind::IntegerOverflow, VM_LOC(),
             "signed integer overflow in unary '-'");
      goto done;
    }
    Rg[I->A] = Value::makeInt(Out);
    VM_DISPATCH();
  }

  VM_CASE(Not): {
    const Value &V = Rg[I->B];
    if (V.isUnknown()) {
      Rg[I->A] = Value::makeUnknown();
      VM_DISPATCH();
    }
    if (V.isPointer()) {
      S.fail(RunErrorKind::BadPointer, VM_LOC(), "arithmetic on a pointer");
      goto done;
    }
    Rg[I->A] = Value::makeInt(V.asInt() == 0 ? 1 : 0);
    VM_DISPATCH();
  }

  VM_CASE(BrTruthy): {
    const Value &C = Rg[I->A];
    if (C.isUnknown()) {
      S.fail(RunErrorKind::UnknownInControl, VM_LOC(),
             "control flow depends on an unknown value (module not closed?)");
      goto done;
    }
    bool Taken = C.isPointer() || C.asInt() != 0;
    pc = Taken ? I->X : static_cast<int32_t>(I->Imm);
    VM_DISPATCH();
  }

  VM_CASE(Switch): {
    const Value &V = Rg[I->A];
    if (!V.isInt()) {
      S.fail(RunErrorKind::UnknownInControl, VM_LOC(),
             "switch on a non-integer value");
      goto done;
    }
    const JumpTable &T = CM.Tables[static_cast<size_t>(I->X)];
    int32_t Target = T.DefaultTarget;
    for (const JumpCase &JC : T.Cases)
      if (JC.Value == V.asInt()) {
        Target = JC.Target;
        break;
      }
    assert(Target >= 0 && "switch must have a default arc");
    pc = Target;
    VM_DISPATCH();
  }

  VM_CASE(TossBr): {
    int64_t Choice =
        Provider.choose(ChoiceProvider::ChoiceKind::Toss, I->Imm);
    assert(Choice >= 0 && Choice <= I->Imm && "bad toss choice");
    const JumpTable &T = CM.Tables[static_cast<size_t>(I->X)];
    int32_t Target = -1;
    for (const JumpCase &JC : T.Cases)
      if (JC.Value == Choice) {
        Target = JC.Target;
        break;
      }
    assert(Target >= 0 && "toss arcs cover all outcomes");
    pc = Target;
    VM_DISPATCH();
  }

  VM_CASE(TossVal): {
    const Value &Bound = Rg[I->B];
    if (!Bound.isInt() || Bound.asInt() < 0) {
      S.fail(RunErrorKind::BadTossBound, VM_LOC(),
             "VS_toss bound must be a nonnegative integer");
      goto done;
    }
    Rg[I->A] = Value::makeInt(
        Provider.choose(ChoiceProvider::ChoiceKind::Toss, Bound.asInt()));
    VM_DISPATCH();
  }

  VM_CASE(EnvVal): {
    if (S.Options.EnvDomainBound < 0) {
      S.fail(RunErrorKind::BadTossBound, VM_LOC(),
             "environment domain bound must be a nonnegative integer");
      goto done;
    }
    Rg[I->A] = Value::makeInt(Provider.choose(ChoiceProvider::ChoiceKind::Env,
                                              S.Options.EnvDomainBound));
    VM_DISPATCH();
  }

  VM_CASE(CallPre): {
    // The stack limit fires before argument evaluation, like the
    // interpreter's Call handler.
    if (P.Frames.size() >= S.Options.StackLimit) {
      S.fail(RunErrorKind::StackOverflow, VM_LOC(),
             "frame stack limit exceeded");
      goto done;
    }
    VM_DISPATCH();
  }

  VM_CASE(CallPush): {
    const CallSite &CS = CM.Calls[static_cast<size_t>(I->X)];
    if (!S.frameFits(P, CS.FrameCells, VM_LOC()))
      goto done;
    F->PC = CS.CallNode; // Park the caller; Ret resumes through RetCont.
    System::Frame NF;
    NF.ProcIdx = CS.CalleeIdx;
    NF.PC = CS.EntryNode;
    NF.Base = static_cast<uint32_t>(P.Cells.size());
    // Zeroed cells (Value() is Int(0)); parameter A is cell A.
    P.Cells.resize(P.Cells.size() + CS.FrameCells);
    P.Frames.push_back(NF);
    F = &P.Frames.back();
    CP = &CM.Procs[F->ProcIdx];
    Cells = P.Cells.data();
    Locals = Cells + F->Base;
    for (int32_t A = 0; A != CS.NArgs; ++A)
      Locals[A] = Rg[static_cast<size_t>(CS.ArgBase + A)];
    pc = CS.EntryOffset;
    VM_DISPATCH();
  }

  VM_CASE(Ret): {
    Value RV = Value::makeInt(0);
    if (CP->RetValOffset >= 0)
      RV = Locals[CP->RetValOffset];
    S.popFrame(P);
    if (P.Frames.empty()) {
      // Top-level termination: blocking forever (paper §4 assumption).
      S.haltProcess(P);
      goto done;
    }
    F = &P.Frames.back();
    CP = &CM.Procs[F->ProcIdx];
    Cells = P.Cells.data();
    Locals = Cells + F->Base;
    RetVal = RV;
    pc = CP->RetCont[F->PC];
    assert(pc >= 0 && "caller not parked at a call node");
    VM_DISPATCH();
  }

  VM_CASE(SendV): {
    S.Comms[static_cast<size_t>(CM.Vis[static_cast<size_t>(I->X)].CommIdx)]
        .push(Rg[I->A]);
    VM_DISPATCH();
  }

  VM_CASE(RecvV): {
    auto &Chan =
        S.Comms[static_cast<size_t>(CM.Vis[static_cast<size_t>(I->X)].CommIdx)];
    assert(Chan.Len != 0 && "recv on empty channel");
    Rg[I->A] = Chan.pop();
    VM_DISPATCH();
  }

  VM_CASE(SemWaitV): {
    auto &Comm =
        S.Comms[static_cast<size_t>(CM.Vis[static_cast<size_t>(I->X)].CommIdx)];
    assert(Comm.Count > 0 && "wait on zero semaphore");
    --Comm.Count;
    VM_DISPATCH();
  }

  VM_CASE(SemSignalV): {
    ++S.Comms[static_cast<size_t>(CM.Vis[static_cast<size_t>(I->X)].CommIdx)]
          .Count;
    VM_DISPATCH();
  }

  VM_CASE(SharedWriteV): {
    S.Comms[static_cast<size_t>(CM.Vis[static_cast<size_t>(I->X)].CommIdx)]
        .Shared = Rg[I->A];
    VM_DISPATCH();
  }

  VM_CASE(SharedReadV): {
    Rg[I->A] =
        S.Comms[static_cast<size_t>(CM.Vis[static_cast<size_t>(I->X)].CommIdx)]
            .Shared;
    VM_DISPATCH();
  }

  VM_CASE(AssertV): {
    // An unknown assertion argument means the assertion was not preserved
    // by the transformation (Theorem 7); it never fires.
    const Value &V = Rg[I->A];
    if (V.isInt() && V.asInt() == 0)
      Result.Violations.push_back({PIdx, VM_LOC()});
    VM_DISPATCH();
  }

  VM_CASE(EventPay): {
    const VisInfo &VI = CM.Vis[static_cast<size_t>(I->X)];
    VisibleEvent E;
    E.ProcessIndex = PIdx;
    E.Op = VI.Kind;
    E.Object = VI.Object;
    E.Payload = Rg[I->A];
    E.HasPayload = true;
    S.EventTrace.push_back(std::move(E));
    VM_DISPATCH();
  }

  VM_CASE(EventNoPay): {
    const VisInfo &VI = CM.Vis[static_cast<size_t>(I->X)];
    VisibleEvent E;
    E.ProcessIndex = PIdx;
    E.Op = VI.Kind;
    E.Object = VI.Object;
    S.EventTrace.push_back(std::move(E));
    VM_DISPATCH();
  }

  VM_CASE(EndVis): {
    ++S.NumTransitions;
    VM_DISPATCH();
  }

#if !CLOSER_VM_CGOTO
  }
  assert(false && "unhandled opcode");
#endif

done:
  // The interpreter's error epilogue: first error wins, the process halts.
  if (S.PendingError) {
    Result.Error = S.PendingError;
    S.PendingError = RunError();
    S.haltProcess(P);
  }
}
