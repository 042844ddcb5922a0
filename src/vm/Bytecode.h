//===- Bytecode.h - Register bytecode for closed modules -------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form a Module is lowered to for fast transition execution.
/// One flat instruction array covers the whole module; per-procedure offset
/// tables map CFG nodes to their compiled entry points so execution can
/// resume from any System state (Frame.PC is a NodeId, and snapshots restore
/// PCs, so the VM must be able to enter at any transition boundary).
///
/// Layout per CFG node:
///  * NodeOffset[n] — the invisible-run entry: a Tick instruction (step
///    accounting identical to the interpreter's per-node count) followed by
///    the node's body, or by AtVisible for visible operations (the
///    interpreter stops *before* a visible op, after charging its step).
///  * BodyOffset[n] — for visible nodes only: the visible operation itself
///    (no Tick: the interpreter's execVisible runs outside step accounting),
///    the trace event append, EndVis (++NumTransitions), then the advance.
///  * RetCont[n] — for call nodes: the return continuation (optional store
///    of the returned value, then the advance). Ret looks this up through
///    the caller frame's PC, which is parked at the call node — exactly the
///    information a restored snapshot preserves.
///
/// Variable references are resolved at compile time (via the same
/// buildModuleLayout() the System uses): loads and stores carry the cell
/// offset of their slot, relative to the frame's Base for locals and to the
/// process's cell array for globals, and address-taking instructions the
/// slot number an Address records. Steady-state execution performs no
/// string hashing at all. Names that do not resolve statically compile to
/// Fail instructions reproducing the interpreter's error kind, message and
/// location exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_VM_BYTECODE_H
#define CLOSER_VM_BYTECODE_H

#include "cfg/Cfg.h"
#include "runtime/System.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace closer {
namespace vm {

enum class Op : uint8_t {
  Tick,       ///< Per-node step accounting; fails with Divergence at limit.
  AtVisible,  ///< X = NodeId: park at the visible op (sets Frame.PC), stop.
  Halt,       ///< haltProcess (dropped control point / top-level return).
  Jmp,        ///< pc = X.
  Fail,       ///< Raise Fails[X] (statically-diagnosed runtime error).

  LoadImm,     ///< r[A] = Int(Imm).
  LoadUnknown, ///< r[A] = unknown.
  LoadRet,     ///< r[A] = return-value register (set by Ret).
  LoadLocal,   ///< r[A] = frame cell X (a scalar slot's offset).
  LoadGlobal,  ///< r[A] = global cell X.
  StoreLocal,  ///< frame cell X = r[A].
  StoreGlobal, ///< global cell X = r[A].

  AddrLocal,      ///< r[A] = &frame slot X.
  AddrGlobal,     ///< r[A] = &global slot X.
  AddrElemLocal,  ///< r[A] = &frame slot X [r[B]] (index must be an integer).
  AddrElemGlobal, ///< r[A] = &global slot X [r[B]].
  LoadAt,         ///< r[A] = load through address r[B] (full dynamic checks).
  StoreAt,        ///< store r[B] through address r[A].
  Deref,          ///< r[A] = *r[B] (unknown passes through; else pointer).
  StoreDeref,     ///< *r[A] = r[B] (non-pointer is an error).

  // Binary: r[A] = r[B] op r[C]. Pointer operands (except Eq/Ne) and
  // overflow are errors; unknown propagates.
  Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, And, Or, Eq, Ne,
  // Immediate forms: r[A] = r[B] op Int(Imm). The compiler fuses a literal
  // operand into the consuming instruction (and flips comparisons when the
  // literal is on the left), eliminating the LoadImm dispatch and register
  // write on the hottest eval paths (loop bounds, counters, masks). Checks
  // and error text are identical to the two-register forms.
  AddImm, SubImm, MulImm, DivImm, ModImm,
  LtImm, LeImm, GtImm, GeImm, EqImm, NeImm,
  Neg, ///< r[A] = -r[B].
  Not, ///< r[A] = !r[B].

  BrTruthy, ///< pc = truthy(r[A]) ? X : Imm; unknown condition is an error.
  Switch,   ///< Jump via Tables[X] on integer r[A] (first matching case).
  TossBr,   ///< choose(Toss, Imm), jump via Tables[X].
  TossVal,  ///< r[A] = choose(Toss, r[B]); validates the bound.
  EnvVal,   ///< r[A] = choose(Env, EnvDomainBound); validates the bound.

  CallPre,  ///< X = CallSite: frame-stack limit check.
  CallPush, ///< X = CallSite: push callee frame from r[ArgBase..], jump in
            ///< (StackOverflow when its cells do not fit; see frameFits).
  Ret,      ///< Pop frame (result from cell RetValOffset); halt at top
            ///< level, else resume the caller's RetCont.

  // Visible operations; X = VisInfo index.
  SendV,        ///< Push r[A] onto the channel.
  RecvV,        ///< r[A] = pop channel front.
  SemWaitV,     ///< --Count.
  SemSignalV,   ///< ++Count.
  SharedWriteV, ///< Shared = r[A].
  SharedReadV,  ///< r[A] = Shared.
  AssertV,      ///< Record a violation when r[A] is Int(0).
  EventPay,     ///< Append the trace event with payload r[A].
  EventNoPay,   ///< Append the trace event without payload.
  EndVis,       ///< ++NumTransitions (visible op committed).
};

/// One instruction. A/B/C are register operands, X is a slot index, code
/// offset or auxiliary-table index, Imm an immediate. Source locations for
/// error reporting live in a parallel array (CompiledModule::Locs) so the
/// hot instruction stays compact.
struct Instr {
  Op Code;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t X = 0;
  int64_t Imm = 0;
};

struct JumpCase {
  int64_t Value = 0;
  int32_t Target = -1; ///< Code offset.
};

struct JumpTable {
  std::vector<JumpCase> Cases; ///< In arc order (first match wins).
  int32_t DefaultTarget = -1;  ///< Switch default; unused for TossBr.
};

/// Static description of one visible operation.
struct VisInfo {
  BuiltinKind Kind = BuiltinKind::None;
  int32_t CommIdx = -1;
  std::string Object; ///< Trace event object name; empty for VS_assert.
};

/// Static description of one user-procedure call site.
struct CallSite {
  int32_t CalleeIdx = -1;
  int32_t NArgs = 0;
  int32_t ArgBase = 0;          ///< First argument register.
  NodeId CallNode = InvalidNode; ///< Caller parks here while callee runs.
  NodeId EntryNode = InvalidNode; ///< Callee's CFG entry (new frame's PC).
  int32_t EntryOffset = -1;      ///< Callee's compiled entry.
  size_t FrameCells = 0;         ///< Callee frame size (ProcLayout::Cells).
};

/// A statically-diagnosed runtime error (unresolvable name, malformed toss
/// bound, ...): kind, message and location replicate the interpreter's.
struct FailInfo {
  RunErrorKind Kind = RunErrorKind::None;
  std::string Message;
  SourceLoc Loc;
};

struct CompiledProc {
  std::vector<int32_t> NodeOffset; ///< Per NodeId: invisible-run entry.
  std::vector<int32_t> BodyOffset; ///< Per NodeId: visible body, or -1.
  std::vector<int32_t> RetCont;    ///< Per NodeId: return continuation, or -1.
  int32_t RetValOffset = -1; ///< Frame cell of __retval, or -1.
};

struct CompiledModule {
  std::vector<Instr> Code;
  std::vector<SourceLoc> Locs; ///< Parallel to Code; error attribution.
  std::vector<JumpTable> Tables;
  std::vector<VisInfo> Vis;
  std::vector<CallSite> Calls;
  std::vector<FailInfo> Fails;
  std::vector<CompiledProc> Procs; ///< Parallel to Module.Procs.
  uint32_t MaxRegs = 0;

  /// Summary for pipeline stats and docs.
  size_t instructionCount() const { return Code.size(); }
};

/// Lowers \p Mod to bytecode. The module must be verified; \p Mod must
/// outlive nothing (the compiled form is self-contained except for comm
/// parameters, which the executing System already holds).
std::shared_ptr<const CompiledModule> compileModule(const Module &Mod);

/// Human-readable disassembly (debugging aid; not a stable format).
std::string disassemble(const CompiledModule &CM);

} // namespace vm
} // namespace closer

#endif // CLOSER_VM_BYTECODE_H
