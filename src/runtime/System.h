//===- System.h - Concurrent-system runtime --------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable semantics of the paper's §2 framework. A System instance
/// holds a set of processes (each an interpreter over its procedure CFGs,
/// with private globals and a private frame stack — processes share no
/// memory) and the communication objects they synchronize through.
///
/// Execution follows the paper's transition model: a *process transition*
/// is one visible operation followed by the finite sequence of invisible
/// operations up to (but excluding) the next visible operation. The system
/// is in a *global state* when every process is stopped at a visible
/// operation (or halted). An external scheduler — the explorer — selects
/// which enabled process executes its next transition, exactly like
/// VeriSoft's scheduler process.
///
/// Nondeterminism (VS_toss, and environment choices when executing a
/// still-open module) is routed through a ChoiceProvider so the explorer
/// can enumerate and replay choice sequences; the runtime itself is
/// deterministic given the provider.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_RUNTIME_SYSTEM_H
#define CLOSER_RUNTIME_SYSTEM_H

#include "cfg/Cfg.h"
#include "runtime/Trace.h"
#include "runtime/Value.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace closer {

/// Supplies nondeterministic choices to the runtime.
class ChoiceProvider {
public:
  enum class ChoiceKind {
    Toss, ///< VS_toss(n) or a TossBranch outcome.
    Env,  ///< env_input() or an `env` process argument (open modules only).
  };

  virtual ~ChoiceProvider() = default;

  /// Returns a value in [0, Bound]. Bound >= 0.
  virtual int64_t choose(ChoiceKind Kind, int64_t Bound) = 0;
};

/// A ChoiceProvider that always picks 0 (the deterministic "first path").
class ZeroChoiceProvider : public ChoiceProvider {
public:
  int64_t choose(ChoiceKind, int64_t) override { return 0; }
};

struct SystemOptions {
  /// Environment inputs range over [0, EnvDomainBound] when executing an
  /// open module directly (this *is* the most general environment
  /// restricted to a finite domain — the naive-closing baseline).
  int64_t EnvDomainBound = 1;
  /// Invisible operations allowed per transition before the runtime
  /// reports a divergence (VeriSoft's timeout, made deterministic).
  size_t InvisibleStepLimit = 100000;
  /// Maximum frame-stack depth per process.
  size_t StackLimit = 256;
};

enum class RunErrorKind {
  None,
  DivisionByZero,
  IntegerOverflow,  ///< Signed 64-bit overflow in +, -, *, unary -, or
                    ///< INT64_MIN / -1 (and % -1): a deterministic error,
                    ///< never C++ UB. Shared by interpreter and VM.
  BadPointer,       ///< Dereference of a non-pointer or dangling address.
  IndexOutOfBounds,
  UnknownInControl, ///< Branch/index depends on an unknown value: the
                    ///< module was not properly closed.
  Divergence,       ///< Invisible step limit exceeded.
  StackOverflow,
  BadTossBound,
};

struct RunError {
  RunErrorKind Kind = RunErrorKind::None;
  int Process = -1;
  SourceLoc Loc;
  std::string Message;

  explicit operator bool() const { return Kind != RunErrorKind::None; }
  std::string str() const;
};

/// An executed VS_assert whose expression evaluated to zero.
struct AssertionViolation {
  int Process = -1;
  SourceLoc Loc;
};

/// Result of running one process transition (or the initialization run).
struct ExecResult {
  RunError Error;
  std::vector<AssertionViolation> Violations;
  bool ok() const { return !Error; }
};

/// Classification of a global state.
enum class GlobalStateKind {
  HasEnabled,  ///< At least one transition can execute.
  Termination, ///< Every process halted (ran to completion).
  Deadlock,    ///< No transition enabled but some process still waits.
};

/// Name -> slot index resolution, precomputed per procedure: parameters
/// first (in order), then locals (in order), plus where each slot lives in
/// a frame's cells. A scalar takes one cell and an array one cell per
/// element, inline, in slot order; parameters are scalars, so parameter A
/// sits at cell A. Shared between the System's interpreter and the
/// bytecode compiler so slot numbers and offsets can never diverge between
/// engines.
struct ProcLayout {
  std::unordered_map<std::string, uint32_t> SlotOf;
  std::vector<int64_t> ArraySizes; ///< Per slot; -1 scalar.
  std::vector<size_t> Offsets;     ///< Per slot: first cell in the frame.
  size_t Cells = 0;                ///< Cells per frame (saturated).
  int RetValSlot = -1;
};

/// Where the module's state lives in a process's cell array: the globals
/// first (in declaration order, arrays inline), then one block of cells per
/// frame, laid out by that frame's ProcLayout.
struct ModuleLayout {
  std::vector<ProcLayout> Procs;     ///< Parallel to Mod.Procs.
  std::vector<size_t> GlobalOffsets; ///< Per global: its first cell.
  size_t GlobalCells = 0;
};

/// Builds the cell layout of \p Mod. The single source of truth for slot
/// numbering and cell offsets. Cell counts saturate at MaxProcessCells + 1
/// and offsets at MaxProcessCells (see addCells), so none wraps.
ModuleLayout buildModuleLayout(const Module &Mod);

class System;
class SystemSnapshot;

namespace vm {
class Vm;
class DifferentialEngine;
} // namespace vm

/// A pluggable transition-execution engine. The System owns the state
/// (stores, frames, communication objects, trace); an engine is only an
/// alternative way of running the code against that state. The default
/// (no engine installed) is the built-in tree-walking interpreter; the
/// bytecode VM and the interpreter-vs-VM differential oracle implement
/// this interface. Engines must be observationally identical to the
/// interpreter: same state deltas, same choice-provider call sequence,
/// same errors (kind, message, location), same trace events.
class ExecEngine {
public:
  virtual ~ExecEngine() = default;

  /// Executes one process transition of \p P (must be enabled): the
  /// visible operation plus the invisible run to the next visible op.
  virtual ExecResult executeTransition(System &S, int P,
                                       ChoiceProvider &Provider) = 0;

  /// Runs process \p P's invisible prefix to its first visible operation
  /// (the per-process half of reset()).
  virtual ExecResult runPrefix(System &S, int P, ChoiceProvider &Provider) = 0;
};

class System {
public:
  /// Binds the runtime to \p Mod (kept by reference; must outlive the
  /// System) and performs the initial reset with a ZeroChoiceProvider.
  explicit System(const Module &Mod, SystemOptions Options = {});

  /// Reinitializes to the initial global state s0: processes are created
  /// and each runs its invisible prefix to its first visible operation.
  /// Choices made during the prefix come from \p Provider.
  ExecResult reset(ChoiceProvider &Provider);

  int processCount() const { return static_cast<int>(Processes.size()); }

  /// True when process \p P is stopped at a visible operation that is
  /// currently enabled.
  bool processEnabled(int P) const;

  /// Indices of all enabled processes.
  std::vector<int> enabledProcesses() const;

  /// Overwrites \p Out with the enabled-process indices. The hot-path form:
  /// a recycled vector keeps its capacity, so a steady-state search never
  /// allocates here.
  void enabledProcessesInto(std::vector<int> &Out) const;

  GlobalStateKind classify() const;

  /// Executes one process transition of \p P (which must be enabled):
  /// the visible operation plus the invisible run to the next visible
  /// operation. Dispatches to the installed engine, or the built-in
  /// interpreter when none is set.
  ExecResult executeTransition(int P, ChoiceProvider &Provider);

  /// Installs a pluggable execution engine (nullptr restores the built-in
  /// tree-walking interpreter). Not owned; must outlive this System.
  void setEngine(ExecEngine *E) { Engine = E; }
  ExecEngine *engine() const { return Engine; }

  /// Always runs the built-in interpreter, regardless of the installed
  /// engine. The differential oracle uses these to compare engines.
  ExecResult interpTransition(int P, ChoiceProvider &Provider);
  ExecResult interpPrefix(int P, ChoiceProvider &Provider);

  /// Visible events executed since the last reset.
  const Trace &trace() const { return EventTrace; }

  /// Number of transitions executed since the last reset (search depth).
  size_t depth() const { return NumTransitions; }

  //===--------------------------------------------------------------------===//
  // Checkpointing
  //===--------------------------------------------------------------------===//

  /// Overwrites \p S with the full dynamic state (per-process frames and
  /// cells, communication objects, transition count) and the event trace's
  /// length, not its events: O(state) instead of O(depth). Intended to be
  /// taken at transition boundaries (no execution in flight), where
  /// restoring it is an exact substitute for re-executing the choice
  /// prefix that led here, including fingerprints and traces, as long as
  /// this System stays on the DFS path it was taken on (see
  /// SystemSnapshot). Capturing into a reused snapshot reuses its buffers,
  /// so a steady-state checkpointing search allocates nothing here.
  void snapshotLightInto(SystemSnapshot &S) const;

  /// Overwrites \p Out with \p Light completed into a full, shippable
  /// snapshot: the first TraceLen events of the current trace ride along.
  /// Only valid while \p Light is restorable here (same-path requirement):
  /// then the live trace's prefix is exactly the trace at capture time.
  void materializeTraceInto(const SystemSnapshot &Light,
                            SystemSnapshot &Out) const;

  /// Restores a captured state. The snapshot must come from a System bound
  /// to the same Module: any instance for a materialized one, the
  /// capturing instance, still on the capture path, for a light one.
  void restore(const SystemSnapshot &S);

  //===--------------------------------------------------------------------===//
  // Introspection for the explorer
  //===--------------------------------------------------------------------===//

  /// One activation record: the procedure, its control point, and the
  /// first of its cells in the process's cell array (ProcLayout::Offsets
  /// are relative to Base).
  struct Frame {
    int32_t ProcIdx = -1;
    NodeId PC = 0;
    uint32_t Base = 0;
  };

  /// Index into Module.Comms of the object process \p P's pending visible
  /// operation touches, or -1 (VS_assert, halt, or halted process).
  int currentVisibleObject(int P) const {
    const ProcessRT &Proc = Processes[static_cast<size_t>(P)];
    return Proc.Status == ProcStatus::AtVisible ? pendingOp(Proc).Obj : -1;
  }

  /// Module-wide index (see nodeBases()) of the node process \p P's
  /// innermost frame is at; the process must have a frame.
  uint32_t currentNodeIndex(int P) const {
    const Frame &F = Processes[static_cast<size_t>(P)].Frames.back();
    return NodeBase[static_cast<size_t>(F.ProcIdx)] + F.PC;
  }

  /// The frames of process \p P, outermost first, read in place — the
  /// input to the static footprint analysis. Invalidated by the next
  /// transition, reset or restore.
  std::span<const Frame> frames(int P) const {
    return Processes[static_cast<size_t>(P)].Frames;
  }

  /// Overwrites \p Out with process \p P's frames as (procedure index, node
  /// id) pairs, outermost first: a copying form of frames().
  void frameStackInto(int P, std::vector<std::pair<int, NodeId>> &Out) const;

  /// 64-bit FNV-1a fingerprint of the full global state (process control
  /// points, stores, communication objects). Used by the state-hashing
  /// ablation.
  uint64_t fingerprint() const;

  const Module &module() const { return Mod; }

private:
  enum class ProcStatus : uint8_t {
    AtVisible, ///< Parked at a visible operation (maybe not enabled).
    Halted,    ///< Ran to completion or failed; no frames left.
    /// reset() has not run this process's invisible prefix yet: between
    /// its creation and its prefix parking it, or for good when an earlier
    /// process's prefix failed. Never enabled.
    Starting,
  };

  /// One process: a private copy of the globals, then its frames' slots,
  /// all in one flat, trivially copyable cell array (ModuleLayout).
  struct ProcessRT {
    ProcStatus Status = ProcStatus::Halted;
    std::vector<Value> Cells;
    std::vector<Frame> Frames;
  };

  /// A communication object. Channel items sit in a ring over Ring: Len
  /// items starting at Head, in FIFO order. The ring grows with the
  /// contents (never to the declared capacity, which may be astronomic)
  /// and is plain contiguous storage, so copying a CommState is a memcpy.
  struct CommState {
    CommKind Kind;
    int64_t Count = 0; ///< Semaphore count.
    Value Shared;      ///< Shared-variable value.
    size_t Head = 0;
    size_t Len = 0;
    std::vector<Value> Ring;

    const Value &item(size_t I) const {
      size_t K = Head + I;
      return Ring[K < Ring.size() ? K : K - Ring.size()];
    }
    void push(Value V);
    Value pop();
  };

  /// The visible operation at one (procedure, node), from the op table.
  struct NodeOp {
    BuiltinKind Op = BuiltinKind::None; ///< None unless a visible op.
    int32_t Obj = -1; ///< Mod.Comms index of its object, or -1.
  };

  /// A resolved variable: its first cell and its array size (-1: scalar).
  struct SlotRef {
    Value *Cell = nullptr;
    int64_t ArraySize = -1;
  };

  // Evaluation. On error, sets PendingError and returns a zero value;
  // callers bail out when PendingError is set.
  Value eval(ProcessRT &P, const Expr *E);
  Value loadVar(ProcessRT &P, const Expr *E);
  /// The slot a VarRef/ArrayIndex names, or a null Cell when the name
  /// resolves to nothing.
  SlotRef resolveSlot(ProcessRT &P, const Expr *E);
  /// The slot an address points at; fails and returns a null Cell when the
  /// address names no live slot.
  SlotRef slotAt(ProcessRT &P, const Address &A);
  Value loadAddress(ProcessRT &P, const Address &A);
  void storeAddress(ProcessRT &P, const Address &A, Value V);
  bool addressOf(ProcessRT &P, const Expr *Place, Address &Out);
  void store(ProcessRT &P, const Expr *Lvalue, Value V);
  bool truthy(ProcessRT &P, const Value &V, SourceLoc Loc);

  // Control flow.
  void advanceAlways(ProcessRT &P);
  /// Whether a frame of \p Cells cells fits in \p P without taking it past
  /// MaxProcessCells; if not, fails with StackOverflow at \p Loc. Both
  /// engines check every frame push here, so Frame::Base fits 32 bits.
  bool frameFits(const ProcessRT &P, size_t Cells, SourceLoc Loc);
  /// Pushes a zeroed frame of procedure \p ProcIdx at its entry; the
  /// caller stores the arguments into cells [Base, Base + NArgs). Returns
  /// null, with the error pending, when the frame does not fit.
  Frame *pushFrame(ProcessRT &P, int ProcIdx, SourceLoc Loc);
  void popFrame(ProcessRT &P) {
    P.Cells.resize(P.Frames.back().Base);
    P.Frames.pop_back();
  }
  void haltProcess(ProcessRT &P) {
    P.Status = ProcStatus::Halted;
    P.Frames.clear();
    P.Cells.resize(Layout.GlobalCells);
  }
  ExecResult runInvisible(int PIdx, ChoiceProvider &Provider);
  void execVisible(int PIdx, ChoiceProvider &Provider, ExecResult &Result);

  void fail(RunErrorKind Kind, SourceLoc Loc, const std::string &Message);

  const CfgNode &currentNode(const ProcessRT &P) const {
    const Frame &F = P.Frames.back();
    return Mod.Procs[static_cast<size_t>(F.ProcIdx)].Nodes[F.PC];
  }
  /// The op-table entry of \p P's innermost control point.
  const NodeOp &pendingOp(const ProcessRT &P) const {
    const Frame &F = P.Frames.back();
    return NodeOps[NodeBase[static_cast<size_t>(F.ProcIdx)] + F.PC];
  }

  // Steady-state interpretation must not hash strings: variable references
  // are resolved once, at construction, into a pointer-keyed cache (an
  // Expr always executes with its owning procedure's frame on top, so the
  // resolution is unambiguous), and every node's visible operation and
  // object into the flat op table.
  void buildResolutionCaches();
  void cacheExprTree(int ProcIdx, const Expr *E);

  const Module &Mod;
  SystemOptions Options;
  ModuleLayout Layout;
  /// Global cells of a freshly reset process (initializers applied).
  std::vector<Value> InitialGlobals;
  /// VarRef/ArrayIndex expression -> slot code: >= 0 is a frame slot index
  /// of the owning procedure's layout; < 0 encodes global slot ~code.
  std::unordered_map<const Expr *, int32_t> VarSlotCache;
  std::vector<uint32_t> NodeBase; ///< nodeBases(Mod).
  std::vector<NodeOp> NodeOps;    ///< Per module-wide node index.
  std::vector<ProcessRT> Processes;
  std::vector<CommState> Comms; ///< Parallel to Mod.Comms.
  Trace EventTrace;
  size_t NumTransitions = 0;
  RunError PendingError;
  int CurrentProcess = -1; ///< During execution, for error attribution.
  ExecEngine *Engine = nullptr; ///< Not owned; null = interpreter.
  /// Argument values of a call being set up (interpreter scratch).
  std::vector<Value> ArgBuf;

  friend class SystemSnapshot;
  // The bytecode VM executes compiled transitions against this state
  // directly (same stores, same error protocol) instead of duplicating it.
  friend class vm::Vm;
  // The oracle re-runs transitions on both engines from a snapshot; it must
  // preserve PendingError across the restore between the two legs.
  friend class vm::DifferentialEngine;
};

/// A value-type copy of a System's full dynamic state, captured by
/// System::snapshotLightInto() and consumed by System::restore(). The state
/// is flat (per process one cell array and one frame array, per channel one
/// ring, all trivially copyable), so capturing into or restoring from a
/// reused snapshot is a memcpy per array; the explorer keeps a small stack
/// of these along its DFS path so backtracking can restore a prefix instead
/// of re-executing it.
///
/// Two flavors differ only in how the event trace is captured:
///  * a light snapshot stores just the trace length. Restoring one
///    truncates the live trace to that length, which is only correct when
///    the System is on the same DFS path the snapshot was taken on (the
///    trace is append-only along a path, so the prefix is still intact).
///    This keeps per-checkpoint cost O(state) instead of O(depth) — on
///    deep paths the trace dwarfs the rest of the state;
///  * materializeTraceInto() adds a full copy of the trace, which makes
///    the snapshot restorable into any System built from the same Module
///    (work items ship these across workers).
class SystemSnapshot {
public:
  SystemSnapshot() = default;

  /// Transition count at capture time (the search depth restore() rewinds
  /// to) — what a checkpointed search saves per restore.
  size_t depth() const { return NumTransitions; }

private:
  friend class System;
  std::vector<System::ProcessRT> Processes;
  std::vector<System::CommState> Comms;
  Trace EventTrace;
  size_t TraceLen = 0;
  bool HasTrace = true;
  size_t NumTransitions = 0;
};

} // namespace closer

#endif // CLOSER_RUNTIME_SYSTEM_H
