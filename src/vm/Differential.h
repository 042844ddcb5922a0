//===- Differential.h - Interpreter-vs-VM differential oracle --*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ExecEngine that runs every transition on BOTH engines and cross-checks
/// them (--exec=both). Protocol per transition (and per reset prefix):
///
///   1. snapshot the System (light: the trace is rewound by truncation);
///   2. run the tree-walking interpreter, recording every choice the
///      provider hands out;
///   3. capture the observables: state fingerprint, depth, event trace,
///      enabled set, global-state classification, and the ExecResult
///      (error kind/message/location, assertion violations);
///   4. restore the snapshot and replay the recorded choice sequence into
///      the bytecode VM (the replay also verifies the VM asks for exactly
///      the same choices, in the same order, with the same bounds);
///   5. compare every observable (of the trace, the events each leg
///      appended). Any divergence is a lowering or VM bug: report it on
///      stderr and abort.
///
/// The VM leg runs second so the System is left in the VM-produced state —
/// the oracle catches any drift on the very next transition even if a
/// mismatch somehow escaped the direct comparison.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_VM_DIFFERENTIAL_H
#define CLOSER_VM_DIFFERENTIAL_H

#include "vm/Vm.h"

#include <memory>

namespace closer {
namespace vm {

class DifferentialEngine : public ExecEngine {
public:
  explicit DifferentialEngine(std::shared_ptr<const CompiledModule> Code)
      : TheVm(std::move(Code)) {}

  ExecResult executeTransition(System &S, int P,
                               ChoiceProvider &Provider) override;
  ExecResult runPrefix(System &S, int P, ChoiceProvider &Provider) override;

private:
  ExecResult runBoth(System &S, int P, ChoiceProvider &Provider,
                     bool IsPrefix);

  Vm TheVm;
  /// Per-transition scratch: the state before the interpreter leg and the
  /// events that leg appended.
  SystemSnapshot Pre;
  Trace InterpEvents;
};

} // namespace vm
} // namespace closer

#endif // CLOSER_VM_DIFFERENTIAL_H
