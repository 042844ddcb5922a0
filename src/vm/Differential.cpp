//===- Differential.cpp - Interpreter-vs-VM differential oracle --------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "vm/Differential.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace closer;
using namespace closer::vm;

namespace {

struct RecordedChoice {
  ChoiceProvider::ChoiceKind Kind;
  int64_t Bound;
  int64_t Value;
};

/// Wraps the real provider, logging every choice for replay into the VM leg.
class RecordingProvider : public ChoiceProvider {
public:
  RecordingProvider(ChoiceProvider &Inner, std::vector<RecordedChoice> &Log)
      : Inner(Inner), Log(Log) {}

  int64_t choose(ChoiceKind Kind, int64_t Bound) override {
    int64_t V = Inner.choose(Kind, Bound);
    Log.push_back({Kind, Bound, V});
    return V;
  }

private:
  ChoiceProvider &Inner;
  std::vector<RecordedChoice> &Log;
};

/// Replays a recorded choice sequence, verifying the consumer asks for the
/// same choices (kind and bound) in the same order. Never touches the real
/// provider: the explorer must observe exactly one choice sequence per
/// transition regardless of engine count.
class ReplayProvider : public ChoiceProvider {
public:
  explicit ReplayProvider(const std::vector<RecordedChoice> &Log) : Log(Log) {}

  int64_t choose(ChoiceKind Kind, int64_t Bound) override {
    if (Next >= Log.size()) {
      Mismatch = "VM requested more choices than the interpreter";
      return 0;
    }
    const RecordedChoice &C = Log[Next++];
    if (C.Kind != Kind || C.Bound != Bound)
      Mismatch = "VM choice request differs from the interpreter's "
                 "(kind or bound)";
    return C.Value;
  }

  bool fullyConsumed() const { return Next == Log.size(); }
  const char *mismatch() const { return Mismatch; }

private:
  const std::vector<RecordedChoice> &Log;
  size_t Next = 0;
  const char *Mismatch = nullptr;
};

bool sameError(const RunError &A, const RunError &B) {
  return A.Kind == B.Kind && A.Process == B.Process && A.Loc == B.Loc &&
         A.Message == B.Message;
}

bool sameViolations(const std::vector<AssertionViolation> &A,
                    const std::vector<AssertionViolation> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (A[I].Process != B[I].Process || A[I].Loc != B[I].Loc)
      return false;
  return true;
}

[[noreturn]] void die(int PIdx, bool IsPrefix, const char *What) {
  std::fprintf(stderr,
               "closer: differential oracle: interpreter and VM disagree on "
               "%s of process %d: %s\n",
               IsPrefix ? "the initial prefix" : "a transition", PIdx, What);
  std::abort();
}

} // namespace

ExecResult DifferentialEngine::executeTransition(System &S, int PIdx,
                                                 ChoiceProvider &Provider) {
  return runBoth(S, PIdx, Provider, /*IsPrefix=*/false);
}

ExecResult DifferentialEngine::runPrefix(System &S, int PIdx,
                                         ChoiceProvider &Provider) {
  return runBoth(S, PIdx, Provider, /*IsPrefix=*/true);
}

ExecResult DifferentialEngine::runBoth(System &S, int PIdx,
                                       ChoiceProvider &Provider,
                                       bool IsPrefix) {
  // restore() clears any in-flight error (snapshots normally sit at clean
  // transition boundaries), but reset() can legitimately hand runPrefix a
  // pending argument-binding error — both legs must see it.
  RunError SavedPending = S.PendingError;
  // Both legs run on this System from this state, so a light snapshot
  // suffices: restore() rewinds the trace by truncation. Only the events a
  // leg appends are compared; the prefix before them is shared.
  S.snapshotLightInto(Pre);
  const size_t PreEvents = S.trace().size();

  std::vector<RecordedChoice> Log;
  RecordingProvider Rec(Provider, Log);
  ExecResult InterpResult = IsPrefix ? S.interpPrefix(PIdx, Rec)
                                     : S.interpTransition(PIdx, Rec);

  uint64_t InterpFp = S.fingerprint();
  size_t InterpDepth = S.depth();
  InterpEvents.assign(S.trace().begin() + static_cast<ptrdiff_t>(PreEvents),
                      S.trace().end());
  std::vector<int> InterpEnabled = S.enabledProcesses();
  GlobalStateKind InterpClass = S.classify();

  S.restore(Pre);
  S.PendingError = SavedPending;

  ReplayProvider Rep(Log);
  ExecResult VmResult = IsPrefix ? TheVm.runPrefix(S, PIdx, Rep)
                                 : TheVm.executeTransition(S, PIdx, Rep);

  if (Rep.mismatch())
    die(PIdx, IsPrefix, Rep.mismatch());
  if (!Rep.fullyConsumed())
    die(PIdx, IsPrefix, "VM requested fewer choices than the interpreter");
  if (!sameError(InterpResult.Error, VmResult.Error))
    die(PIdx, IsPrefix, "execution error (kind, process, location or message)");
  if (!sameViolations(InterpResult.Violations, VmResult.Violations))
    die(PIdx, IsPrefix, "assertion violations");
  if (S.depth() != InterpDepth)
    die(PIdx, IsPrefix, "transition count");
  if (S.trace().size() != PreEvents + InterpEvents.size() ||
      !std::equal(InterpEvents.begin(), InterpEvents.end(),
                  S.trace().begin() + static_cast<ptrdiff_t>(PreEvents)))
    die(PIdx, IsPrefix, "visible event trace");
  if (S.enabledProcesses() != InterpEnabled)
    die(PIdx, IsPrefix, "enabled process set");
  if (S.classify() != InterpClass)
    die(PIdx, IsPrefix, "global state classification");
  uint64_t VmFp = S.fingerprint();
  if (VmFp != InterpFp) {
    std::fprintf(stderr,
                 "closer: differential oracle: state fingerprints diverge "
                 "(interp %" PRIu64 ", vm %" PRIu64 ")\n",
                 InterpFp, VmFp);
    die(PIdx, IsPrefix, "state fingerprint");
  }
  return VmResult;
}
