//===- Trace.cpp - Visible-operation traces ---------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "runtime/Trace.h"

using namespace closer;

std::string VisibleEvent::str() const {
  std::string Out = "P";
  Out += std::to_string(ProcessIndex);
  Out += ':';
  Out += builtinInfo(Op).Name;
  if (!Object.empty())
    Out += "(" + Object + ")";
  if (HasPayload) {
    Out += '=';
    Out += Payload.str();
  }
  return Out;
}

bool closer::eventSubsumes(const VisibleEvent &General,
                           const VisibleEvent &Concrete) {
  if (General.ProcessIndex != Concrete.ProcessIndex ||
      General.Op != Concrete.Op || General.Object != Concrete.Object ||
      General.HasPayload != Concrete.HasPayload)
    return false;
  if (!General.HasPayload)
    return true;
  if (General.Payload.isUnknown())
    return true;
  return General.Payload == Concrete.Payload;
}

bool closer::traceSubsumes(const Trace &General, const Trace &Concrete) {
  if (General.size() != Concrete.size())
    return false;
  for (size_t I = 0, E = General.size(); I != E; ++I)
    if (!eventSubsumes(General[I], Concrete[I]))
      return false;
  return true;
}

std::string closer::traceToString(const Trace &T) {
  std::string Out;
  for (const VisibleEvent &E : T) {
    Out += E.str();
    Out += '\n';
  }
  return Out;
}
