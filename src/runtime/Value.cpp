//===- Value.cpp - Runtime values and addresses -----------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "runtime/Value.h"

#include "lang/Lexer.h"

using namespace closer;

std::string Value::str() const {
  switch (K) {
  case Kind::Int: {
    const AtomTable &Atoms = AtomTable::global();
    if (!Atoms.isAtom(Int))
      return std::to_string(Int);
    std::string Out = "'";
    Out += Atoms.spelling(Int);
    Out += '\'';
    return Out;
  }
  case Kind::Unknown:
    return "unknown";
  case Kind::Pointer: {
    std::string Out = "&[";
    Out += Addr.Sp == Address::Space::Global ? "global" : "frame ";
    if (Addr.Sp == Address::Space::Frame)
      Out += std::to_string(Addr.FrameIndex);
    Out += " slot " + std::to_string(Addr.SlotIndex);
    if (Addr.ElemIndex >= 0) {
      Out += '[';
      Out += std::to_string(Addr.ElemIndex);
      Out += ']';
    }
    return Out + "]";
  }
  }
  return "<bad-value>";
}
