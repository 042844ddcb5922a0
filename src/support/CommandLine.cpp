//===- CommandLine.cpp - Flag-spec-aware argument parsing -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace closer;

void Args::fail(const std::string &Message) const {
  if (Error.empty())
    Error = Message;
}

bool Args::has(const std::string &Flag) const {
  for (const auto &[Name, _] : Flags)
    if (Name == Flag)
      return true;
  return false;
}

const std::string *Args::value(const std::string &Flag) const {
  for (const auto &[Name, Val] : Flags)
    if (Name == Flag)
      return &Val;
  return nullptr;
}

bool closer::parseLong(const std::string &Text, long &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long V = std::strtol(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool closer::parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (End == Text.c_str() || *End != '\0' || errno == ERANGE ||
      !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

long Args::intOf(const std::string &Flag, long Default) const {
  const std::string *V = value(Flag);
  if (!V)
    return Default;
  long Out;
  if (!parseLong(*V, Out)) {
    fail("invalid value '" + *V + "' for " + Flag +
         " (expected an integer)");
    return Default;
  }
  return Out;
}

long Args::countOf(const std::string &Flag, long Default) const {
  long Out = intOf(Flag, Default);
  const std::string *V = value(Flag);
  if (Out >= 0 || !V)
    return Out;
  fail("invalid value '" + *V + "' for " + Flag +
       " (expected a non-negative integer)");
  return Default;
}

double Args::secondsOf(const std::string &Flag, double Default) const {
  const std::string *V = value(Flag);
  if (!V)
    return Default;
  double Out;
  if (!parseDouble(*V, Out) || Out < 0) {
    fail("invalid value '" + *V + "' for " + Flag +
         " (expected a non-negative number)");
    return Default;
  }
  return Out;
}

std::string Args::strOf(const std::string &Flag,
                        const std::string &Default) const {
  const std::string *V = value(Flag);
  return V ? *V : Default;
}

Args closer::parseArgs(int Argc, const char *const *Argv, int From,
                       const FlagSpec &Spec) {
  Args A;
  for (int I = From; I < Argc; ++I) {
    std::string S = Argv[I];
    if (S.size() < 2 || S[0] != '-') {
      A.Positional.push_back(std::move(S));
      continue;
    }
    std::string Name = S;
    std::string Inline;
    bool HasInline = false;
    if (size_t Eq = S.find('='); Eq != std::string::npos) {
      Name = S.substr(0, Eq);
      Inline = S.substr(Eq + 1);
      HasInline = true;
    }
    auto It = Spec.find(Name);
    if (It == Spec.end()) {
      A.fail("unknown option '" + Name + "'");
      return A;
    }
    switch (It->second) {
    case FlagArity::Bool:
      if (HasInline) {
        A.fail("option '" + Name + "' takes no value");
        return A;
      }
      A.Flags.emplace_back(std::move(Name), "");
      break;
    case FlagArity::Value:
      if (HasInline) {
        A.Flags.emplace_back(std::move(Name), std::move(Inline));
      } else if (I + 1 < Argc) {
        A.Flags.emplace_back(std::move(Name), Argv[++I]);
      } else {
        A.fail("option '" + Name + "' requires a value");
        return A;
      }
      break;
    case FlagArity::OptionalValue:
      A.Flags.emplace_back(std::move(Name),
                           HasInline ? std::move(Inline) : std::string());
      break;
    }
  }
  return A;
}
