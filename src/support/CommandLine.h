//===- CommandLine.h - Flag-spec-aware argument parsing --------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line parsing for the `closer` driver, factored out of the tool
/// so it can be unit-tested. The parser is told which flags are boolean and
/// which take a value — without that distinction, any positional argument
/// following a boolean flag would be swallowed as the flag's value (the bug
/// that made `closer explore --stop-on-error prog.mc` die with the usage
/// text). Numeric accessors validate strictly: `--depth foo` and
/// `--max-runs 1e6` are diagnosed instead of silently becoming 0 and 1.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_COMMANDLINE_H
#define CLOSER_SUPPORT_COMMANDLINE_H

#include <map>
#include <string>
#include <vector>

namespace closer {

/// How many operands a flag consumes.
enum class FlagArity {
  Bool,          ///< Standalone flag; `--flag=V` is rejected.
  Value,         ///< `--flag V` or `--flag=V`; missing V is rejected.
  OptionalValue, ///< Standalone or `--flag=V` (never consumes the next arg).
};

/// Flag name (including leading dashes) -> arity.
using FlagSpec = std::map<std::string, FlagArity>;

/// Parsed command line. `Error` is empty when parsing and every accessor
/// call so far succeeded; accessors record the *first* failure and return
/// their default, so drivers can build a whole option struct and check
/// once.
struct Args {
  std::vector<std::string> Positional;
  /// (flag, raw value) in appearance order; "" for flags without a value.
  std::vector<std::pair<std::string, std::string>> Flags;
  mutable std::string Error;

  bool has(const std::string &Flag) const;

  /// Raw value of the first occurrence of \p Flag, or nullptr.
  const std::string *value(const std::string &Flag) const;

  /// Strict base-10 integer value of \p Flag: rejects empty, non-numeric
  /// and trailing-garbage values ("foo", "1e6", "12x") as well as
  /// overflow, recording a diagnostic in Error.
  long intOf(const std::string &Flag, long Default) const;

  /// intOf() for counts, sizes and budgets: a negative value is also
  /// diagnosed, so it can never wrap through an unsigned conversion.
  long countOf(const std::string &Flag, long Default) const;

  /// Strict finite, non-negative decimal value of \p Flag (e.g. seconds).
  double secondsOf(const std::string &Flag, double Default) const;

  std::string strOf(const std::string &Flag,
                    const std::string &Default) const;

  /// Records \p Message as the first diagnostic (later failures keep it).
  void fail(const std::string &Message) const;
};

/// Parses Argv[From..Argc) against \p Spec. Unknown flags, boolean flags
/// given a `=value`, and value flags missing their value all produce a
/// non-empty Args::Error.
Args parseArgs(int Argc, const char *const *Argv, int From,
               const FlagSpec &Spec);

/// Strict helpers used by the accessors; return false on any malformation.
bool parseLong(const std::string &Text, long &Out);
bool parseDouble(const std::string &Text, double &Out);

} // namespace closer

#endif // CLOSER_SUPPORT_COMMANDLINE_H
