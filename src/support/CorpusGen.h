//===- CorpusGen.h - Synthetic multi-procedure corpus generator -*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic generator of open multi-procedure MiniC programs: P
/// procedures of S statements each, mixing environment inputs, tainted and
/// untainted arithmetic, global writes, channel sends and cross-procedure
/// calls. Shared by `closer gen-corpus`, the scaling benchmark and the
/// batch-closing tests.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_CORPUSGEN_H
#define CLOSER_SUPPORT_CORPUSGEN_H

#include <cstdint>
#include <string>

namespace closer {

struct CorpusConfig {
  int Procs = 8;         ///< Number of procedures p0..p{N-1}.
  int StmtsPerProc = 32; ///< Generated statements per procedure body.
  uint64_t Seed = 11;    ///< PRNG seed; same config -> same bytes.
};

/// Emits the corpus as MiniC source.
std::string generateCorpusSource(const CorpusConfig &Config);

} // namespace closer

#endif // CLOSER_SUPPORT_CORPUSGEN_H
