//===- Footprints.h - Static communication-object footprints ---*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For every control point (procedure, node) of a module, the set of
/// communication objects any execution continuing from that point may ever
/// operate on. This is the static input the partial-order reduction uses to
/// build persistent sets ([God96]): two processes whose remaining
/// footprints are disjoint can never interact again, so their transitions
/// commute.
///
/// Computed as a backward fixpoint over the interprocedural control flow:
/// footprint(n) = ownObject(n) ∪ ⋃_succ footprint(succ) ∪ footprint(callee
/// entry) for call nodes. Call nodes conservatively include their
/// continuation (the callee returns into it).
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_FOOTPRINTS_H
#define CLOSER_EXPLORER_FOOTPRINTS_H

#include "cfg/Cfg.h"
#include "runtime/System.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace closer {

/// A set of communication-object indices, packed as bits. All operations
/// size-normalize: sets sized for different object counts (in particular a
/// default-constructed, zero-word set) combine as if the shorter one were
/// padded with zeros, instead of reading or writing out of bounds.
class ObjSet {
public:
  ObjSet() = default;
  explicit ObjSet(size_t NumObjects) : Words((NumObjects + 63) / 64, 0) {}

  void set(size_t Index) {
    size_t W = Index / 64;
    if (W >= Words.size())
      Words.resize(W + 1, 0);
    Words[W] |= 1ull << (Index % 64);
  }
  bool test(size_t Index) const {
    size_t W = Index / 64;
    return W < Words.size() && ((Words[W] >> (Index % 64)) & 1);
  }

  /// Union-in; returns true when this set grew.
  bool unionWith(const ObjSet &Other) {
    return unionWords(Other.Words.data(), Other.Words.size());
  }

  /// Union-in of a raw word row (\p N words); returns true when this set
  /// grew.
  bool unionWords(const uint64_t *Other, size_t N) {
    if (Words.size() < N)
      Words.resize(N, 0);
    bool Grew = false;
    for (size_t I = 0; I != N; ++I) {
      uint64_t Before = Words[I];
      Words[I] |= Other[I];
      Grew |= Words[I] != Before;
    }
    return Grew;
  }

  bool intersects(const ObjSet &Other) const {
    size_t E = std::min(Words.size(), Other.Words.size());
    for (size_t I = 0; I != E; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  /// Clears all bits, keeping the word storage.
  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Content equality: trailing zero words are not distinguishing, so sets
  /// sized for different object counts can still compare equal.
  friend bool operator==(const ObjSet &A, const ObjSet &B) {
    size_t E = std::min(A.Words.size(), B.Words.size());
    for (size_t I = 0; I != E; ++I)
      if (A.Words[I] != B.Words[I])
        return false;
    const std::vector<uint64_t> &Longer =
        A.Words.size() >= B.Words.size() ? A.Words : B.Words;
    for (size_t I = E; I != Longer.size(); ++I)
      if (Longer[I])
        return false;
    return true;
  }

private:
  std::vector<uint64_t> Words;
};

/// The footprint of every control point, in one flat word table: row
/// nodeBases(Mod)[P] + N holds the wordsPerSet() words of (P, N), so the
/// explorer's per-state query is a few indexed word loads per frame.
class FootprintAnalysis {
public:
  explicit FootprintAnalysis(const Module &Mod);

  size_t objectCount() const { return NumObjects; }
  /// Words in one footprint row: objectCount() bits, rounded up.
  size_t wordsPerSet() const { return RowWords; }

  /// The footprint row of (\p ProcIdx, \p Node): objects possibly operated
  /// on from there onward within the same frame and below.
  const uint64_t *row(int ProcIdx, NodeId Node) const {
    return Table.data() +
           (NodeBase[static_cast<size_t>(ProcIdx)] + Node) * RowWords;
  }

  /// The same footprint as an ObjSet (a copy of the row).
  ObjSet objectsFrom(int ProcIdx, NodeId Node) const;

  /// Footprint of a whole process given its frames (outermost first): the
  /// union over frames, since outer frames resume after inner ones return.
  /// Overwrites \p Out[0, wordsPerSet()); the explorer's hot-path form.
  void processFootprintInto(std::span<const System::Frame> Frames,
                            uint64_t *Out) const {
    std::fill(Out, Out + RowWords, 0);
    for (const System::Frame &F : Frames) {
      const uint64_t *R = row(F.ProcIdx, F.PC);
      for (size_t W = 0; W != RowWords; ++W)
        Out[W] |= R[W];
    }
  }

  /// ObjSet forms over a frame stack as (procedure index, node id) pairs.
  ObjSet processFootprint(
      const std::vector<std::pair<int, NodeId>> &Frames) const;

  /// Capacity-reusing form: clears \p Out and unions the frame footprints
  /// into it.
  void processFootprintInto(const std::vector<std::pair<int, NodeId>> &Frames,
                            ObjSet &Out) const;

private:
  size_t NumObjects;
  size_t RowWords;
  std::vector<uint32_t> NodeBase; ///< nodeBases(Mod).
  std::vector<uint64_t> Table;
};

} // namespace closer

#endif // CLOSER_EXPLORER_FOOTPRINTS_H
