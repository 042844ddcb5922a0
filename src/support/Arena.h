//===- Arena.h - Object recycling for the search hot path ------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Object recycling for the search hot path. A saturated exploration
/// expands millions of states per second; every one of them used to pay
/// for fresh heap vectors (candidate lists, sleep sets, snapshots). The
/// two pools here make those allocations a warmup-only cost:
///
///  * ObjectPool<T> — a freelist of whole objects (System snapshots): a
///    recycled object keeps its internal buffers, so copy-assigning new
///    content into it reuses capacity element-wise instead of allocating.
///  * VectorPool<T> — the same idea specialized to std::vector<T>
///    (Decision candidate/sleep vectors, checkpoint sleep sets).
///
/// Both count their misses (fresh allocations). The bench gate asserts
/// that on a steady-state search the miss counters are bounded by the
/// DFS-stack high-water mark — O(depth), not O(states) — i.e. the
/// per-expanded-state global allocation count rounds to zero.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_ARENA_H
#define CLOSER_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace closer {
namespace support {

/// Freelist of whole objects. acquire() pops a recycled object (its
/// internal buffers intact) or default-constructs a fresh one; release()
/// returns an object to the list. The point is capacity recycling:
/// copy-assigning new content into a recycled object (e.g. a
/// SystemSnapshot's process/comm vectors) reuses its element storage
/// instead of allocating, so a pool hit costs zero heap traffic.
template <typename T> class ObjectPool {
public:
  T acquire() {
    if (Free.empty()) {
      ++FreshCount;
      return T();
    }
    T Out = std::move(Free.back());
    Free.pop_back();
    return Out;
  }

  void release(T Obj) { Free.push_back(std::move(Obj)); }

  /// Objects default-constructed because the freelist was empty — the
  /// pool-miss count the steady-state-allocation gate is built on.
  uint64_t fresh() const { return FreshCount; }
  size_t idle() const { return Free.size(); }

private:
  std::vector<T> Free;
  uint64_t FreshCount = 0;
};

/// ObjectPool specialized to vectors: acquire() additionally clears the
/// recycled vector (keeping its capacity), which is what every user wants.
template <typename T> class VectorPool {
public:
  std::vector<T> acquire() {
    if (Free.empty()) {
      ++FreshCount;
      return {};
    }
    std::vector<T> Out = std::move(Free.back());
    Free.pop_back();
    Out.clear();
    return Out;
  }

  void release(std::vector<T> V) { Free.push_back(std::move(V)); }

  uint64_t fresh() const { return FreshCount; }
  size_t idle() const { return Free.size(); }

private:
  std::vector<std::vector<T>> Free;
  uint64_t FreshCount = 0;
};

} // namespace support
} // namespace closer

#endif // CLOSER_SUPPORT_ARENA_H
