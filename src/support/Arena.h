//===- Arena.h - Bump allocation and object recycling ----------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation primitives for the search hot path. A saturated exploration
/// expands millions of states per second; every one of them used to pay
/// for fresh heap vectors (candidate lists, sleep sets, snapshots,
/// footprint bitsets). The three tools here make those allocations a
/// warmup-only cost:
///
///  * Arena — a monotonic bump allocator (a std::pmr::memory_resource, so
///    pmr containers can sit directly on it) with counters for the bytes
///    and blocks it requested from the global heap. Per worker, never
///    shared across threads.
///  * ObjectPool<T> — a freelist of whole objects (System snapshots): a
///    recycled object keeps its internal buffers, so copy-assigning new
///    content into it reuses capacity element-wise instead of allocating.
///  * VectorPool<T> — the same idea specialized to std::vector<T>
///    (Decision candidate/sleep vectors, checkpoint sleep sets).
///
/// All three count their misses (fresh upstream allocations). The bench
/// gate asserts that on a steady-state search the miss counters are
/// bounded by the DFS-stack high-water mark — O(depth), not O(states) —
/// i.e. the per-expanded-state global allocation count rounds to zero.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_SUPPORT_ARENA_H
#define CLOSER_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

namespace closer {
namespace support {

/// Monotonic bump-pointer allocator. do_deallocate is a no-op: memory is
/// reclaimed only by destroying (or reset()ing) the arena, which is the
/// right lifetime for per-worker scratch whose high-water size is bounded
/// by the module (footprint bitsets) or the search depth. Single-threaded
/// by design — each worker owns its own arena.
class Arena : public std::pmr::memory_resource {
public:
  explicit Arena(size_t FirstBlockBytes = 4096)
      : NextBlockBytes(FirstBlockBytes ? FirstBlockBytes : 4096) {}

  /// Total bytes requested from the global heap over the arena's lifetime.
  /// Grows only while the working set grows: a steady-state search stops
  /// moving this counter entirely.
  uint64_t bytesFromUpstream() const { return UpstreamBytes; }
  /// Number of blocks fetched from the global heap.
  uint64_t blocksFromUpstream() const { return Blocks.size(); }

  /// Rewinds every block to empty without releasing it; subsequent
  /// allocations reuse the existing storage. Callers must ensure no live
  /// object still points into the arena.
  void reset() {
    for (Block &B : Blocks)
      B.Used = 0;
    Current = 0;
  }

private:
  struct Block {
    std::unique_ptr<char[]> Mem;
    size_t Size = 0;
    size_t Used = 0;
  };

  void *do_allocate(size_t Bytes, size_t Align) override {
    // Try the current block first, then any later (reset) block.
    for (; Current < Blocks.size(); ++Current) {
      Block &B = Blocks[Current];
      size_t Base = reinterpret_cast<size_t>(B.Mem.get()) + B.Used;
      size_t Pad = (Align - Base % Align) % Align;
      if (B.Used + Pad + Bytes <= B.Size) {
        void *P = B.Mem.get() + B.Used + Pad;
        B.Used += Pad + Bytes;
        return P;
      }
    }
    // Geometric growth, and never smaller than the request (plus worst-case
    // alignment padding).
    size_t Want = Bytes + Align;
    while (NextBlockBytes < Want)
      NextBlockBytes *= 2;
    Block B;
    B.Size = NextBlockBytes;
    B.Mem = std::make_unique<char[]>(B.Size);
    UpstreamBytes += B.Size;
    NextBlockBytes *= 2;
    Blocks.push_back(std::move(B));
    Current = Blocks.size() - 1;
    return do_allocate(Bytes, Align);
  }

  void do_deallocate(void *, size_t, size_t) override {
    // Monotonic: individual frees are no-ops.
  }

  bool do_is_equal(const std::pmr::memory_resource &O) const noexcept override {
    return this == &O;
  }

  std::vector<Block> Blocks;
  size_t Current = 0;
  size_t NextBlockBytes;
  uint64_t UpstreamBytes = 0;
};

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
