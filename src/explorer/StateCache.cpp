//===- StateCache.cpp - Concurrent bounded fingerprint table ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/StateCache.h"

#include <algorithm>

using namespace closer;

StateCache::StateCache(unsigned Bits) {
  Bits = std::min(std::max(Bits, MinBits), MaxBits);
  SlotCount = uint64_t{1} << Bits;

  // Shard so that (a) concurrent inserts usually land in different shards
  // and (b) a shard still holds enough slots that linear probing behaves.
  // 64 shards saturate any realistic worker count; tiny tables degenerate
  // to a single shard.
  unsigned ShardBits = Bits >= 10 ? 6 : (Bits > MinBits ? Bits - MinBits : 0);
  Shards = 1u << ShardBits;
  ShardSlots = SlotCount >> ShardBits;
  ShardMask = ShardSlots - 1;
  // A generous window: long enough that saturation only triggers when the
  // shard really is nearly full, short enough to bound the cost of probing
  // a full shard.
  ProbeLimit = std::min<uint64_t>(ShardSlots, 64);

  Slots = std::make_unique<std::atomic<uint64_t>[]>(SlotCount);
  for (uint64_t I = 0; I != SlotCount; ++I)
    Slots[I].store(0, std::memory_order_relaxed);
}

StateCache::Insert StateCache::insert(uint64_t Fp) {
  const uint64_t K = key(Fp);
  // High bits pick the shard, low bits the slot within it: fingerprints
  // are FNV-mixed already, so both selections are well distributed and
  // independent of each other.
  const uint64_t Shard = (K >> (64 - 6)) & (Shards - 1);
  std::atomic<uint64_t> *Base = Slots.get() + Shard * ShardSlots;

  for (uint64_t I = 0; I != ProbeLimit; ++I) {
    std::atomic<uint64_t> &Slot = Base[(K + I) & ShardMask];
    uint64_t V = Slot.load(std::memory_order_relaxed);
    if (V == K)
      return Insert::Present;
    if (V == 0) {
      uint64_t Expected = 0;
      if (Slot.compare_exchange_strong(Expected, K,
                                       std::memory_order_relaxed))
        return Insert::Inserted;
      if (Expected == K)
        return Insert::Present; // Lost the race to an equal fingerprint.
      // A different fingerprint claimed the slot first; keep probing.
    }
  }
  // Probe window exhausted: the shard is (locally) full. The caller treats
  // the state as unseen and keeps searching — over-approximation is sound.
  return Insert::Saturated;
}

bool StateCache::contains(uint64_t Fp) const {
  const uint64_t K = key(Fp);
  const uint64_t Shard = (K >> (64 - 6)) & (Shards - 1);
  const std::atomic<uint64_t> *Base = Slots.get() + Shard * ShardSlots;
  for (uint64_t I = 0; I != ProbeLimit; ++I) {
    uint64_t V = Base[(K + I) & ShardMask].load(std::memory_order_relaxed);
    if (V == K)
      return true;
    if (V == 0)
      return false;
  }
  return false;
}

uint64_t StateCache::entries() const {
  uint64_t Total = 0;
  for (uint64_t I = 0; I != SlotCount; ++I)
    Total += Slots[I].load(std::memory_order_relaxed) != 0;
  return Total;
}
