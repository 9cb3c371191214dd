#include "util/concurrent_fp_set.hpp"

#include "util/assert.hpp"

namespace scv {

namespace {

constexpr std::size_t kMinShardCapacity = 64;

#if !defined(NDEBUG)
/// Scoped writers-in-flight mark for the debug quiescence check.
struct WriterGuard {
  explicit WriterGuard(std::atomic<std::uint32_t>& w) : w_(w) {
    w_.fetch_add(1, std::memory_order_acquire);
  }
  ~WriterGuard() { w_.fetch_sub(1, std::memory_order_release); }
  WriterGuard(const WriterGuard&) = delete;
  WriterGuard& operator=(const WriterGuard&) = delete;

 private:
  std::atomic<std::uint32_t>& w_;
};
#endif

}  // namespace

ConcurrentFingerprintSet::ConcurrentFingerprintSet(std::size_t expected) {
  // Size each shard so its 1/16 share of `expected` stays under the 5/8
  // proactive-growth watermark, leaving headroom to the hard 7/8 bound.
  const std::size_t per_shard = (expected + kShards - 1) / kShards;
  for (Shard& sh : shards_) {
    std::size_t cap = kMinShardCapacity;
    while (cap * 5 < per_shard * 8) cap <<= 1;
    sh.slots = std::make_unique<Slot[]>(cap);
    sh.mask = cap - 1;
    sh.limit = cap - cap / 8;
  }
}

auto ConcurrentFingerprintSet::insert(Fingerprint fp) noexcept -> Insert {
  SCV_EXPECTS(!fp.is_zero());
  fp = normalize(fp);
  Shard& sh = shards_[shard_of(fp)];
#if !defined(NDEBUG)
  WriterGuard guard(sh.writers);
#endif
  // Probe read-only until the fingerprint or an empty slot turns up: a
  // duplicate writes nothing shared.  Occupancy is reserved only before
  // claiming an empty slot, and a claim keeps its reservation, so at most
  // `limit` slots are ever occupied and every probe reaches an empty slot.
  bool reserved = false;
  std::size_t i = fp.hi & sh.mask;
  for (;;) {
    Slot& s = sh.slots[i];
    std::uint64_t h = s.hi.load(std::memory_order_acquire);
    if (h == 0) {
      if (!reserved) {
        if (sh.size.fetch_add(1, std::memory_order_relaxed) >= sh.limit) {
          sh.size.fetch_sub(1, std::memory_order_relaxed);
          return Insert::TableFull;
        }
        reserved = true;
      }
      if (s.hi.compare_exchange_strong(h, fp.hi, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        s.lo.store(fp.lo, std::memory_order_release);
        return Insert::Fresh;
      }
      // Lost the slot; h now holds its claimant.
    }
    if (h == fp.hi) {
      // Same hi lane: the full 128-bit compare needs lo, which the claimer
      // publishes right after its CAS — spin out the tiny window.
      std::uint64_t l;
      while ((l = s.lo.load(std::memory_order_acquire)) == 0) {
      }
      if (l == fp.lo) {
        if (reserved) sh.size.fetch_sub(1, std::memory_order_relaxed);
        return Insert::Duplicate;
      }
    }
    i = (i + 1) & sh.mask;
  }
}

bool ConcurrentFingerprintSet::contains(Fingerprint fp) const noexcept {
  if (fp.is_zero()) return false;
  fp = normalize(fp);
  const Shard& sh = shards_[shard_of(fp)];
#if !defined(NDEBUG)
  // Quiescence contract: membership reads are only exact at a barrier.  A
  // writer in flight on this shard means the caller skipped the barrier.
  SCV_ASSERT(sh.writers.load(std::memory_order_acquire) == 0);
#endif
  std::size_t i = fp.hi & sh.mask;
  for (;;) {
    const Slot& s = sh.slots[i];
    const std::uint64_t h = s.hi.load(std::memory_order_acquire);
    if (h == 0) return false;
    if (h == fp.hi && s.lo.load(std::memory_order_acquire) == fp.lo) {
      return true;
    }
    i = (i + 1) & sh.mask;
  }
}

void ConcurrentFingerprintSet::grow() {
  for (Shard& sh : shards_) {
#if !defined(NDEBUG)
    SCV_ASSERT(sh.writers.load(std::memory_order_acquire) == 0);
#endif
    // Only shards past the watermark double; a shard that tripped
    // TableFull sits at 7/8 and always qualifies.
    if (!past_watermark(sh)) continue;
    const std::size_t old_cap = sh.mask + 1;
    auto old = std::move(sh.slots);
    const std::size_t cap = old_cap * 2;
    sh.slots = std::make_unique<Slot[]>(cap);
    sh.mask = cap - 1;
    sh.limit = cap - cap / 8;
    // Quiescent by contract: plain (relaxed) stores suffice.
    for (std::size_t j = 0; j < old_cap; ++j) {
      const std::uint64_t h = old[j].hi.load(std::memory_order_relaxed);
      if (h == 0) continue;
      const std::uint64_t l = old[j].lo.load(std::memory_order_relaxed);
      SCV_ASSERT(l != 0);  // every claim was published before the barrier
      std::size_t i = h & sh.mask;
      while (sh.slots[i].hi.load(std::memory_order_relaxed) != 0) {
        i = (i + 1) & sh.mask;
      }
      sh.slots[i].hi.store(h, std::memory_order_relaxed);
      sh.slots[i].lo.store(l, std::memory_order_relaxed);
    }
  }
}

}  // namespace scv
