// Concurrent open-addressing hash set of 128-bit state fingerprints.
//
// The parallel model checker's workers deduplicate successor states *during*
// expansion (dedup-before-materialize), so the visited set must accept
// concurrent inserts without a coordinator.  The table is flat open
// addressing with linear probing over 16-byte slots, and the slot claim is
// a CAS:
//
//   * each slot is two 64-bit lanes {hi, lo}; probing starts from
//     `hi & mask`;
//   * `hi == 0` means "empty": an inserter claims a slot by CASing hi from
//     0 to its fingerprint's hi lane, then *publishes* the lo lane with a
//     release store;
//   * `lo == 0` means "claimed but not yet published": a concurrent reader
//     that needs the full 128-bit compare spins (the publishing store is
//     one instruction behind the claim, so the wait is bounded);
//   * both sentinels are carved out of the fingerprint space by remapping a
//     zero lane to 1 on entry — the same trick fingerprint128 plays for the
//     all-zero value, adding ~2^-64 collision mass per lane, negligible
//     against the 128-bit birthday bound (DESIGN.md §8).
//
// The table is striped into 16 independent shards.  A monolithic table has
// two contention hot spots under many writers: the single occupancy
// reservation counter (every insert does an RMW on the same cache line) and
// probe-cluster CAS collisions.  Sharding gives each shard its own slots
// and its own counter on its own cache line, cutting cross-core traffic to
// 1/16th for uniformly distributed fingerprints.  The shard selector mixes
// BOTH lanes (multiply by odd constants, xor, take the top nibble) so that
// no single fixed lane value — an adversarial or degenerate workload — can
// pin every fingerprint to one shard.
//
// Capacity is fixed while concurrent inserts run.  A relaxed per-shard
// reservation counter bounds occupancy at 7/8 of the shard so probe loops
// always terminate; an insert that would cross the bound fails with
// `TableFull` and the *caller* (the level-synchronized BFS) quiesces its
// workers, calls grow() single-threaded between levels, and resumes.
// grow() doubles exactly the shards past the 5/8 proactive-growth
// watermark (a shard that reported TableFull sits at 7/8 and always
// qualifies), so a skewed load grows only where it must.  See DESIGN.md §9
// for why resuming mid-level is safe.
//
// In debug builds (!NDEBUG) each shard carries a writers-in-flight counter:
// contains() and grow() assert it is zero, turning a violated quiescence
// contract (reading while an insert is mid-publish, growing mid-level) into
// a deterministic failure instead of a silent race.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>

#include "util/fingerprint.hpp"

namespace scv {

class ConcurrentFingerprintSet {
 public:
  enum class Insert : std::uint8_t {
    Fresh,      ///< the fingerprint was not present; this call claimed it
    Duplicate,  ///< already present (possibly claimed concurrently)
    TableFull,  ///< occupancy bound reached; caller must quiesce and grow()
  };

  /// `expected` sizes each shard to hold its 1/16 share of that many
  /// entries below the 5/8 proactive-growth watermark (see should_grow).
  explicit ConcurrentFingerprintSet(std::size_t expected = 0);

  ConcurrentFingerprintSet(const ConcurrentFingerprintSet&) = delete;
  ConcurrentFingerprintSet& operator=(const ConcurrentFingerprintSet&) =
      delete;

  /// Thread-safe; wait-free except for the bounded publish spin.  Requires
  /// a non-zero fingerprint (fingerprint128 guarantees this).
  Insert insert(Fingerprint fp) noexcept;

  /// Membership test for tests/diagnostics; requires external quiescence
  /// (no concurrent insert of the same fingerprint mid-publish is waited
  /// on, so results are only exact at a barrier).  Debug builds assert the
  /// target shard has no writer in flight.
  [[nodiscard]] bool contains(Fingerprint fp) const noexcept;

  /// Exact at a barrier (in-flight reservations inflate it transiently).
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Shard& sh : shards_) {
      n += sh.size.load(std::memory_order_relaxed);
    }
    return n;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t n = 0;
    for (const Shard& sh : shards_) n += sh.mask + 1;
    return n;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return capacity() * 2 * sizeof(std::uint64_t);
  }

  /// True once any shard is past the 5/8 proactive-growth watermark; the
  /// owner should grow() at the next quiescent point rather than wait for
  /// TableFull mid-level.
  [[nodiscard]] bool should_grow() const noexcept {
    for (const Shard& sh : shards_) {
      if (past_watermark(sh)) return true;
    }
    return false;
  }

  /// Doubles every shard past the 5/8 watermark and rehashes it.  NOT
  /// thread-safe: callers must guarantee no concurrent insert (the BFS
  /// calls it between levels).
  void grow();

 private:
  struct Slot {
    std::atomic<std::uint64_t> hi{0};
    std::atomic<std::uint64_t> lo{0};
  };

  /// Shards are cache-line-aligned so one shard's reservation counter
  /// never false-shares with a neighbor's.
  struct alignas(64) Shard {
    std::unique_ptr<Slot[]> slots;
    std::size_t mask = 0;   ///< shard capacity - 1 (power of two)
    std::size_t limit = 0;  ///< occupancy bound: 7/8 of shard capacity
    std::atomic<std::size_t> size{0};
#if !defined(NDEBUG)
    /// Writers currently inside insert() on this shard; quiescence checks
    /// in contains()/grow() assert it is zero.  Debug-only: the counter is
    /// itself a shared RMW per insert, which release builds must not pay.
    mutable std::atomic<std::uint32_t> writers{0};
#endif
  };

  static constexpr std::size_t kShards = 16;

  /// Remaps zero lanes to 1 so 0 can serve as the empty/pending sentinel.
  [[nodiscard]] static Fingerprint normalize(Fingerprint fp) noexcept {
    if (fp.hi == 0) fp.hi = 1;
    if (fp.lo == 0) fp.lo = 1;
    return fp;
  }

  /// Top nibble of a two-lane mix.  Multiplying each lane by an odd
  /// constant diffuses any differing bit toward the top bits, so workloads
  /// that hold one lane fixed (the shared-hi-lane stress test, fingerprint
  /// families from structured states) still spread across shards; the
  /// probe index uses the untouched low hi bits, keeping the two choices
  /// independent.
  [[nodiscard]] static std::size_t shard_of(Fingerprint fp) noexcept {
    return static_cast<std::size_t>((fp.hi * 0x9e3779b97f4a7c15ull) ^
                                    (fp.lo * 0xc2b2ae3d27d4eb4full)) >>
           60;
  }

  [[nodiscard]] static bool past_watermark(const Shard& sh) noexcept {
    return sh.size.load(std::memory_order_relaxed) * 8 > (sh.mask + 1) * 5;
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace scv
