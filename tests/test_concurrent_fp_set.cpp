// Differential and race tests for ConcurrentFingerprintSet, the CAS-based
// visited store behind the parallel model checker.  The threaded tests are
// the ones the TSan preset (cmake --preset tsan) exists for: they hammer
// the claim/publish protocol from many threads at once.
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "util/concurrent_fp_set.hpp"
#include "util/fingerprint.hpp"

namespace scv {
namespace {

/// Deterministic pseudo-random 128-bit fingerprints (splitmix-style).
Fingerprint nth_fp(std::uint64_t n) {
  auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  Fingerprint fp{mix(n), mix(n ^ 0x5851f42d4c957f2dull)};
  if (fp.is_zero()) fp.lo = 1;
  return fp;
}

TEST(ConcurrentFpSet, SingleThreadedBasics) {
  ConcurrentFingerprintSet set;
  using Insert = ConcurrentFingerprintSet::Insert;
  EXPECT_EQ(set.insert(Fingerprint{1, 2}), Insert::Fresh);
  EXPECT_EQ(set.insert(Fingerprint{1, 2}), Insert::Duplicate);
  // Same hi lane, different lo lane: must be told apart.
  EXPECT_EQ(set.insert(Fingerprint{3, 2}), Insert::Fresh);
  EXPECT_EQ(set.insert(Fingerprint{3, 2}), Insert::Duplicate);
  EXPECT_TRUE(set.contains(Fingerprint{1, 2}));
  EXPECT_TRUE(set.contains(Fingerprint{3, 2}));
  EXPECT_FALSE(set.contains(Fingerprint{9, 9}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ConcurrentFpSet, ZeroLanesAreNormalizedConsistently) {
  ConcurrentFingerprintSet set;
  using Insert = ConcurrentFingerprintSet::Insert;
  // A zero lane would collide with the empty/pending sentinels; the table
  // remaps it to 1, so {0,x} and {1,x} intentionally coincide.
  EXPECT_EQ(set.insert(Fingerprint{5, 0}), Insert::Fresh);
  EXPECT_EQ(set.insert(Fingerprint{5, 0}), Insert::Duplicate);
  EXPECT_TRUE(set.contains(Fingerprint{5, 0}));
  EXPECT_EQ(set.insert(Fingerprint{0, 7}), Insert::Fresh);
  EXPECT_EQ(set.insert(Fingerprint{0, 7}), Insert::Duplicate);
}

TEST(ConcurrentFpSet, TableFullThenGrowPreservesMembership) {
  ConcurrentFingerprintSet set(0);  // minimum capacity
  using Insert = ConcurrentFingerprintSet::Insert;
  // The occupancy bound is per shard (7/8 of the shard), so the global
  // trip point depends on how the fingerprints spread; drive inserts until
  // the first shard trips.  Every pre-trip insert must be Fresh, and the
  // trip must land well past half the table (shard balance sanity check —
  // a broken selector that pins everything to one shard trips at ~1/16).
  std::vector<Fingerprint> inserted;
  Fingerprint tripped{};
  for (std::uint64_t n = 0;; ++n) {
    const Fingerprint fp = nth_fp(n);
    const Insert r = set.insert(fp);
    if (r == Insert::TableFull) {
      tripped = fp;
      break;
    }
    ASSERT_EQ(r, Insert::Fresh) << n;
    inserted.push_back(fp);
    ASSERT_LT(inserted.size(), set.capacity());
  }
  EXPECT_EQ(set.size(), inserted.size());
  EXPECT_GT(inserted.size(), set.capacity() / 2);

  const std::size_t old_cap = set.capacity();
  set.grow();
  EXPECT_GT(set.capacity(), old_cap);
  for (const Fingerprint fp : inserted) {
    EXPECT_TRUE(set.contains(fp));
    EXPECT_EQ(set.insert(fp), Insert::Duplicate);
  }
  // The insert the full shard rejected succeeds after the grow.
  EXPECT_EQ(set.insert(tripped), Insert::Fresh);
}

TEST(ConcurrentFpSet, DuplicateIsAnsweredAtTheOccupancyBound) {
  // A duplicate probes without reserving occupancy, so a full shard still
  // recognizes its members; only a claim of an empty slot hits the bound.
  ConcurrentFingerprintSet set(0);
  using Insert = ConcurrentFingerprintSet::Insert;
  std::vector<Fingerprint> inserted;
  Fingerprint tripped{};
  for (std::uint64_t n = 0;; ++n) {
    const Fingerprint fp = nth_fp(n);
    const Insert r = set.insert(fp);
    if (r == Insert::TableFull) {
      tripped = fp;
      break;
    }
    ASSERT_EQ(r, Insert::Fresh) << n;
    inserted.push_back(fp);
  }
  const std::size_t size = set.size();
  // Every member, the full shard's among them, reads Duplicate.
  for (const Fingerprint fp : inserted) {
    EXPECT_EQ(set.insert(fp), Insert::Duplicate);
  }
  EXPECT_EQ(set.size(), size);
  EXPECT_EQ(set.insert(tripped), Insert::TableFull);
  EXPECT_EQ(set.size(), size);
  set.grow();
  EXPECT_EQ(set.insert(tripped), Insert::Fresh);
  EXPECT_EQ(set.size(), size + 1);
}

// The tentpole differential test: N threads hammer a shared key space where
// every key is contended by several threads; a mutex-guarded
// std::unordered_set oracle checks the final membership, and per-key atomic
// claim counters check the linearizability contract the model checker
// depends on — each key reports Fresh to EXACTLY one thread.
TEST(ConcurrentFpSet, ThreadedDifferentialAgainstOracle) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kKeys = 20'000;
  using Insert = ConcurrentFingerprintSet::Insert;

  ConcurrentFingerprintSet set(kKeys);
  std::vector<std::atomic<std::uint32_t>> claims(kKeys);
  std::mutex oracle_mu;
  std::unordered_set<std::uint64_t> oracle;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the whole key space in a different order, so
      // every key races between all threads.
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t k = (i * (2 * t + 1) + t * 7919) % kKeys;
        const Insert r = set.insert(nth_fp(k));
        ASSERT_NE(r, Insert::TableFull);
        if (r == Insert::Fresh) {
          claims[k].fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(oracle_mu);
          oracle.insert(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(oracle.size(), kKeys);
  EXPECT_EQ(set.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(claims[k].load(), 1u) << "key " << k
                                    << " claimed Fresh by != 1 thread";
    EXPECT_TRUE(set.contains(nth_fp(k)));
  }
}

// Concurrent inserts racing on the SAME hi lane with different lo lanes
// exercise the publish-spin path (a reader can observe a claimed slot
// whose lo lane is not yet published).
TEST(ConcurrentFpSet, ThreadedSharedHiLane) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kLos = 4'000;
  using Insert = ConcurrentFingerprintSet::Insert;

  ConcurrentFingerprintSet set(kLos);
  std::atomic<std::uint64_t> fresh{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kLos; ++i) {
        const std::uint64_t lo = (i * (2 * t + 1) + t) % kLos;
        const Insert r = set.insert(Fingerprint{lo + 1, 0x1234abcdu});
        ASSERT_NE(r, Insert::TableFull);
        if (r == Insert::Fresh) fresh.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fresh.load(), kLos);
  EXPECT_EQ(set.size(), kLos);
}

// The quiescence contract in action — concurrent inserts, a join barrier,
// then concurrent contains() from many threads.  Under TSan (cmake --preset
// tsan) this validates that the claim/publish protocol plus the join give
// readers a proper happens-before edge (no data race on the slot lanes or
// the debug writers-in-flight counters), and that membership is exact at
// the barrier.  Reads racing *into* the insert phase would instead trip
// the debug quiescence assertion.
TEST(ConcurrentFpSet, InsertBarrierContainsIsRaceFree) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kKeys = 16'000;
  using Insert = ConcurrentFingerprintSet::Insert;

  ConcurrentFingerprintSet set(kKeys);
  {
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (std::uint64_t i = t; i < kKeys; i += kThreads) {
          ASSERT_NE(set.insert(nth_fp(i)), Insert::TableFull);
        }
      });
    }
    for (auto& th : writers) th.join();
  }

  std::atomic<std::uint64_t> present{0};
  std::atomic<std::uint64_t> absent{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (std::uint64_t i = t; i < kKeys; i += kThreads) {
        if (set.contains(nth_fp(i))) {
          present.fetch_add(1, std::memory_order_relaxed);
        }
        if (!set.contains(nth_fp(kKeys + i))) {
          absent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(present.load(), kKeys);
  EXPECT_EQ(absent.load(), kKeys);
  EXPECT_EQ(set.size(), kKeys);
}

}  // namespace
}  // namespace scv
