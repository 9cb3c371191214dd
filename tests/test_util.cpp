#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "util/byte_io.hpp"
#include "util/hash.hpp"
#include "util/inline_vec.hpp"
#include "util/page_alloc.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scv {
namespace {

TEST(Hash, Fnv1aMatchesKnownVectors) {
  // FNV-1a test vectors: empty string and "a".
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ULL);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, Mix64IsBijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 1000; ++x) outputs.insert(mix64(x));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Rng, DeterministicGivenSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BetweenInclusive) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 100));
    EXPECT_TRUE(rng.chance(100, 100));
  }
}

TEST(InlineVec, PushPopAndIterate) {
  InlineVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 3);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 6);
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_FALSE(v.full());
  v.push_back(7);
  v.push_back(8);
  EXPECT_TRUE(v.full());
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 7);
  EXPECT_EQ(v[3], 8);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, ContainsAndEquality) {
  InlineVec<int, 4> a{1, 2, 3};
  InlineVec<int, 4> b{1, 2, 3};
  EXPECT_TRUE(a.contains(2));
  EXPECT_FALSE(a.contains(9));
  EXPECT_EQ(a, b);
  b.push_back(4);
  EXPECT_FALSE(a == b);
}

TEST(ByteIo, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.uvar(0);
  w.uvar(127);
  w.uvar(128);
  w.uvar(0xffffffffffULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.uvar(), 0u);
  EXPECT_EQ(r.uvar(), 127u);
  EXPECT_EQ(r.uvar(), 128u);
  EXPECT_EQ(r.uvar(), 0xffffffffffULL);
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, TryReaderAcceptsOnlyCanonicalVarints) {
  const auto read = [](std::vector<std::uint8_t> bytes, std::uint64_t& v) {
    TryReader r(bytes);
    return r.uvar(v) && r.done();
  };
  std::uint64_t v = 0;
  // Overlong encodings: a zero final byte after a continuation.
  EXPECT_FALSE(read({0x80, 0x00}, v)) << "80 00 is an overlong 0";
  EXPECT_FALSE(read({0xff, 0x00}, v)) << "ff 00 is an overlong 127";
  EXPECT_FALSE(read({0x80, 0x80, 0x00}, v));
  // A tenth byte may only carry bit 63.
  EXPECT_FALSE(read({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x02},
                    v))
      << "bits past 64";
  EXPECT_FALSE(read({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                     0x81, 0x00},
                    v))
      << "an eleventh byte";
  ASSERT_TRUE(read({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                    0x01},
                   v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  // Everything ByteWriter writes reads back to the same value and length.
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    ByteWriter w;
    w.uvar(x);
    ASSERT_TRUE(read(w.data(), v)) << x;
    EXPECT_EQ(v, x);
  }
}

TEST(ByteIo, LittleEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x02);
  EXPECT_EQ(w.data()[1], 0x01);
}

TEST(ByteIo, HexDump) {
  ByteWriter w;
  w.u8(0x0f);
  w.u8(0xa0);
  EXPECT_EQ(to_hex(w.data()), "0fa0");
}

TEST(ThreadPool, RunsOnAllWorkers) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::atomic<int> mask{0};
  pool.run_on_all([&](std::size_t i) {
    count.fetch_add(1);
    mask.fetch_or(1 << i);
  });
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(mask.load(), 0b111);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int calls = 0;
  pool.run_on_all([&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.run_on_all([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 20);
}

// The allocator maps whole pages, so a request is charged its page-rounded
// length; under AddressSanitizer nothing is mapped.
std::size_t charged(std::size_t bytes) {
  if (!kPageMapping || bytes < kPageMapThreshold) return 0;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

bool page_aligned(const void* p) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  return reinterpret_cast<std::uintptr_t>(p) % page == 0;
}

TEST(PageAlloc, MapsRequestsFromTheThresholdUp) {
  ASSERT_EQ(page_mapped_bytes(), 0u);
  PageAllocator<std::uint8_t> alloc;
  std::uint8_t* small = alloc.allocate(kPageMapThreshold - 1);
  EXPECT_EQ(page_mapped_bytes(), 0u);
  const std::size_t total = page_mapped_total();
  std::uint8_t* at = alloc.allocate(kPageMapThreshold);
  std::uint8_t* odd = alloc.allocate(kPageMapThreshold + 1);
  const std::size_t mapped =
      charged(kPageMapThreshold) + charged(kPageMapThreshold + 1);
  EXPECT_EQ(page_mapped_bytes(), mapped);
  EXPECT_EQ(page_mapped_total(), total + mapped);
  if (kPageMapping) {
    EXPECT_TRUE(page_aligned(at));
    EXPECT_TRUE(page_aligned(odd));
    EXPECT_GT(charged(kPageMapThreshold + 1), kPageMapThreshold);
  }
  // Every byte of each buffer is writable.
  std::fill_n(small, kPageMapThreshold - 1, std::uint8_t{1});
  std::fill_n(at, kPageMapThreshold, std::uint8_t{2});
  std::fill_n(odd, kPageMapThreshold + 1, std::uint8_t{3});
  EXPECT_EQ(odd[kPageMapThreshold], 3);
  alloc.deallocate(odd, kPageMapThreshold + 1);
  EXPECT_EQ(page_mapped_bytes(), charged(kPageMapThreshold));
  alloc.deallocate(at, kPageMapThreshold);
  alloc.deallocate(small, kPageMapThreshold - 1);
  EXPECT_EQ(page_mapped_bytes(), 0u);
  EXPECT_EQ(page_mapped_total(), total + mapped);
}

TEST(PageAlloc, VectorGrowingAcrossTheThresholdKeepsItsContents) {
  const std::size_t n = 3 * kPageMapThreshold / sizeof(std::uint32_t);
  {
    PageVector<std::uint32_t> v;
    for (std::uint32_t i = 0; i < n; ++i) {
      v.push_back(i * 2654435761u);
      // Only the live buffer is held: a regrow unmaps the one it left.
      ASSERT_EQ(page_mapped_bytes(),
                charged(v.capacity() * sizeof(std::uint32_t)))
          << i;
    }
    if (kPageMapping) {
      EXPECT_GT(page_mapped_bytes(), kPageMapThreshold);
      EXPECT_TRUE(page_aligned(v.data()));
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], i * 2654435761u) << i;
    }
  }
  EXPECT_EQ(page_mapped_bytes(), 0u);
}

TEST(PageAlloc, AppendKeepsContentsAcrossRegrowth) {
  // append() copies each span in bulk and regrows to twice the capacity;
  // runs of uneven lengths (some empty) cross the mapping threshold.
  std::vector<std::uint8_t> want;
  {
    PageVector<std::uint8_t> v;
    std::uint64_t x = 1;
    while (want.size() < 3 * kPageMapThreshold) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::vector<std::uint8_t> run((x >> 33) % 3000);
      for (std::size_t i = 0; i < run.size(); ++i) {
        run[i] = static_cast<std::uint8_t>((x >> (8 * (i % 8))) + i);
      }
      const std::size_t cap = v.capacity();
      append(v, std::span<const std::uint8_t>(run));
      want.insert(want.end(), run.begin(), run.end());
      ASSERT_EQ(v.size(), want.size());
      if (v.capacity() != cap) {
        EXPECT_EQ(v.capacity(), std::max(2 * cap, want.size()));
      }
      // Only the live buffer is held: a regrow unmaps the one it left.
      ASSERT_EQ(page_mapped_bytes(), charged(v.capacity()));
    }
    EXPECT_TRUE(std::equal(v.begin(), v.end(), want.begin(), want.end()));
    if (kPageMapping) {
      EXPECT_TRUE(page_aligned(v.data()));
    }
  }
  EXPECT_EQ(page_mapped_bytes(), 0u);

  // One element at a time, of a type that is not zero when
  // default-constructed: every value appended survives every regrowth.
  struct Log {
    std::uint64_t a = ~std::uint64_t{0};
    std::uint32_t b = 7;
  };
  PageVector<Log> logs;
  for (std::uint32_t i = 0; i < 5000; ++i) append(logs, Log{i, i * 3u});
  ASSERT_EQ(logs.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(logs[i].a, i);
    ASSERT_EQ(logs[i].b, i * 3u);
  }
}

TEST(PageAlloc, MoveAndSwapKeepTheMapping) {
  const std::size_t n = kPageMapThreshold / sizeof(std::uint64_t);
  const std::size_t mapped = charged(n * sizeof(std::uint64_t));
  {
    PageVector<std::uint64_t> a(n, 7);
    const std::uint64_t* data = a.data();
    EXPECT_EQ(page_mapped_bytes(), mapped);

    PageVector<std::uint64_t> b = std::move(a);
    EXPECT_EQ(b.data(), data);
    PageVector<std::uint64_t> c;
    c = std::move(b);
    EXPECT_EQ(c.data(), data);
    PageVector<std::uint64_t> d{1, 2, 3};
    d.swap(c);
    EXPECT_EQ(d.data(), data);
    std::swap(c, d);
    EXPECT_EQ(c.data(), data);
    EXPECT_EQ(page_mapped_bytes(), mapped);
    EXPECT_EQ(c.size(), n);
    EXPECT_EQ(c[n - 1], 7u);
    EXPECT_EQ(d.size(), 3u);
  }
  EXPECT_EQ(page_mapped_bytes(), 0u);
}

}  // namespace
}  // namespace scv
