// Tests for the 128-bit state fingerprint: hash determinism and
// sensitivity, and a large differential run of ConcurrentFingerprintSet
// against std::unordered_set<std::string> — the exact store the model
// checker used before fingerprints.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/concurrent_fp_set.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"

namespace scv {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Fingerprint, DeterministicAndNeverZero) {
  const std::string key = "canonical product state bytes";
  EXPECT_EQ(fingerprint128(as_bytes(key)), fingerprint128(as_bytes(key)));
  EXPECT_FALSE(fingerprint128(as_bytes(key)).is_zero());
  EXPECT_FALSE(fingerprint128({}).is_zero());
}

TEST(Fingerprint, SensitiveToContentAndLength) {
  const std::string a(32, 'x');
  std::string b = a;
  b[17] ^= 1;
  EXPECT_NE(fingerprint128(as_bytes(a)), fingerprint128(as_bytes(b)));
  // A strict prefix (same words, shorter tail) must differ too.
  std::string c = a + std::string(1, '\0');
  EXPECT_NE(fingerprint128(as_bytes(a)), fingerprint128(as_bytes(c)));
  // Both lanes react, not just one.
  const Fingerprint fa = fingerprint128(as_bytes(a));
  const Fingerprint fb = fingerprint128(as_bytes(b));
  EXPECT_NE(fa.lo, fb.lo);
  EXPECT_NE(fa.hi, fb.hi);
}

TEST(ConcurrentFpSet, DifferentialAgainstStringSet) {
  // >= 100k keys with deliberate duplicates: every insert must agree with
  // std::unordered_set<std::string> on new-vs-seen, and the final sizes
  // must match.  (A disagreement would mean a fingerprint collision;
  // at this scale the probability is ~ 1e-29.)  The set starts at minimum
  // capacity, so the run also crosses many grow() calls.
  using Insert = ConcurrentFingerprintSet::Insert;
  Xoshiro256 rng(20'260'806);
  ConcurrentFingerprintSet fps(0);
  std::unordered_set<std::string> strings;
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < 150'000; ++i) {
    std::string key;
    if (!pool.empty() && rng.below(4) == 0) {
      key = pool[rng.below(pool.size())];  // forced duplicate
    } else {
      const std::size_t len = rng.below(64);
      key.reserve(len);
      for (std::size_t j = 0; j < len; ++j) {
        key.push_back(static_cast<char>(rng.below(256)));
      }
      if (pool.size() < 4096) pool.push_back(key);
    }
    const bool fresh_string = strings.insert(key).second;
    const Fingerprint fp = fingerprint128(as_bytes(key));
    Insert r = fps.insert(fp);
    if (r == Insert::TableFull) {
      fps.grow();
      r = fps.insert(fp);
    }
    ASSERT_NE(r, Insert::TableFull) << "at key " << i;
    ASSERT_EQ(fresh_string, r == Insert::Fresh) << "at key " << i;
  }
  EXPECT_EQ(fps.size(), strings.size());
}

}  // namespace
}  // namespace scv
