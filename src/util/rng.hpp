// xoshiro256** pseudo-random generator (Blackman & Vigna).  Used for
// randomized property tests, random-walk trace testing, and workload
// generation.  Deterministic given a seed, so every randomized test and
// benchmark in this repository is reproducible.
#pragma once

#include <cstdint>

#include "util/hash.hpp"

namespace scv {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept {
    // Seed the four lanes with splitmix64, per the authors' recommendation.
    std::uint64_t x = seed;
    for (auto& lane : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      lane = mix64(x);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n).  Uses rejection to avoid modulo bias.
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n <= 1) return 0;
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) noexcept {
    return below(den) < num;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace scv
