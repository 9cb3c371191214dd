// 128-bit state fingerprints for the model checker's visited set.
//
// The checker's product states are canonical byte strings (protocol state +
// observer state + checker state).  Storing the full string per visited
// state makes memory, not CPU, the binding constraint on explorable state
// counts, so the visited set stores a 128-bit fingerprint of the
// serialization instead: two independent 64-bit word-at-a-time mixes
// (splitmix64 and MurmurHash3 finalizers over FNV/CityHash-style seeds)
// run over the same stream.
//
// Collision risk: with n visited states the probability that any two
// distinct states share a fingerprint is ~ n^2 / 2^129 (birthday bound);
// at n = 10^9 that is ~ 1.5e-21.  See DESIGN.md "Compact fingerprint state
// store" for the full analysis and the `McOptions::exact_states` escape
// hatch that keeps full keys for differential testing.
//
// Fingerprints are compared only within one process run, so the
// byte-order-dependent 64-bit loads below are fine (and fast).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "util/hash.hpp"

namespace scv {

struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// fingerprint128 never returns (0,0), and ConcurrentFingerprintSet::
  /// insert requires a non-zero fingerprint.
  [[nodiscard]] bool is_zero() const noexcept { return (lo | hi) == 0; }
};

[[nodiscard]] inline Fingerprint fingerprint128(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h1 = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t h2 = 0x9ae16a3b2f90404fULL;  // CityHash k2
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h1 = mix64(h1 ^ w);
    h2 = mix64_alt(h2 + w);
    p += 8;
    n -= 8;
  }
  // Tail: n < 8 remaining bytes occupy the low 56 bits; fold the total
  // length into the spare top byte so prefixes hash differently.
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  tail |= static_cast<std::uint64_t>(bytes.size()) << 56;
  h1 = mix64(h1 ^ tail);
  h2 = mix64_alt(h2 + tail);
  Fingerprint fp{h1, h2};
  if (fp.is_zero()) fp.lo = 1;  // the visited store requires non-zero
  return fp;
}

}  // namespace scv
