// Hashing primitives used by the visited-state sets of the model checker and
// by canonical state serialization.  We use well-known mixers (FNV-1a for
// byte streams, the splitmix64 and MurmurHash3 finalizers for words) rather
// than std::hash, whose quality and stability are unspecified.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace scv {

/// 64-bit FNV-1a over a byte span.  Deterministic across platforms.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64 finalizer: a fast, high-quality 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// MurmurHash3 fmix64: a second high-quality mixer, independent of mix64.
/// The 128-bit state fingerprints run both over the same stream.
[[nodiscard]] constexpr std::uint64_t mix64_alt(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace scv
