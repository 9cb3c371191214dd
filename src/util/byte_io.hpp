// Canonical byte serialization helpers.  The model checker hashes product
// states (protocol state + observer state + checker state) by serializing
// them to a byte string; these helpers give every component one fixed,
// endian-independent encoding so that equal logical states always produce
// equal byte strings.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace scv {

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { buf().push_back(v); }

  // Fixed-width little-endian stores grow the buffer once and write the
  // bytes directly — one capacity check instead of one per byte, which
  // matters because state serialization is the model checker's hot path.
  void u16(std::uint16_t v) { store(v, 2); }
  void u32(std::uint32_t v) { store(v, 4); }
  void u64(std::uint64_t v) { store(v, 8); }

  /// Variable-length unsigned (LEB128-style); compact for small counts.
  void uvar(std::uint64_t v) {
    while (v >= 0x80) {
      buf().push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf().push_back(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::uint8_t> b) {
    buf().insert(buf().end(), b.begin(), b.end());
  }

  /// Drops the contents but keeps the allocation, so one writer can be
  /// reused as a scratch buffer across many serializations (the model
  /// checker serializes one product state per transition).
  void clear() noexcept { buf().clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const {
    return out_ ? *out_ : own_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(own_); }

 private:
  std::vector<std::uint8_t>& buf() { return out_ ? *out_ : own_; }

  void store(std::uint64_t v, std::size_t n) {
    auto& b = buf();
    const std::size_t at = b.size();
    b.resize(at + n);
    for (std::size_t i = 0; i < n; ++i) {
      b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* out_ = nullptr;
};

/// Bump-pointer encoder over caller-provided (typically stack) storage,
/// with byte-identical encodings to ByteWriter.  The serialization hot
/// paths (observer/checker canonical keys, ~250 field writes per product
/// state) pay ByteWriter's per-call indirection and vector capacity check
/// on every byte; writing into a fixed scratch and bulk-appending once
/// turns that into a single memcpy.  Overflow is a contract violation
/// (callers size the scratch from their compile-time state bounds).
class ScratchWriter {
 public:
  ScratchWriter(std::uint8_t* buf, std::size_t cap)
      : base_(buf), p_(buf), end_(buf + cap) {}

  void u8(std::uint8_t v) {
    SCV_EXPECTS(p_ < end_);
    *p_++ = v;
  }

  void u64(std::uint64_t v) {
    SCV_EXPECTS(p_ + 8 <= end_);
    for (int i = 0; i < 8; ++i) {
      *p_++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  /// Same LEB128 encoding as ByteWriter::uvar.
  void uvar(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  [[nodiscard]] std::span<const std::uint8_t> data() const {
    return {base_, static_cast<std::size_t>(p_ - base_)};
  }

  /// Appends everything written so far to `w` in one call.
  void flush(ByteWriter& w) const { w.bytes(data()); }

 private:
  std::uint8_t* base_;
  std::uint8_t* p_;
  std::uint8_t* end_;
};

/// Bounds-checked cursor for *untrusted* buffers.  Unlike ByteReader (whose
/// SCV_EXPECTS aborts on overrun — correct for trusted in-process
/// snapshots), every read reports failure, so corrupt bytes surface as a
/// recoverable parse error instead of terminating the process.  Shared by
/// the run-trace parser, the streaming trace reader, and the checker's
/// validating restore path.
class TryReader {
 public:
  explicit TryReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) {
    if (pos_ >= bytes_.size()) return false;
    v = bytes_[pos_++];
    return true;
  }

  bool u16(std::uint16_t& v) {
    std::uint8_t lo = 0;
    std::uint8_t hi = 0;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (hi << 8));
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }

  /// Accepts only the canonical LEB128 encoding ByteWriter::uvar writes:
  /// a zero final byte after a continuation (overlong, such as `80 00` for
  /// 0) and a tenth byte carrying bits past 64 are rejected, so every
  /// accepted varint re-encodes to the bytes it was read from.
  bool uvar(std::uint64_t& v) {
    v = 0;
    int shift = 0;
    for (;;) {
      std::uint8_t b = 0;
      if (!u8(b)) return false;
      if (shift == 63 && b > 1) return false;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return b != 0 || shift == 0;
      shift += 7;
    }
  }

  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!uvar(n) || n > remaining()) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data()) + pos_,
             static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    SCV_EXPECTS(pos_ < bytes_.size());
    return bytes_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    const auto lo = u8();
    const auto hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  [[nodiscard]] std::uint32_t u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
  }

  [[nodiscard]] std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

  [[nodiscard]] std::uint64_t uvar() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      SCV_EXPECTS(shift < 64);
    }
  }

  /// Zero-copy view of the next `n` raw bytes (valid while the underlying
  /// buffer lives); used by the compact-frontier decoder to splice
  /// fixed-size protocol states out of serialized entries.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n) {
    SCV_EXPECTS(pos_ + n <= bytes_.size());
    const auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Hex dump for diagnostics and golden tests.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);

}  // namespace scv
