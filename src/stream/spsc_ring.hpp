// Lock-free single-producer/single-consumer ring buffer.
//
// The streaming service gives every producer thread its own ring drained by
// exactly one verifier worker, so the strongest queue discipline needed
// anywhere is SPSC — which admits the classic Lamport ring: two monotonic
// indices, each written by one side only, with release/acquire pairing on
// the index stores.  Three refinements matter for the ingest hot path:
//
//   * staged publication: the producer writes slots with try_stage() and
//     makes all of them visible with one release store in publish(), so a
//     whole descriptor step crosses the ring for one shared-line write
//     (try_push is stage + publish);
//   * cached peer indices: the producer re-reads the consumer's head (and
//     vice versa) only when its cached copy says the ring looks full/empty,
//     so steady-state pushes and drains touch a single shared cache line
//     write each instead of two shared reads per element;
//   * batch draining: the consumer takes everything published in one
//     acquire load and retires it with one release store, amortizing the
//     synchronization over the whole batch (cxxtrace-style epoch drain).
//
// Slots are fixed-size trivially-copyable values; the ring never allocates
// after construction.  Capacity is a power of two so index wrapping is a
// mask, and indices are unbounded counters so full/empty never conflate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "util/assert.hpp"

namespace scv {

template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots are raw copies; no constructors run on the hot "
                "path");

 public:
  explicit SpscRing(std::size_t capacity_pow2)
      : mask_(capacity_pow2 - 1),
        slots_(std::make_unique<T[]>(capacity_pow2)) {
    SCV_EXPECTS(capacity_pow2 >= 2 &&
                (capacity_pow2 & (capacity_pow2 - 1)) == 0);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side: writes the next slot without making it visible to the
  /// consumer.  False when the ring is full (staged slots count as used) —
  /// the caller owns the backpressure policy, and must publish() before it
  /// waits, or the consumer can never free a slot.
  bool try_stage(const T& v) noexcept {
    return try_stage_with([&](T& slot) { slot = v; });
  }

  /// try_stage that lets `fill(T&)` write the slot's fields in place, so a
  /// value built field by field is never reloaded whole from a temporary.
  template <typename Fill>
  bool try_stage_with(Fill&& fill) noexcept {
    if (write_ - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (write_ - cached_head_ > mask_) return false;
    }
    fill(slots_[write_ & mask_]);
    ++write_;
    return true;
  }

  /// Producer side: publishes every staged slot with one release store.
  void publish() noexcept { tail_.store(write_, std::memory_order_release); }

  /// Producer side: stage + publish.  False when the ring is full.
  bool try_push(const T& v) noexcept {
    if (!try_stage(v)) return false;
    publish();
    return true;
  }

  /// Consumer side: copies up to `max` published elements into `out` and
  /// retires them with a single release store.  Returns the batch size
  /// (0 when the ring is empty).
  std::size_t drain(T* out, std::size_t max) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) return 0;
    }
    std::size_t n = cached_tail_ - head;
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = slots_[(head + i) & mask_];
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Approximate published occupancy (exact from the calling side's view).
  [[nodiscard]] std::size_t size() const noexcept {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  // Hot indices on separate cache lines: head_ is written by the consumer,
  // tail_ by the producer, and each side's private state sits on a line of
  // its own — the only cross-core traffic is the index each side publishes.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::size_t cached_tail_ = 0;  ///< consumer-private
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::size_t write_ = 0;        ///< producer-private: next slot
  std::size_t cached_head_ = 0;              ///< producer-private

  // Read by both sides on every call and written by neither after
  // construction, so they share no line with a written field.
  alignas(64) const std::size_t mask_;
  const std::unique_ptr<T[]> slots_;
};

}  // namespace scv
