// A fixed-capacity vector with inline storage.  Used on the hot paths of the
// observer and checker, where collections are small and bounded by design
// (the whole point of the paper is that everything fits in finite state),
// and where heap allocation per model-checking step would dominate runtime.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <type_traits>

#include "util/assert.hpp"

namespace scv {

template <class T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec is intended for small trivially copyable types");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr InlineVec() noexcept = default;

  constexpr InlineVec(std::initializer_list<T> init) {
    SCV_EXPECTS(init.size() <= N);
    for (const T& v : init) data_[size_++] = v;
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return N; }
  [[nodiscard]] constexpr bool full() const noexcept { return size_ == N; }

  constexpr void push_back(const T& v) {
    SCV_EXPECTS(size_ < N);
    data_[size_++] = v;
  }

  constexpr void pop_back() {
    SCV_EXPECTS(size_ > 0);
    --size_;
  }

  constexpr void clear() noexcept { size_ = 0; }

  constexpr T& operator[](std::size_t i) {
    SCV_EXPECTS(i < size_);
    return data_[i];
  }
  constexpr const T& operator[](std::size_t i) const {
    SCV_EXPECTS(i < size_);
    return data_[i];
  }

  constexpr T& back() {
    SCV_EXPECTS(size_ > 0);
    return data_[size_ - 1];
  }
  constexpr const T& back() const {
    SCV_EXPECTS(size_ > 0);
    return data_[size_ - 1];
  }
  constexpr T& front() {
    SCV_EXPECTS(size_ > 0);
    return data_[0];
  }
  constexpr const T& front() const {
    SCV_EXPECTS(size_ > 0);
    return data_[0];
  }

  constexpr iterator begin() noexcept { return data_; }
  constexpr iterator end() noexcept { return data_ + size_; }
  constexpr const_iterator begin() const noexcept { return data_; }
  constexpr const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] constexpr bool contains(const T& v) const noexcept {
    return std::find(begin(), end(), v) != end();
  }

  friend constexpr bool operator==(const InlineVec& a,
                                   const InlineVec& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  T data_[N] = {};
  std::size_t size_ = 0;
};

}  // namespace scv
