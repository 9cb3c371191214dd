// Page-mapped storage for the model checker's bulk per-level buffers.
//
// glibc serves a large request with mmap only until a freed mapping raises
// its dynamic mmap threshold (up to 32 MiB on 64-bit).  From then on, the
// frontier batches, rank logs and level tables that pool workers allocate
// come from those threads' malloc arenas, and malloc_trim does not hand the
// freed tops of those arenas back: a process that calls model_check again
// keeps the previous call's largest level resident and grows past it.
// PageAllocator maps every request of at least kPageMapThreshold bytes with
// anonymous mmap and unmaps it on deallocation, so the pages go back to the
// OS with the buffer (DESIGN.md §9).  Smaller requests go to operator new.
//
// Under AddressSanitizer every request goes to operator new, so the
// sanitizer keeps checking these buffers.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SCV_PAGE_ALLOC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCV_PAGE_ALLOC_ASAN 1
#endif
#endif

namespace scv {

/// Requests of at least this many bytes are page-mapped.
inline constexpr std::size_t kPageMapThreshold = std::size_t{256} << 10;

/// Whether PageAllocator maps anything (false under AddressSanitizer).
#ifdef SCV_PAGE_ALLOC_ASAN
inline constexpr bool kPageMapping = false;
#else
inline constexpr bool kPageMapping = true;
#endif

/// Bytes PageAllocator holds mapped right now (whole pages).
[[nodiscard]] std::size_t page_mapped_bytes() noexcept;
/// Bytes PageAllocator has mapped since the process started (whole pages).
[[nodiscard]] std::size_t page_mapped_total() noexcept;

/// `bytes` of storage aligned for any fundamental type: mapped when
/// kPageMapping and bytes >= kPageMapThreshold, else from operator new.
[[nodiscard]] void* page_allocate(std::size_t bytes);
/// Releases what page_allocate(bytes) returned; `bytes` must match.
void page_deallocate(void* p, std::size_t bytes) noexcept;

/// Stateless std allocator over page_allocate.  All instances compare
/// equal, so containers move and swap their buffers without copying.
template <class T>
class PageAllocator {
 public:
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PageAllocator() noexcept = default;
  template <class U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(page_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    page_deallocate(p, n * sizeof(T));
  }

  template <class U>
  [[nodiscard]] bool operator==(const PageAllocator<U>& /*other*/)
      const noexcept {
    return true;
  }
};

template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace scv
