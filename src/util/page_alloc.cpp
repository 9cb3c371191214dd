#include "util/page_alloc.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>

namespace scv {
namespace {

std::atomic<std::size_t> g_mapped{0};
std::atomic<std::size_t> g_mapped_total{0};

/// The length of the mapping that holds `bytes`: whole pages.
std::size_t mapping_length(std::size_t bytes) noexcept {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

bool mapped(std::size_t bytes) noexcept {
  return kPageMapping && bytes >= kPageMapThreshold;
}

}  // namespace

std::size_t page_mapped_bytes() noexcept {
  return g_mapped.load(std::memory_order_relaxed);
}

std::size_t page_mapped_total() noexcept {
  return g_mapped_total.load(std::memory_order_relaxed);
}

void* page_allocate(std::size_t bytes) {
  if (!mapped(bytes)) return ::operator new(bytes);
  const std::size_t len = mapping_length(bytes);
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  g_mapped.fetch_add(len, std::memory_order_relaxed);
  g_mapped_total.fetch_add(len, std::memory_order_relaxed);
  return p;
}

void page_deallocate(void* p, std::size_t bytes) noexcept {
  if (!mapped(bytes)) {
    ::operator delete(p);
    return;
  }
  const std::size_t len = mapping_length(bytes);
  munmap(p, len);
  g_mapped.fetch_sub(len, std::memory_order_relaxed);
}

}  // namespace scv
