// ST-index tracking (Section 4.1, Figure 4).
//
// For a run R and location l, ST-index(R,l) is 0 if l holds no store's
// value, and otherwise the identity of the store whose value l holds,
// computed inductively from the tracking labels: a ST transition with label
// l stamps l with the store's index; copy labels move indexes between
// locations (simultaneously, reading the pre-state); everything else leaves
// them unchanged.
//
// The class is generic in the "store identity" (a uint32 handle): the test
// suite instantiates it with 1-based trace indexes to reproduce Figure 4,
// while the observer instantiates it with its internal node handles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "protocol/protocol.hpp"
#include "util/byte_io.hpp"

namespace scv {

class StIndexTracker {
 public:
  /// Handle 0 plays the role of "no store" (the paper's ST-index 0).
  static constexpr std::uint32_t kNoStore = 0;

  explicit StIndexTracker(std::size_t locations)
      : index_(locations, kNoStore) {}

  [[nodiscard]] std::size_t locations() const noexcept {
    return index_.size();
  }

  [[nodiscard]] std::uint32_t at(LocId loc) const {
    SCV_EXPECTS(loc < index_.size());
    return index_[loc];
  }

  /// A ST transition with tracking label `loc` wrote store `handle` there.
  void on_store(LocId loc, std::uint32_t handle) {
    SCV_EXPECTS(loc < index_.size());
    index_[loc] = handle;
  }

  /// Applies a transition's copy-tracking entries simultaneously: all
  /// sources are read from the pre-state before any destination is written.
  void on_copies(std::span<const CopyEntry> copies) {
    // Copy lists are tiny (InlineVec), so a local snapshot of the sources
    // is cheaper than cloning the whole index array.
    std::uint32_t staged[16];
    SCV_EXPECTS(copies.size() <= 16);
    for (std::size_t i = 0; i < copies.size(); ++i) {
      staged[i] = copies[i].src == kClearSrc ? kNoStore : at(copies[i].src);
    }
    for (std::size_t i = 0; i < copies.size(); ++i) {
      SCV_EXPECTS(copies[i].dst < index_.size());
      index_[copies[i].dst] = staged[i];
    }
  }

  /// Wholesale replacement of the index array (same location count); used
  /// by the observer's processor-permutation hook, which relocates entries
  /// through the protocol's permute_loc map.
  void assign(std::span<const std::uint32_t> index) {
    SCV_EXPECTS(index.size() == index_.size());
    std::copy(index.begin(), index.end(), index_.begin());
  }

  /// Reads one varint handle per location, the tracker section of
  /// Observer::snapshot; used by the compact-frontier restore path.
  void restore(ByteReader& r) {
    for (std::uint32_t& h : index_) h = static_cast<std::uint32_t>(r.uvar());
  }

 private:
  std::vector<std::uint32_t> index_;
};

}  // namespace scv
