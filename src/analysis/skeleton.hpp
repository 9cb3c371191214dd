// ProtocolSkeleton — the shared static-analysis IR (DESIGN.md §15).
//
// Every lint rule and the POR-footprint inference used to re-walk the
// protocol privately (a bounded BFS here, a deterministic sample walk
// there), each with its own cap and its own blind spots.  The skeleton
// replaces all of them with ONE exhaustive enumeration of the protocol's
// control skeleton — the protocol-only transition system, no observer, no
// checker — with a proper visited set:
//
//   * `arena`/`edge_begin`/`edges` — the reachable states in BFS discovery
//     order and their outgoing transitions as a compact CSR graph.  Edges
//     deliberately mirror enumerate() verbatim: if a protocol enumerates
//     the same transition twice, the duplicate edge is kept (rule R5b reads
//     it straight off the graph).
//   * `shapes` — the deduplicated per-transition effect table.  Two
//     transitions with equal serialized identity (encode_transition: action,
//     tracking label, sorted copy entries, serialize_loc) are the same
//     *shape*; each shape carries the location sets it reads / writes /
//     clears and a static observer-visibility bit, computed once from the
//     labels.  An edge stores a 4-byte shape id instead of a ~40-byte
//     Transition, so the whole graph for the largest bundled protocol
//     (directory p2: ~227k states, ~1.3M edges) fits in a few MB.
//
// Exhaustiveness is what upgrades the rules from "sound for errors on what
// it samples" to definite verdicts: a property that holds on every skeleton
// state/edge holds on every reachable protocol state, full stop.  `complete`
// records whether the enumeration actually exhausted the reachable set; the
// safety cap exists only to bound pathological protocols, and hitting it
// flips every consumer back to sampled-evidence wording.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "protocol/protocol.hpp"

namespace scv::analysis {

/// Dense bitmask over the location alphabet (kMaxLocations = 0xfe, so four
/// 64-bit words always suffice).  The lattice element of the dataflow
/// solvers and the effect-set representation of TransitionShape.
struct LocSet {
  std::uint64_t w[4] = {0, 0, 0, 0};

  void set(std::size_t loc) noexcept { w[loc >> 6] |= 1ULL << (loc & 63); }
  [[nodiscard]] bool test(std::size_t loc) const noexcept {
    return (w[loc >> 6] >> (loc & 63)) & 1;
  }
  [[nodiscard]] bool empty() const noexcept {
    return (w[0] | w[1] | w[2] | w[3]) == 0;
  }
  [[nodiscard]] int count() const noexcept {
    return std::popcount(w[0]) + std::popcount(w[1]) + std::popcount(w[2]) +
           std::popcount(w[3]);
  }
  /// Union-in; returns true when the receiver grew (the solvers' change
  /// test).
  bool merge(const LocSet& o) noexcept {
    bool grew = false;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t next = w[i] | o.w[i];
      grew |= next != w[i];
      w[i] = next;
    }
    return grew;
  }
  LocSet& operator|=(const LocSet& o) noexcept {
    merge(o);
    return *this;
  }
  /// Set difference (remove o's members).
  LocSet& operator-=(const LocSet& o) noexcept {
    for (int i = 0; i < 4; ++i) w[i] &= ~o.w[i];
    return *this;
  }
  friend LocSet operator|(LocSet a, const LocSet& b) noexcept {
    a |= b;
    return a;
  }
  friend LocSet operator-(LocSet a, const LocSet& b) noexcept {
    a -= b;
    return a;
  }
  friend bool operator==(const LocSet&, const LocSet&) = default;
};

/// One deduplicated transition shape: the representative instance (full
/// identity — two transitions with equal keys are indistinguishable to the
/// protocol, the observer and the checker) plus the effect sets computed
/// syntactically from its tracking labels.
struct TransitionShape {
  Transition rep;
  std::string key;  ///< encode_transition(rep)

  /// Locations consulted: LD tracking label, serialize_loc, copy sources.
  LocSet reads;
  /// Locations that come to hold a tracked value: ST label, copy
  /// destinations with a real source.
  LocSet writes;
  /// Locations emptied: copy destinations with the kClearSrc source.
  LocSet clears;

  /// Static over-approximation of Product::transition_visible: memory ops,
  /// serialization points and copy-carrying transitions may emit observer
  /// symbols or move mirrored tracking state.  A shape with this bit clear
  /// is invisible under every observer configuration.
  bool statically_visible = true;

  std::uint32_t occurrences = 0;  ///< skeleton edges with this shape
  std::uint32_t self_loops = 0;   ///< occurrences where post-state == pre
  std::uint32_t first_state = 0;  ///< first (BFS order) state enabling it
};

/// One outgoing transition of one skeleton state.
struct SkeletonEdge {
  std::uint32_t to = 0;     ///< successor state index
  std::uint32_t shape = 0;  ///< index into ProtocolSkeleton::shapes
};

struct SkeletonBuildOptions {
  /// Safety cap on enumerated states.  Far above every bundled protocol
  /// (largest: directory p2 at ~227k); hitting it clears `complete`.
  std::size_t max_states = 1u << 21;
  /// BFS depth cap (levels).  Unlimited by default; the legacy sampled lint
  /// mode sets it to reproduce the old bounded-sample behavior.
  std::size_t max_depth = std::numeric_limits<std::size_t>::max();
};

class ProtocolSkeleton {
 public:
  const Protocol* protocol = nullptr;
  std::size_t state_bytes = 0;

  /// Reachable states, BFS discovery order, `state_bytes` each ([0] is the
  /// initial state).
  std::vector<std::uint8_t> arena;
  /// CSR offsets into `edges`: state i's transitions occupy
  /// [edge_begin[i], edge_begin[i+1]).  Size num_states() + 1.
  std::vector<std::uint32_t> edge_begin;
  std::vector<SkeletonEdge> edges;

  std::vector<TransitionShape> shapes;
  std::unordered_map<std::string, std::uint32_t> shape_index;

  /// False when max_states or max_depth cut the enumeration short.  An
  /// incomplete skeleton still lists only genuinely reachable states, but
  /// "holds on every skeleton state" is then evidence, not a verdict.
  bool complete = false;

  [[nodiscard]] std::size_t num_states() const noexcept {
    return edge_begin.empty() ? 0 : edge_begin.size() - 1;
  }
  [[nodiscard]] std::span<const std::uint8_t> state(
      std::size_t i) const noexcept {
    return {arena.data() + i * state_bytes, state_bytes};
  }
  [[nodiscard]] std::span<const SkeletonEdge> out_edges(
      std::size_t i) const noexcept {
    return {edges.data() + edge_begin[i],
            edges.data() + edge_begin[i + 1]};
  }
  /// Shape id for a serialized transition key, or npos when the transition
  /// never occurs on any skeleton edge.
  static constexpr std::uint32_t npos = 0xffffffffu;
  [[nodiscard]] std::uint32_t find_shape(const std::string& key) const {
    const auto it = shape_index.find(key);
    return it == shape_index.end() ? npos : it->second;
  }
  /// Same, serializing `t` first (thread-safe: the per-thread encode buffer
  /// is reused, the map lookup is read-only).  The InferredPorOracle's hot
  /// path.
  [[nodiscard]] std::uint32_t find_shape(const Transition& t) const;
  /// The edge with shape `shape` leaving state `from`, or nullptr when the
  /// shape is not enabled there.  Linear scan: out-degrees of the bundled
  /// protocols are single digits, and the CSR rows are cache-resident.
  [[nodiscard]] const SkeletonEdge* edge_with_shape(
      std::size_t from, std::uint32_t shape) const noexcept {
    for (const SkeletonEdge& e : out_edges(from)) {
      if (e.shape == shape) return &e;
    }
    return nullptr;
  }
};

/// Exhaustively enumerates the protocol's control skeleton.
[[nodiscard]] ProtocolSkeleton build_skeleton(
    const Protocol& protocol, const SkeletonBuildOptions& options = {});

}  // namespace scv::analysis
