// The protocol-independent finite-state checker of Theorem 3.1.
//
// Reads an observer run (a stream of k-graph-descriptor symbols whose node
// labels are LD/ST operations and whose edge labels are the annotations of
// Section 3.1) and rejects unless the stream describes an acyclic constraint
// graph.  It combines:
//
//   * the cycle checker of Lemma 3.3 (active graph with edge contraction);
//   * the edge-annotation checks from the proof of Theorem 3.1:
//       - program order edges totally order each processor's operations,
//         consistent with trace order;
//       - ST order edges totally order the stores of each block;
//       - every LD(P,B,V), V != ⊥, has exactly one inheritance edge, from a
//         ST(*,B,V) node;
//       - forced-edge obligations (constraint 5(a)): for a store i with
//         inheritance edge to j and ST-order successor k, a forced edge must
//         leave j — or a program-order-later load of the same processor that
//         also inherits from i — and land on k;
//       - the ⊥-load rule (constraint 5(b)): the last LD(P,B,⊥) per
//         processor must have a forced edge to the first store of B in ST
//         order.
//
// Prompt-descriptor discipline.  The paper's checker defers removal of
// obligation-carrying loads; equivalently, we require the descriptor to keep
// such nodes *live* (holding an ID) until their obligations discharge, and
// reject retirements that strand an obligation.  This accepts every string
// the Theorem 4.1 observer emits (the observer keeps exactly those nodes
// active) and rejects a superset of what the paper's checker rejects, so
// using it for verification remains sound: if the checker never rejects,
// every run's graph is an acyclic constraint graph.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "checker/memory_model.hpp"
#include "descriptor/symbol.hpp"
#include "protocol/protocol.hpp"  // ProcPerm (header-only; no protocol dep)
#include "util/byte_io.hpp"

namespace scv {

inline constexpr std::size_t kMaxProcs = 6;
inline constexpr std::size_t kMaxBlocks = 6;

struct ScCheckerConfig {
  std::size_t k = 8;       ///< descriptor bandwidth bound (IDs 1..k+1)
  std::size_t procs = 2;   ///< p
  std::size_t blocks = 1;  ///< b
  std::size_t values = 1;  ///< v (real values 1..v)
  /// The memory model whose rule table instantiates the checker
  /// (memory_model.hpp).  Defaults to SC, which is byte-identical to the
  /// pre-model-axis checker in every serialization and signature path.
  MemoryModel model{};

  /// Empty when every field is in range and the model combination is
  /// consistent; otherwise a precise description of the first offending
  /// field ("procs = 9 exceeds kMaxProcs = 6", "preemption bound 1
  /// combined with model tso").  The ScChecker constructor aborts with
  /// this message on a bad config; callers holding *untrusted*
  /// configurations (e.g. a run-trace file header) call this first and turn
  /// the reason into a recoverable error instead.
  [[nodiscard]] std::string invalid_reason() const;

  friend bool operator==(const ScCheckerConfig&,
                         const ScCheckerConfig&) = default;
};

class ScChecker {
 public:
  enum class Status : std::uint8_t { Ok, Reject };

  explicit ScChecker(const ScCheckerConfig& config);

  ScChecker(const ScChecker&) = default;
  ScChecker(ScChecker&&) = default;
  /// Copies the live slots only: slots outside used_mask_ always hold a
  /// default Node, so the ones leaving the live set are reset and the rest
  /// of the 64-slot array is left alone.  The model checker copies a
  /// checker into its successor scratch before every transition.
  ScChecker& operator=(const ScChecker& other);
  ScChecker& operator=(ScChecker&&) = default;

  /// Consumes one observer symbol; once rejected, stays rejected.
  Status feed(const Symbol& sym);

  /// Consumes a whole batch, stopping at the first reject.  Semantically
  /// feed() in a loop; every driver feeds one step's symbols per call
  /// (Product::step, the trace replayer, the streaming service).
  Status feed_batch(std::span<const Symbol> syms);

  [[nodiscard]] const ScCheckerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] bool rejected() const noexcept { return book_.rejected; }
  [[nodiscard]] const std::string& reject_reason() const noexcept {
    return reason_;
  }

  [[nodiscard]] std::size_t active_nodes() const noexcept;

  /// Raw state serialization (raw slots and IDs).  Deterministic for a
  /// given symbol stream, but *not* canonical across isomorphic states.
  /// Live-slot layout: the chain and block header, the used-slot mask as a
  /// varint, then one record per live slot in ascending slot order, with
  /// the ID set, adjacency and forced-edge masks as varints.
  void serialize(ByteWriter& w) const;

  /// Canonical serialization for model-checking product hashing: node slots
  /// are renamed through `id_canon` (the map produced by
  /// Observer::serialize, from descriptor ID to canonical node number), so
  /// two checker states that differ only in ID/slot naming serialize
  /// identically.  Requires every active node to hold at least one mapped
  /// ID — guaranteed when driven by the observer, whose retirements are
  /// announced eagerly via the null ID.
  ///
  /// If `perm` is non-null the output is byte-identical to serializing a
  /// copy of this checker after permute_procs(*perm) (with `id_canon`
  /// produced by the matching Observer::serialize under the same `perm`),
  /// without mutating anything — per-processor bookkeeping is read through
  /// the inverse renaming.  Slots and adjacency masks are unaffected by
  /// permute_procs, so everything else serializes as-is (DESIGN.md §13).
  void serialize_canonical(ByteWriter& w, std::span<const GraphId> id_canon,
                           const ProcPerm* perm = nullptr) const;

  /// serialize() is already a raw, faithful dump of every mutable field, so
  /// one encoding serves the compact frontier, the service's window
  /// snapshots and run-trace excerpt bases; restore() is its inverse.  Only
  /// valid between two checkers built from the same config.  Neither
  /// allocates when the caller reuses the ByteWriter (clear() keeps
  /// capacity) — the service snapshots checkers on every quarantine window
  /// rotation, so this path must stay allocation-free in steady state.
  void snapshot(ByteWriter& w) const { serialize(w); }
  void restore(ByteReader& r);

  /// Validating restore for *untrusted* snapshot bytes (a run-trace
  /// excerpt's base_state crosses a file trust boundary, unlike the model
  /// checker's in-process frontier entries).  Checks structure before
  /// mutating anything: exact length, canonical varints, flag bytes within
  /// their bits, slot references confined to {kNone, kGone} ∪
  /// [0, kMaxSlots), operation labels within the config's ranges, non-empty
  /// pairwise-disjoint ID sets per active node, and pending-load references
  /// pointing at active slots (the invariants the aborting feed-path
  /// assertions rely on).  An accepted buffer is byte for byte what
  /// serialize() writes for the restored state.  On success delegates to
  /// restore(); on failure leaves the checker untouched and explains why.
  [[nodiscard]] bool try_restore(std::span<const std::uint8_t> bytes,
                                 std::string& error);

  /// Renames processors consistently with Observer::permute_procs: node
  /// operations take the renamed proc, and the per-processor bookkeeping
  /// (program-order chains, pending ⊥-loads, forced-edge obligations keyed
  /// by processor) moves with its owner.  Slots, ID bindings and adjacency
  /// masks are untouched.
  void permute_procs(const ProcPerm& perm);

  /// Renaming-equivariant, naming-free signature of processor `p`'s share
  /// of the checker state; see Observer::proc_signature.
  void proc_signature(ProcId p, ByteWriter& w) const;

  /// Bitmask (bit p set) of processors whose proc_signature may have
  /// changed since the last reset_touched().  The product steps the checker
  /// through a *stream* of symbols per transition, so the product (not
  /// feed) owns the reset; restore() and permute_procs() poison the mask to
  /// all-ones.  Conservative supersets are sound (DESIGN.md §13).
  [[nodiscard]] std::uint32_t touched_procs() const noexcept {
    return book_.touched;
  }
  void reset_touched() noexcept { book_.touched = 0; }

  /// Bitmask (bit p set) of processors that currently carry an open
  /// constraint-graph obligation: an undischarged program-order edge, a
  /// load owing a forced edge (constraint 5(a), from either end of the
  /// store's pending list), or a pending ⊥-load anchor (constraint 5(b)).
  /// This is the POR conflict-visibility query (DESIGN.md §14): a processor
  /// with no obligations has nothing in flight that a deferred transition
  /// of another processor could discharge differently, which the engine's
  /// ample self-check cross-validates against full expansion.
  [[nodiscard]] std::uint32_t obligation_procs() const noexcept;

 private:
  static constexpr std::size_t kMaxSlots = kMaxBandwidth + 2;
  static constexpr std::int8_t kNone = -1;
  /// sto_succ value meaning "successor existed but has been retired".
  static constexpr std::int8_t kGone = -2;

  struct Node {
    Operation op{};
    std::uint64_t id_set = 0;
    std::uint64_t out = 0;  ///< adjacency over slots, for cycle checking

    bool po_in = false, po_out = false;
    // Store fields.
    bool sto_in = false, sto_out = false;
    std::int8_t sto_succ = kNone;
    std::int8_t pending_ld[kMaxProcs];  ///< last load per proc owing a
                                        ///< forced edge for this store
    // Load fields.
    bool inh_in = false;
    std::int8_t inh_src = kNone;
    std::int8_t forced_target = kNone;  ///< store owed a forced edge
    std::int8_t pending_for = kNone;    ///< store whose pending list holds us
    bool bottom_pending = false;        ///< current last ⊥-load of (P,B)
    std::uint64_t forced_out = 0;  ///< slots this node has forced edges to

    Node() {
      for (auto& p : pending_ld) p = kNone;
    }
  };

  Status reject(std::string reason);
  void unbind_id(GraphId id);
  Status retire(std::size_t s);
  [[nodiscard]] int slot_of(GraphId id) const;
  [[nodiscard]] int alloc_slot();
  [[nodiscard]] bool path_exists(std::size_t from, std::size_t to) const;

  Status on_node(const NodeDesc& n);
  Status on_edge(const EdgeDesc& e);
  Status add_structural_edge(std::size_t from, std::size_t to);
  Status check_po_edge(std::size_t from, std::size_t to);
  Status check_sto_edge(std::size_t from, std::size_t to);
  Status check_inh_edge(std::size_t from, std::size_t to);
  Status check_forced_edge(std::size_t from, std::size_t to);

  ScCheckerConfig cfg_;
  /// Rule table of cfg_.model, cached at construction — the
  /// per-symbol hot path reads it on every node/edge.
  ModelRules rules_;
  [[nodiscard]] const ModelRules& rules() const noexcept { return rules_; }
  Node nodes_[kMaxSlots];
  /// Bit s set <=> nodes_[s] holds a live node.  The graph holds a handful
  /// of live nodes out of up to 64 slots, so the hot scans (canonical
  /// serialization, per-processor signatures) walk this mask's set bits
  /// instead of touching all kMaxSlots Node records.
  std::uint64_t used_mask_ = 0;
  [[nodiscard]] bool used(int s) const noexcept {
    return ((used_mask_ >> s) & 1U) != 0;
  }
  // Program order bookkeeping, one chain per processor — or per
  // (processor, block) under a per-block-chain model (coherence).
  static constexpr std::size_t kMaxChains = kMaxProcs * kMaxBlocks;
  [[nodiscard]] std::size_t chain_count() const {
    return rules().chain_count(cfg_.procs, cfg_.blocks);
  }
  [[nodiscard]] std::size_t chain_of(const Operation& op) const {
    return rules().chain_of(op.proc, op.block, cfg_.blocks);
  }

  /// Everything mutable besides the node slots and the reject reason, in
  /// one trivially copyable block: the copy assignment copies it whole, so
  /// a field added here is copied too.
  struct Bookkeeping {
    /// Flat ID → slot map: id_slot[id] is the slot whose id_set holds
    /// `id`, kNone if unbound.  Every edge symbol resolves two IDs, so
    /// slot_of is the hottest lookup in the per-symbol path; the flat map
    /// makes it one indexed load instead of a set-bit scan over the active
    /// nodes' id_sets.  Maintained at bind (on_node, AddId), unbind,
    /// retirement and restore; IDs are bounded by k+1 < kMaxSlots, so the
    /// table indexes by raw GraphId.
    std::int8_t id_slot[kMaxSlots];

    std::int8_t last_op[kMaxChains];  ///< slot of latest op per chain
    bool last_op_live[kMaxChains];    ///< false once that slot retired
    bool po_pending[kMaxChains];      ///< awaiting (prev -> latest) edge
    std::int8_t po_expected_from[kMaxChains];

    // Store-chain bookkeeping (ModelRules::store_chain, i.e. TSO): each
    // processor's store subsequence is disciplined like a second po chain,
    // so ST→ST order survives the relaxed ST→LD gaps.  When the previous
    // operation of the processor is itself the chain tail store, the
    // ordinary chain edge covers the pair and no separate store-chain edge
    // is owed.  All four arrays stay at their initial values under models
    // without the rule, and none of the serialization paths emit them
    // then — SC and coherence encodings are byte-identical to the
    // pre-model-axis checker.
    std::int8_t last_st[kMaxProcs];  ///< slot of latest store per proc
    bool last_st_live[kMaxProcs];    ///< false once that slot retired
    bool st_pending[kMaxProcs];      ///< awaiting (prev store -> latest) edge
    std::int8_t st_expected_from[kMaxProcs];

    // Per-block ST order / ⊥-load bookkeeping.
    std::int8_t root_ref[kMaxBlocks];  ///< store pinned as STo-first by a
                                       ///< ⊥-load's forced edge
    bool root_retired[kMaxBlocks];     ///< pinned root has retired
    std::uint8_t retired_no_in[kMaxBlocks];
    std::uint8_t retired_no_out[kMaxBlocks];
    std::int8_t pending_bottom[kMaxBlocks][kMaxProcs];

    bool rejected = false;
    std::uint32_t touched = ~0u;  ///< see touched_procs()
  };
  static_assert(std::is_trivially_copyable_v<Bookkeeping>);
  Bookkeeping book_;

  /// See touched_procs().  Mutation sites: node arrival/retirement (chain
  /// records and per-processor node counts), program-order edge discharge,
  /// and pending-⊥ anchor updates.
  void mark_touched(std::size_t p) noexcept { book_.touched |= 1u << p; }

  std::string reason_;
};

}  // namespace scv
