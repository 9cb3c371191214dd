// The finite-state witness observer of Theorem 4.1.
//
// The observer rides along with a protocol execution (it is driven by the
// protocol's transitions, so trace equality — property (i) of Definition 3.1
// — holds by construction) and emits a k-graph descriptor of the constraint
// graph W(R) of Section 4.3:
//
//   * inheritance edges from the ST-index tracking of Section 4.1
//     (Lemma 4.1);
//   * program order edges by remembering each processor's latest operation;
//   * ST order edges from the ST order generator (Section 4.2): trivial
//     real-time ordering, or serialize_loc hints for deferred-serialization
//     protocols such as Lazy Caching;
//   * forced edges per the discipline in the proof of Theorem 4.1: a load
//     stays active until its store's ST-order successor is known (then a
//     forced edge is emitted) or a program-order-later load inherits from
//     the same store; ⊥-loads stay until the first store of their block is
//     serialized.
//
// Node lifetimes follow Section 4's accounting: a node is retired — its
// descriptor IDs recycled — exactly when it is no longer inh-active,
// STo-active, forced-active, a program-order tail, or a pinned ⊥-root.
// The resulting descriptor bandwidth is bounded by a function of L, p, b
// (Section 4.4), independent of run length; if the configured ID pool is
// exhausted the observer reports BandwidthExceeded instead of guessing.
//
// Two emission modes:
//   * compact (default): one descriptor ID per live node;
//   * location-mirrored (Lemma 4.1 style): IDs 1..L alias the storage
//     locations holding each store's value, maintained with add-ID symbols,
//     plus a pool ID per node.  Same expanded graph, longer descriptor;
//     kept for fidelity to the paper and as an ablation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "checker/memory_model.hpp"
#include "descriptor/symbol.hpp"
#include "observer/st_order.hpp"
#include "protocol/protocol.hpp"
#include "protocol/st_index.hpp"
#include "util/byte_io.hpp"

namespace scv {

enum class ObserverStatus : std::uint8_t {
  Ok,
  /// The ID pool ran dry: the run's constraint graph exceeded the
  /// configured bandwidth bound (raise it, or the protocol is outside Γ).
  BandwidthExceeded,
  /// The tracking labels lied (a load's value does not match the store its
  /// location tracks, etc.): the protocol is not in the class of
  /// Section 4.1 as annotated.
  TrackingInconsistent,
};

struct ObserverConfig {
  /// Mirror storage locations as descriptor IDs (Lemma 4.1 style).
  bool location_mirrored = false;
  /// Pool of node IDs; 0 = use default_pool_size(protocol, model).
  std::size_t pool_size = 0;
  /// The memory model whose rule table drives emission (memory_model.hpp):
  /// which po chains are threaded and whether the per-processor store chain
  /// gets its own po edges (TSO).  Pair with ScCheckerConfig::model.
  MemoryModel model{};
};

/// The paper's upper bound on the observer's extra state (Section 4.4):
/// (L + p·b)(lg p + lg b + lg v + 1) + L·lg L bits, where lg is ceil_log2.
/// Observer::active_node_bound is the matching bound on active nodes.
[[nodiscard]] std::size_t observer_size_bound_bits(std::size_t p,
                                                   std::size_t b,
                                                   std::size_t v,
                                                   std::size_t L);

/// ceil(log2(x)) with lg(1) = 0 (the paper's "lg").
[[nodiscard]] std::size_t ceil_log2(std::size_t x);

class Observer {
 public:
  static constexpr std::size_t kMaxObsProcs = 6;
  static constexpr std::size_t kMaxObsBlocks = 6;

  explicit Observer(const Protocol& protocol, ObserverConfig config = {});

  Observer(const Observer&) = default;
  Observer& operator=(const Observer&) = default;

  /// The Section 4.4 static bound on simultaneously active nodes under
  /// `model`, unclamped: L inh-active stores, pb forced-active loads, one
  /// tail per program-order chain (p, or pb under per-block chains), one
  /// store-chain tail per processor under TSO, 2b ST-order tails and roots,
  /// plus slack.  Lint rule R3 compares configured pools against it.
  [[nodiscard]] static std::size_t active_node_bound(
      const Protocol& p, const MemoryModel& model = {});

  /// The pool the constructor allocates when ObserverConfig::pool_size is
  /// 0: active_node_bound clamped to the representable bandwidth.
  [[nodiscard]] static std::size_t default_pool_size(
      const Protocol& p, const MemoryModel& model = {}) {
    return std::min(active_node_bound(p, model), kMaxBandwidth - 1);
  }

  /// The ID pool an observer built from `config` allocates and the
  /// descriptor bandwidth k it emits under: pool = config.pool_size, or
  /// default_pool_size when that is 0; k = pool, plus L when
  /// location-mirrored.  The constructor, lint rule R3 and R4's capacity
  /// warning all read it here.
  struct PoolBandwidth {
    std::size_t pool = 0;
    std::size_t k = 0;
  };
  [[nodiscard]] static PoolBandwidth pool_and_bandwidth(
      const Protocol& p, const ObserverConfig& config);

  /// The descriptor bandwidth parameter k this observer emits under (IDs
  /// range over 1..k+1).  Feed the same k to the checker.
  [[nodiscard]] std::size_t bandwidth() const noexcept { return k_; }

  /// The configuration this observer was built with.  POR visibility
  /// gating reads location_mirrored: in mirrored mode copy labels emit
  /// add-ID symbols, so copy-carrying transitions stop being stutters.
  [[nodiscard]] const ObserverConfig& config() const noexcept { return cfg_; }

  /// Processes one protocol transition.  `post_state` is the protocol state
  /// *after* the transition (used for the could_load_bottom hook).  Appends
  /// the emitted descriptor symbols to `out`.
  ObserverStatus step(const Transition& t,
                      std::span<const std::uint8_t> post_state,
                      std::vector<Symbol>& out);

  /// Diagnostics.
  [[nodiscard]] std::size_t live_nodes() const noexcept;
  [[nodiscard]] std::size_t peak_live_nodes() const noexcept {
    return peak_live_;
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Canonical state serialization (tracker + node table + globals) for
  /// model-checking product hashing.  Live nodes are renamed into a
  /// canonical discovery order (locations first, then per-processor /
  /// per-block anchors, then reference closure), so two states that differ
  /// only in ID/handle naming serialize identically — a symmetry reduction
  /// that shrinks the product state space by orders of magnitude.
  ///
  /// If `id_canon` is non-null it receives the map from descriptor ID to
  /// canonical node number (1-based; 0 = unmapped), sized k()+2.  The
  /// checker's canonical serialization must use the same map.
  ///
  /// If `perm` is non-null the output is byte-identical to serializing a
  /// copy of this observer after permute_procs(*perm), without mutating
  /// anything: anchor scans read through the inverse renaming and node
  /// processors are written through the forward renaming.  This is the
  /// canonicalizer's delta re-keying path — one candidate key per tie-group
  /// permutation with zero permute traffic (DESIGN.md §13).
  void serialize(ByteWriter& w, std::vector<GraphId>* id_canon = nullptr,
                 const ProcPerm* perm = nullptr) const;

  /// Size in bytes of the serialized extra state (Section 4.4 comparison).
  [[nodiscard]] std::size_t state_bytes() const;

  /// Raw, faithful snapshot of the mutable state (tracker, chain/block
  /// anchors, free mask, then a live-node mask and the records of live
  /// nodes with their real handles and pool IDs).  Unlike serialize() —
  /// which canonicalizes names and drops pool bookkeeping on purpose —
  /// restore() of a snapshot reproduces the observer bit-for-bit, which is
  /// what the model checker's compact frontier needs.  Only valid between
  /// two observers constructed over the same protocol and config.
  void snapshot(ByteWriter& w) const;
  void restore(ByteReader& r);

  /// Renames processors consistently with Protocol::permute_procs: tracker
  /// entries relocate through permute_loc, program-order chains and pending
  /// ⊥-load anchors move to their renamed processor, and node operations
  /// take the renamed proc.  Node handles, pool IDs and the free mask are
  /// untouched, so a permuted observer emits the *same* descriptor IDs for
  /// corresponding nodes — the step-equivariance the orbit canonicalizer
  /// relies on.
  void permute_procs(const ProcPerm& perm);

  /// Renaming-equivariant, naming-free signature of processor `p`'s share
  /// of the observer state (program-order chain heads, pending ⊥-loads,
  /// live-node count); used by the canonicalizer to prune the permutation
  /// search.  Must not write handles or pool IDs (they are naming-
  /// dependent) nor processor indices (they are not equivariant).
  void proc_signature(ProcId p, ByteWriter& w) const;

  /// Bitmask (bit p set) of processors whose proc_signature may have
  /// changed since the last step().  step() resets it and re-accumulates;
  /// restore() and permute_procs() poison it to all-ones because the mask
  /// is only meaningful immediately after a step.  Conservative supersets
  /// are sound (DESIGN.md §13).
  [[nodiscard]] std::uint32_t touched_procs() const noexcept {
    return touched_;
  }

  /// Change certificate: false only after a step() that left every field
  /// serialize() reads — the tracker, the chain, store-chain and ST-order
  /// anchors, the pending ⊥ anchors and the live-node records — exactly as
  /// it was, so the pre-step serialize() bytes and id_canon still stand.
  /// Set by node creation and retirement, on_serialized, a store's tracking
  /// label, and a copy that switches its destination to a different store;
  /// restore() and permute_procs() poison it like touched_procs().  The
  /// canonicalizer reuses the observer's key bytes on it (DESIGN.md §13).
  [[nodiscard]] bool changed() const noexcept { return changed_; }

 private:
  static constexpr NodeHandle kNone = 0;
  /// sto_succ sentinel: the successor existed but has been retired.
  static constexpr NodeHandle kGoneSucc = ~0u;

  struct Node {
    Operation op{};
    GraphId pool_id = kNoId;
    std::uint32_t copies = 0;  ///< locations currently tracking this store
    bool serialized = false;
    NodeHandle sto_succ = 0;
    NodeHandle sto_pred = 0;
    NodeHandle pending_ld[kMaxObsProcs] = {};
    NodeHandle pending_for = 0;
    bool bottom_pending = false;
  };

  [[nodiscard]] Node& node(NodeHandle h) { return nodes_[h - 1]; }
  [[nodiscard]] const Node& node(NodeHandle h) const { return nodes_[h - 1]; }

  ObserverStatus fail(ObserverStatus status, std::string message);
  [[nodiscard]] GraphId alloc_pool_id();
  void free_pool_id(GraphId id);

  /// Creates a node for operation `op`, emitting its node descriptor and
  /// program order edge.  Returns kNone on pool exhaustion.
  NodeHandle emit_op_node(const Operation& op, std::vector<Symbol>& out);

  /// Emits the STo edge chain step for a newly serialized store, plus the
  /// forced edges it triggers.
  void on_serialized(NodeHandle h, std::vector<Symbol>& out);

  /// Applies tracking-label effects (store stamp + copies) to the tracker,
  /// maintaining per-node copy counts and emitting add-ID symbols in
  /// location-mirrored mode.
  void apply_tracking(const Transition& t, NodeHandle store_node,
                      std::vector<Symbol>& out);

  /// Retires every node with no remaining hold reason (fixpoint pass).
  /// Each retirement is announced in the descriptor stream by rebinding the
  /// node's IDs to the reserved null ID (add-ID(null, I) unbinds I, exactly
  /// the retirement semantics of Section 3.2), so the checker's active
  /// graph mirrors the observer's node table at all times.
  void retire_pass(std::span<const std::uint8_t> post_state,
                   std::vector<Symbol>& out);
  [[nodiscard]] bool must_hold(NodeHandle h,
                               const bool* bottom_loadable) const;
  void retire(NodeHandle h, std::vector<Symbol>& out);

  /// The reserved ID that is never bound to a node; rebinding an ID to it
  /// retires the ID's node in any descriptor consumer.
  [[nodiscard]] GraphId null_id() const {
    return static_cast<GraphId>(k_ + 1);
  }

  const Protocol* protocol_ = nullptr;
  ObserverConfig cfg_{};
  std::size_t k_ = 0;            ///< descriptor bandwidth (IDs 1..k+1)
  GraphId pool_base_ = 1;        ///< first pool ID (L+1 in mirrored mode)
  std::size_t pool_count_ = 0;
  std::uint64_t pool_all_ = 0;   ///< one bit per pool ID
  std::uint64_t pool_free_ = 0;  ///< bit i set => pool ID pool_base_+i free

  /// Bit h-1 set <=> handle h holds a live node.  Handle h owns pool ID
  /// pool_base_+h-1, so the live set is the pool's complement of the free
  /// mask; the per-node scans walk it instead of the whole pool.
  [[nodiscard]] std::uint64_t live_mask() const noexcept {
    return pool_all_ & ~pool_free_;
  }

  StIndexTracker tracker_;
  bool real_time_order_ = true;

  /// Rule table of cfg_.model and the protocol's shape, cached at
  /// construction: the per-step loops run over them, chain_of runs for
  /// every live node on every step, and Protocol::params() is a virtual
  /// call.
  ModelRules rules_{};
  std::size_t procs_ = 0;
  std::size_t blocks_ = 0;
  std::size_t chains_ = 0;  ///< rules_.chain_count(procs_, blocks_)
  [[nodiscard]] const ModelRules& rules() const noexcept { return rules_; }

  std::vector<Node> nodes_;
  /// Program-order chains: one per processor, or per (processor, block)
  /// under a per-block-chain model (coherence).
  [[nodiscard]] std::size_t chain_of(const Operation& op) const {
    return rules().chain_of(op.proc, op.block, blocks_);
  }
  [[nodiscard]] std::size_t chain_count() const noexcept { return chains_; }
  NodeHandle last_op_[kMaxObsProcs * kMaxObsBlocks] = {};
  /// Store-chain tails (ModelRules::store_chain, i.e. TSO): the latest
  /// store per processor, held live so the next store's store-chain po edge
  /// can leave it.  All-kNone under models without the rule, and never
  /// serialized then — SC/coherence encodings stay byte-identical.
  NodeHandle last_st_[kMaxObsProcs] = {};
  NodeHandle sto_tail_[kMaxObsBlocks] = {};  ///< last *serialized* store
  NodeHandle root_[kMaxObsBlocks] = {};      ///< first serialized store
  bool root_gone_[kMaxObsBlocks] = {};
  NodeHandle pending_bottom_[kMaxObsBlocks][kMaxObsProcs] = {};

  /// Marks processor `p`'s signature as possibly changed (see
  /// touched_procs).  Mutation sites: node creation/retirement (the
  /// live-node count and chain heads), serialization and copy-count changes
  /// on chain-head candidates, and pending-⊥ anchor updates.
  void mark_touched(std::size_t p) noexcept { touched_ |= 1u << p; }

  std::size_t peak_live_ = 0;
  std::uint32_t touched_ = ~0u;
  bool changed_ = true;  ///< see changed()
  std::string error_;
  /// Scratch for permute_procs' tracker relocation (kept to reuse capacity;
  /// always empty outside that call, so copies stay cheap).
  std::vector<std::uint32_t> permute_scratch_;
};

}  // namespace scv
