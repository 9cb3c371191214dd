// The product automaton as an explicit component pipeline.
//
// Section 3.4's verification object is the synchronous product of three
// machines: the protocol, the witness observer annotating its transitions,
// and the protocol-independent checker consuming the annotations.  The
// model checker needs four things from that product, uniformly: step it,
// hash it (canonical key), and capture/restore it bit-faithfully (compact
// frontier).  ProductComponent is that contract; Product composes the three
// concrete components and drives every operation through one loop instead
// of the three bespoke per-member code paths the engines used to hand-wire.
//
// Key vs snapshot, deliberately distinct:
//   * key()      — canonical, symmetry-reduced serialization for visited-
//                  state hashing.  The observer renames live nodes into
//                  discovery order and publishes the renaming through
//                  KeyContext; the checker keys itself through the same map,
//                  so components are keyed strictly in product order.
//   * snapshot() — raw, bit-faithful capture (pool IDs, handle naming and
//                  all); restore() of it yields a steppable product.  The
//                  canonical form cannot do this: it erases naming on
//                  purpose.
//
// Symbol distribution: each observer step's emitted symbols are broadcast
// to the attached SymbolSinks — the checker is one sink among others
// (recorder, statistics).  Sinks are observation-only and cannot veto; the
// checker's verdict reaches the driver only because Product polls its
// sticky rejected() state after delivering the step (see
// descriptor/sink.hpp for the non-interference argument).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "checker/sc_checker.hpp"
#include "descriptor/sink.hpp"
#include "observer/observer.hpp"
#include "protocol/protocol.hpp"
#include "runlog/sinks.hpp"
#include "util/byte_io.hpp"

namespace scv {

/// Shared context for one canonical-key pass: the observer fills id_canon
/// (descriptor ID -> canonical node number), the checker reads it.
struct KeyContext {
  std::vector<GraphId> id_canon;
};

/// Reusable per-worker scratch for key(): the writer buffer and the key
/// context.  Reusing both kills per-transition heap allocations.
struct KeyScratch {
  ByteWriter w;
  KeyContext ctx;
};

/// One member of the product automaton.
class ProductComponent {
 public:
  virtual ~ProductComponent() = default;

  /// Appends this component's canonical-key contribution to `w`.
  /// Components are keyed in product order (protocol, observer, checker);
  /// `ctx` carries the observer's ID renaming forward to the checker.
  virtual void key(ByteWriter& w, KeyContext& ctx) const = 0;

  /// Bit-faithful state capture; restore() is its inverse.  Only valid
  /// between two components built over the same protocol and config.
  virtual void snapshot(ByteWriter& w) const = 0;
  virtual void restore(ByteReader& r) = 0;

  /// Copies state from a same-shape component (same protocol and config).
  virtual void assign_from(const ProductComponent& other) = 0;

  /// Renames processors by `perm`, consistently across all components (the
  /// protocol moves per-processor state, the observer moves its chains and
  /// tracker entries through permute_loc, the checker its per-processor
  /// bookkeeping).  The group action behind orbit canonicalization.
  virtual void permute_procs(const ProcPerm& perm) = 0;

  /// Appends a renaming-equivariant, naming-free signature of processor
  /// `p`'s share of this component's state; the canonicalizer concatenates
  /// the components' contributions to prune its permutation search.
  virtual void proc_signature(ProcId p, ByteWriter& w) const = 0;

  /// Called by Product::step before the transition is applied: resets the
  /// component's touched-processor tracking for the new step.
  virtual void begin_step() {}

  /// Bitmask (bit p set) of processors whose proc_signature may differ
  /// from its value before the most recent Product::step.  Only meaningful
  /// immediately after a step (assign_from + step is the canonical usage);
  /// conservative supersets are sound, and the default claims every
  /// processor (DESIGN.md §13).
  [[nodiscard]] virtual std::uint32_t touched_procs() const { return ~0u; }

 protected:
  ProductComponent() = default;
  ProductComponent(const ProductComponent&) = default;
  ProductComponent& operator=(const ProductComponent&) = default;
};

/// The protocol's fixed-size state vector, adapted to the component
/// contract.  Its key and snapshot coincide: the byte encoding is already
/// canonical (the protocol framework requires it).
class ProtocolComponent final : public ProductComponent {
 public:
  explicit ProtocolComponent(const Protocol& protocol)
      : protocol_(&protocol), state_(protocol.state_size()) {
    protocol.initial_state(state_);
  }

  [[nodiscard]] std::span<const std::uint8_t> state() const noexcept {
    return state_;
  }
  void enumerate(std::vector<Transition>& out) const {
    protocol_->enumerate(state_, out);
  }
  void apply(const Transition& t) {
    touched_ = protocol_->touched_procs(state_, t);  // mask of the pre-state
    protocol_->apply(state_, t);
  }

  void key(ByteWriter& w, KeyContext& /*ctx*/) const override {
    w.bytes(state_);
  }
  void snapshot(ByteWriter& w) const override { w.bytes(state_); }
  void restore(ByteReader& r) override {
    const auto v = r.view(state_.size());
    std::copy(v.begin(), v.end(), state_.begin());
    touched_ = ~0u;
  }
  void assign_from(const ProductComponent& other) override {
    state_ = static_cast<const ProtocolComponent&>(other).state_;
    touched_ = ~0u;
  }
  void permute_procs(const ProcPerm& perm) override {
    protocol_->permute_procs(state_, perm);
    touched_ = ~0u;
  }
  void proc_signature(ProcId p, ByteWriter& w) const override {
    protocol_->proc_signature(state_, p, w);
  }
  void begin_step() override { touched_ = ~0u; }
  [[nodiscard]] std::uint32_t touched_procs() const override {
    return touched_;
  }

 private:
  const Protocol* protocol_;
  std::vector<std::uint8_t> state_;
  std::uint32_t touched_ = ~0u;
};

/// The Theorem 4.1 witness observer as a component.
class ObserverComponent final : public ProductComponent {
 public:
  ObserverComponent(const Protocol& protocol, const ObserverConfig& config)
      : obs_(protocol, config) {}

  [[nodiscard]] Observer& observer() noexcept { return obs_; }
  [[nodiscard]] const Observer& observer() const noexcept { return obs_; }

  void key(ByteWriter& w, KeyContext& ctx) const override {
    obs_.serialize(w, &ctx.id_canon);
  }
  void snapshot(ByteWriter& w) const override { obs_.snapshot(w); }
  void restore(ByteReader& r) override { obs_.restore(r); }
  void assign_from(const ProductComponent& other) override {
    obs_ = static_cast<const ObserverComponent&>(other).obs_;
  }
  void permute_procs(const ProcPerm& perm) override {
    obs_.permute_procs(perm);
  }
  void proc_signature(ProcId p, ByteWriter& w) const override {
    obs_.proc_signature(p, w);
  }
  // Observer::step resets its own mask, so begin_step needs no override.
  [[nodiscard]] std::uint32_t touched_procs() const override {
    return obs_.touched_procs();
  }

 private:
  Observer obs_;
};

/// The Theorem 3.1 checker as a component.  Keyed through the observer's
/// renaming, so checker states differing only in slot/ID naming coincide.
class CheckerComponent final : public ProductComponent {
 public:
  explicit CheckerComponent(const ScCheckerConfig& config) : chk_(config) {}

  [[nodiscard]] ScChecker& checker() noexcept { return chk_; }
  [[nodiscard]] const ScChecker& checker() const noexcept { return chk_; }

  void key(ByteWriter& w, KeyContext& ctx) const override {
    chk_.serialize_canonical(w, ctx.id_canon);
  }
  void snapshot(ByteWriter& w) const override { chk_.snapshot(w); }
  void restore(ByteReader& r) override { chk_.restore(r); }
  void assign_from(const ProductComponent& other) override {
    chk_ = static_cast<const CheckerComponent&>(other).chk_;
  }
  void permute_procs(const ProcPerm& perm) override {
    chk_.permute_procs(perm);
  }
  void proc_signature(ProcId p, ByteWriter& w) const override {
    chk_.proc_signature(p, w);
  }
  // The checker is fed a stream of symbols per product step, so the product
  // owns the reset (ScChecker::feed cannot know where a step begins).
  void begin_step() override { chk_.reset_touched(); }
  [[nodiscard]] std::uint32_t touched_procs() const override {
    return chk_.touched_procs();
  }

 private:
  ScChecker chk_;
};

/// Outcome of stepping the product by one transition.
enum class StepOutcome : std::uint8_t {
  Ok,
  Reject,    ///< checker rejected the emitted symbols
  Bound,     ///< observer ID pool exhausted
  Tracking,  ///< tracking labels inconsistent with protocol behaviour
};

/// The composed product automaton.  Constructed in the initial state.
/// Non-copyable (it holds internal wiring); state moves between same-shape
/// products via assign_from or snapshot/restore.
class Product {
 public:
  /// `with_observer == false` is protocol-only mode: the product degenerates
  /// to the bare protocol machine (for measuring observer overhead).
  Product(const Protocol& protocol, const ObserverConfig& config,
          bool with_observer);

  Product(const Product&) = delete;
  Product& operator=(const Product&) = delete;

  [[nodiscard]] const Protocol& protocol() const noexcept {
    return *protocol_;
  }
  [[nodiscard]] std::span<const std::uint8_t> protocol_state() const noexcept {
    return proto_.state();
  }
  [[nodiscard]] Observer& observer() { return obs_->observer(); }
  [[nodiscard]] const Observer& observer() const { return obs_->observer(); }
  [[nodiscard]] const ScChecker& checker() const { return chk_->checker(); }
  [[nodiscard]] bool with_observer() const noexcept { return obs_ != nullptr; }

  /// Attaches an additional observation-only sink (recorder, statistics).
  /// The checker sink is always attached first, so it sees symbols in the
  /// same order as before the pipeline existed.  Sinks are not copied by
  /// assign_from: they are per-product wiring, not product state.
  void add_sink(SymbolSink* sink);

  /// Appends the transitions enabled in the current state to `out`.
  void enumerate(std::vector<Transition>& out) const {
    proto_.enumerate(out);
  }

  /// True when stepping `t` can feed the observer/checker pipeline: memory
  /// ops emit node and program-order descriptors, serialize hints fire STo
  /// and forced edges, and in location-mirrored mode copy labels emit
  /// add-ID symbols.  The ample rule (DESIGN.md §14) only ever defers
  /// transitions that are invisible by this test *and* by the protocol's
  /// own footprint flag — visible steps always expand in full.  State-
  /// independent by design, so ample selection on the canonical orbit
  /// representative answers for the whole orbit.
  [[nodiscard]] bool transition_visible(const Transition& t) const;

  /// Steps every component through transition `t`: protocol apply, observer
  /// annotation, symbol broadcast to the sinks, checker verdict poll.
  /// `symbols` is caller-provided scratch that receives the emitted symbols
  /// (cleared first).  `action` frames the step for sinks that record run
  /// structure; exploration passes the default empty view (computing action
  /// names per transition would allocate in the hot loop).
  ///
  /// On Bound/Tracking the observer's partial emission is left in `symbols`
  /// for diagnostics but NOT broadcast: a recorded trace contains complete
  /// steps only, so its stream replays cleanly through an offline checker.
  StepOutcome step(const Transition& t, std::vector<Symbol>& symbols,
                   std::string_view action = {});

  /// Canonical state key into `ks` (cleared first); the returned view is
  /// valid until the next call on the same scratch.
  [[nodiscard]] std::span<const std::uint8_t> key(KeyScratch& ks) const;

  /// Bit-faithful whole-product capture/restore (the compact frontier's
  /// entry payload) and same-shape state copy — each one uniform loop over
  /// the components.
  void snapshot(ByteWriter& w) const;
  void restore(ByteReader& r);
  void assign_from(const Product& other);

  /// Failure diagnostics after a non-Ok step.
  [[nodiscard]] std::string failure_reason(StepOutcome outcome) const;

  /// Renames processors across every component (the S_p group action the
  /// orbit canonicalizer minimizes over).  Handles, pool IDs and slots are
  /// deliberately untouched, so a permuted product emits the same descriptor
  /// IDs when stepped — permute-then-step equals step-then-permute.
  void permute_procs(const ProcPerm& perm);

  /// Concatenates every component's renaming-equivariant signature of
  /// processor `p` into `w` (the canonicalizer's search-pruning key).
  void proc_signature(ProcId p, ByteWriter& w) const;

  /// OR of every component's touched mask: processors whose proc_signature
  /// may differ from before the most recent step().  Conservative supersets
  /// are sound; restore/assign_from/permute poison it to all-ones.
  [[nodiscard]] std::uint32_t touched_procs() const;

 private:
  const Protocol* protocol_;
  ProtocolComponent proto_;
  std::unique_ptr<ObserverComponent> obs_;  ///< null in protocol-only mode
  std::unique_ptr<CheckerComponent> chk_;   ///< null in protocol-only mode
  std::unique_ptr<CheckerSink> chk_sink_;

  std::array<ProductComponent*, 3> components_{};
  std::size_t ncomponents_ = 0;
  std::vector<SymbolSink*> sinks_;
};

/// Orbit canonicalization under processor permutation (the scalarset-style
/// symmetry reduction of Ip & Dill, applied to the whole product).  For a
/// processor-symmetric protocol every π in S_p is a bisimulation of the
/// product, so the model checker need only explore one representative per
/// orbit: the state whose serialized key is lexicographically least over all
/// permutations.
///
/// The p! search is pruned by per-processor signatures: only permutations
/// that sort the signature vector can yield the least key (the product key
/// serializes per-processor state in processor-index order, and the
/// signature is a prefix-determining summary of that state), so with all
/// signatures distinct a single sort finds the canonical form with zero
/// extra key computations.  Tied signatures fall back to enumerating the
/// permutations within each tie group.
///
/// The hit count of the minimum doubles as the stabilizer order, giving the
/// exact orbit size |S_p|/|Stab| — reported as McResult::orbit_reduction.
class ProcCanonicalizer {
 public:
  /// Dirty mask meaning "assume every processor's signature changed".
  static constexpr std::uint32_t kAllDirty = ~0u;

  ProcCanonicalizer() = default;

  /// Inactive unless `enable`, the protocol declares processor symmetry and
  /// 2 <= procs <= ProcPerm::kMax; inactive canonicalization is the
  /// identity (key() pass-through, orbit size 1).  Active canonicalization
  /// is the DESIGN.md §13 incremental path: per-processor signature caching
  /// keyed by the caller's dirty masks, plus delta re-keying of tie-group
  /// candidates.  tests/test_incremental_canon.cpp holds the permute-and-
  /// reserialize reference it must match byte for byte.
  ProcCanonicalizer(const Protocol& protocol, bool enable);

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Permutes `p` into its orbit representative (in place), writes the
  /// canonical key into `ks`, and returns the exact orbit size.  If
  /// `applied` is non-null it receives the permutation that was applied
  /// (identity when inactive) — the replayer uses it to keep a concrete
  /// run aligned with the canonical exploration.
  ///
  /// `dirty_mask` (bit q set = processor q's signature may differ from the
  /// *base state* of the current begin_base() epoch) lets the incremental
  /// path reuse cached signature bytes for clean processors.  Pass
  /// Product::touched_procs() when `p` was produced by assign_from(base) +
  /// step; pass kAllDirty (the default) whenever in doubt — it degrades to
  /// a full recompute and is always sound.
  std::uint64_t canonicalize_key(Product& p, KeyScratch& ks,
                                 ProcPerm* applied = nullptr,
                                 std::uint32_t dirty_mask = kAllDirty);

  /// Starts a new base epoch: the next canonicalize_key call with a clean
  /// bit in its dirty mask (re)fills that processor's cached signature, and
  /// later calls in the same epoch reuse it.  Call whenever the base state
  /// that dirty masks are measured against changes (the worker calls it
  /// after restoring each frontier entry).
  void begin_base() noexcept {
    base_valid_ = 0;
    order_valid_ = false;
  }

 private:
  bool active_ = false;
  std::size_t procs_ = 1;
  std::uint64_t factorial_ = 1;
  // Scratch, reused across calls to keep the hot loop allocation-free.
  ByteWriter sig_;
  std::array<std::uint32_t, ProcPerm::kMax + 1> sig_off_{};
  KeyScratch trial_;
  std::vector<std::uint8_t> best_;
  // Per-processor signature cache for the current begin_base() epoch (bit q
  // of base_valid_ set = base_sig_[q] holds q's signature in the base
  // state).  A clean dirty bit certifies the successor's signature equals
  // the base's, so the cached bytes can stand in for a recompute.
  std::uint32_t base_valid_ = 0;
  std::array<std::vector<std::uint8_t>, ProcPerm::kMax> base_sig_{};
  // Sorted-order cache for the all-clean fast path: a successor whose dirty
  // mask is empty has byte-identical signatures to the base, hence the same
  // sorted order and tie-group structure as any other all-clean successor
  // in the epoch — the sort and group scan can be skipped outright.
  bool order_valid_ = false;
  bool cached_has_tie_ = false;
  std::uint8_t cached_ngroups_ = 0;
  std::array<std::uint8_t, ProcPerm::kMax> cached_pos_{};
  std::array<std::uint8_t, ProcPerm::kMax> cached_gstart_{};
  std::array<std::uint8_t, ProcPerm::kMax> cached_gend_{};
  // Delta re-keying scratch: the protocol slice of the candidate product
  // under the tie-loop's current permutation (repermuted in place between
  // candidates instead of restored from the original).
  std::vector<std::uint8_t> perm_state_;
};

}  // namespace scv
