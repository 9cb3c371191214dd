// The product automaton of Section 3.4.
//
// The verification object is the synchronous product of three machines: the
// protocol, the witness observer annotating its transitions, and the
// protocol-independent checker consuming the annotations.  Product owns all
// three — the protocol's state vector, an Observer and an ScChecker, the
// latter two absent in protocol-only mode — and every operation visits them
// in the fixed order protocol, observer, checker.
//
// Key vs snapshot, deliberately distinct:
//   * key()      — canonical, symmetry-reduced serialization for visited-
//                  state hashing.  The observer renames live nodes into
//                  discovery order and publishes the renaming in
//                  KeyScratch::id_canon; the checker keys itself through
//                  the same map.
//   * snapshot() — raw, bit-faithful capture (pool IDs, handle naming and
//                  all); restore() of it yields a steppable product.  The
//                  canonical form cannot do this: it erases naming on
//                  purpose.
//
// Symbol flow: each step's emitted symbols go to the checker through
// ScChecker::feed_batch, then to the attached SymbolSinks (recorder,
// statistics).  Sinks are observation-only and cannot veto (see
// descriptor/sink.hpp); the step's outcome is the checker's verdict.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "checker/sc_checker.hpp"
#include "descriptor/sink.hpp"
#include "observer/observer.hpp"
#include "protocol/protocol.hpp"
#include "runlog/run_trace.hpp"
#include "util/byte_io.hpp"

namespace scv {

/// Reusable per-worker scratch for key(): the writer buffer and the
/// observer's ID renaming (descriptor ID -> canonical node number), which
/// the checker reads.  Reusing both kills per-transition heap allocations.
/// The renaming is scratch: a key whose observer part came from
/// ProcCanonicalizer's key-part cache leaves it as the last serialization
/// wrote it.
struct KeyScratch {
  ByteWriter w;
  std::vector<GraphId> id_canon;
};

/// Outcome of stepping the product by one transition.
enum class StepOutcome : std::uint8_t {
  Ok,
  Reject,    ///< checker rejected the emitted symbols
  Bound,     ///< observer ID pool exhausted
  Tracking,  ///< tracking labels inconsistent with protocol behaviour
};

/// The run-trace verdict a walk or counterexample ending in `outcome`
/// records (Ok: the run was accepted).
[[nodiscard]] constexpr RunVerdict to_run_verdict(StepOutcome outcome) {
  switch (outcome) {
    case StepOutcome::Reject: return RunVerdict::Violation;
    case StepOutcome::Bound: return RunVerdict::BandwidthExceeded;
    case StepOutcome::Tracking: return RunVerdict::TrackingInconsistent;
    case StepOutcome::Ok: break;
  }
  return RunVerdict::Accepted;
}

/// The composed product automaton.  Constructed in the initial state.
/// Non-copyable (it holds sink wiring); state moves between same-shape
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
    return state_;
  }
  [[nodiscard]] Observer& observer() { return *obs_; }
  [[nodiscard]] const Observer& observer() const { return *obs_; }
  [[nodiscard]] const ScChecker& checker() const { return *chk_; }
  [[nodiscard]] bool with_observer() const noexcept { return obs_.has_value(); }

  /// Attaches an observation-only sink (recorder, statistics); sinks see
  /// each step's symbols after the checker.  Sinks are not copied by
  /// assign_from: they are per-product wiring, not product state.
  void add_sink(SymbolSink* sink);

  /// Appends the transitions enabled in the current state to `out`.
  void enumerate(std::vector<Transition>& out) const {
    protocol_->enumerate(state_, out);
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

  /// Steps the product through transition `t`: protocol apply, observer
  /// annotation, checker feed, then the symbols to the sinks.  `symbols` is
  /// caller-provided scratch that receives the emitted symbols (cleared
  /// first).  `action` frames the step for sinks that record run structure;
  /// exploration passes the default empty view (computing action names per
  /// transition would allocate in the hot loop).
  ///
  /// On Bound/Tracking the observer's partial emission is left in `symbols`
  /// for diagnostics but reaches neither the checker nor the sinks: a
  /// recorded trace contains complete steps only, so its stream replays
  /// cleanly through an offline checker.
  StepOutcome step(const Transition& t, std::vector<Symbol>& symbols,
                   std::string_view action = {});

  /// Canonical state key into `ks` (cleared first); the returned view is
  /// valid until the next call on the same scratch.
  [[nodiscard]] std::span<const std::uint8_t> key(KeyScratch& ks) const;

  /// Bit-faithful whole-product capture/restore (the compact frontier's
  /// entry payload) and same-shape state copy.
  void snapshot(ByteWriter& w) const;
  void restore(ByteReader& r);
  void assign_from(const Product& other);

  /// Failure diagnostics after a non-Ok step.
  [[nodiscard]] std::string failure_reason(StepOutcome outcome) const;

  /// Renames processors across all three machines (the S_p group action the
  /// orbit canonicalizer minimizes over): the protocol moves per-processor
  /// state, the observer its chains and tracker entries, the checker its
  /// per-processor bookkeeping.  Handles, pool IDs and slots are
  /// deliberately untouched, so a permuted product emits the same
  /// descriptor IDs when stepped — permute-then-step equals step-then-
  /// permute.
  void permute_procs(const ProcPerm& perm);

  /// Concatenates the three machines' renaming-equivariant, naming-free
  /// signatures of processor `p` into `w` (the canonicalizer's search-
  /// pruning key).
  void proc_signature(ProcId p, ByteWriter& w) const;

  /// Bitmask (bit p set) of processors whose proc_signature may differ from
  /// before the most recent step(): the OR of the three machines' masks.
  /// Only meaningful immediately after a step (assign_from + step is the
  /// canonical usage); conservative supersets are sound, and restore,
  /// assign_from and permute_procs poison it to all-ones (DESIGN.md §13).
  [[nodiscard]] std::uint32_t touched_procs() const;

  /// Whether the last step() fed the checker any symbol: false certifies
  /// the checker's state is the pre-step one.  Like touched_procs(), only
  /// meaningful immediately after a step; restore, assign_from and
  /// permute_procs set it to true.
  [[nodiscard]] bool checker_fed() const noexcept { return checker_fed_; }

 private:
  const Protocol* protocol_;
  std::vector<std::uint8_t> state_;
  /// Protocol::touched_procs of the last step's pre-state; all-ones until
  /// the first step and after any whole-state write.
  std::uint32_t state_touched_ = ~0u;
  bool checker_fed_ = true;  ///< see checker_fed()
  std::optional<Observer> obs_;   ///< empty in protocol-only mode
  std::optional<ScChecker> chk_;  ///< empty in protocol-only mode
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

  /// canonicalize_key for a successor: `p` must be assign_from(base) + step,
  /// where base is the state of the current begin_base() epoch.  Reads the
  /// step's certificates itself — touched_procs() as the dirty mask,
  /// Observer::changed() and Product::checker_fed() — and reuses the
  /// epoch's cached observer and checker key bytes where they certify
  /// nothing changed.  Same key bytes and orbit as canonicalize_key.
  std::uint64_t canonicalize_successor(Product& p, KeyScratch& ks);

  /// Starts a new base epoch: the next canonicalize_key call with a clean
  /// bit in its dirty mask (re)fills that processor's cached signature, and
  /// later calls in the same epoch reuse it; the key-part cache of
  /// canonicalize_successor empties likewise.  Call whenever the base state
  /// that dirty masks are measured against changes (the worker calls it
  /// after restoring each frontier entry).
  void begin_base() noexcept {
    base_valid_ = 0;
    order_valid_ = false;
    parts_used_ = 0;
  }

 private:
  /// What a successor's step certifies unchanged from the epoch's base.
  struct Unchanged {
    bool observer = false;  ///< !Observer::changed()
    bool checker = false;   ///< !Product::checker_fed()
  };

  /// The epoch base's observer and checker key parts as serialized under
  /// permutation `pi`.  The observer part carries the id_canon it wrote;
  /// the checker part, the id_canon it was written under (it depends on
  /// nothing else once the checker is certified unchanged).
  struct KeyParts {
    ProcPerm pi;
    bool has_obs = false;
    bool has_chk = false;
    std::vector<std::uint8_t> obs;
    std::vector<GraphId> obs_ids;
    std::vector<std::uint8_t> chk;
    std::vector<GraphId> chk_ids;
  };
  /// Distinct permutations cached per epoch; later ones serialize in full.
  static constexpr std::size_t kKeyPartSlots = 4;

  std::uint64_t canonicalize(Product& p, KeyScratch& ks, ProcPerm* applied,
                             std::uint32_t dirty_mask, Unchanged same);
  /// Writes `p`'s key into `ks`: the protocol state, then (with an
  /// observer) the observer's and checker's parts serialized under `perm`
  /// (null: as `p` stands).  `pi` is the permutation from the epoch's base
  /// to the serialized form; parts `same` certifies unchanged come from,
  /// or fill, the cache entry for `pi`.
  void write_key(const Product& p, std::span<const std::uint8_t> state,
                 KeyScratch& ks, const ProcPerm* perm, const ProcPerm& pi,
                 Unchanged same);
  /// The cache entry for `pi`, claiming a free slot if none holds it yet;
  /// null when every slot holds another permutation.
  KeyParts* key_parts(const ProcPerm& pi);

  /// Processors sorted by signature: slot i of the sorted order holds
  /// processor pos[i], and tie group g (a maximal run of equal signatures)
  /// spans slots gstart[g]..gend[g]-1.
  struct SortedOrder {
    std::array<std::uint8_t, ProcPerm::kMax> pos{};
    std::array<std::uint8_t, ProcPerm::kMax> gstart{};
    std::array<std::uint8_t, ProcPerm::kMax> gend{};
    std::size_t ngroups = 0;
    bool has_tie = false;

    /// The permutation moving each processor to its slot.
    [[nodiscard]] ProcPerm perm(std::size_t procs) const {
      ProcPerm pi = ProcPerm::identity(procs);
      for (std::size_t i = 0; i < procs; ++i) {
        pi.to[pos[i]] = static_cast<std::uint8_t>(i);
      }
      return pi;
    }
  };

  /// Stage 1: the signature sort of `p` and its tie groups.
  SortedOrder sorted_order(const Product& p, std::uint32_t dirty_mask);
  /// Stage 2: the least key over every sorting permutation of `order`'s
  /// tie groups, found by delta re-keying; applies it to `p` and returns
  /// the orbit size.
  std::uint64_t search_ties(Product& p, KeyScratch& ks, ProcPerm* applied,
                            SortedOrder order, Unchanged same);

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
  SortedOrder cached_order_;
  // Delta re-keying scratch: the protocol slice of the candidate product
  // under the tie-loop's current permutation (repermuted in place between
  // candidates instead of restored from the original).
  std::vector<std::uint8_t> perm_state_;
  // Key-part cache for the current begin_base() epoch: slots 0..parts_used_
  // hold the base's parts under one permutation each.
  std::array<KeyParts, kKeyPartSlots> parts_{};
  std::size_t parts_used_ = 0;
  std::uint64_t reuses_ = 0;  ///< counts reuses for the sampled recheck
  KeyScratch recheck_;
};

}  // namespace scv
