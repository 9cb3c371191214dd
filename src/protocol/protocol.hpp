// The protocol framework of Sections 2.1 and 4.1.
//
// A protocol is a finite-state machine whose actions are LD/ST operations
// (the trace alphabet A) plus internal actions (A').  Following Section 4.1,
// the machine is augmented with a finite set of *storage locations* — the
// caches, queues, buffers, network messages and memory words that hold block
// values — and every transition carries *tracking labels*:
//
//   * a LD/ST transition names the location the value is read from /
//     written to (the function f of the paper);
//   * any transition may carry copy-tracking entries (dst <- src) recording
//     value movement between locations (the functions c_l; we extend them to
//     LD/ST transitions as well, which the paper's ST-index induction
//     accommodates unchanged — Lazy Caching needs a write to land in two
//     locations at once).
//
// Protocols are *prefix-closed* and *nondeterministic*: enumerate() lists
// every transition enabled in a state (several may share the same action).
// States are fixed-size byte arrays so the model checker can hash them
// canonically without knowing their structure.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "checker/memory_model.hpp"
#include "trace/operation.hpp"
#include "util/byte_io.hpp"
#include "util/inline_vec.hpp"

namespace scv {

/// A permutation of processor indices 0..n-1, the group action behind the
/// model checker's orbit canonicalization: fully interchangeable processors
/// (a Murphi-style scalarset) make states that differ only by renaming
/// processors bisimilar, so one representative per orbit suffices.
struct ProcPerm {
  static constexpr std::size_t kMax = 8;

  std::uint8_t to[kMax] = {0, 1, 2, 3, 4, 5, 6, 7};  ///< image of each proc
  std::uint8_t n = 0;                                ///< processor count

  [[nodiscard]] static ProcPerm identity(std::size_t procs) {
    ProcPerm perm;
    perm.n = static_cast<std::uint8_t>(procs);
    return perm;
  }

  [[nodiscard]] ProcId operator()(ProcId p) const { return to[p]; }

  [[nodiscard]] bool is_identity() const {
    for (std::uint8_t p = 0; p < n; ++p) {
      if (to[p] != p) return false;
    }
    return true;
  }

  [[nodiscard]] ProcPerm inverse() const {
    ProcPerm inv;
    inv.n = n;
    for (std::uint8_t p = 0; p < n; ++p) inv.to[to[p]] = p;
    return inv;
  }

  /// Composition "apply *this first, then `next`": result(p) = next(this(p)).
  [[nodiscard]] ProcPerm then(const ProcPerm& next) const {
    ProcPerm out;
    out.n = n;
    for (std::uint8_t p = 0; p < n; ++p) out.to[p] = next.to[to[p]];
    return out;
  }

  /// The transposition swapping processors `a` and `b`.  Transpositions
  /// generate the symmetric group, so commutation checks over them extend
  /// to every permutation.
  [[nodiscard]] static ProcPerm transposition(std::size_t procs, ProcId a,
                                              ProcId b) {
    ProcPerm perm = identity(procs);
    perm.to[a] = b;
    perm.to[b] = a;
    return perm;
  }

  friend bool operator==(const ProcPerm& x, const ProcPerm& y) {
    if (x.n != y.n) return false;
    for (std::uint8_t p = 0; p < x.n; ++p) {
      if (x.to[p] != y.to[p]) return false;
    }
    return true;
  }
};

/// Storage location index.  L locations are numbered 0..L-1.
using LocId = std::uint8_t;

/// Copy-tracking source meaning "this location's value is discarded" (the
/// location reverts to holding no tracked store, as if freshly ⊥).
inline constexpr LocId kClearSrc = 0xff;

/// Largest admissible location count.  LocId is a byte and kClearSrc = 0xff
/// is reserved, so a protocol declaring 255+ locations would have a real
/// location silently alias the clear sentinel.  Checked at construction
/// (Protocol::validate_params) and by the linter's R1 rule.
inline constexpr std::size_t kMaxLocations = 0xfe;

struct Action {
  enum class Kind : std::uint8_t { Load, Store, Internal };
  Kind kind = Kind::Internal;
  // For Load/Store:
  Operation op{};
  // For Internal: protocol-defined opcode and small arguments.
  std::uint8_t internal_id = 0;
  std::uint8_t arg0 = 0;
  std::uint8_t arg1 = 0;

  [[nodiscard]] bool is_memory_op() const noexcept {
    return kind != Kind::Internal;
  }

  friend bool operator==(const Action&, const Action&) = default;
};

[[nodiscard]] inline Action load_action(ProcId p, BlockId b, Value v) {
  return Action{Action::Kind::Load, make_load(p, b, v), 0, 0, 0};
}
[[nodiscard]] inline Action store_action(ProcId p, BlockId b, Value v) {
  return Action{Action::Kind::Store, make_store(p, b, v), 0, 0, 0};
}
[[nodiscard]] inline Action internal_action(std::uint8_t id,
                                            std::uint8_t arg0 = 0,
                                            std::uint8_t arg1 = 0) {
  return Action{Action::Kind::Internal, Operation{}, id, arg0, arg1};
}

/// One copy-tracking entry: the value in `dst` was copied from `src` (or
/// discarded, if src == kClearSrc).  All entries of a transition are applied
/// simultaneously, reading sources from the pre-state.
struct CopyEntry {
  LocId dst = 0;
  LocId src = 0;
};

struct Transition {
  Action action{};
  /// Tracking label f(t) for LD/ST transitions: the location read/written.
  LocId loc = 0;
  /// Copy-tracking labels (only entries with dst != src are listed).
  InlineVec<CopyEntry, 12> copies;
  /// For protocols without real-time ST ordering (Section 4.2): if >= 0,
  /// this transition *serializes* the store currently tracked at this
  /// location (evaluated on the pre-state, before `copies` apply).  The ST
  /// order generator appends that store to its block's ST order.
  std::int16_t serialize_loc = -1;
};

class Xoshiro256;

/// The transition choice of every seeded random walk (trace_test,
/// record_walk, lint R4's prefixes): the index into `enabled` (non-empty)
/// of the transition to take.  When a LD/ST is enabled, a 60% trial picks
/// uniformly among the LD/STs, so runs stay operation-dense; otherwise the
/// pick is uniform over all of `enabled`.  Draws the trial (only when a
/// LD/ST is enabled), then the index, so a seed fixes the walk.
[[nodiscard]] std::size_t pick_walk_transition(
    std::span<const Transition> enabled, Xoshiro256& rng);

/// Static effect summary of one transition over the tracking-location
/// alphabet — the introspection seam the analysis layer's skeleton IR is
/// built from (DESIGN.md §15).  `reads` lists locations whose tracked value
/// the transition consults (LD label, serialize_loc, copy sources), `writes`
/// lists locations that come to hold a tracked store (ST label, copy
/// destinations), `clears` lists locations explicitly emptied (kClearSrc
/// copies).  `statically_visible` is the label-level observer-visibility
/// bit: may the transition emit descriptor symbols or move tracking state?
struct TransitionEffects {
  InlineVec<LocId, 16> reads;
  InlineVec<LocId, 16> writes;
  InlineVec<LocId, 16> clears;
  bool statically_visible = false;
};

/// Conservative conflict footprint of one transition, the raw material of
/// the declared independence relation (DESIGN.md §14).  A footprint is an
/// over-approximation valid in every reachable state where the transition
/// is enabled: any state the transition reads or writes — including state
/// that gates its own enabledness — must be covered by one of the masks.
/// Granularity is deliberately coarse (per processor and per block, not per
/// location): the bundled protocols' conflicts all factor through "same
/// processor's private state" or "same block's shared state", and two u32
/// masks keep the disjointness test two ANDs.
struct PorFootprint {
  /// Processors whose private state (caches, buffers, request/reply slots)
  /// the transition reads or writes, bit p set.
  std::uint32_t procs = ~0u;
  /// Blocks whose shared state (memory word, directory entry, bus line)
  /// the transition reads or writes, bit b set.
  std::uint32_t blocks = ~0u;
  /// Blocks whose ST order this transition can extend — the serialization
  /// resource.  Two transitions serializing the same block never commute
  /// observably even when their state effects would (the ST order is a
  /// total order per block).
  std::uint32_t serializes = ~0u;
  /// May the transition emit observer symbols (LD/ST nodes, serialization
  /// events, tracking-pool add-IDs)?  Visible transitions never enter an
  /// ample set (condition C2): deferring one would reorder the constraint
  /// graph the checker sees.
  bool visible = true;
};

/// Footprint disjointness — the default (sound, conservative) independence
/// test: transitions touching disjoint processors, disjoint blocks and
/// disjoint serialization resources commute in every state.
[[nodiscard]] constexpr bool por_conflict(const PorFootprint& a,
                                          const PorFootprint& b) noexcept {
  return (a.procs & b.procs) != 0 || (a.blocks & b.blocks) != 0 ||
         (a.serializes & b.serializes) != 0;
}

class Protocol {
 public:
  struct Params {
    std::size_t procs = 1;      ///< p
    std::size_t blocks = 1;     ///< b
    std::size_t values = 1;     ///< v (real values 1..v)
    std::size_t locations = 1;  ///< L
  };

  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual const Params& params() const = 0;

  /// Size in bytes of the (fixed-size) state encoding.
  [[nodiscard]] virtual std::size_t state_size() const = 0;

  /// Writes the initial state into `state` (state.size() == state_size()).
  virtual void initial_state(std::span<std::uint8_t> state) const = 0;

  /// Appends every transition enabled in `state` to `out`.
  virtual void enumerate(std::span<const std::uint8_t> state,
                         std::vector<Transition>& out) const = 0;

  /// Applies transition `t` to `state` in place.  `t` must have been
  /// enabled in `state`.
  virtual void apply(std::span<std::uint8_t> state,
                     const Transition& t) const = 0;

  /// Does the protocol obey real-time ST ordering (Section 4.2)?  If true,
  /// the trivial ST order generator is used (trace order of stores per
  /// block); if false, transitions carry serialize_loc hints.
  [[nodiscard]] virtual bool real_time_st_order() const { return true; }

  /// Model-dependent refinement of the witness choice: is the ST order
  /// still real-time when the run is checked under `model`?  The ST order
  /// is existential (Theorem 3.1: the designer supplies *a* serialization
  /// order under which all runs check out), so the right choice may differ
  /// per memory model — a store buffer's natural SC witness is issue
  /// order, while under a store→load-relaxed model only the order stores
  /// reach memory (drain order, via serialize_loc hints) discharges the
  /// inheritance constraints.  Protocols overriding this must emit their
  /// serialize_loc hints unconditionally; the observer ignores them under
  /// a real-time witness.  Default: the model-independent declaration.
  [[nodiscard]] virtual bool real_time_st_order(const MemoryModel&) const {
    return real_time_st_order();
  }

  /// Could a LD of block `b` still return ⊥ in this state (or any state
  /// reachable from it)?  May be conservatively true.  The observer keeps
  /// the first store of `b` (in ST order) active while this holds, so that
  /// forced edges from future ⊥-loads can be emitted (constraint 5b).
  [[nodiscard]] virtual bool could_load_bottom(
      std::span<const std::uint8_t> state, BlockId b) const = 0;

  /// Human-readable action name ("ST(P1,B2,1)", "Drain(P2)", ...).
  [[nodiscard]] virtual std::string action_name(const Action& a) const;

  /// Effect summary of `t` over the location alphabet (see
  /// TransitionEffects).  The default derives it purely from the tracking
  /// labels; out-of-range labels (an R1 lint defect) are skipped rather
  /// than folded into bogus effect bits.  Protocols whose enabledness
  /// guards consult locations beyond their labels may override this to add
  /// guard reads — conservative supersets are sound for every analysis
  /// consumer.
  virtual void transition_effects(const Transition& t,
                                  TransitionEffects& out) const;

  // ----------------------------------------------------------------------
  // Processor symmetry (orbit canonicalization support).
  //
  // A protocol declares processor symmetry when renaming processors by any
  // permutation π maps reachable states to reachable states and enabled
  // transitions to enabled transitions (the commutation property
  // π(apply(s,t)) == apply(π(s), π(t)); checked on sampled states by the
  // analysis-layer self-check, lint rule R6).  Declaring protocols must
  // override the four hooks below consistently.

  /// Are processors fully interchangeable?  Default: no (reduction off).
  [[nodiscard]] virtual bool processor_symmetric() const { return false; }

  /// Renames processors in `state` in place: the new state holds, for each
  /// processor p, what the old state held for perm⁻¹(p) — i.e. processor
  /// p's private data moves to perm(p).
  virtual void permute_procs(std::span<std::uint8_t> state,
                             const ProcPerm& perm) const;

  /// Image of a storage location under the processor renaming (per-processor
  /// locations move with their owner; shared locations are fixed points).
  /// Must be a bijection on 0..locations-1.
  [[nodiscard]] virtual LocId permute_loc(LocId loc,
                                          const ProcPerm& perm) const;

  /// Image of an action: LD/ST rename op.proc; internal actions rename every
  /// processor-valued argument.  The default handles memory operations only —
  /// protocols whose internal actions carry processor arguments override it.
  [[nodiscard]] virtual Action permute_action(const Action& a,
                                              const ProcPerm& perm) const;

  /// Appends a renaming-equivariant signature of processor `p`'s share of
  /// the state: equal signatures are a *necessary* condition for a
  /// permutation mapping one processor onto the other to fix the state, so
  /// the canonicalizer only searches permutations among equal-signature
  /// processors.  Must satisfy sig(π(s), π(p)) == sig(s, p) and must not
  /// depend on processor indices (write per-processor content, not ids).
  /// Default: empty (every processor ties; sound, but prunes nothing).
  virtual void proc_signature(std::span<const std::uint8_t> state, ProcId p,
                              ByteWriter& w) const;

  /// Bitmask (bit p set) of processors whose proc_signature may change when
  /// `t` is applied to `state` (the pre-state).  Conservative supersets are
  /// sound — the canonicalizer merely recomputes more signatures — so the
  /// default claims every processor.  Protocols whose transitions touch few
  /// processors override this to unlock incremental canonicalization
  /// (DESIGN.md §13).
  [[nodiscard]] virtual std::uint32_t touched_procs(
      std::span<const std::uint8_t> state, const Transition& t) const;

  /// Image of a whole transition under the renaming: permuted action,
  /// tracking label, copy entries and serialize_loc hint.  Built on the
  /// virtual hooks, so it needs no override.
  [[nodiscard]] Transition permute_transition(const Transition& t,
                                              const ProcPerm& perm) const;

  // ----------------------------------------------------------------------
  // Independence declarations (ample-set partial-order reduction support,
  // DESIGN.md §14).
  //
  // A protocol opting into POR (por_enabled()) declares, per transition, a
  // conservative *conflict footprint* — which processors' private state,
  // which blocks' shared state, and which serialization resources the
  // transition can read or write — and an independence relation built on
  // it.  independent(t, u) == true promises, for every reachable state s
  // where both t and u are enabled:
  //
  //   * firing t leaves u enabled with the same effect (and vice versa):
  //     both orders exist and reach the same state — at the *product*
  //     level, so observer emissions and checker verdicts commute too
  //     (up to canonical key; retiring an obligation-free tracked node
  //     earlier or later is confluent);
  //   * neither order can reject, exceed bandwidth, or trip tracking
  //     checks unless the other does.
  //
  // The relation is consulted only on co-enabled pairs, so pairs that are
  // never simultaneously enabled may be declared independent vacuously.
  // Declarations must be renaming-equivariant on symmetric protocols:
  // independent(π(t), π(u)) == independent(t, u) for every ProcPerm π —
  // ample selection runs on canonical orbit representatives and relies on
  // it.  Lint rule R7 samples both promises (commutation on a bounded BFS
  // sample, equivariance under transpositions); the model checker
  // additionally cross-validates ample sets against full expansion and
  // falls back to full exploration if a declaration lies.

  /// Does the protocol vouch for its footprint/independence declarations?
  /// Default: no — the engine expands every enabled transition.  Protocols
  /// with deliberately planted bugs should leave this off so recorded
  /// counterexamples stay canonical across the on/off differential tests.
  [[nodiscard]] virtual bool por_enabled() const { return false; }

  /// Conservative conflict footprint of `t`; see PorFootprint.  The
  /// default claims the op's processor and block for memory operations
  /// (plus the block's serialization resource for stores under real-time
  /// ST order) and everything for internal actions or transitions carrying
  /// serialize_loc/copies — sound for any protocol, reducing for none.
  [[nodiscard]] virtual PorFootprint por_footprint(const Transition& t) const;

  /// Declared independence of two transition instances; see the contract
  /// above.  Default: footprint disjointness.  Protocols refine this where
  /// the coarse footprints are too conservative (e.g. purely local
  /// request/receive steps that commute with every co-enabled transition
  /// of another processor).  Must be symmetric in its arguments.
  [[nodiscard]] virtual bool independent(const Transition& t,
                                         const Transition& u) const;

 protected:
  /// Helper for permute_procs implementations: permutes `procs` equal-sized
  /// per-processor chunks laid out contiguously at state[offset +
  /// p*chunk_bytes], moving chunk p to position perm(p) (in-place cycle
  /// rotation, no heap).
  static void permute_proc_chunks(std::span<std::uint8_t> state,
                                  std::size_t offset, std::size_t chunk_bytes,
                                  const ProcPerm& perm);

  /// Common Params contract, called by every concrete protocol constructor
  /// once params_ is final: all dimensions nonzero and the location count
  /// within the LocId alphabet (kMaxLocations keeps kClearSrc distinct).
  static void validate_params(const Params& p);
};

}  // namespace scv
