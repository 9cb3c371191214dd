// Ample-set partial-order reduction over the product automaton
// (DESIGN.md §14).
//
// Peled-style ample sets specialized to the BFS engine: in each state the
// selector looks for a nonempty subset A of the enabled transitions such
// that exploring only A preserves every reachable checker verdict.  The
// classic conditions, instantiated here:
//
//   C0 (nonemptiness)  A != ∅ — trivially, or we fall back to full
//      expansion.
//   C1 (dependence)    Every transition dependent on a member of A that can
//      fire before a member of A is itself in A.  Statically approximated:
//      every *co-enabled* non-member must be declared independent of every
//      member (checked in-state, both directions), and the protocol's
//      declarations must guarantee that currently-disabled dependent
//      transitions stay disabled until a member fires — the per-protocol
//      argument lives with each Protocol::independent override and is
//      cross-validated by the R7 lint and the engine's ample self-check.
//   C2 (invisibility)  Members of A are invisible: their footprint says so
//      AND Product::transition_visible agrees (no node/edge/add-ID symbols,
//      no serialization), so deferring the rest stutters the property
//      automaton.
//   C3 (cycle proviso) Handled by the engine, not the selector: BFS assigns
//      minimal depths, so any cycle in the reduced graph contains an edge
//      whose target depth is <= its source depth; the engine detects that
//      edge (an ample successor already visited at the current or a
//      shallower level) and re-expands its source in full.  Reduced entries
//      log their duplicate ample successors; the level engine decides them
//      against the level's claim table at the barrier and expands the
//      fallbacks as a second phase.
//
// Candidate sets are the (processor, block-mask) groups of invisible
// singleton-processor footprints — e.g. the directory protocol's local
// request/receive steps of one cache entry.  Selection is deterministic in
// the state bytes (lexicographic min over (|A|, proc, blocks)); frontier
// entries are canonical orbit representatives, so the choice is invariant
// under processor renaming and composes soundly with symmetry reduction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/product.hpp"
#include "protocol/protocol.hpp"

namespace scv {

/// The dependence information the ample machinery consumes, abstracted
/// away from where it came from.  Two implementations exist: the protocol's
/// hand-written declarations (DeclaredPorOracle) and the exhaustively
/// verified relation inferred from the protocol skeleton
/// (McOptions::inferred_footprints; see src/analysis/footprint_infer.hpp).
/// Every dynamic safeguard — the pre-run product walk, the 1-in-4096 ample
/// cross-validation, the C3 proviso — validates the oracle's answers the
/// same way regardless of provenance.
class PorOracle {
 public:
  virtual ~PorOracle() = default;
  /// Whether POR may engage at all under this oracle.
  [[nodiscard]] virtual bool por_enabled() const = 0;
  [[nodiscard]] virtual PorFootprint footprint(const Transition& t) const = 0;
  [[nodiscard]] virtual bool independent(const Transition& a,
                                         const Transition& b) const = 0;
};

/// The default oracle: forward everything to the protocol's declarations.
class DeclaredPorOracle final : public PorOracle {
 public:
  explicit DeclaredPorOracle(const Protocol& protocol)
      : protocol_(&protocol) {}
  [[nodiscard]] bool por_enabled() const override {
    return protocol_->por_enabled();
  }
  [[nodiscard]] PorFootprint footprint(const Transition& t) const override {
    return protocol_->por_footprint(t);
  }
  [[nodiscard]] bool independent(const Transition& a,
                                 const Transition& b) const override {
    return protocol_->independent(a, b);
  }

 private:
  const Protocol* protocol_;
};

class AmpleSelector {
 public:
  /// Inactive selector: select() always reports full expansion.
  AmpleSelector() = default;

  /// Active iff `enable`, `oracle` lets POR engage (por_enabled) and the
  /// processor and block counts fit the footprint masks.  Consults `oracle`
  /// for footprints and independence; it must outlive the selector.
  AmpleSelector(const Protocol& protocol, const PorOracle& oracle,
                bool enable);

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Chooses an ample set for the state `product` is in, whose enabled
  /// transitions are `trans`.  On success fills `out` with the ascending
  /// indices of the members (a strict subset of 0..trans.size()-1) and
  /// returns true; returns false when selection degenerates to full
  /// expansion (no candidate group, no valid group, or no group smaller
  /// than the whole set).  Deterministic in (oracle, trans).
  bool select(const Product& product, const std::vector<Transition>& trans,
              std::vector<std::uint32_t>& out);

 private:
  const PorOracle* oracle_ = nullptr;
  bool active_ = false;

  struct Group {
    std::uint8_t proc = 0;
    std::uint32_t blocks = 0;
    std::vector<std::uint32_t> members;
  };

  // Scratch, reused across calls to keep the hot loop allocation-free.
  std::vector<PorFootprint> fps_;
  std::vector<std::uint8_t> candidate_;
  std::vector<Group> groups_;
  std::size_t ngroups_ = 0;  ///< live prefix of groups_ (vectors reused)
};

/// Scratch for the POR self-checks: the products two interleavings run
/// in, their canonical keys, and enabled-set and symbol buffers.
struct CommuteScratch {
  CommuteScratch(const Protocol& protocol, const ObserverConfig& config,
                 bool with_observer)
      : a(protocol, config, with_observer),
        b(protocol, config, with_observer) {}
  Product a;
  Product b;
  KeyScratch ka;
  KeyScratch kb;
  std::vector<Transition> trans;
  std::vector<Symbol> symbols;
};

/// Verifies the independence contract for the pair (t, u), both enabled in
/// `cur`: t must leave u enabled with the same step outcome u has from
/// `cur`, u must leave t enabled, and when every step is clean the two
/// interleavings must reach the same canonical product state.  Outcome
/// preservation is what keeps reject states reachable in the reduced
/// graph; key equality is the diamond the reordering argument commutes
/// through.  Both POR self-checks run it: model_check's pre-run walk and
/// the engine's sampled ample cross-validation.  `detail` receives the
/// violation.
bool independence_commutes(const Protocol& proto, ProcCanonicalizer& canon,
                           const Product& cur, const Transition& t,
                           const Transition& u, CommuteScratch& s,
                           std::string& detail);

}  // namespace scv
