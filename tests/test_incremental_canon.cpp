// Differential tests for incremental canonicalization (DESIGN.md §13): the
// dirty-mask/signature-cache/key-part-cache/delta-re-keying canonicalizer
// must be *byte identical* to a reference permute-and-reserialize
// canonicalizer — same canonical keys, same orbit counts — and the
// dirty-mask contract it leans on (a clear bit certifies the processor's
// signature did not change) must hold along real exploration walks, not
// just on hand-picked states.  The reference lives here, as a test-only
// oracle built from nothing but the product's public permute_procs / key /
// proc_signature.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "checker/memory_model.hpp"
#include "mc/product.hpp"
#include "protocol/registry.hpp"
#include "util/byte_io.hpp"

namespace scv {
namespace {

/// Deterministic splitmix64 stream for reproducible random walks.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

std::vector<std::uint8_t> signature_of(const Product& p, ProcId q) {
  ByteWriter w;
  p.proc_signature(q, w);
  return w.data();
}

struct OracleKey {
  std::vector<std::uint8_t> key;
  std::uint64_t orbit = 1;
};

/// The reference canonicalizer.  Sort the processors by signature (stably,
/// so ties keep ascending index), then physically permute `p` into every
/// arrangement of each tie group and re-serialize the whole product,
/// keeping the least key.  The number of candidates reaching the minimum
/// is the stabilizer order, so the orbit size is p! / hits.  Identity (and
/// orbit 1) where the production canonicalizer is inactive.  Leaves `p`
/// permuted.
OracleKey reference_canonical_key(Product& p) {
  const Protocol& proto = p.protocol();
  const std::size_t procs = proto.params().procs;
  KeyScratch ks;
  if (!proto.processor_symmetric() || procs < 2 || procs > ProcPerm::kMax) {
    const auto key = p.key(ks);
    return {{key.begin(), key.end()}, 1};
  }
  std::vector<std::vector<std::uint8_t>> sig(procs);
  for (std::size_t q = 0; q < procs; ++q) {
    sig[q] = signature_of(p, static_cast<ProcId>(q));
  }
  std::vector<std::uint8_t> pos(procs);
  for (std::size_t i = 0; i < procs; ++i) pos[i] = static_cast<std::uint8_t>(i);
  std::stable_sort(pos.begin(), pos.end(), [&](std::uint8_t a, std::uint8_t b) {
    return sig[a] < sig[b];
  });
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < procs;) {
    std::size_t j = i + 1;
    while (j < procs && sig[pos[j]] == sig[pos[i]]) ++j;
    groups.emplace_back(i, j);
    i = j;
  }

  OracleKey best;
  std::uint64_t hits = 0;
  ProcPerm applied = ProcPerm::identity(procs);
  for (;;) {
    ProcPerm pi = ProcPerm::identity(procs);
    for (std::size_t i = 0; i < procs; ++i) {
      pi.to[pos[i]] = static_cast<std::uint8_t>(i);
    }
    p.permute_procs(applied.inverse().then(pi));
    applied = pi;
    const auto span = p.key(ks);
    std::vector<std::uint8_t> key(span.begin(), span.end());
    if (hits == 0 || key < best.key) {
      best.key = std::move(key);
      hits = 1;
    } else if (key == best.key) {
      ++hits;
    }
    // Odometer over the tie groups, rightmost fastest.
    std::size_t g = groups.size();
    while (g > 0) {
      --g;
      const auto first = pos.begin() + static_cast<std::ptrdiff_t>(groups[g].first);
      const auto last = pos.begin() + static_cast<std::ptrdiff_t>(groups[g].second);
      if (std::next_permutation(first, last)) break;
      if (g == 0) {
        std::uint64_t factorial = 1;
        for (std::size_t i = 2; i <= procs; ++i) factorial *= i;
        best.orbit = factorial / hits;
        return best;
      }
    }
  }
}

struct WalkCounts {
  std::size_t compared = 0;
  /// Successors whose observer or checker key part an earlier successor of
  /// the same base had already left unchanged: candidates for reuse.
  std::size_t reusable = 0;
};

// One random walk over `proto`'s product under `model`: from each visited
// state, every enabled successor is canonicalized twice — through the
// engine's successor entry point (with the step's real certificates: dirty
// mask, observer change, checker feed) and from scratch by the reference
// oracle — and the keys and orbit counts must agree byte for byte.  Along
// the way, every processor whose dirty bit is *clear* must have a
// signature byte-identical to the base state's (the soundness contract the
// signature cache depends on).  Returns the successors compared and the
// reuse candidates among them (so callers can assert the walk did real
// work and did not dead-end immediately).
WalkCounts differential_walk(const Protocol& proto, const MemoryModel& model,
                             std::uint64_t seed, std::size_t max_bases) {
  ObserverConfig ocfg;
  ocfg.model = model;
  Product cur(proto, ocfg, /*with_observer=*/true);
  Product succ_inc(proto, ocfg, /*with_observer=*/true);
  Product succ_ref(proto, ocfg, /*with_observer=*/true);

  ProcCanonicalizer canon(proto, /*enable=*/true);
  KeyScratch ks;
  Rng rng{seed};
  std::vector<Transition> ts;
  std::vector<Symbol> syms;
  const std::size_t procs = proto.params().procs;
  WalkCounts counts;

  for (std::size_t base = 0; base < max_bases; ++base) {
    canon.begin_base();
    ts.clear();
    cur.enumerate(ts);
    if (ts.empty()) break;
    bool obs_seen = false;
    bool chk_seen = false;

    std::vector<std::size_t> ok;  // indices whose step completed
    for (std::size_t i = 0; i < ts.size(); ++i) {
      succ_inc.assign_from(cur);
      if (succ_inc.step(ts[i], syms) != StepOutcome::Ok) continue;
      ok.push_back(i);
      const std::uint32_t dirty = succ_inc.touched_procs();

      // Dirty-mask contract: clear bit => signature unchanged vs the base.
      for (ProcId q = 0; q < procs; ++q) {
        if ((dirty >> q) & 1u) continue;
        EXPECT_EQ(signature_of(succ_inc, q), signature_of(cur, q))
            << proto.name() << ": base " << base << " transition " << i
            << " proc " << static_cast<int>(q)
            << ": untouched signature differs from base";
      }

      const bool obs_same = !succ_inc.observer().changed();
      const bool chk_same = !succ_inc.checker_fed();
      if ((obs_same && obs_seen) || (chk_same && chk_seen)) ++counts.reusable;
      obs_seen = obs_seen || obs_same;
      chk_seen = chk_seen || chk_same;

      succ_ref.assign_from(cur);
      EXPECT_EQ(succ_ref.step(ts[i], syms), StepOutcome::Ok);
      const std::uint64_t orbit = canon.canonicalize_successor(succ_inc, ks);
      const OracleKey ref = reference_canonical_key(succ_ref);
      EXPECT_EQ(orbit, ref.orbit)
          << proto.name() << " × " << to_string(model) << ": base " << base
          << " transition " << i;
      EXPECT_EQ(ks.w.data(), ref.key)
          << proto.name() << " × " << to_string(model) << ": base " << base
          << " transition " << i << ": canonical keys diverge";
      ++counts.compared;
    }
    if (ok.empty()) break;

    // Advance the walk along one completed successor (the *concrete* state,
    // not the canonical representative — dirty masks are defined against
    // whatever base the successors were stepped from).
    const std::size_t pick = ok[rng.next() % ok.size()];
    succ_inc.assign_from(cur);
    EXPECT_EQ(succ_inc.step(ts[pick], syms), StepOutcome::Ok);
    cur.assign_from(succ_inc);
  }
  return counts;
}

TEST(IncrementalCanon, DifferentialAlongRandomWalks) {
  std::size_t reusable = 0;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      std::size_t compared = 0;
      for (std::uint64_t seed : {0x5cu, 0xc0ffeeu}) {
        const WalkCounts c =
            differential_walk(*proto, nm.model, seed, /*max_bases=*/60);
        compared += c.compared;
        reusable += c.reusable;
      }
      // Both walks together must have exercised a real slice of the
      // product (a protocol whose walk dead-ends immediately would
      // vacuously pass).
      EXPECT_GE(compared, 100u) << entry.id << " × " << nm.name;
    }
  }
  // The key-part cache must have had work: successors after the first in
  // an epoch that left the observer or the checker unchanged.
  EXPECT_GE(reusable, 1000u);
}

// ------------------------------------------------- empty-key regression
//
// A symmetric protocol with a zero-byte state (and hence empty signatures
// and an empty canonical key) drives the tie loop through candidates whose
// serialized keys are all empty.  The old implementation used
// best_.empty() as its "first candidate" sentinel, so every candidate
// looked like the first: the stabilizer hit count stayed at 1 and the
// orbit size came out as p! instead of 1.  The fix tracks the first
// iteration explicitly; this stub protocol pins the behaviour.
class EmptyStateProtocol final : public Protocol {
 public:
  EmptyStateProtocol() { params_.procs = 2; }
  [[nodiscard]] std::string name() const override { return "EmptyState"; }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::size_t state_size() const override { return 0; }
  void initial_state(std::span<std::uint8_t> /*state*/) const override {}
  void enumerate(std::span<const std::uint8_t> /*state*/,
                 std::vector<Transition>& /*out*/) const override {}
  void apply(std::span<std::uint8_t> /*state*/,
             const Transition& /*t*/) const override {}
  [[nodiscard]] bool could_load_bottom(
      std::span<const std::uint8_t> /*state*/, BlockId /*b*/) const override {
    return false;
  }
  // With no per-processor state the identity renaming is genuinely
  // equivariant, so the base class's no-op permute hooks and empty
  // signatures are *honest* here — unlike the false-declaration fixtures.
  [[nodiscard]] bool processor_symmetric() const override { return true; }

 private:
  Params params_;
};

TEST(IncrementalCanon, EmptyKeyOrbitIsExact) {
  const EmptyStateProtocol proto;
  ProcCanonicalizer canon(proto, /*enable=*/true);
  ASSERT_TRUE(canon.active());
  Product prod(proto, ObserverConfig{}, /*with_observer=*/false);
  Product ref_prod(proto, ObserverConfig{}, /*with_observer=*/false);
  const OracleKey ref = reference_canonical_key(ref_prod);
  // The state is fixed by every permutation: stabilizer order 2!, orbit
  // size exactly 1.  (The sentinel bug reported 2.)
  EXPECT_EQ(ref.orbit, 1u);
  KeyScratch ks;
  ProcPerm applied;
  EXPECT_EQ(canon.canonicalize_key(prod, ks, &applied), ref.orbit);
  EXPECT_EQ(ks.w.data(), ref.key);
  EXPECT_TRUE(ks.w.data().empty());
  EXPECT_TRUE(applied.is_identity());
  // Same through the all-clean fast path: an empty dirty mask against a
  // fresh epoch exercises the cached-signature branches end to end.
  canon.begin_base();
  EXPECT_EQ(canon.canonicalize_key(prod, ks, nullptr, 0), ref.orbit);
  EXPECT_EQ(canon.canonicalize_key(prod, ks, nullptr, 0), ref.orbit);
}

}  // namespace
}  // namespace scv
