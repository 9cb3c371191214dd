#include "mc/model_checker.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>

#include "analysis/footprint_infer.hpp"
#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"
#include "checker/sc_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "mc/level_order.hpp"
#include "mc/por.hpp"
#include "mc/product.hpp"
#include "util/assert.hpp"
#include "util/concurrent_fp_set.hpp"
#include "util/fingerprint.hpp"
#include "util/fp_set.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scv {

std::string to_string(McVerdict v) {
  switch (v) {
    case McVerdict::Verified: return "Verified";
    case McVerdict::Violation: return "Violation";
    case McVerdict::BandwidthExceeded: return "BandwidthExceeded";
    case McVerdict::TrackingInconsistent: return "TrackingInconsistent";
    case McVerdict::StateLimit: return "StateLimit";
    case McVerdict::LintRejected: return "LintRejected";
  }
  return "?";
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << to_string(verdict) << ": " << states << " states, " << transitions
     << " transitions, depth " << depth << ", "
     << (seconds > 0 ? static_cast<std::size_t>(
                           static_cast<double>(transitions) / seconds)
                     : 0)
     << " trans/s";
  if (preemption_bounded) os << " [preemption-bounded]";
  if (!reason.empty()) os << " — " << reason;
  return os.str();
}

namespace {

struct Meta {
  std::uint32_t parent = 0;
  Transition via{};
};

/// Expected distinct-state count used to pre-size the visited store and
/// avoid rehash churn mid-run (DESIGN.md §9).  An explicit hint wins,
/// clamped by the state budget.  Without one, a small max_states is a
/// genuine exploration budget worth sizing for, while the 50M default
/// would pre-size a ~1 GB table for what is usually a tiny run — so large
/// budgets fall back to organic growth.
std::size_t presize_expected(const McOptions& opt) {
  if (opt.visited_size_hint != 0) {
    return std::min(opt.max_states, opt.visited_size_hint);
  }
  return opt.max_states <= (std::size_t{1} << 20) ? opt.max_states : 0;
}

/// glibc allocator chunk model: 8-byte header, 16-byte alignment, 32-byte
/// minimum chunk.  Shared by the exact-mode store estimates; measured
/// against mallinfo2 this matches std::unordered_set<std::string> within a
/// few percent.
std::size_t malloc_chunk(std::size_t payload) noexcept {
  return std::max<std::size_t>(32, (payload + 8 + 15) / 16 * 16);
}

/// Exact mode charges each state one hash node (bucket chain pointer +
/// cached hash + std::string key + slot index) plus the key's heap buffer
/// when it escapes the small-string optimization, plus the bucket array and
/// the slot directory's pointer.
std::size_t exact_store_bytes(std::size_t keys, std::size_t buckets,
                              std::size_t state_bytes) noexcept {
  const std::size_t node = malloc_chunk(2 * sizeof(void*) +
                                        sizeof(std::string) +
                                        sizeof(std::uint32_t));
  const std::size_t heap = state_bytes > 15 ? malloc_chunk(state_bytes + 1) : 0;
  return keys * (node + heap + sizeof(void*)) + buckets * sizeof(void*);
}

/// Thread-safe visited-state store: a CAS-based ConcurrentFingerprintSet by
/// default, or mutex-striped exact key maps behind McOptions::exact_states
/// (the differential escape hatch values correctness over scalability;
/// stripes keep contention tolerable).  The single-worker run uses the same
/// store — uncontended CAS is cheap, and one store means one growth policy
/// and bit-identical dedup across thread counts.
///
/// Exact mode additionally hands out a (shard, slot) reference for every
/// inserted key: the shard is implied by the fingerprint, the slot indexes
/// a per-shard directory of node-stable key pointers.  Worker-local
/// duplicate caches remember {fingerprint, slot} of confirmed members and
/// later validate a cache hit with one byte-compare (confirm()) instead of
/// a full hash-map probe — the exact-mode analogue of the fingerprint
/// cache's membership-is-identity shortcut.
class ConcurrentStateStore {
 public:
  using Insert = ConcurrentFingerprintSet::Insert;
  struct InsertResult {
    Insert verdict = Insert::Fresh;
    std::uint32_t slot = 0;  ///< exact mode: shard-local slot of the key
  };

  ConcurrentStateStore(bool exact, std::size_t expected)
      : exact_(exact), fps_(exact ? 0 : expected) {}

  InsertResult insert(std::span<const std::uint8_t> key, Fingerprint fp) {
    if (!exact_) return {fps_.insert(fp), 0};
    Stripe& s = stripes_[fp.lo % kStripes];
    std::lock_guard lock(s.mu);
    const auto [it, fresh] = s.keys.emplace(
        std::string(reinterpret_cast<const char*>(key.data()), key.size()),
        static_cast<std::uint32_t>(s.slots.size()));
    if (fresh) s.slots.push_back(&it->first);
    return {fresh ? Insert::Fresh : Insert::Duplicate, it->second};
  }

  /// Exact-mode cache validation: true iff `slot` of `fp`'s shard holds
  /// exactly `key`.  True certifies membership (the caller may report
  /// Duplicate without re-probing the map); false only means the cache
  /// entry was a fingerprint alias — fall back to a full insert().
  [[nodiscard]] bool confirm(std::span<const std::uint8_t> key,
                             Fingerprint fp, std::uint32_t slot) {
    Stripe& s = stripes_[fp.lo % kStripes];
    std::lock_guard lock(s.mu);
    if (slot >= s.slots.size()) return false;
    const std::string& k = *s.slots[slot];
    return k.size() == key.size() &&
           std::memcmp(k.data(), key.data(), k.size()) == 0;
  }

  [[nodiscard]] bool should_grow() const noexcept {
    return !exact_ && fps_.should_grow();
  }
  /// Requires quiescence (no concurrent insert); the BFS calls it between
  /// run_on_all barriers.
  void grow() {
    if (!exact_) fps_.grow();
  }

  [[nodiscard]] std::size_t occupied() const noexcept {
    if (!exact_) return fps_.size();
    std::size_t n = 0;
    for (const Stripe& s : stripes_) n += s.keys.size();
    return n;
  }
  [[nodiscard]] std::size_t slots() const noexcept {
    if (!exact_) return fps_.capacity();
    std::size_t n = 0;
    for (const Stripe& s : stripes_) n += s.keys.bucket_count();
    return n;
  }
  [[nodiscard]] std::size_t memory_bytes(
      std::size_t state_bytes) const noexcept {
    return exact_ ? exact_store_bytes(occupied(), slots(), state_bytes)
                  : fps_.memory_bytes();
  }

 private:
  struct Stripe {
    std::mutex mu;
    /// Key -> shard-local slot; map nodes are stable, so the slot
    /// directory can hold pointers straight into the keys.
    std::unordered_map<std::string, std::uint32_t> keys;
    std::vector<const std::string*> slots;
  };
  static constexpr std::size_t kStripes = 64;

  bool exact_;
  ConcurrentFingerprintSet fps_;
  std::array<Stripe, kStripes> stripes_;
};

void fill_store_stats(McResult& result, const ConcurrentStateStore& store) {
  result.store_bytes = store.memory_bytes(result.state_bytes);
  const std::size_t slots = store.slots();
  result.store_load_factor =
      slots == 0 ? 0.0
                 : static_cast<double>(store.occupied()) /
                       static_cast<double>(slots);
}

/// Chunked, append-only arena of per-state Meta records, indexed by the
/// atomic global state counter.  Workers call slot() concurrently: chunk
/// pointers never move once allocated, and the chunk directory grows
/// copy-on-write under a mutex, published with release/acquire.  Retired
/// directories are kept alive (graveyard) so a concurrent slot() still
/// holding the old pointer dereferences valid memory; the happens-before
/// edge through chunks_published_ guarantees it only indexes chunks that
/// directory already contained.
class MetaArena {
 public:
  MetaArena() { grow_to(0); }

  /// Thread-safe: returns the record for `idx`, allocating on demand.
  Meta& slot(std::size_t idx) {
    const std::size_t c = idx >> kChunkShift;
    if (c >= chunks_published_.load(std::memory_order_acquire)) grow_to(c);
    return dir_.load(std::memory_order_acquire)[c][idx & kChunkMask];
  }

  /// Read access for counterexample reconstruction; callers run after a
  /// barrier, so every claimed slot is fully written.
  const Meta& operator[](std::size_t idx) const {
    const std::size_t c = idx >> kChunkShift;
    SCV_EXPECTS(c < chunks_published_.load(std::memory_order_acquire));
    return dir_.load(std::memory_order_acquire)[c][idx & kChunkMask];
  }

 private:
  static constexpr std::size_t kChunkShift = 14;  ///< 16K entries per chunk
  static constexpr std::size_t kChunkMask =
      (std::size_t{1} << kChunkShift) - 1;

  void grow_to(std::size_t chunk) {
    std::lock_guard lock(mu_);
    while (chunks_.size() <= chunk) {
      if (chunks_.size() == dir_cap_) {
        const std::size_t cap = std::max<std::size_t>(dir_cap_ * 2, 16);
        auto next = std::make_unique<Meta*[]>(cap);
        for (std::size_t i = 0; i < chunks_.size(); ++i) {
          next[i] = chunks_[i].get();
        }
        dir_.store(next.get(), std::memory_order_release);
        dirs_.push_back(std::move(next));
        dir_cap_ = cap;
      }
      chunks_.push_back(
          std::make_unique<Meta[]>(std::size_t{1} << kChunkShift));
      dir_.load(std::memory_order_relaxed)[chunks_.size() - 1] =
          chunks_.back().get();
      chunks_published_.store(chunks_.size(), std::memory_order_release);
    }
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Meta[]>> chunks_;
  std::vector<std::unique_ptr<Meta*[]>> dirs_;  ///< last live, rest graveyard
  std::atomic<Meta**> dir_{nullptr};
  std::size_t dir_cap_ = 0;
  std::atomic<std::size_t> chunks_published_{0};
};

/// One worker's slice of a BFS level as flat serialized entries:
/// [u32 global index][product snapshot], delimited by an offsets array.
/// This is the compact frontier: a level lives as two flat buffers per
/// worker (the one being read and the one being written) instead of a
/// heavyweight object graph per state.
struct FrontierBatch {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offsets;

  [[nodiscard]] std::size_t size() const noexcept { return offsets.size(); }
  [[nodiscard]] std::span<const std::uint8_t> entry(std::size_t i) const {
    const std::size_t begin = offsets[i];
    const std::size_t end =
        i + 1 < offsets.size() ? offsets[i + 1] : bytes.size();
    return std::span<const std::uint8_t>(bytes).subspan(begin, end - begin);
  }
  /// Keeps the allocations for the next level (double buffering).
  void clear() noexcept {
    bytes.clear();
    offsets.clear();
  }
};

/// Scheduling context carried per state under a bounded-preemption model
/// (McOptions::observer's MemoryModel::preemption_bound): the processor of
/// the last memory operation on the path (kNoLastProc before the first) and
/// the context switches still allowed.  Internal protocol transitions are
/// unattributed — only memory operations move `last` or consume budget, so
/// the bound counts scheduler alternation between processors' program
/// streams, not bus/directory activity.  The pair is appended to state keys
/// and frontier entries: two product-identical states with different
/// budgets reach different futures and must not merge.
struct PreemptState {
  static constexpr std::uint8_t kNoLastProc = 0xff;
  std::uint8_t last = kNoLastProc;
  std::uint32_t budget = 0;
};

void append_entry(std::uint32_t idx, const Product& p, FrontierBatch& b,
                  const PreemptState* ps = nullptr) {
  b.offsets.push_back(static_cast<std::uint32_t>(b.bytes.size()));
  ByteWriter w(b.bytes);
  w.u32(idx);
  if (ps != nullptr) {
    w.u8(ps->last);
    w.u32(ps->budget);
  }
  // Raw snapshots through the component loop, not the canonical key: the
  // canonical form deliberately erases pool IDs and handle naming, so it
  // cannot rebuild a steppable product.  Snapshot/restore is bit-faithful.
  p.snapshot(w);
}

std::uint32_t restore_entry(std::span<const std::uint8_t> blob, Product& p,
                            PreemptState* ps = nullptr) {
  ByteReader r(blob);
  const std::uint32_t idx = r.u32();
  if (ps != nullptr) {
    ps->last = r.u8();
    ps->budget = r.u32();
  }
  p.restore(r);
  SCV_ASSERT(r.done());
  return idx;
}

struct ReplayOutput {
  std::vector<CounterexampleStep> steps;
  std::string reason;
  std::vector<RunStep> recorded;  ///< filled only when recording
  ScCheckerConfig checker;        ///< the replay product's checker config
};

/// Re-executes `path` from the initial state through a fresh product,
/// collecting each step's action name and emitted observer symbols, the
/// terminal failure reason, and — when `record` — the RunTrace step body
/// via a recorder sink on the same pipeline.
///
/// Under symmetry reduction the path's transitions are relative to *orbit
/// representatives*: exploration canonicalized every successor before
/// storing it, so t_i is enabled in the canonical state s_{i-1}, not in the
/// concrete state the un-permuted run reaches.  The replay therefore drives
/// two products:
///
///   * the concrete product c, stepped with u_i = σ_{i-1}⁻¹(t_i), which is
///     a genuine run of the protocol from its true initial state (this is
///     what gets recorded — the trace re-checks offline like any other);
///   * a shadow product s that repeats exploration's exact sequence —
///     step with t_i, canonicalize obtaining π_i — purely to track the
///     cumulative renaming σ_i = σ_{i-1}·π_i with s_i = σ_i(c_i).
///
/// σ exists because processor permutations are bisimulations: t enabled in
/// σ(c) implies σ⁻¹(t) enabled in c with step(c, σ⁻¹(t)) = σ⁻¹(step(σ(c),
/// t)).  The shadow is byte-faithful to exploration (same deterministic
/// construction, steps and canonicalizer), so the π_i match the ones
/// exploration chose.  The final failing step needs no shadow work.
ReplayOutput replay(const Protocol& proto, const McOptions& opt,
                    const std::vector<Transition>& path, bool record) {
  ReplayOutput out;
  Product p(proto, opt.observer, !opt.protocol_only);
  if (p.with_observer()) out.checker = p.checker().config();
  RunRecorder recorder;
  if (record) p.add_sink(&recorder);
  std::vector<Symbol> symbols;

  ProcCanonicalizer canon(proto, opt.symmetry_reduction);
  Product shadow(proto, opt.observer, !opt.protocol_only);
  std::vector<Symbol> shadow_symbols;
  KeyScratch shadow_key;
  ProcPerm sigma = ProcPerm::identity(proto.params().procs);
  if (canon.active()) canon.canonicalize_key(shadow, shadow_key, &sigma);

  for (std::size_t i = 0; i < path.size(); ++i) {
    const Transition u =
        canon.active() ? proto.permute_transition(path[i], sigma.inverse())
                       : path[i];
    const std::string action = proto.action_name(u.action);
    const StepOutcome outcome = p.step(u, symbols, action);
    out.steps.push_back({action, symbols});
    if (outcome != StepOutcome::Ok) {
      out.reason = p.failure_reason(outcome);
      break;
    }
    if (canon.active() && i + 1 < path.size()) {
      shadow.step(path[i], shadow_symbols);
      ProcPerm pi;
      canon.canonicalize_key(shadow, shadow_key, &pi);
      sigma = sigma.then(pi);
    }
  }
  if (record) out.recorded = recorder.take();
  return out;
}

/// `MetaStore` is MetaArena or anything else indexable by state number.
template <typename MetaStore>
std::vector<Transition> path_to(const MetaStore& meta, std::uint32_t idx,
                                const Transition* final_step) {
  std::vector<Transition> path;
  for (std::uint32_t i = idx; i != 0; i = meta[i].parent) {
    path.push_back(meta[i].via);
  }
  std::reverse(path.begin(), path.end());
  if (final_step != nullptr) path.push_back(*final_step);
  return path;
}

template <typename MetaStore>
McResult finish_failure(const Protocol& proto, const McOptions& opt,
                        McResult result, StepOutcome outcome,
                        const MetaStore& meta, std::uint32_t parent,
                        const Transition& via) {
  switch (outcome) {
    case StepOutcome::Reject:
      result.verdict = McVerdict::Violation;
      break;
    case StepOutcome::Bound:
      result.verdict = McVerdict::BandwidthExceeded;
      break;
    case StepOutcome::Tracking:
      result.verdict = McVerdict::TrackingInconsistent;
      break;
    case StepOutcome::Ok:
      SCV_UNREACHABLE("finish_failure on Ok outcome");
  }
  const auto path = path_to(meta, parent, &via);
  ReplayOutput rep = replay(proto, opt, path, opt.record_counterexample);
  result.reason = std::move(rep.reason);
  result.counterexample = std::move(rep.steps);

  if (opt.record_counterexample) {
    RunTrace trace;
    trace.protocol = proto.name();
    trace.checker = rep.checker;
    trace.verdict = result.verdict == McVerdict::Violation
                        ? RunVerdict::Violation
                        : (result.verdict == McVerdict::BandwidthExceeded
                               ? RunVerdict::BandwidthExceeded
                               : RunVerdict::TrackingInconsistent);
    trace.reason = result.reason;
    trace.steps = std::move(rep.recorded);
    result.counterexample_trace = std::move(trace);
  }

  // For cycle rejections, expand the full emitted descriptor (which is a
  // valid graph description regardless of cycles) and extract a concrete
  // cycle — the Lemma 3.1 witness that the trace is not SC.
  if (result.verdict == McVerdict::Violation) {
    Descriptor d;
    d.k = rep.checker.k;
    for (const CounterexampleStep& step : result.counterexample) {
      d.symbols.insert(d.symbols.end(), step.emitted.begin(),
                       step.emitted.end());
    }
    const ExpansionResult expansion = expand(d);
    if (expansion.graph.has_value()) {
      if (const auto cyc = expansion.graph->graph.find_cycle()) {
        for (const std::uint32_t node : *cyc) {
          const auto& label = expansion.graph->node_labels[node];
          result.cycle.push_back(
              std::to_string(node + 1) + ":" +
              (label ? to_string(*label) : std::string("?")));
        }
      }
    }
  }
  return result;
}

/// Product-level symmetry self-check: on a deterministic sample walk,
/// verifies for every transposition τ (transpositions generate S_p) that
///   * a state and its τ-image canonicalize to the same key (same orbit,
///     same representative), and
///   * permute-then-step equals step-then-permute up to canonicalization:
///     canon(step(τ(s), τ(t))) == canon(step(s, t)) for every enabled t.
/// This exercises the *whole* product — protocol state, observer chains and
/// tracker, checker bookkeeping — so a permute hook that forgets one
/// component's per-processor state is caught here before the reduction can
/// merge non-equivalent states.  `detail` receives the first violation.
bool product_symmetry_ok(const Protocol& proto, const McOptions& opt,
                         std::string& detail) {
  const std::size_t procs = proto.params().procs;
  const bool with_obs = !opt.protocol_only;
  Product cur(proto, opt.observer, with_obs);
  Product perm_cur(proto, opt.observer, with_obs);
  Product succ(proto, opt.observer, with_obs);
  Product perm_succ(proto, opt.observer, with_obs);
  ProcCanonicalizer canon(proto, true);
  KeyScratch ka;
  KeyScratch kb;
  std::vector<Transition> trans;
  std::vector<Symbol> symbols;

  const auto canon_keys_equal = [&](Product& x, Product& y) {
    canon.canonicalize_key(x, ka);
    canon.canonicalize_key(y, kb);
    const auto xa = ka.w.data();
    const auto yb = kb.w.data();
    return xa.size() == yb.size() &&
           std::equal(xa.begin(), xa.end(), yb.begin());
  };

  constexpr std::size_t kSamples = 24;
  constexpr std::size_t kMaxSteps = 96;
  std::size_t sampled = 0;
  for (std::size_t step = 0; step < kMaxSteps && sampled < kSamples; ++step) {
    trans.clear();
    cur.enumerate(trans);
    ++sampled;
    for (std::size_t a = 0; a + 1 < procs; ++a) {
      for (std::size_t b = a + 1; b < procs; ++b) {
        const ProcPerm tau =
            ProcPerm::transposition(procs, static_cast<ProcId>(a),
                                    static_cast<ProcId>(b));
        perm_cur.assign_from(cur);
        perm_cur.permute_procs(tau);
        succ.assign_from(cur);
        perm_succ.assign_from(perm_cur);
        if (!canon_keys_equal(succ, perm_succ)) {
          detail = "state and its (" + std::to_string(a) + " " +
                   std::to_string(b) +
                   ") image canonicalize to different keys at sample " +
                   std::to_string(sampled);
          return false;
        }
        for (const Transition& t : trans) {
          succ.assign_from(cur);
          if (succ.step(t, symbols) != StepOutcome::Ok) continue;
          perm_succ.assign_from(perm_cur);
          const Transition tp = proto.permute_transition(t, tau);
          if (perm_succ.step(tp, symbols) != StepOutcome::Ok) {
            detail = "permuted transition '" + proto.action_name(tp.action) +
                     "' not cleanly steppable in the (" + std::to_string(a) +
                     " " + std::to_string(b) + ") image at sample " +
                     std::to_string(sampled);
            return false;
          }
          if (!canon_keys_equal(succ, perm_succ)) {
            detail = "permute-then-step diverges from step-then-permute on '" +
                     proto.action_name(t.action) + "' under (" +
                     std::to_string(a) + " " + std::to_string(b) +
                     ") at sample " + std::to_string(sampled);
            return false;
          }
        }
      }
    }
    if (trans.empty()) break;
    const Transition& t = trans[(step * 13 + 7) % trans.size()];
    if (cur.step(t, symbols) != StepOutcome::Ok) break;
  }
  return true;
}

/// Full-identity transition comparison.  Action classes are not enough:
/// protocols emit distinct transitions with identical actions that differ
/// only in their copy labels (GetSharedToy's Get-Shared picks both a source
/// and a destination slot), so independence checks must match transitions
/// by every observable field.
bool same_transition(const Transition& a, const Transition& b) {
  if (a.loc != b.loc || a.serialize_loc != b.serialize_loc) return false;
  if (a.copies.size() != b.copies.size()) return false;
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    if (a.copies[i].dst != b.copies[i].dst ||
        a.copies[i].src != b.copies[i].src) {
      return false;
    }
  }
  const Action& x = a.action;
  const Action& y = b.action;
  if (x.kind != y.kind) return false;
  if (x.is_memory_op()) {
    return x.op.proc == y.op.proc && x.op.block == y.op.block &&
           x.op.value == y.op.value;
  }
  return x.internal_id == y.internal_id && x.arg0 == y.arg0 &&
         x.arg1 == y.arg1;
}

const Transition* find_transition(const std::vector<Transition>& trans,
                                  const Transition& t) {
  for (const Transition& c : trans) {
    if (same_transition(c, t)) return &c;
  }
  return nullptr;
}

/// Verifies the independence contract for the pair (t, u), both enabled in
/// `cur`: t must leave u enabled with the same step outcome u has from
/// `cur`, u must leave t enabled, and when every step is clean the two
/// interleavings must reach the same canonical product state.  Outcome
/// preservation is what keeps reject states reachable in the reduced
/// graph; key equality is the diamond the reordering argument commutes
/// through.  sa/sb/ka/kb/etrans/sym are caller scratch.
bool independence_commutes(const Protocol& proto, ProcCanonicalizer& canon,
                           const Product& cur, const Transition& t,
                           const Transition& u, Product& sa, Product& sb,
                           KeyScratch& ka, KeyScratch& kb,
                           std::vector<Transition>& etrans,
                           std::vector<Symbol>& sym, std::string& detail) {
  const auto pair_name = [&] {
    return "('" + proto.action_name(t.action) + "', '" +
           proto.action_name(u.action) + "')";
  };
  sa.assign_from(cur);
  if (sa.step(t, sym) != StepOutcome::Ok) return true;  // dead end: vacuous
  etrans.clear();
  sa.enumerate(etrans);
  const Transition* u_after = find_transition(etrans, u);
  if (u_after == nullptr) {
    detail = "declared-independent pair " + pair_name() +
             ": the first disables the second";
    return false;
  }
  sb.assign_from(sa);
  const StepOutcome o_tu = sb.step(*u_after, sym);
  if (o_tu == StepOutcome::Ok) canon.canonicalize_key(sb, ka);
  sb.assign_from(cur);
  const StepOutcome o_u = sb.step(u, sym);
  if (o_u != o_tu) {
    detail = "declared-independent pair " + pair_name() +
             ": step outcome differs between orders";
    return false;
  }
  if (o_u != StepOutcome::Ok) return true;  // both orders fail identically
  etrans.clear();
  sb.enumerate(etrans);
  const Transition* t_after = find_transition(etrans, t);
  if (t_after == nullptr) {
    detail = "declared-independent pair " + pair_name() +
             ": the second disables the first";
    return false;
  }
  if (sb.step(*t_after, sym) != StepOutcome::Ok) {
    detail = "declared-independent pair " + pair_name() +
             ": outcome differs on the deferred first transition";
    return false;
  }
  canon.canonicalize_key(sb, kb);
  const auto xa = ka.w.data();
  const auto xb = kb.w.data();
  if (xa.size() != xb.size() || !std::equal(xa.begin(), xa.end(), xb.begin())) {
    detail = "declared-independent pair " + pair_name() +
             ": the two orders reach different product states";
    return false;
  }
  return true;
}

/// Product-level independence self-check (the POR analogue of
/// product_symmetry_ok): on a deterministic sample walk, verifies that the
/// declared relation is symmetric, that every declared-independent
/// co-enabled pair commutes through the whole product (protocol state,
/// observer tracking, checker bookkeeping — independence_commutes), and
/// that every ample candidate (invisible singleton-processor footprint) is
/// a stutter: stepping it emits no descriptor symbols.  `detail` receives
/// the first violation.
bool product_por_ok(const Protocol& proto, const McOptions& opt,
                    const PorOracle& oracle, std::string& detail) {
  const bool with_obs = !opt.protocol_only;
  Product cur(proto, opt.observer, with_obs);
  Product sa(proto, opt.observer, with_obs);
  Product sb(proto, opt.observer, with_obs);
  ProcCanonicalizer canon(proto, opt.symmetry_reduction);
  KeyScratch ka;
  KeyScratch kb;
  std::vector<Transition> trans;
  std::vector<Transition> etrans;
  std::vector<Symbol> symbols;

  constexpr std::size_t kSamples = 24;
  constexpr std::size_t kMaxSteps = 96;
  std::size_t sampled = 0;
  for (std::size_t step = 0; step < kMaxSteps && sampled < kSamples; ++step) {
    trans.clear();
    cur.enumerate(trans);
    ++sampled;
    for (std::size_t i = 0; i < trans.size(); ++i) {
      const PorFootprint fp = oracle.footprint(trans[i]);
      if (!fp.visible && std::has_single_bit(fp.procs) &&
          !cur.transition_visible(trans[i])) {
        sa.assign_from(cur);
        if (sa.step(trans[i], symbols) == StepOutcome::Ok &&
            !symbols.empty()) {
          detail = "invisible-footprint transition '" +
                   proto.action_name(trans[i].action) +
                   "' emits descriptor symbols at sample " +
                   std::to_string(sampled);
          return false;
        }
      }
      for (std::size_t j = i + 1; j < trans.size(); ++j) {
        const bool ij = oracle.independent(trans[i], trans[j]);
        const bool ji = oracle.independent(trans[j], trans[i]);
        if (ij != ji) {
          detail = "independence relation is asymmetric on ('" +
                   proto.action_name(trans[i].action) + "', '" +
                   proto.action_name(trans[j].action) + "') at sample " +
                   std::to_string(sampled);
          return false;
        }
        if (!ij) continue;
        if (!independence_commutes(proto, canon, cur, trans[i], trans[j],
                                   sa, sb, ka, kb, etrans, symbols,
                                   detail)) {
          detail += " at sample " + std::to_string(sampled);
          return false;
        }
      }
    }
    if (trans.empty()) break;
    const Transition& t = trans[(step * 13 + 7) % trans.size()];
    if (cur.step(t, symbols) != StepOutcome::Ok) break;
  }
  return true;
}

/// In-engine ample cross-validation cadence: one sampled state per this
/// many reduced expansions per worker.  Each sample costs ~|ample| * |T|
/// product steps, so the cadence keeps the overhead in the low percent.
constexpr std::uint64_t kPorSampleEvery = 4096;

/// A failing transition a worker met.  A worker's ranks only increase
/// within a phase and it stops at its first failure, so this is also the
/// lowest-ranked failure that worker saw.
struct Failure {
  Rank rank = kNoRank;
  std::size_t item = 0;  ///< the failing entry's position in the work list
  StepOutcome outcome = StepOutcome::Ok;
  std::uint32_t parent = 0;
  Transition via{};
  /// The entry's transitions up to and including the failing one.
  std::uint64_t expanded = 0;
};

constexpr std::size_t kNoItem = ~std::size_t{0};

/// What one work-list item contributed, kept per phase so that a run
/// stopping at a failure counts exactly the items ranked before it.
struct ItemStat {
  enum Kind : std::uint8_t { kUnfinished, kFull, kAmple, kProviso };
  /// Transitions stepped (partial for the entry that hit the state limit).
  std::uint32_t expanded = 0;
  std::uint32_t deferred = 0;  ///< kAmple: enabled transitions not expanded
  Kind kind = kUnfinished;     ///< kProviso: reduced, decided by C3
};

/// The cycle proviso's verdict on one reduced entry whose ample successors
/// included a duplicate.
struct ProvisoDecision {
  std::uint32_t gi = 0;
  std::uint32_t deferred = 0;
  bool keep = false;  ///< the reduction stands; otherwise a fallback
};

// The exploration engine — one level-synchronized BFS for every thread
// count, driving the uniform Product through the compact frontier:
//
//   * a shared concurrent visited store — workers deduplicate successors
//     *during* expansion;
//   * dedup-before-materialize — every successor is stepped into reused
//     per-worker scratch, fingerprinted, and only *fresh* states are
//     serialized into the worker's next-level batch (duplicates, the
//     majority, allocate nothing);
//   * a compact frontier — levels live as flat serialized buffers, read
//     through a rank-ordered index; the product is rebuilt on expansion via
//     the component snapshot loop;
//   * a chunked MetaArena indexed by the atomic state counter.
//
// Rank order (DESIGN.md §11): every successor has a rank (phase, gi, ti),
// see mc/level_order.hpp.  One worker (`threads == 1` runs inline on the
// calling thread) claims states in rank order.  Several workers reproduce
// that order by construction, so a run reports the same verdict, counts and
// counterexample at every thread count:
//
//   * each state's Meta (parent, via) comes from its minimum-rank
//     discoverer — the level barrier resolves the workers' claim and
//     duplicate logs and rewrites Meta where another worker's claim won the
//     race;
//   * the next frontier is ordered by that rank (an index array over the
//     workers' batches; snapshots are not copied);
//   * the reported failure is the minimum-rank failing transition: workers
//     keep expanding every entry ranked below the lowest failure seen so
//     far, stop past it, and the result counts only the work ranked before
//     it.  Level synchrony keeps the counterexample depth-minimal.
//
// A level runs in two phases on all workers: the main expansion, then the
// cycle-proviso (C3) fallbacks it decided at the barrier.  A level where a
// failure and the state budget both trip is the one case re-explored on a
// single worker (see `settle`).
//
// When the fingerprint table fills mid-level, workers abort at entry
// granularity (their resume cursor stays on the unfinished entry), the
// table grows single-threaded at the barrier, and expansion resumes:
// re-expanding the interrupted entry is safe because its already-claimed
// successors were batched immediately and now dedup to Duplicate, its
// transition count is only committed once the entry completes, and it
// repeats its ranks exactly.
McResult run_bfs(const Protocol& proto, const McOptions& opt,  // NOLINT
                 const PorOracle& oracle) {
  const std::size_t nworkers = opt.threads;
  McResult result;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  // One worker needs no OS threads: the pool runs the task inline.
  ThreadPool pool(nworkers == 1 ? 0 : nworkers, opt.pin_threads);
  const bool product = !opt.protocol_only;
  // Bounded preemption (see McOptions::observer): thread the scheduling
  // context through keys and frontier entries, prune over-budget
  // transitions.  model_check already strips symmetry and POR under it;
  // the gates here keep run_bfs sound even if called with a raw option set.
  const MemoryModel model = opt.observer.model;
  const bool preempt = model.bounded_preemption();
  // POR engages only against the full product: invisibility (C2) is defined
  // relative to the observer/checker pipeline, which protocol_only drops.
  const bool por = opt.partial_order_reduction && product && !preempt &&
                   AmpleSelector(proto, oracle, true).active();
  // Several workers claim in racy order, so they log claims and store
  // duplicates for the barrier to resolve.  One worker claims in rank order
  // already; it logs claims only for the C3 level table.
  const bool ranked = nworkers > 1;
  const std::size_t nparts = nworkers;

  ConcurrentStateStore visited(opt.exact_states, presize_expected(opt));
  MetaArena meta;

  std::atomic<std::size_t> states{1};  // the initial state
  std::uint64_t transitions_done = 0;  // committed at phase barriers
  std::atomic<bool> limit_hit{false};
  std::atomic<bool> table_full{false};
  // Lowest failing rank met so far: workers skip everything ranked past it.
  std::atomic<Rank> fail_rank{kNoRank};

  // POR runtime-violation capture (sampled ample cross-validation).
  std::atomic<bool> por_violation{false};
  std::mutex por_mu;
  std::string por_violation_detail;

  Product init(proto, opt.observer, product);
  ProcCanonicalizer init_canon(proto, opt.symmetry_reduction && !preempt);
  const bool symmetry = init_canon.active();
  // Sum of orbit sizes over stored states: how many concrete states the
  // canonical representatives cover.  orbit_sum / states is the reduction.
  std::atomic<std::uint64_t> orbit_sum{0};
  const PreemptState init_ps{PreemptState::kNoLastProc,
                             model.preemption_bound};
  {
    KeyScratch ks;
    orbit_sum.fetch_add(init_canon.canonicalize_key(init, ks),
                        std::memory_order_relaxed);
    if (preempt) {
      ks.w.u8(init_ps.last);
      ks.w.u32(init_ps.budget);
    }
    const auto key = ks.w.data();
    result.state_bytes = key.size();
    visited.insert(key, fingerprint128(key));
  }
  const GraphId stats_null_id =
      product ? static_cast<GraphId>(init.observer().bandwidth() + 1)
              : kNoId;

  struct Worker {
    Worker(const Protocol& p, const ObserverConfig& c, bool prod,
           GraphId null_id, bool sym, const PorOracle& orc, bool por_on,
           std::size_t parts)
        : cur(p, c, prod),
          succ(p, c, prod),
          stats(null_id),
          canon(p, sym),
          ample(p, orc, por_on),
          claims(parts),
          offers(parts) {}
    Product cur;   ///< entry being expanded (restored from the frontier)
    Product succ;  ///< successor scratch, reused across transitions
    std::uint32_t cur_idx = 0;
    PreemptState ps;  ///< cur's scheduling context (preemption bounding)
    std::uint64_t preempt_pruned = 0;
    KeyScratch key;
    std::vector<Transition> transitions;
    std::vector<Symbol> symbols;
    SymbolStatsSink stats;    ///< attached to succ when symbol_stats
    ProcCanonicalizer canon;  ///< per-worker (it carries scratch)
    // Direct-mapped positive-membership cache in front of the shared
    // visited store.  In fingerprint mode a hit certifies the fingerprint
    // was already inserted — duplicates short-circuit without probing the
    // (much larger, cache-missing) global table.  Exact mode dedups by full
    // key, so a hit is only a candidate: it is validated against the cached
    // shard slot with one byte-compare (ConcurrentStateStore::confirm)
    // instead of a full hash-map probe.  Membership is monotone, so entries
    // never invalidate, even across grow().  Sized to stay L2-resident:
    // 8Ki entries * 24 B ≈ 192 KiB per worker.
    struct CacheEntry {
      Fingerprint fp;
      std::uint32_t slot = 0;
    };
    std::vector<CacheEntry> dup_cache = std::vector<CacheEntry>(8192);
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_lookups = 0;
    // Ample-set POR state: the per-worker selector (carries scratch), the
    // current entry's ample member indices, the reduced entries with a
    // duplicate ample successor (the barrier's C3 step decides them) and
    // those duplicates' fingerprints, this worker's share of the C3
    // decisions, and scratch products for the sampled ample
    // cross-validation (allocated only when the self-check is on).
    AmpleSelector ample;
    std::vector<std::uint32_t> ample_idx;
    struct ProvisoEntry {
      std::uint32_t gi = 0;
      std::uint32_t fps_end = 0;  ///< end of its run in proviso_fps
    };
    std::vector<ProvisoEntry> proviso;
    std::vector<Fingerprint> proviso_fps;
    std::vector<ProvisoDecision> decisions;
    std::uint64_t reduced_seen = 0;
    std::unique_ptr<Product> chk_a;
    std::unique_ptr<Product> chk_b;
    KeyScratch chk_key;
    std::vector<Transition> chk_trans;
    FrontierBatch out;  ///< next-level entries this worker claimed
    // Rank logs of the running phase, one vector per partition.
    std::vector<std::vector<RankClaim>> claims;
    std::vector<std::vector<RankOffer>> offers;
    Failure failure;
    /// Work-list item whose claim reached the state budget, if any.
    std::size_t limit_item = kNoItem;
    // Resume cursors into the worker's claimed chunk of the work list;
    // chunk_next stays on the unfinished entry across grow barriers, the
    // shared claim cursor hands out fresh chunks.
    std::size_t chunk_next = 0;
    std::size_t chunk_end = 0;
    std::size_t peak_live = 0;
    double t_expand = 0.0;  ///< phase accounting (McPhaseTimes)
    double t_canon = 0.0;
    double t_dedup = 0.0;
    double t_mat = 0.0;
  };
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(nworkers);
  for (std::size_t w = 0; w < nworkers; ++w) {
    workers.push_back(std::make_unique<Worker>(proto, opt.observer, product,
                                               stats_null_id, symmetry,
                                               oracle, por, nparts));
    if (opt.symbol_stats && product) {
      workers.back()->succ.add_sink(&workers.back()->stats);
    }
    if (por && opt.por_self_check) {
      workers.back()->chk_a =
          std::make_unique<Product>(proto, opt.observer, product);
      workers.back()->chk_b =
          std::make_unique<Product>(proto, opt.observer, product);
    }
  }

  // In-engine ample cross-validation: re-establishes on live reachable
  // states what product_por_ok sampled from its walk.  Every ample member
  // must be a stutter (no descriptor symbols) and must commute with every
  // deferred transition through the whole product.  Runs before the
  // worker's begin_base(), so the canonicalizer's epoch cache is clean for
  // the real successors afterwards.
  const auto ample_check_ok = [&proto](Worker& ws, std::string& detail) {
    for (const std::uint32_t i : ws.ample_idx) {
      ws.chk_a->assign_from(ws.cur);
      if (ws.chk_a->step(ws.transitions[i], ws.symbols) == StepOutcome::Ok &&
          !ws.symbols.empty()) {
        detail = "ample member '" +
                 proto.action_name(ws.transitions[i].action) +
                 "' emits descriptor symbols";
        return false;
      }
      std::size_t m = 0;
      for (std::size_t j = 0; j < ws.transitions.size(); ++j) {
        if (m < ws.ample_idx.size() && ws.ample_idx[m] == j) {
          ++m;  // member-member pairs need no commutation argument
          continue;
        }
        if (!independence_commutes(proto, ws.canon, ws.cur,
                                   ws.transitions[i], ws.transitions[j],
                                   *ws.chk_a, *ws.chk_b, ws.key, ws.chk_key,
                                   ws.chk_trans, ws.symbols, detail)) {
          return false;
        }
      }
    }
    return true;
  };

  const auto merge_worker_stats = [&] {
    result.por_active = por;
    for (const auto& ws : workers) {
      result.peak_live_nodes = std::max(result.peak_live_nodes, ws->peak_live);
      if (opt.symbol_stats) result.symbol_stats.merge(ws->stats.stats());
      result.phase_times.expand += ws->t_expand;
      result.phase_times.canonicalize += ws->t_canon;
      result.phase_times.dedup += ws->t_dedup;
      result.phase_times.materialize += ws->t_mat;
      result.dup_cache_hits += ws->cache_hits;
      result.dup_cache_lookups += ws->cache_lookups;
      result.preemption_pruned += ws->preempt_pruned;
    }
    result.preemption_bounded = preempt;
    result.symmetry_active = symmetry;
    const std::size_t n = states.load();
    result.orbit_reduction =
        n == 0 ? 1.0
               : static_cast<double>(orbit_sum.load()) /
                     static_cast<double>(n);
  };

  const auto finish = [&](McVerdict v) {
    merge_worker_stats();
    result.verdict = v;
    result.transitions = transitions_done;
    // Under a state limit the counter may overshoot (several workers can
    // claim fresh states concurrently before the flag propagates); clamp
    // to the budget.  max(·, 2) covers the degenerate max_states <= 1
    // budgets, where expansion still sees the two states it touched before
    // stopping.
    const std::size_t n = states.load();
    result.states = limit_hit.load()
                        ? std::max(opt.max_states, std::size_t{2})
                        : n;
    fill_store_stats(result, visited);
    result.seconds = elapsed();
    return result;
  };

  // The level's frontier: the workers' batches of the previous level, read
  // in rank order through `order` (packed worker << 32 | position).  An
  // empty order is the identity over batch 0 — the initial level, and every
  // level of a one-worker run, whose single batch is already in rank order.
  std::vector<FrontierBatch> frontier(nworkers);
  std::vector<std::uint64_t> order;
  std::vector<std::uint64_t> next_order;
  const auto entry = [&](std::size_t gi) {
    const std::uint64_t ref = order.empty() ? gi : order[gi];
    return frontier[ref >> 32].entry(static_cast<std::uint32_t>(ref));
  };
  append_entry(0, init, frontier[0], preempt ? &init_ps : nullptr);
  std::size_t frontier_entries = 1;

  // The running phase's work list: phase 0 expands frontier positions
  // 0..items-1, phase 1 (the C3 fallbacks) the positions in `fallbacks`.
  unsigned phase = 0;
  bool logging = false;
  std::size_t items = 0;
  std::vector<std::uint32_t> fallbacks;
  std::vector<ItemStat> item_stats;
  std::vector<ProvisoDecision> decisions;  ///< the level's, ascending gi
  std::array<std::vector<LevelShard>, 2> shards{
      std::vector<LevelShard>(nparts), std::vector<LevelShard>(nparts)};

  // Chunked work claiming: workers grab contiguous runs of work-list items
  // from a shared cursor instead of a fixed stride, so a worker stuck on
  // expensive entries does not leave its whole stride stranded while
  // others idle at the level barrier.  Chunks are contiguous for batch
  // locality, sized so each worker sees ~8 claims per phase (caps tail
  // imbalance at ~1/8 of a worker's share) but at most 64 entries (bounds
  // the tail chunk's latency).  The cursor outlives the grow barrier on
  // purpose: resumed workers finish their claimed chunk first, then claim
  // fresh ones.  Each worker's claims — and so its ranks — only increase.
  std::atomic<std::size_t> claim{0};
  std::size_t chunk_sz = 1;

  const auto expand_worker = [&](std::size_t w) {
    Worker& ws = *workers[w];
    // Phase boundary cursor: everything between two clock reads is charged
    // to the phase that just ran (restore/enumerate/step -> expand,
    // signature/canonical-key work -> canonicalize, fingerprint/visited
    // insert -> dedup, meta/serialize -> materialize).  Early returns are
    // cold paths and skip accounting.
    auto mark = std::chrono::steady_clock::now();
    const auto charge = [&mark](double& acc) {
      const auto now = std::chrono::steady_clock::now();
      acc += std::chrono::duration<double>(now - mark).count();
      mark = now;
    };
    for (;;) {
      if (ws.chunk_next >= ws.chunk_end) {
        ws.chunk_next = claim.fetch_add(chunk_sz, std::memory_order_relaxed);
        if (ws.chunk_next >= items) return;
        ws.chunk_end = std::min(ws.chunk_next + chunk_sz, items);
      }
      if (limit_hit.load(std::memory_order_relaxed) ||
          table_full.load(std::memory_order_relaxed) ||
          por_violation.load(std::memory_order_relaxed)) {
        return;  // entry boundary: nothing partial to roll back
      }
      const std::size_t k = ws.chunk_next;
      const std::size_t gi = phase == 0 ? k : fallbacks[k];
      // Everything this worker meets from here on ranks past the failure.
      if (make_rank(phase, gi, 0) > fail_rank.load(std::memory_order_relaxed)) {
        return;
      }
      ws.cur_idx = restore_entry(entry(gi), ws.cur, preempt ? &ws.ps : nullptr);
      ws.transitions.clear();
      ws.cur.enumerate(ws.transitions);
      SCV_ASSERT(ws.transitions.size() <= (std::size_t{1} << kRankTiBits));
      const bool reduced =
          por && ws.ample.select(ws.cur, ws.transitions, ws.ample_idx);
      // A fallback re-selects its ample set (selection is deterministic in
      // the state bytes) and expands the deferred complement.
      SCV_ASSERT(phase == 0 || reduced);
      if (phase == 0 && reduced && opt.por_self_check &&
          (ws.reduced_seen++ % kPorSampleEvery) == 0) {
        std::string detail;
        if (!ample_check_ok(ws, detail)) {
          std::lock_guard lock(por_mu);
          if (!por_violation.exchange(true)) {
            por_violation_detail = std::move(detail);
          }
          return;
        }
      }
      // New base state for the canonicalizer's per-processor signature
      // cache; successor dirty masks below are relative to ws.cur.  After
      // the self-check on purpose: the check canonicalizes unrelated
      // states with a full dirty mask, which would poison the epoch.
      ws.canon.begin_base();
      std::uint64_t expanded = 0;
      const bool ample_only = phase == 0 && reduced;
      const std::size_t fps_begin = ws.proviso_fps.size();
      const std::size_t ntrans =
          ample_only ? ws.ample_idx.size() : ws.transitions.size();
      std::size_t member = 0;  // next ample member to skip (phase 1)
      PreemptState nps = ws.ps;
      for (std::size_t x = 0; x < ntrans; ++x) {
        std::size_t ti = x;
        if (ample_only) {
          ti = ws.ample_idx[x];
        } else if (phase == 1 && member < ws.ample_idx.size() &&
                   ws.ample_idx[member] == x) {
          ++member;  // expanded in phase 0
          continue;
        }
        const Transition& t = ws.transitions[ti];
        const Rank rank = make_rank(phase, gi, ti);
        if (rank > fail_rank.load(std::memory_order_relaxed)) return;
        if (preempt) {
          nps = ws.ps;
          if (t.action.is_memory_op()) {
            const std::uint8_t tp = t.action.op.proc;
            if (nps.last != PreemptState::kNoLastProc && tp != nps.last) {
              if (nps.budget == 0) {
                // Context-switch budget exhausted: the bound prunes this
                // scheduling.  Not counted as an explored transition.
                ++ws.preempt_pruned;
                continue;
              }
              --nps.budget;
            }
            nps.last = tp;
          }
        }
        ++expanded;
        ws.succ.assign_from(ws.cur);
        const StepOutcome outcome = ws.succ.step(t, ws.symbols);
        if (outcome != StepOutcome::Ok) {
          // The failing transition counts.
          ws.failure = {rank, k, outcome, ws.cur_idx, t, expanded};
          Rank seen = fail_rank.load(std::memory_order_relaxed);
          while (rank < seen &&
                 !fail_rank.compare_exchange_weak(seen, rank,
                                                  std::memory_order_relaxed)) {
          }
          ws.chunk_next = ws.chunk_end;  // the rest of the chunk ranks higher
          return;
        }
        if (product) {
          ws.peak_live = std::max(
              ws.peak_live,
              static_cast<std::size_t>(ws.succ.observer().peak_live_nodes()));
        }
        charge(ws.t_expand);
        // succ = step(cur, t), so the step's touched mask doubles as the
        // dirty mask relative to the begin_base() state.
        const std::uint64_t orbit = ws.canon.canonicalize_key(
            ws.succ, ws.key, nullptr, ws.succ.touched_procs());
        if (preempt) {
          ws.key.w.u8(nps.last);
          ws.key.w.u32(nps.budget);
        }
        charge(ws.t_canon);
        const auto key = ws.key.w.data();
        const Fingerprint fp = fingerprint128(key);
        // In fingerprint mode dedup is by fingerprint identity, so a hit
        // in the worker-local cache IS a Duplicate verdict — same result
        // the global probe would return, minus the cache miss.  Exact
        // mode dedups by full key (two distinct keys may share a
        // fingerprint), so a cache hit only nominates a shard slot; one
        // byte-compare against it (confirm) certifies membership, and an
        // alias falls back to the full probe.
        ConcurrentStateStore::Insert ins;
        bool from_store = false;
        Worker::CacheEntry& centry =
            ws.dup_cache[fp.lo & (ws.dup_cache.size() - 1)];
        ++ws.cache_lookups;
        if (centry.fp == fp &&
            (!opt.exact_states || visited.confirm(key, fp, centry.slot))) {
          ++ws.cache_hits;
          ins = ConcurrentStateStore::Insert::Duplicate;
        } else {
          const auto r = visited.insert(key, fp);
          ins = r.verdict;
          from_store = true;
          // Only states the store accepted are cached (a TableFull
          // attempt inserted nothing).
          if (ins != ConcurrentStateStore::Insert::TableFull) {
            centry = {fp, r.slot};
          }
        }
        charge(ws.t_dedup);
        if (ins == ConcurrentStateStore::Insert::TableFull) {
          // Abort at entry granularity *without* committing this entry's
          // transition count or proviso record: after the grow barrier the
          // whole entry is re-expanded, its already-claimed successors
          // dedup to Duplicate (they were batched the moment they were
          // claimed), and both are taken exactly once.
          ws.proviso_fps.resize(fps_begin);
          table_full.store(true, std::memory_order_release);
          return;
        }
        if (ins == ConcurrentStateStore::Insert::Fresh) {
          orbit_sum.fetch_add(orbit, std::memory_order_relaxed);
          const std::size_t idx =
              states.fetch_add(1, std::memory_order_relaxed);
          Meta& m = meta.slot(idx);
          m.parent = ws.cur_idx;
          m.via = t;
          if (logging) {
            ws.claims[rank_partition(fp, nparts)].push_back(
                {fp, rank, static_cast<std::uint32_t>(ws.out.size()),
                 static_cast<std::uint32_t>(idx)});
          }
          append_entry(static_cast<std::uint32_t>(idx), ws.succ, ws.out,
                       preempt ? &nps : nullptr);
          charge(ws.t_mat);
          if (idx + 1 >= opt.max_states) {
            limit_hit.store(true, std::memory_order_relaxed);
            item_stats[k].expanded = static_cast<std::uint32_t>(expanded);
            ws.limit_item = k;
            return;
          }
        } else {
          if (ranked && from_store) {
            ws.offers[rank_partition(fp, nparts)].push_back({fp, rank});
          }
          // Possible non-depth-increasing ample edge (C3): the duplicate
          // may predate this level, closing a cycle inside the reduced
          // graph.  The barrier decides once the level table is complete.
          if (ample_only) ws.proviso_fps.push_back(fp);
        }
      }
      ItemStat& st = item_stats[k];
      st.expanded = static_cast<std::uint32_t>(expanded);
      if (ample_only) {
        st.deferred = static_cast<std::uint32_t>(ws.transitions.size() -
                                                 ws.ample_idx.size());
        st.kind = ItemStat::kAmple;
        if (ws.proviso_fps.size() > fps_begin) {
          st.kind = ItemStat::kProviso;
          ws.proviso.push_back(
              {static_cast<std::uint32_t>(gi),
               static_cast<std::uint32_t>(ws.proviso_fps.size())});
        }
      } else if (por && phase == 0) {
        st.kind = ItemStat::kFull;
      }
      ws.chunk_next = k + 1;
    }
  };

  const auto run_phase = [&](unsigned ph, std::size_t n) {
    phase = ph;
    items = n;
    logging = ranked || (ph == 0 && por);
    claim.store(0, std::memory_order_relaxed);
    chunk_sz = std::clamp<std::size_t>(n / (nworkers * 8), 1, 64);
    item_stats.assign(n, ItemStat{});
    for (const auto& ws : workers) {
      ws->chunk_next = 0;
      ws->chunk_end = 0;
      ws->limit_item = kNoItem;
    }
    for (;;) {
      pool.run_on_all(expand_worker);
      if (limit_hit.load()) return;
      if (table_full.exchange(false)) {
        visited.grow();  // workers are quiescent between barriers
        continue;
      }
      return;
    }
  };

  // Barrier resolution: worker p builds partition p's level table from
  // every worker's claims, then lowers each state's rank by the offers —
  // all claims first, since an offer may name any worker's claim.
  const auto resolve = [&](std::vector<LevelShard>& sh) {
    pool.run_on_all([&](std::size_t p) {
      std::size_t n = 0;
      for (const auto& ws : workers) n += ws->claims[p].size();
      sh[p].reset(n);
      for (std::size_t w = 0; w < nworkers; ++w) {
        for (const RankClaim& c : workers[w]->claims[p]) {
          sh[p].add(static_cast<std::uint32_t>(w), c);
        }
        workers[w]->claims[p].clear();
      }
      for (const auto& ws : workers) {
        for (const RankOffer& o : ws->offers[p]) sh[p].offer(o);
        ws->offers[p].clear();
      }
    });
  };

  // Cycle proviso (C3), decided against the complete level table.  BFS
  // assigns minimal depths, so any cycle in the reduced graph has an edge
  // whose target is no deeper than its source; that edge shows up as an
  // ample successor deduplicating against a state NOT discovered fresh at
  // this level.  An entry whose duplicate ample successors are all in the
  // table keeps its reduction; any other falls back to full expansion in
  // phase 1.  The table holds exactly the level's phase-0 states whatever
  // the interleaving, so the decisions are independent of thread count.
  // (Freshness is judged by fingerprint in both store modes — exact mode
  // accepts the 2^-128 aliasing risk to keep its decisions identical to
  // fingerprint mode's.)
  const auto decide = [&] {
    pool.run_on_all([&](std::size_t w) {
      Worker& ws = *workers[w];
      std::size_t begin = 0;
      for (const Worker::ProvisoEntry& e : ws.proviso) {
        bool keep = true;
        for (std::size_t i = begin; i < e.fps_end && keep; ++i) {
          const Fingerprint fp = ws.proviso_fps[i];
          keep = shards[0][rank_partition(fp, nparts)].contains(fp);
        }
        begin = e.fps_end;
        ws.decisions.push_back({e.gi, item_stats[e.gi].deferred, keep});
      }
      ws.proviso.clear();
      ws.proviso_fps.clear();
    });
    decisions.clear();
    for (const auto& ws : workers) {
      decisions.insert(decisions.end(), ws->decisions.begin(),
                       ws->decisions.end());
      ws->decisions.clear();
    }
    std::sort(decisions.begin(), decisions.end(),
              [](const ProvisoDecision& a, const ProvisoDecision& b) {
                return a.gi < b.gi;
              });
    fallbacks.clear();
    for (const ProvisoDecision& d : decisions) {
      if (!d.keep) fallbacks.push_back(d.gi);
    }
  };
  // Credits the level's C3 decisions up to frontier position `gi_end`
  // (exclusive); `kept_only` when the level stopped in phase 0, before any
  // fallback ran.
  const auto credit_decisions = [&](std::size_t gi_end, bool kept_only) {
    for (const ProvisoDecision& d : decisions) {
      if (d.gi >= gi_end) break;
      if (d.keep) {
        ++result.por_ample_states;
        result.por_deferred_transitions += d.deferred;
      } else if (!kept_only) {
        ++result.por_proviso_fallbacks;
        ++result.por_full_states;
      }
    }
  };

  // Ends a phase.  Without a stop it resolves the phase's ranks, commits
  // its accounting and returns nothing.  Otherwise it returns the run's
  // result: the POR redo, the one-worker re-run, StateLimit, or the
  // failure report — counting, like one worker would, only the work ranked
  // before the stop.
  const auto settle =
      [&](unsigned ph, std::size_t states_before) -> std::optional<McResult> {
    if (por_violation.load()) {
      // A live ample set failed cross-validation: some independence or
      // footprint declaration is wrong, so nothing explored under it can be
      // trusted.  Redo the whole run with POR off — sound, just slower —
      // and say why.
      McOptions full = opt;
      full.partial_order_reduction = false;
      McResult redo = run_bfs(proto, full, oracle);
      redo.por_note = "ample self-check failed at runtime (" +
                      por_violation_detail +
                      "); explored without partial-order reduction";
      redo.seconds = elapsed();
      return redo;
    }
    const Failure* f = nullptr;
    std::size_t limit_item = kNoItem;
    for (const auto& ws : workers) {
      if (ws->failure.rank < (f == nullptr ? kNoRank : f->rank)) {
        f = &ws->failure;
      }
      limit_item = std::min(limit_item, ws->limit_item);
    }
    if (f != nullptr && limit_item != kNoItem) {
      // The state budget and a failure both tripped in this level (only
      // several workers can trip both).  The budget stopped workers before
      // every entry ranked below the failure was expanded, so the claims
      // cannot tell whether one worker reaches the failure or the budget
      // first, and settling it would mean claiming states past the budget.
      // This corner alone re-explores on one worker.
      McOptions seq = opt;
      seq.threads = 1;
      McResult redo = run_bfs(proto, seq, oracle);
      redo.seconds = elapsed();
      return redo;
    }
    if (logging) resolve(shards[ph]);
    if (ph == 0 && por) decide();
    // A failure bounds the items that count; unfinished items are zero.
    const std::size_t bound = f != nullptr ? f->item : items;
    for (std::size_t k = 0; k < bound; ++k) {
      const ItemStat& st = item_stats[k];
      transitions_done += st.expanded;
      if (st.kind == ItemStat::kFull) {
        ++result.por_full_states;
      } else if (st.kind == ItemStat::kAmple) {
        ++result.por_ample_states;
        result.por_deferred_transitions += st.deferred;
      }
    }
    if (f == nullptr && limit_item == kNoItem) return std::nullopt;
    // A phase-0 stop precedes every fallback, so only kept reductions count
    // (one worker decides those as it goes); a phase-1 stop counts every
    // decision up to the entry it stopped in.
    if (ph == 0) {
      credit_decisions(bound, true);
    } else {
      credit_decisions(fallbacks[f != nullptr ? f->item : limit_item] + 1,
                       false);
    }
    if (f == nullptr) return finish(McVerdict::StateLimit);
    transitions_done += f->expanded;
    std::size_t n = states.load();
    if (ranked) {
      // The states whose minimum rank precedes the failure.
      n = states_before;
      for (const LevelShard& sh : shards[ph]) {
        for (const LevelShard::State& s : sh.states()) {
          if (s.best < f->rank) ++n;
        }
      }
    }
    merge_worker_stats();
    result.transitions = transitions_done;
    result.states = n;
    fill_store_stats(result, visited);
    result.seconds = elapsed();
    return finish_failure(proto, opt, std::move(result), f->outcome, meta,
                          f->parent, f->via);
  };

  while (frontier_entries > 0) {
    if (result.depth >= opt.max_depth) return finish(McVerdict::StateLimit);
    const auto lt0 = std::chrono::steady_clock::now();
    const std::size_t states_before = states.load();
    const std::size_t total = frontier_entries;
    std::size_t cur_bytes = order.size() * sizeof(std::uint64_t);
    for (const FrontierBatch& b : frontier) cur_bytes += b.bytes.size();
    for (const auto& ws : workers) ws->out.clear();
    decisions.clear();
    fallbacks.clear();

    run_phase(0, total);
    if (auto done = settle(0, states_before)) return std::move(*done);
    if (!fallbacks.empty()) {
      run_phase(1, fallbacks.size());
      if (auto done = settle(1, states.load())) return std::move(*done);
    }
    credit_decisions(total, false);

    if (ranked) {
      // Rewrite Meta where another worker's claim beat the minimum-rank
      // discoverer (its transition comes from re-enumerating the winner's
      // parent; the claimer's snapshot stays — it is key-equal), then
      // order each partition by rank for the next frontier.
      const std::size_t nphases = fallbacks.empty() ? 1 : 2;
      pool.run_on_all([&](std::size_t p) {
        Worker& ws = *workers[p];
        for (std::size_t ph = 0; ph < nphases; ++ph) {
          for (const LevelShard::State& s : shards[ph][p].states()) {
            if (!s.contested()) continue;
            const std::uint32_t parent = restore_entry(
                entry(rank_gi(s.best)), ws.cur, preempt ? &ws.ps : nullptr);
            ws.transitions.clear();
            ws.cur.enumerate(ws.transitions);
            Meta& m = meta.slot(s.idx);
            m.parent = parent;
            m.via = ws.transitions[rank_ti(s.best)];
          }
          shards[ph][p].sort_by_rank();
        }
      });
      next_order.clear();
      for (std::size_t ph = 0; ph < nphases; ++ph) {
        append_rank_order(shards[ph], next_order);
      }
    }
    // The level tables are spent; release them rather than keep them
    // beside the next level's frontier, the run's largest buffer.
    for (auto& tables : shards) {
      for (LevelShard& sh : tables) sh = LevelShard{};
    }

    if (visited.should_grow()) visited.grow();

    // Swap the workers' batches in as the next frontier; the old frontier
    // buffers become next level's write buffers (double buffering).
    std::size_t next_entries = 0;
    std::size_t next_bytes = next_order.size() * sizeof(std::uint64_t);
    for (std::size_t w = 0; w < nworkers; ++w) {
      std::swap(frontier[w], workers[w]->out);
      next_entries += frontier[w].size();
      next_bytes += frontier[w].bytes.size();
    }
    if (ranked) {
      SCV_ASSERT(next_order.size() == next_entries);
      order.swap(next_order);
    }
    frontier_entries = next_entries;
    result.peak_frontier = std::max(result.peak_frontier, next_entries);
    result.frontier_bytes =
        std::max(result.frontier_bytes, cur_bytes + next_bytes);
    result.level_stats.push_back(
        {total, states.load() - states_before,
         std::chrono::duration<double>(std::chrono::steady_clock::now() - lt0)
             .count()});
    ++result.depth;
  }

  return finish(McVerdict::Verified);
}

/// PorOracle backed by the verified static inference (DESIGN.md §15):
/// builds the protocol's control skeleton once, runs the exhaustive
/// invisibility / commutation sweep, and serves footprints and independence
/// by shape lookup.  Independence is deliberately restricted to pairs with
/// at least one ample *candidate* (inferred-invisible, singleton processor
/// support) on a side: the raw relation also proves visible protocol-level
/// commutations whose product executions diverge (observer ID allocation is
/// order-sensitive), and product_por_ok validates every pair the oracle
/// calls independent at the product level.  Ample selection only ever
/// consults pairs anchored by a candidate, so the restriction costs no
/// reduction.
class InferredPorOracle final : public PorOracle {
 public:
  explicit InferredPorOracle(const Protocol& proto)
      : skeleton_(analysis::build_skeleton(proto)),
        inference_(analysis::infer_por(skeleton_)) {
    candidate_.resize(skeleton_.shapes.size(), 0);
    for (std::size_t s = 0; s < skeleton_.shapes.size(); ++s) {
      candidate_[s] = inference_.invisible[s] &&
                              std::has_single_bit(inference_.proc_support[s])
                          ? 1
                          : 0;
    }
  }

  [[nodiscard]] bool usable() const { return inference_.usable; }
  [[nodiscard]] const std::string& note() const { return inference_.note; }

  [[nodiscard]] bool por_enabled() const override {
    return inference_.usable;
  }

  [[nodiscard]] PorFootprint footprint(const Transition& t) const override {
    const std::uint32_t s = skeleton_.find_shape(t);
    // Unknown shape (should not happen on a complete skeleton): fall back
    // to the everything-conflicts footprint, which reduces nothing.
    if (s == analysis::ProtocolSkeleton::npos) return PorFootprint{};
    return inference_.footprints[s];
  }

  [[nodiscard]] bool independent(const Transition& a,
                                 const Transition& b) const override {
    const std::uint32_t i = skeleton_.find_shape(a);
    const std::uint32_t j = skeleton_.find_shape(b);
    if (i == analysis::ProtocolSkeleton::npos ||
        j == analysis::ProtocolSkeleton::npos) {
      return false;
    }
    if (candidate_[i] == 0 && candidate_[j] == 0) return false;
    return inference_.independent(i, j);
  }

 private:
  analysis::ProtocolSkeleton skeleton_;
  analysis::InferredPor inference_;
  std::vector<char> candidate_;
};

}  // namespace

McResult model_check(const Protocol& protocol, const McOptions& options) {
  SCV_EXPECTS(options.threads >= 1);
  if (options.lint_first && !options.protocol_only) {
    // Fail-fast static precheck: malformed tracking metadata would abort or
    // mislead exploration much later; reject it in milliseconds instead.
    // Sampled mode keeps the bounded-walk cost (the exhaustive skeleton
    // build would add ~hundreds of ms per model_check call on the larger
    // protocols); run lint_protocol / tools/scv_lint for definite verdicts.
    LintOptions lopt;
    lopt.mode = LintOptions::Mode::Sampled;
    lopt.observer = options.observer;
    const LintReport lint = lint_protocol(protocol, lopt);
    if (lint.has_errors()) {
      McResult result;
      result.verdict = McVerdict::LintRejected;
      result.reason = "lint precheck failed — " + lint.summary();
      for (const LintFinding& f : lint.findings) {
        if (f.severity == LintSeverity::Error) {
          result.reason += "; [" + to_string(f.rule) + "] " + f.message;
        }
      }
      return result;
    }
  }

  // Symmetry self-check: a declared symmetry is trusted only after the
  // protocol-level commutation check (the lint R6 rule's engine) and the
  // product-level one both pass; otherwise fall back to identity
  // canonicalization — a slower but sound exploration — and say why.
  McOptions opt = options;
  std::string symmetry_note;
  // Bounded preemption strips both reductions before their self-checks
  // spend time validating them: orbit canonicalization merges states whose
  // scheduling context (last processor, remaining budget) differs, and
  // ample deferral reorders exactly the processor alternation the budget
  // counts.  run_bfs re-derives the same gates defensively.
  const bool preemption_bounded = opt.observer.model.bounded_preemption();
  if (preemption_bounded && opt.symmetry_reduction) {
    opt.symmetry_reduction = false;
    symmetry_note =
        "bounded preemption keys states by their scheduling context, which "
        "orbit canonicalization does not preserve; exploring without "
        "symmetry reduction";
  }
  const auto& pr = protocol.params();
  if (opt.symmetry_reduction && opt.symmetry_self_check &&
      protocol.processor_symmetric() && pr.procs >= 2 &&
      pr.procs <= ProcPerm::kMax) {
    const SymmetryCheckResult sym = check_processor_symmetry(protocol);
    std::string detail;
    if (!sym.ok) {
      detail = sym.detail;
    } else {
      product_symmetry_ok(protocol, opt, detail);
    }
    if (!detail.empty()) {
      opt.symmetry_reduction = false;
      symmetry_note =
          "declared processor symmetry failed the commutation self-check (" +
          detail + "); exploring without orbit canonicalization";
    }
  }

  // POR oracle selection: the protocol's declared hooks by default; the
  // verified static inference (DESIGN.md §15) when requested and usable.
  // An unusable inference falls back to the declared hooks (which may be
  // disabled — then POR is simply off), never to an unverified relation.
  DeclaredPorOracle declared(protocol);
  const PorOracle* oracle = &declared;
  std::unique_ptr<InferredPorOracle> inferred;
  std::string por_provenance = "declared";
  std::string por_note;
  if (preemption_bounded && opt.partial_order_reduction) {
    opt.partial_order_reduction = false;
    por_note =
        "bounded preemption counts processor alternation, which ample-set "
        "deferral reorders; exploring without partial-order reduction";
  }
  if (opt.partial_order_reduction && !opt.protocol_only &&
      opt.inferred_footprints) {
    inferred = std::make_unique<InferredPorOracle>(protocol);
    if (inferred->usable()) {
      oracle = inferred.get();
      por_provenance = "inferred";
    } else {
      por_note = "footprint inference unusable (" + inferred->note() +
                 "); falling back to the declared POR hooks";
    }
  }

  // POR self-check: the oracle's independence relation is trusted only
  // after the product-level commutation walk passes; otherwise fall back to
  // full expansion — slower but sound — and say why.  (The engine keeps
  // cross-validating ample sets on sampled reachable states during the
  // run; see run_bfs.)
  if (opt.partial_order_reduction && opt.por_self_check &&
      !opt.protocol_only && oracle->por_enabled()) {
    std::string detail;
    if (!product_por_ok(protocol, opt, *oracle, detail)) {
      opt.partial_order_reduction = false;
      por_note = por_provenance +
                 " independence failed the commutation self-check (" + detail +
                 "); exploring without partial-order reduction";
    }
  }

  McResult result = run_bfs(protocol, opt, *oracle);
  result.symmetry_note = std::move(symmetry_note);
  if (result.por_note.empty()) result.por_note = std::move(por_note);
  result.por_provenance = result.por_active ? por_provenance : "";
  return result;
}

}  // namespace scv
