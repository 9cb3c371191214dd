#include "mc/level_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "mc/level_order.hpp"
#include "util/assert.hpp"
#include "util/concurrent_fp_set.hpp"
#include "util/fingerprint.hpp"
#include "util/page_alloc.hpp"
#include "util/thread_pool.hpp"

namespace scv {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Expected distinct-state count used to pre-size the visited store and
/// avoid rehash churn mid-run (DESIGN.md §9).  A small max_states is a
/// genuine exploration budget worth sizing for, while the 50M default
/// would pre-size a ~1 GB table for what is usually a tiny run — so large
/// budgets fall back to organic growth.
std::size_t presize_expected(const McOptions& opt) {
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
  /// Requires quiescence (no concurrent insert); the engine calls it
  /// between run_on_all barriers.
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

/// One worker's slice of a BFS level as flat serialized entries:
/// [preemption context, when bounded][product snapshot], delimited by an
/// offsets array.  This is the compact frontier: a level lives as two flat
/// buffers per worker (the one being read and the one being written)
/// instead of a heavyweight object graph per state.  Both are page-mapped
/// once large (util/page_alloc.hpp), so they leave the process with the
/// run.
struct FrontierBatch {
  PageVector<std::uint8_t> bytes;
  PageVector<std::uint32_t> offsets;

  [[nodiscard]] std::size_t size() const noexcept { return offsets.size(); }
  void push(std::span<const std::uint8_t> e) {
    // Offsets are 32-bit: a batch past 4 GiB would address wrapped spans.
    SCV_EXPECTS(bytes.size() <= std::numeric_limits<std::uint32_t>::max());
    offsets.push_back(static_cast<std::uint32_t>(bytes.size()));
    bytes.insert(bytes.end(), e.begin(), e.end());
  }
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

  /// Moves the context past `t`; false when the exhausted budget prunes
  /// this scheduling (not counted as an explored transition).
  bool advance(const Transition& t) {
    if (!t.action.is_memory_op()) return true;
    const std::uint8_t tp = t.action.op.proc;
    if (last != kNoLastProc && tp != last) {
      if (budget == 0) return false;
      --budget;
    }
    last = tp;
    return true;
  }
};

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

McVerdict failure_verdict(StepOutcome outcome) {
  switch (outcome) {
    case StepOutcome::Reject: return McVerdict::Violation;
    case StepOutcome::Bound: return McVerdict::BandwidthExceeded;
    case StepOutcome::Tracking: return McVerdict::TrackingInconsistent;
    case StepOutcome::Ok: break;
  }
  SCV_UNREACHABLE("failure_verdict on an Ok outcome");
}

// One level-synchronized BFS for every thread count, driving the uniform
// Product through the compact frontier:
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
//   * a state is named by its position in its level's rank order, and its
//     parent link is its minimum rank: one link array per level, in
//     frontier order.
//
// Rank order (DESIGN.md §11): every successor has a rank (phase, gi, ti),
// see mc/level_order.hpp.  One worker (`threads == 1` runs inline on the
// calling thread) claims states in rank order.  Several workers reproduce
// that order by construction, so a run reports the same verdict, counts and
// counterexample at every thread count:
//
//   * each state's link is the rank of its minimum-rank discoverer — the
//     level barrier resolves the workers' claim and duplicate logs;
//   * the next frontier and its links are ordered by that rank (an index
//     array over the workers' batches; snapshots are not copied);
//   * the reported failure is the minimum-rank failing transition: workers
//     keep expanding every entry ranked below the lowest failure seen so
//     far, stop past it, and the result counts only the work ranked before
//     it.  Level synchrony keeps the counterexample depth-minimal.
//
// A level runs in two phases on all workers: the main expansion, then the
// cycle-proviso (C3) fallbacks it decided at the barrier.  A level where a
// failure and the state budget both trip is the one case re-explored on a
// single worker (see settle).
//
// When the fingerprint table fills mid-level, workers abort at entry
// granularity (their resume cursor stays on the unfinished entry), the
// table grows single-threaded at the barrier, and expansion resumes:
// re-expanding the interrupted entry is safe because its already-claimed
// successors were batched immediately and now dedup to Duplicate, its
// transition count is only committed once the entry completes, and it
// repeats its ranks exactly.
class LevelEngine {
 public:
  LevelEngine(const Protocol& proto, const McOptions& opt,
              const PorOracle& oracle)
      : proto_(proto),
        opt_(opt),
        oracle_(oracle),
        nworkers_(opt.threads),
        product_(!opt.protocol_only),
        preempt_(opt.observer.model.bounded_preemption()),
        por_(opt.partial_order_reduction && product_ && !preempt_ &&
             AmpleSelector(proto, oracle, true).active()),
        ranked_(nworkers_ > 1),
        pool_(nworkers_ == 1 ? 0 : nworkers_, opt.pin_threads),
        visited_(opt.exact_states, presize_expected(opt)),
        frontier_(nworkers_),
        shards_{std::vector<LevelShard>(nworkers_),
                std::vector<LevelShard>(nworkers_)} {
    workers_.reserve(nworkers_);
    for (std::size_t w = 0; w < nworkers_; ++w) {
      workers_.push_back(std::make_unique<Worker>(*this));
    }
    // The initial state: worker 0's successor scratch is still in it.
    Worker& w0 = *workers_[0];
    const PreemptState init{PreemptState::kNoLastProc,
                            opt.observer.model.preemption_bound};
    orbit_sum_ = w0.canon.canonicalize_key(w0.succ, w0.key);
    append_context(w0, init);
    const auto key = w0.key.w.data();
    result_.state_bytes = key.size();
    visited_.insert(key, fingerprint128(key));
    append_entry(frontier_[0], w0.entry_buf, init, w0.succ);
  }

  /// Explores level by level to a verdict; empty when settle() gave the
  /// run up, and restart() then says how to explore again.
  std::optional<LevelRun> run() {
    std::optional<LevelRun> out;
    while (frontier_entries_ > 0) {
      if (result_.depth >= opt_.max_depth) {
        return finish(McVerdict::StateLimit, states_.load());
      }
      const auto lt0 = Clock::now();
      const std::size_t states_before = states_.load();
      const std::size_t total = frontier_entries_;
      std::size_t cur_bytes = order_.size() * sizeof(std::uint64_t);
      for (const FrontierBatch& b : frontier_) cur_bytes += b.bytes.size();
      for (const auto& ws : workers_) ws->out.clear();
      links_.emplace_back();  // the next level's

      run_phase(0, total);
      if (settle(0, states_before, out)) return out;
      if (!fallbacks_.empty()) {
        run_phase(1, fallbacks_.size());
        if (settle(1, states_.load(), out)) return out;
      }
      credit_decisions(total, false);
      commit_level(cur_bytes);
      result_.level_stats.push_back(
          {total, states_.load() - states_before, seconds_since(lt0)});
      ++result_.depth;
    }
    return finish(McVerdict::Verified, states_.load());
  }

  void restart(McOptions& opt, std::string& por_note) const {
    if (por_violation_.load()) {
      // A live ample set failed cross-validation: some independence or
      // footprint declaration is wrong, so nothing explored under it can be
      // trusted.  Redo the whole run with POR off — sound, just slower —
      // and say why.
      opt.partial_order_reduction = false;
      por_note = "ample self-check failed at runtime (" +
                 por_violation_detail_ +
                 "); explored without partial-order reduction";
    } else {
      opt.threads = 1;
    }
  }

 private:
  using Insert = ConcurrentStateStore::Insert;
  /// How claim() answered: a duplicate found by the worker-local cache
  /// needs no rank offer, one the shared store found does.
  enum class Claim : std::uint8_t { Fresh, CachedDup, StoreDup, TableFull };

  struct Worker {
    explicit Worker(const LevelEngine& e)
        : cur(e.proto_, e.opt_.observer, e.product_),
          succ(e.proto_, e.opt_.observer, e.product_),
          stats(e.product_
                    ? static_cast<GraphId>(cur.observer().bandwidth() + 1)
                    : kNoId),
          canon(e.proto_, e.opt_.symmetry_reduction && !e.preempt_),
          ample(e.proto_, e.oracle_, e.por_),
          claims(e.nworkers_),
          offers(e.nworkers_) {
      if (e.opt_.symbol_stats && e.product_) succ.add_sink(&stats);
      if (e.por_) chk.emplace(e.proto_, e.opt_.observer, true);
    }

    /// Charges the time since the last charge to `acc` (McPhaseTimes).
    void charge(double& acc) {
      const auto now = Clock::now();
      acc += std::chrono::duration<double>(now - mark).count();
      mark = now;
    }

    Product cur;   ///< entry being expanded (restored from the frontier)
    Product succ;  ///< successor scratch, reused across transitions
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
    // current entry's ample member indices and whether it has a proper ample
    // set, the reduced entries with a duplicate ample successor (the
    // barrier's C3 step decides them) and those duplicates' fingerprints,
    // this worker's share of the C3 decisions, and scratch for the sampled
    // ample cross-validation (allocated only when POR is on).
    AmpleSelector ample;
    std::vector<std::uint32_t> ample_idx;
    bool reduced = false;
    struct ProvisoEntry {
      std::uint32_t gi = 0;
      std::uint32_t fps_end = 0;  ///< end of its run in proviso_fps
    };
    std::vector<ProvisoEntry> proviso;
    std::vector<Fingerprint> proviso_fps;
    std::vector<ProvisoDecision> decisions;
    std::uint64_t reduced_seen = 0;
    std::optional<CommuteScratch> chk;
    FrontierBatch out;  ///< next-level entries this worker claimed
    /// A fresh state's entry is written here, then copied into `out`
    /// (ByteWriter writes a std::vector only).
    ByteWriter entry_buf;
    // Rank logs of the running phase, one vector per partition.
    std::vector<PageVector<RankClaim>> claims;
    std::vector<PageVector<RankOffer>> offers;
    Failure failure;
    /// Work-list item whose claim reached the state budget, if any.
    std::size_t limit_item = kNoItem;
    // Resume cursors into the worker's claimed chunk of the work list;
    // chunk_next stays on the unfinished entry across grow barriers, the
    // shared claim cursor hands out fresh chunks.
    std::size_t chunk_next = 0;
    std::size_t chunk_end = 0;
    std::size_t peak_live = 0;
    // Phase accounting: everything between two clock reads is charged to
    // the phase that just ran (restore/enumerate/step -> expand, signature/
    // canonical-key work -> canonicalize, fingerprint/visited insert ->
    // dedup, log/link/snapshot -> materialize).  Early returns are cold paths
    // and skip accounting.
    Clock::time_point mark;
    McPhaseTimes times;
  };

  // ---- The stages of one entry, in order.

  /// Restore: rebuilds frontier position `gi` into the worker's current
  /// product and (when bounded) its scheduling context.
  void restore(Worker& ws, std::size_t gi) {
    ByteReader r(entry(gi));
    if (preempt_) {
      ws.ps.last = r.u8();
      ws.ps.budget = r.u32();
    }
    ws.cur.restore(r);
    SCV_ASSERT(r.done());
  }

  /// Enumerate with ample selection: the entry's enabled transitions and,
  /// under POR, whether a proper ample set replaces them.  One reduced entry
  /// in kPorSampleEvery is first cross-validated against full expansion;
  /// false when that check failed (restart() then drops POR).
  bool enumerate(Worker& ws) {
    ws.transitions.clear();
    ws.cur.enumerate(ws.transitions);
    SCV_ASSERT(ws.transitions.size() <= (std::size_t{1} << kRankTiBits));
    ws.reduced = por_ && ws.ample.select(ws.cur, ws.transitions, ws.ample_idx);
    // A fallback re-selects its ample set (selection is deterministic in
    // the state bytes) and expands the deferred complement.
    SCV_ASSERT(phase_ == 0 || ws.reduced);
    if (phase_ != 0 || !ws.reduced ||
        (ws.reduced_seen++ % kPorSampleEvery) != 0) {
      return true;
    }
    std::string detail;
    if (ample_check_ok(ws, detail)) return true;
    std::lock_guard lock(por_mu_);
    if (!por_violation_.exchange(true)) {
      por_violation_detail_ = std::move(detail);
    }
    return false;
  }

  /// Step: protocol → observer → checker inside the successor scratch.
  StepOutcome step(Worker& ws, const Transition& t) {
    ws.succ.assign_from(ws.cur);
    const StepOutcome outcome = ws.succ.step(t, ws.symbols);
    if (outcome != StepOutcome::Ok) return outcome;
    if (product_) {
      ws.peak_live = std::max(
          ws.peak_live,
          static_cast<std::size_t>(ws.succ.observer().peak_live_nodes()));
    }
    return outcome;
  }

  /// Canonicalize: permutes the successor into its orbit representative,
  /// writes its key (with the scheduling context when bounded) and returns
  /// the orbit size.
  std::uint64_t canonicalize(Worker& ws, const PreemptState& ps) {
    // succ = step(cur, t), so the step's certificates are relative to the
    // begin_base() state: the successor entry point reads them.
    const std::uint64_t orbit =
        ws.canon.canonicalize_successor(ws.succ, ws.key);
    append_context(ws, ps);
    return orbit;
  }

  /// The scheduling context closes the key when preemption is bounded.
  void append_context(Worker& ws, const PreemptState& ps) const {
    if (!preempt_) return;
    ws.key.w.u8(ps.last);
    ws.key.w.u32(ps.budget);
  }

  /// Claim/dedup.  In fingerprint mode dedup is by fingerprint identity, so
  /// a hit in the worker-local cache IS a Duplicate verdict — same result
  /// the global probe would return, minus the cache miss.  Exact mode
  /// dedups by full key (two distinct keys may share a fingerprint), so a
  /// cache hit only nominates a shard slot; one byte-compare against it
  /// (confirm) certifies membership, and an alias falls back to the full
  /// probe.
  Claim claim(Worker& ws, Fingerprint fp) {
    const auto key = ws.key.w.data();
    Worker::CacheEntry& centry =
        ws.dup_cache[fp.lo & (ws.dup_cache.size() - 1)];
    ++ws.cache_lookups;
    if (centry.fp == fp &&
        (!opt_.exact_states || visited_.confirm(key, fp, centry.slot))) {
      ++ws.cache_hits;
      return Claim::CachedDup;
    }
    const auto r = visited_.insert(key, fp);
    // Only states the store accepted are cached (a TableFull attempt
    // inserted nothing).
    if (r.verdict == Insert::TableFull) return Claim::TableFull;
    centry = {fp, r.slot};
    return r.verdict == Insert::Fresh ? Claim::Fresh : Claim::StoreDup;
  }

  /// Materialize: a fresh state gets a claim-log entry when logging, its
  /// link when one worker runs, and its snapshot in the worker's next-level
  /// batch.  False once it used up the state budget.
  bool materialize(Worker& ws, Fingerprint fp, Rank rank, std::uint64_t orbit,
                   const PreemptState& ps) {
    orbit_sum_.fetch_add(orbit, std::memory_order_relaxed);
    const std::size_t n = states_.fetch_add(1, std::memory_order_relaxed);
    // One worker claims in rank order, so its batch is the next frontier
    // and the claim rank is the state's minimum rank.
    if (!ranked_) links_.back().push_back(rank);
    if (logging_) {
      ws.claims[rank_partition(fp, nworkers_)].push_back(
          {fp, rank, static_cast<std::uint32_t>(ws.out.size())});
    }
    append_entry(ws.out, ws.entry_buf, ps, ws.succ);
    return n + 1 < opt_.max_states;
  }

  // ---- The stages of one level's barrier, in order.

  /// Barrier resolve: worker p builds partition p's level table from every
  /// worker's claims, then lowers each state's rank by the offers — all
  /// claims first, since an offer may name any worker's claim.
  void resolve(std::vector<LevelShard>& sh) {
    pool_.run_on_all([&](std::size_t p) {
      std::size_t n = 0;
      for (const auto& ws : workers_) n += ws->claims[p].size();
      sh[p].reset(n);
      for (std::size_t w = 0; w < nworkers_; ++w) {
        for (const RankClaim& c : workers_[w]->claims[p]) {
          sh[p].add(static_cast<std::uint32_t>(w), c);
        }
        workers_[w]->claims[p].clear();
      }
      for (const auto& ws : workers_) {
        for (const RankOffer& o : ws->offers[p]) sh[p].offer(o);
        ws->offers[p].clear();
      }
    });
  }

  /// C3 decide: the cycle proviso, decided against the complete level table.
  /// BFS assigns minimal depths, so any cycle in the reduced graph has an
  /// edge whose target is no deeper than its source; that edge shows up as
  /// an ample successor deduplicating against a state NOT discovered fresh
  /// at this level.  An entry whose duplicate ample successors are all in
  /// the table keeps its reduction; any other falls back to full expansion
  /// in phase 1.  The table holds exactly the level's phase-0 states
  /// whatever the interleaving, so the decisions are independent of thread
  /// count.  (Freshness is judged by fingerprint in both store modes — exact
  /// mode accepts the 2^-128 aliasing risk to keep its decisions identical
  /// to fingerprint mode's.)
  void decide() {
    pool_.run_on_all([&](std::size_t w) {
      Worker& ws = *workers_[w];
      std::size_t begin = 0;
      for (const Worker::ProvisoEntry& e : ws.proviso) {
        bool keep = true;
        for (std::size_t i = begin; i < e.fps_end && keep; ++i) {
          const Fingerprint fp = ws.proviso_fps[i];
          keep = shards_[0][rank_partition(fp, nworkers_)].contains(fp);
        }
        begin = e.fps_end;
        ws.decisions.push_back({e.gi, item_stats_[e.gi].deferred, keep});
      }
      ws.proviso.clear();
      ws.proviso_fps.clear();
    });
    decisions_.clear();
    for (const auto& ws : workers_) {
      decisions_.insert(decisions_.end(), ws->decisions.begin(),
                        ws->decisions.end());
      ws->decisions.clear();
    }
    std::ranges::sort(decisions_, {}, &ProvisoDecision::gi);
    fallbacks_.clear();
    for (const ProvisoDecision& d : decisions_) {
      if (!d.keep) fallbacks_.push_back(d.gi);
    }
  }

  /// Settle: ends a phase.  Without a stop it resolves the phase's ranks,
  /// commits its accounting and returns false.  Otherwise it returns true
  /// with the run's result in `out` — StateLimit or the failure, counting,
  /// like one worker would, only the work ranked before the stop — or with
  /// `out` empty when the run must restart (see restart()).
  bool settle(unsigned ph, std::size_t states_before,
              std::optional<LevelRun>& out) {
    // A sampled ample set failed cross-validation; restart() redoes the run
    // without POR.
    if (por_violation_.load()) return true;
    const Failure* f = nullptr;
    std::size_t limit_item = kNoItem;
    for (const auto& ws : workers_) {
      if (ws->failure.rank < (f == nullptr ? kNoRank : f->rank)) {
        f = &ws->failure;
      }
      limit_item = std::min(limit_item, ws->limit_item);
    }
    // The state budget and a failure both tripped in this level (only several
    // workers can trip both).  The budget stopped workers before every entry
    // ranked below the failure was expanded, so the claims cannot tell
    // whether one worker reaches the failure or the budget first, and
    // settling it would mean claiming states past the budget.  This corner
    // alone re-explores on one worker.
    if (f != nullptr && limit_item != kNoItem) return true;
    if (logging_) resolve(shards_[ph]);
    if (ph == 0 && por_) decide();
    // A failure bounds the items that count; unfinished items are zero.
    const std::size_t bound = f != nullptr ? f->item : items_;
    for (std::size_t k = 0; k < bound; ++k) {
      const ItemStat& st = item_stats_[k];
      transitions_done_ += st.expanded;
      if (st.kind == ItemStat::kFull) {
        ++result_.por_full_states;
      } else if (st.kind == ItemStat::kAmple) {
        ++result_.por_ample_states;
        result_.por_deferred_transitions += st.deferred;
      }
    }
    if (f == nullptr && limit_item == kNoItem) return false;
    // A phase-0 stop precedes every fallback, so only kept reductions count
    // (one worker decides those as it goes); a phase-1 stop counts every
    // decision up to the entry it stopped in.
    if (ph == 0) {
      credit_decisions(bound, true);
    } else {
      credit_decisions(fallbacks_[f != nullptr ? f->item : limit_item] + 1,
                       false);
    }
    if (f == nullptr) {
      // Under a state limit the counter may overshoot (several workers can
      // claim fresh states concurrently before the flag propagates); clamp
      // to the budget.  max(·, 2) covers the degenerate max_states <= 1
      // budgets, where expansion still sees the two states it touched before
      // stopping.
      out = finish(McVerdict::StateLimit,
                   std::max(opt_.max_states, std::size_t{2}));
      return true;
    }
    transitions_done_ += f->expanded;
    std::size_t n = states_.load();
    if (ranked_) {
      // The states whose minimum rank precedes the failure.
      n = states_before;
      for (const LevelShard& sh : shards_[ph]) {
        for (const LevelShard::State& s : sh.states()) {
          if (s.best < f->rank) ++n;
        }
      }
    }
    out = finish(failure_verdict(f->outcome), n, f);
    return true;
  }

  /// Level commit: orders the next frontier and its links by minimum rank,
  /// releases the level tables and swaps the workers' batches in as the
  /// next frontier.  A state's snapshot stays the claimer's even where
  /// another discoverer ranks lower: the two are key-equal.
  void commit_level(std::size_t cur_bytes) {
    if (ranked_) {
      const std::size_t nphases = fallbacks_.empty() ? 1 : 2;
      pool_.run_on_all([&](std::size_t p) {
        for (std::size_t ph = 0; ph < nphases; ++ph) {
          shards_[ph][p].sort_by_rank();
        }
      });
      next_order_.clear();
      for (std::size_t ph = 0; ph < nphases; ++ph) {
        append_rank_order(shards_[ph], next_order_, links_.back());
      }
    }
    // The level tables are spent; release them rather than keep them beside
    // the next level's frontier, the run's largest buffer.
    for (auto& tables : shards_) {
      for (LevelShard& sh : tables) sh = LevelShard{};
    }
    if (visited_.should_grow()) visited_.grow();

    // The old frontier buffers become next level's write buffers (double
    // buffering).
    std::size_t next_entries = 0;
    std::size_t next_bytes = next_order_.size() * sizeof(std::uint64_t);
    for (std::size_t w = 0; w < nworkers_; ++w) {
      std::swap(frontier_[w], workers_[w]->out);
      next_entries += frontier_[w].size();
      next_bytes += frontier_[w].bytes.size();
    }
    SCV_ASSERT(links_.back().size() == next_entries);
    if (ranked_) order_.swap(next_order_);
    frontier_entries_ = next_entries;
    result_.peak_frontier = std::max(result_.peak_frontier, next_entries);
    result_.frontier_bytes =
        std::max(result_.frontier_bytes, cur_bytes + next_bytes);
  }

  // ---- Drivers and helpers.

  void run_phase(unsigned ph, std::size_t n) {
    phase_ = ph;
    items_ = n;
    logging_ = ranked_ || (ph == 0 && por_);
    cursor_.store(0, std::memory_order_relaxed);
    chunk_sz_ = std::clamp<std::size_t>(n / (nworkers_ * 8), 1, 64);
    item_stats_.assign(n, ItemStat{});
    for (const auto& ws : workers_) {
      ws->chunk_next = 0;
      ws->chunk_end = 0;
      ws->limit_item = kNoItem;
    }
    for (;;) {
      pool_.run_on_all([this](std::size_t w) { expand(*workers_[w]); });
      if (limit_hit_.load() || !table_full_.exchange(false)) return;
      visited_.grow();  // workers are quiescent between barriers
    }
  }

  /// One worker's share of a phase: claims chunks of the work list and
  /// expands their entries until the list runs out or the run must stop.
  void expand(Worker& ws) {
    ws.mark = Clock::now();
    for (;;) {
      if (ws.chunk_next >= ws.chunk_end) {
        ws.chunk_next = cursor_.fetch_add(chunk_sz_, std::memory_order_relaxed);
        if (ws.chunk_next >= items_) return;
        ws.chunk_end = std::min(ws.chunk_next + chunk_sz_, items_);
      }
      if (limit_hit_.load(std::memory_order_relaxed) ||
          table_full_.load(std::memory_order_relaxed) ||
          por_violation_.load(std::memory_order_relaxed)) {
        return;  // entry boundary: nothing partial to roll back
      }
      const std::size_t k = ws.chunk_next;
      const std::size_t gi = phase_ == 0 ? k : fallbacks_[k];
      // Everything this worker meets from here on ranks past the failure.
      if (make_rank(phase_, gi, 0) >
          fail_rank_.load(std::memory_order_relaxed)) {
        return;
      }
      restore(ws, gi);
      if (!enumerate(ws) || !expand_entry(ws, k, gi)) return;
      ws.chunk_next = k + 1;
    }
  }

  /// Expands work-list item `k` (frontier position `gi`), already restored
  /// and enumerated: steps, canonicalizes, claims and materializes its
  /// successors in rank order, then records what the item contributed.
  /// False when the worker must stop: a failure, a successor ranked past the
  /// lowest failure, the state budget or a full table.
  bool expand_entry(Worker& ws, std::size_t k, std::size_t gi) {
    // New base state for the canonicalizer's signature and key-part caches;
    // successor certificates below are relative to ws.cur.  After the ample
    // self-check on purpose: the check canonicalizes unrelated states with a
    // full dirty mask, which would poison the epoch.
    ws.canon.begin_base();
    std::uint64_t expanded = 0;
    const bool ample_only = phase_ == 0 && ws.reduced;
    const std::size_t fps_begin = ws.proviso_fps.size();
    const std::size_t ntrans =
        ample_only ? ws.ample_idx.size() : ws.transitions.size();
    std::size_t member = 0;  // next ample member to skip (phase 1)
    for (std::size_t x = 0; x < ntrans; ++x) {
      std::size_t ti = x;
      if (ample_only) {
        ti = ws.ample_idx[x];
      } else if (phase_ == 1 && member < ws.ample_idx.size() &&
                 ws.ample_idx[member] == x) {
        ++member;  // expanded in phase 0
        continue;
      }
      const Transition& t = ws.transitions[ti];
      const Rank rank = make_rank(phase_, gi, ti);
      if (rank > fail_rank_.load(std::memory_order_relaxed)) return false;
      PreemptState ps = ws.ps;
      if (preempt_ && !ps.advance(t)) {
        ++ws.preempt_pruned;
        continue;
      }
      ++expanded;
      if (const StepOutcome outcome = step(ws, t); outcome != StepOutcome::Ok) {
        // The failing transition counts.
        ws.failure = {rank, k, outcome, expanded};
        Rank seen = fail_rank_.load(std::memory_order_relaxed);
        while (rank < seen &&
               !fail_rank_.compare_exchange_weak(seen, rank,
                                                 std::memory_order_relaxed)) {
        }
        ws.chunk_next = ws.chunk_end;  // the rest of the chunk ranks higher
        return false;
      }
      ws.charge(ws.times.expand);
      const std::uint64_t orbit = canonicalize(ws, ps);
      ws.charge(ws.times.canonicalize);
      const Fingerprint fp = fingerprint128(ws.key.w.data());
      const Claim claimed = claim(ws, fp);
      ws.charge(ws.times.dedup);
      if (claimed == Claim::TableFull) {
        // Abort at entry granularity *without* committing this entry's
        // transition count or proviso record: after the grow barrier the
        // whole entry is re-expanded, its already-claimed successors dedup
        // to Duplicate (they were batched the moment they were claimed), and
        // both are taken exactly once.
        ws.proviso_fps.resize(fps_begin);
        table_full_.store(true, std::memory_order_release);
        return false;
      }
      if (claimed == Claim::Fresh) {
        const bool budget_left = materialize(ws, fp, rank, orbit, ps);
        ws.charge(ws.times.materialize);
        if (!budget_left) {
          limit_hit_.store(true, std::memory_order_relaxed);
          item_stats_[k].expanded = static_cast<std::uint32_t>(expanded);
          ws.limit_item = k;
          return false;
        }
        continue;
      }
      if (ranked_ && claimed == Claim::StoreDup) {
        ws.offers[rank_partition(fp, nworkers_)].push_back({fp, rank});
      }
      // Possible non-depth-increasing ample edge (C3): the duplicate may
      // predate this level, closing a cycle inside the reduced graph.  The
      // barrier decides once the level table is complete.
      if (ample_only) ws.proviso_fps.push_back(fp);
    }
    ItemStat& st = item_stats_[k];
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
    } else if (por_ && phase_ == 0) {
      st.kind = ItemStat::kFull;
    }
    return true;
  }

  /// In-engine ample cross-validation: re-establishes on live reachable
  /// states what model_check's pre-run walk sampled.  Every ample member
  /// must be a stutter (no descriptor symbols) and must commute with every
  /// deferred transition through the whole product.  Runs before the
  /// entry's begin_base(), so the canonicalizer's epoch cache is clean for
  /// the real successors afterwards.
  bool ample_check_ok(Worker& ws, std::string& detail) const {
    CommuteScratch& s = *ws.chk;
    for (const std::uint32_t i : ws.ample_idx) {
      s.a.assign_from(ws.cur);
      if (s.a.step(ws.transitions[i], s.symbols) == StepOutcome::Ok &&
          !s.symbols.empty()) {
        detail = "ample member '" +
                 proto_.action_name(ws.transitions[i].action) +
                 "' emits descriptor symbols";
        return false;
      }
      std::size_t m = 0;
      for (std::size_t j = 0; j < ws.transitions.size(); ++j) {
        if (m < ws.ample_idx.size() && ws.ample_idx[m] == j) {
          ++m;  // member-member pairs need no commutation argument
          continue;
        }
        if (!independence_commutes(proto_, ws.canon, ws.cur, ws.transitions[i],
                                   ws.transitions[j], s, detail)) {
          return false;
        }
      }
    }
    return true;
  }

  /// Credits the level's C3 decisions up to frontier position `gi_end`
  /// (exclusive); `kept_only` when the level stopped in phase 0, before any
  /// fallback ran.
  void credit_decisions(std::size_t gi_end, bool kept_only) {
    for (const ProvisoDecision& d : decisions_) {
      if (d.gi >= gi_end) break;
      if (d.keep) {
        ++result_.por_ample_states;
        result_.por_deferred_transitions += d.deferred;
      } else if (!kept_only) {
        ++result_.por_proviso_fallbacks;
        ++result_.por_full_states;
      }
    }
  }

  /// The run's result: verdict `v` over `states` stored states, every
  /// worker's statistics merged in, and for a failure its outcome and path.
  LevelRun finish(McVerdict v, std::size_t states,
                  const Failure* f = nullptr) {
    McResult& r = result_;
    r.verdict = v;
    r.states = states;
    r.transitions = transitions_done_;
    r.por_active = por_;
    r.preemption_bounded = preempt_;
    r.symmetry_active = workers_[0]->canon.active();
    for (const auto& ws : workers_) {
      r.peak_live_nodes = std::max(r.peak_live_nodes, ws->peak_live);
      if (opt_.symbol_stats) r.symbol_stats.merge(ws->stats.stats());
      r.phase_times.expand += ws->times.expand;
      r.phase_times.canonicalize += ws->times.canonicalize;
      r.phase_times.dedup += ws->times.dedup;
      r.phase_times.materialize += ws->times.materialize;
      r.dup_cache_hits += ws->cache_hits;
      r.dup_cache_lookups += ws->cache_lookups;
      r.preemption_pruned += ws->preempt_pruned;
    }
    const std::size_t stored = states_.load();
    r.orbit_reduction =
        stored == 0 ? 1.0
                    : static_cast<double>(orbit_sum_.load()) /
                          static_cast<double>(stored);
    r.store_bytes = visited_.memory_bytes(r.state_bytes);
    const std::size_t slots = visited_.slots();
    r.store_load_factor =
        slots == 0 ? 0.0
                   : static_cast<double>(visited_.occupied()) /
                         static_cast<double>(slots);
    LevelRun run;
    if (f != nullptr) {
      run.failure = f->outcome;
      // The failing transition, then each ancestor's link back to the
      // initial state: a link's gi is the parent's position one level up.
      run.path.push_back(static_cast<std::uint32_t>(rank_ti(f->rank)));
      std::size_t gi = rank_gi(f->rank);
      for (std::size_t d = r.depth; d > 0; --d) {
        const Rank link = links_[d][gi];
        run.path.push_back(static_cast<std::uint32_t>(rank_ti(link)));
        gi = rank_gi(link);
      }
      std::reverse(run.path.begin(), run.path.end());
    }
    run.result = std::move(r);
    return run;
  }

  std::span<const std::uint8_t> entry(std::size_t gi) const {
    const std::uint64_t ref = order_.empty() ? gi : order_[gi];
    return frontier_[ref >> 32].entry(static_cast<std::uint32_t>(ref));
  }

  /// Appends the entry of `p` (scheduling context `ps`) to `b`, writing it
  /// in `scratch` first.
  void append_entry(FrontierBatch& b, ByteWriter& scratch,
                    const PreemptState& ps, const Product& p) const {
    scratch.clear();
    if (preempt_) {
      scratch.u8(ps.last);
      scratch.u32(ps.budget);
    }
    // Raw snapshots through the component loop, not the canonical key: the
    // canonical form deliberately erases pool IDs and handle naming, so it
    // cannot rebuild a steppable product.  Snapshot/restore is bit-faithful.
    p.snapshot(scratch);
    b.push(scratch.data());
  }

  const Protocol& proto_;
  const McOptions opt_;
  const PorOracle& oracle_;
  const std::size_t nworkers_;  ///< also the number of rank partitions
  const bool product_;
  // Bounded preemption (see McOptions::observer): thread the scheduling
  // context through keys and frontier entries, prune over-budget
  // transitions.  model_check already strips symmetry and POR under it;
  // the gates here keep the engine sound even on a raw option set.
  const bool preempt_;
  // POR engages only against the full product: invisibility (C2) is
  // defined relative to the observer/checker pipeline, which protocol_only
  // drops.
  const bool por_;
  // Several workers claim in racy order, so they log claims and store
  // duplicates for the barrier to resolve.  One worker claims in rank order
  // already; it logs claims only for the C3 level table.
  const bool ranked_;
  // One worker needs no OS threads: the pool runs the task inline.
  ThreadPool pool_;
  ConcurrentStateStore visited_;
  McResult result_;

  // Stored states, the initial one included: the budget counter.
  std::atomic<std::size_t> states_{1};
  std::uint64_t transitions_done_ = 0;  // committed at phase barriers
  std::atomic<bool> limit_hit_{false};
  std::atomic<bool> table_full_{false};
  // Lowest failing rank met so far: workers skip everything ranked past it.
  std::atomic<Rank> fail_rank_{kNoRank};
  // Sum of orbit sizes over stored states: how many concrete states the
  // canonical representatives cover.  orbit_sum / states is the reduction.
  std::atomic<std::uint64_t> orbit_sum_{0};
  // POR runtime-violation capture (sampled ample cross-validation).
  std::atomic<bool> por_violation_{false};
  std::mutex por_mu_;
  std::string por_violation_detail_;

  std::vector<std::unique_ptr<Worker>> workers_;
  // The level's frontier: the workers' batches of the previous level, read
  // in rank order through `order_` (packed worker << 32 | position).  An
  // empty order is the identity over batch 0 — the initial level, and every
  // level of a one-worker run, whose single batch is already in rank order.
  // The orders stay on the heap: the calling thread grows them, and
  // malloc_trim returns its arena's free pages.
  std::vector<FrontierBatch> frontier_;
  std::vector<std::uint64_t> order_;
  std::vector<std::uint64_t> next_order_;
  std::size_t frontier_entries_ = 1;
  // links_[d][gi]: the minimum rank of level d's state at frontier position
  // gi, i.e. its parent's position at level d - 1 and its transition.  The
  // initial level has no link.  One worker appends them as it claims,
  // several at commit_level.
  std::vector<PageVector<Rank>> links_ = std::vector<PageVector<Rank>>(1);

  // The running phase's work list: phase 0 expands frontier positions
  // 0..items-1, phase 1 (the C3 fallbacks) the positions in `fallbacks_`.
  unsigned phase_ = 0;
  bool logging_ = false;
  std::size_t items_ = 0;
  std::vector<std::uint32_t> fallbacks_;
  PageVector<ItemStat> item_stats_;
  std::vector<ProvisoDecision> decisions_;  ///< the level's, ascending gi
  std::array<std::vector<LevelShard>, 2> shards_;

  // Chunked work claiming: workers grab contiguous runs of work-list items
  // from a shared cursor instead of a fixed stride, so a worker stuck on
  // expensive entries does not leave its whole stride stranded while
  // others idle at the level barrier.  Chunks are contiguous for batch
  // locality, sized so each worker sees ~8 claims per phase (caps tail
  // imbalance at ~1/8 of a worker's share) but at most 64 entries (bounds
  // the tail chunk's latency).  The cursor outlives the grow barrier on
  // purpose: resumed workers finish their claimed chunk first, then claim
  // fresh ones.  Each worker's claims — and so its ranks — only increase.
  std::atomic<std::size_t> cursor_{0};
  std::size_t chunk_sz_ = 1;
};

}  // namespace

LevelRun explore_levels(const Protocol& protocol, const McOptions& options,
                        const PorOracle& oracle) {
  const auto t0 = Clock::now();
  McOptions opt = options;
  std::string por_note;
  for (;;) {
    LevelEngine engine(protocol, opt, oracle);
    if (std::optional<LevelRun> run = engine.run()) {
      run->result.seconds = seconds_since(t0);
      if (!por_note.empty()) run->result.por_note = std::move(por_note);
      return std::move(*run);
    }
    engine.restart(opt, por_note);
  }
}

}  // namespace scv
