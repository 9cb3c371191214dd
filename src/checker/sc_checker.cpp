#include "checker/sc_checker.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "checker/cycle_checker.hpp"
#include "util/assert.hpp"

namespace scv {

std::string ScCheckerConfig::invalid_reason() const {
  const auto range = [](const char* field, std::size_t got, std::size_t lo,
                        std::size_t hi, const char* hi_name) {
    return std::string(field) + " = " + std::to_string(got) +
           (got < lo ? " below the minimum of " + std::to_string(lo)
                     : " exceeds " + std::string(hi_name) + " = " +
                           std::to_string(hi));
  };
  if (k < 1 || k > kMaxBandwidth) {
    return range("k", k, 1, kMaxBandwidth, "kMaxBandwidth");
  }
  if (procs < 1 || procs > kMaxProcs) {
    return range("procs", procs, 1, kMaxProcs, "kMaxProcs");
  }
  if (blocks < 1 || blocks > kMaxBlocks) {
    return range("blocks", blocks, 1, kMaxBlocks, "kMaxBlocks");
  }
  if (values < 1 || values > 255) {
    return range("values", values, 1, 255, "the Value alphabet");
  }
  if (model.bounded_preemption() && model.kind != ModelKind::Sc) {
    return std::string("preemption bound ") +
           std::to_string(model.preemption_bound) +
           " combined with model " + to_string(model.kind) +
           " (bounded preemption under-approximates and is only sound as an "
           "exploration bound on sc)";
  }
  return {};
}

ScChecker::ScChecker(const ScCheckerConfig& config) : cfg_(config) {
  // Every slot/chain index below assumes these bounds; proceeding past a bad
  // configuration would silently index out of range, so fail loudly with the
  // exact offending field instead.
  if (const std::string reason = cfg_.invalid_reason(); !reason.empty()) {
    std::fprintf(stderr, "scv: invalid ScCheckerConfig: %s\n",
                 reason.c_str());
    std::abort();
  }
  rules_ = cfg_.model.rules();
  for (std::size_t i = 0; i < kMaxSlots; ++i) book_.id_slot[i] = kNone;
  for (std::size_t c = 0; c < kMaxChains; ++c) {
    book_.last_op[c] = kNone;
    book_.last_op_live[c] = false;
    book_.po_pending[c] = false;
    book_.po_expected_from[c] = kNone;
  }
  for (std::size_t p = 0; p < kMaxProcs; ++p) {
    book_.last_st[p] = kNone;
    book_.last_st_live[p] = false;
    book_.st_pending[p] = false;
    book_.st_expected_from[p] = kNone;
  }
  for (std::size_t b = 0; b < kMaxBlocks; ++b) {
    book_.root_ref[b] = kNone;
    book_.root_retired[b] = false;
    book_.retired_no_in[b] = 0;
    book_.retired_no_out[b] = 0;
    for (std::size_t p = 0; p < kMaxProcs; ++p) {
      book_.pending_bottom[b][p] = kNone;
    }
  }
}

ScChecker& ScChecker::operator=(const ScChecker& other) {
  if (this == &other) return *this;
  cfg_ = other.cfg_;
  rules_ = other.rules_;
  // Free slots hold a default Node (retire() and restore() reset them), so
  // resetting this checker's slots that the source has free keeps that true.
  for (std::uint64_t gone = used_mask_ & ~other.used_mask_; gone != 0;
       gone &= gone - 1) {
    nodes_[std::countr_zero(gone)] = Node{};
  }
  for (std::uint64_t um = other.used_mask_; um != 0; um &= um - 1) {
    const int s = std::countr_zero(um);
    nodes_[s] = other.nodes_[s];
  }
  used_mask_ = other.used_mask_;
  book_ = other.book_;
  reason_ = other.reason_;
  return *this;
}

std::size_t ScChecker::active_nodes() const noexcept {
  return static_cast<std::size_t>(std::popcount(used_mask_));
}

ScChecker::Status ScChecker::reject(std::string reason) {
  if (!book_.rejected) {
    book_.rejected = true;
    reason_ = std::move(reason);
  }
  return Status::Reject;
}

int ScChecker::slot_of(GraphId id) const {
  SCV_ASSERT(static_cast<std::size_t>(id) < kMaxSlots);
  return book_.id_slot[id];
}

int ScChecker::alloc_slot() {
  // Lowest free slot, same order the linear scan produced.
  const int s = std::countr_zero(~used_mask_);
  return s < static_cast<int>(kMaxSlots) ? s : -1;
}

bool ScChecker::path_exists(std::size_t from, std::size_t to) const {
  std::uint64_t visited = 0;
  std::uint64_t frontier = 1ULL << from;
  while (frontier != 0) {
    const auto s = static_cast<std::size_t>(std::countr_zero(frontier));
    frontier &= frontier - 1;
    if (s == to) return true;
    if (visited & (1ULL << s)) continue;
    visited |= 1ULL << s;
    frontier |= nodes_[s].out & ~visited;
  }
  return false;
}

ScChecker::Status ScChecker::retire(std::size_t s) {
  Node& n = nodes_[s];
  const auto slot = static_cast<std::int8_t>(s);
  mark_touched(n.op.proc);  // node count drops; chain liveness may flip

  // --- Obligation checks on the departing node.
  if (n.op.is_load()) {
    if (n.op.value != kBottom && !n.inh_in) {
      return reject("load retired without an inheritance edge");
    }
    if (n.forced_target != kNone) {
      return reject("load retired owing a forced edge (constraint 5a)");
    }
    if (n.pending_for != kNone) {
      return reject(
          "load retired while last in program order to inherit from a live "
          "store (constraint 5a)");
    }
    if (n.bottom_pending) {
      return reject("bottom-load retired owing a forced edge to the first "
                    "store (constraint 5b)");
    }
  } else {
    const BlockId b = n.op.block;
    if (!n.sto_in) {
      if (book_.root_ref[b] == slot) {
        book_.root_retired[b] = true;
        book_.root_ref[b] = kNone;
      } else if (book_.root_ref[b] != kNone) {
        return reject("two stores with no incoming ST order edge "
                      "(constraint 3)");
      } else if (++book_.retired_no_in[b] >= 2) {
        return reject("two stores retired with no incoming ST order edge "
                      "(constraint 3)");
      }
      // A store retiring as the (candidate) first of its block strands any
      // outstanding ⊥-load obligations for that block.
      for (std::size_t p = 0; p < cfg_.procs; ++p) {
        if (book_.pending_bottom[b][p] != kNone) {
          return reject("first store of a block retired while a bottom-load "
                        "still owes it a forced edge (constraint 5b)");
        }
      }
    }
    if (!n.sto_out && ++book_.retired_no_out[b] >= 2) {
      return reject("two stores retired with no outgoing ST order edge "
                    "(constraint 3)");
    }
    // Loads pending on this store: if the store never got a successor, the
    // forced-edge triples can no longer form, so the loads are released.
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      const std::int8_t j = n.pending_ld[p];
      if (j != kNone && used(j)) {
        nodes_[j].pending_for = kNone;
        if (n.sto_succ == kNone) nodes_[j].forced_target = kNone;
      }
    }
  }

  // --- Program order: the retiring node may be awaiting its po edge.
  {
    const std::size_t c = chain_of(n.op);
    if (book_.po_pending[c] &&
        (book_.po_expected_from[c] == slot || book_.last_op[c] == slot)) {
      return reject("operation retired before its program order edge was "
                    "emitted (constraint 2)");
    }
    if (book_.last_op[c] == slot) book_.last_op_live[c] = false;
  }

  // --- Store chain (TSO): a store awaiting its store-order edge — on
  // either end — must stay live until the edge is emitted.
  if (rules().store_chain && n.op.is_store()) {
    const ProcId p = n.op.proc;
    if (book_.st_pending[p] &&
        (book_.st_expected_from[p] == slot || book_.last_st[p] == slot)) {
      return reject("store retired before its store order edge was emitted "
                    "(store chain)");
    }
    if (book_.last_st[p] == slot) book_.last_st_live[p] = false;
  }

  // --- Scrub references to this slot from the remaining nodes.
  const std::uint64_t self = 1ULL << s;
  std::uint64_t others = used_mask_ & ~self;
  while (others != 0) {
    const auto h = static_cast<std::size_t>(std::countr_zero(others));
    others &= others - 1;
    Node& m = nodes_[h];
    if (m.sto_succ == slot) m.sto_succ = kGone;
    if (m.inh_src == slot) m.inh_src = kNone;
    if (m.forced_target == slot) {
      return reject("forced-edge target retired before the edge was emitted "
                    "(constraint 5)");
    }
    if (m.pending_for == slot) m.pending_for = kNone;
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      if (m.pending_ld[p] == slot) m.pending_ld[p] = kNone;
    }
    m.forced_out &= ~self;
    // Edge contraction for cycle preservation: (h -> s, s -> j) => h -> j.
    if (m.out & self) {
      m.out = (m.out & ~self) | (n.out & ~(1ULL << h));
    }
  }

  used_mask_ &= ~self;
  for (std::uint64_t ids = n.id_set; ids != 0; ids &= ids - 1) {
    book_.id_slot[std::countr_zero(ids)] = kNone;
  }
  n = Node{};
  return Status::Ok;
}

void ScChecker::unbind_id(GraphId id) {
  const int s = slot_of(id);
  if (s < 0) return;
  const std::uint64_t bit = 1ULL << id;
  if (nodes_[s].id_set == bit) {
    (void)retire(static_cast<std::size_t>(s));
  } else {
    nodes_[s].id_set &= ~bit;
    book_.id_slot[id] = kNone;
  }
}

ScChecker::Status ScChecker::on_node(const NodeDesc& nd) {
  if (!nd.label.has_value()) {
    return reject("node descriptor without an operation label");
  }
  const Operation op = *nd.label;
  if (op.proc >= cfg_.procs || op.block >= cfg_.blocks ||
      op.value > cfg_.values ||
      (op.is_store() && op.value == kBottom)) {
    return reject("operation label out of range");
  }

  unbind_id(nd.id);
  if (book_.rejected) return Status::Reject;

  const int s = alloc_slot();
  SCV_ASSERT(s >= 0);
  Node& n = nodes_[s];
  n = Node{};
  used_mask_ |= 1ULL << static_cast<std::size_t>(s);
  n.op = op;
  n.id_set = 1ULL << nd.id;
  book_.id_slot[nd.id] = static_cast<std::int8_t>(s);
  mark_touched(op.proc);  // new chain head + node count

  const std::size_t c = chain_of(op);
  if (book_.po_pending[c]) {
    return reject("new operation before the previous program order edge was "
                  "emitted (prompt-descriptor discipline)");
  }
  if (book_.last_op[c] != kNone) {
    if (!book_.last_op_live[c]) {
      return reject("program order predecessor retired before its successor "
                    "arrived (constraint 2)");
    }
    book_.po_pending[c] = true;
    book_.po_expected_from[c] = book_.last_op[c];
  }
  book_.last_op[c] = static_cast<std::int8_t>(s);
  book_.last_op_live[c] = true;

  if (rules().store_chain && op.is_store()) {
    const ProcId p = op.proc;
    if (book_.st_pending[p]) {
      return reject("new store before the previous store order edge was "
                    "emitted (prompt-descriptor discipline)");
    }
    const std::int8_t prev_st = book_.last_st[p];
    if (prev_st != kNone) {
      if (!book_.last_st_live[p]) {
        return reject("store order predecessor retired before its successor "
                      "arrived (store chain)");
      }
      // When the previous operation of this processor is exactly the chain
      // tail store, the ordinary program-order edge covers the ST→ST pair
      // (and it is structural — only ST→LD is relaxed); otherwise a
      // dedicated store-chain edge is now owed.
      const bool covered =
          book_.po_pending[c] && book_.po_expected_from[c] == prev_st;
      if (!covered) {
        book_.st_pending[p] = true;
        book_.st_expected_from[p] = prev_st;
      }
    }
    book_.last_st[p] = static_cast<std::int8_t>(s);
    book_.last_st_live[p] = true;
  }

  if (op.is_load() && op.value == kBottom) {
    const BlockId b = op.block;
    const ProcId p = op.proc;
    if (book_.root_retired[b] || book_.retired_no_in[b] > 0) {
      return reject("bottom-load after the first store of its block retired "
                    "(constraint 5b)");
    }
    const std::int8_t old = book_.pending_bottom[b][p];
    if (old != kNone && used(old)) {
      nodes_[old].bottom_pending = false;  // discharged via program order
    }
    book_.pending_bottom[b][p] = static_cast<std::int8_t>(s);
    n.bottom_pending = true;
  }
  return Status::Ok;
}

ScChecker::Status ScChecker::check_po_edge(std::size_t from, std::size_t to) {
  const std::size_t c = chain_of(nodes_[to].op);
  if (chain_of(nodes_[from].op) != c) {
    return reject(rules().per_block_chains
                      ? "program order edge across (processor, block) chains"
                      : "program order edge between different processors");
  }
  if (book_.po_pending[c] &&
      book_.po_expected_from[c] == static_cast<std::int8_t>(from) &&
      book_.last_op[c] == static_cast<std::int8_t>(to)) {
    if (nodes_[from].po_out || nodes_[to].po_in) {
      return reject("duplicate program order edge (constraint 2)");
    }
    nodes_[from].po_out = true;
    nodes_[to].po_in = true;
    book_.po_pending[c] = false;
    book_.po_expected_from[c] = kNone;
    mark_touched(nodes_[to].op.proc);  // chain flags discharged
    return Status::Ok;
  }
  // Store-chain edge (TSO): the po edge along the processor's store
  // subsequence, owed when an intervening load broke chain adjacency.
  // Discharge is tracked entirely in the per-processor pending state — the
  // node po_in/po_out flags stay chain-only, so a store's chain edge and
  // its store-chain edge never read as duplicates of each other.
  if (rules().store_chain) {
    const ProcId p = nodes_[to].op.proc;
    if (book_.st_pending[p] &&
        book_.st_expected_from[p] == static_cast<std::int8_t>(from) &&
        book_.last_st[p] == static_cast<std::int8_t>(to)) {
      book_.st_pending[p] = false;
      book_.st_expected_from[p] = kNone;
      mark_touched(p);  // store-chain flags discharged
      return Status::Ok;
    }
  }
  return reject("program order edge not between trace-consecutive "
                "operations (constraint 2)");
}

ScChecker::Status ScChecker::check_sto_edge(std::size_t from,
                                            std::size_t to) {
  Node& x = nodes_[from];
  Node& k = nodes_[to];
  if (!x.op.is_store() || !k.op.is_store() || x.op.block != k.op.block) {
    return reject("ST order edge not between stores of one block "
                  "(constraint 3)");
  }
  if (x.sto_out) return reject("two outgoing ST order edges (constraint 3)");
  if (k.sto_in) return reject("two incoming ST order edges (constraint 3)");
  const BlockId b = x.op.block;
  if (book_.root_ref[b] == static_cast<std::int8_t>(to)) {
    return reject("store pinned as first in ST order gained a predecessor "
                  "(constraint 5b)");
  }
  x.sto_out = true;
  k.sto_in = true;
  x.sto_succ = static_cast<std::int8_t>(to);
  // Constraint 5(a) triples now exist for every load pending on x: each owes
  // a forced edge to k (or already emitted one).
  for (std::size_t p = 0; p < cfg_.procs; ++p) {
    const std::int8_t j = x.pending_ld[p];
    if (j == kNone) continue;
    SCV_ASSERT(used(j));
    if (nodes_[j].forced_out & (1ULL << to)) {
      nodes_[j].pending_for = kNone;
      x.pending_ld[p] = kNone;
    } else {
      nodes_[j].forced_target = static_cast<std::int8_t>(to);
    }
  }
  return Status::Ok;
}

ScChecker::Status ScChecker::check_inh_edge(std::size_t from,
                                            std::size_t to) {
  Node& x = nodes_[from];
  Node& y = nodes_[to];
  if (!x.op.is_store() || !y.op.is_load()) {
    return reject("inheritance edge must go from a store to a load "
                  "(constraint 4)");
  }
  if (y.op.value == kBottom) {
    return reject("inheritance edge into a bottom-load (constraint 4)");
  }
  if (x.op.block != y.op.block || x.op.value != y.op.value) {
    return reject("load value differs from inherited store value "
                  "(constraint 4)");
  }
  if (y.inh_in) {
    return reject("two inheritance edges into one load (constraint 4)");
  }
  if (x.sto_succ == kGone) {
    return reject("load inherits from a store whose ST order successor has "
                  "retired (constraint 5a)");
  }
  y.inh_in = true;
  y.inh_src = static_cast<std::int8_t>(from);

  const ProcId p = y.op.proc;
  const std::int8_t old = x.pending_ld[p];
  if (old != kNone && used(old)) {
    // Condition (ii): a program-order-later load of the same processor now
    // inherits from x, discharging the older load's obligation.
    nodes_[old].forced_target = kNone;
    nodes_[old].pending_for = kNone;
  }
  x.pending_ld[p] = static_cast<std::int8_t>(to);
  y.pending_for = static_cast<std::int8_t>(from);
  if (x.sto_succ >= 0) {
    const auto k = static_cast<std::size_t>(x.sto_succ);
    if (y.forced_out & (1ULL << k)) {
      x.pending_ld[p] = kNone;
      y.pending_for = kNone;
    } else {
      y.forced_target = x.sto_succ;
    }
  }
  return Status::Ok;
}

ScChecker::Status ScChecker::check_forced_edge(std::size_t from,
                                               std::size_t to) {
  Node& j = nodes_[from];
  Node& k = nodes_[to];
  if (!j.op.is_load() || !k.op.is_store() || j.op.block != k.op.block) {
    return reject("forced edge must go from a load to a store of the same "
                  "block (constraint 5)");
  }
  j.forced_out |= 1ULL << to;
  if (j.forced_target == static_cast<std::int8_t>(to)) {
    j.forced_target = kNone;
    if (j.pending_for != kNone && used(j.pending_for)) {
      Node& x = nodes_[j.pending_for];
      if (x.pending_ld[j.op.proc] == static_cast<std::int8_t>(from)) {
        x.pending_ld[j.op.proc] = kNone;
      }
    }
    j.pending_for = kNone;
  }
  if (j.op.value == kBottom) {
    const BlockId b = j.op.block;
    if (k.sto_in) {
      return reject("bottom-load forced edge targets a store that is not "
                    "first in ST order (constraint 5b)");
    }
    if (book_.root_ref[b] == kNone) {
      if (book_.retired_no_in[b] > 0) {
        return reject("bottom-load forced edge cannot target the first "
                      "store: it already retired (constraint 5b)");
      }
      book_.root_ref[b] = static_cast<std::int8_t>(to);
    } else if (book_.root_ref[b] != static_cast<std::int8_t>(to)) {
      return reject("two different stores claimed as first in ST order "
                    "(constraint 5b)");
    }
    if (book_.pending_bottom[b][j.op.proc] == static_cast<std::int8_t>(from)) {
      book_.pending_bottom[b][j.op.proc] = kNone;
      mark_touched(j.op.proc);  // pending-⊥ anchor discharged
    }
    j.bottom_pending = false;
  }
  return Status::Ok;
}

ScChecker::Status ScChecker::add_structural_edge(std::size_t from,
                                                 std::size_t to) {
  if (from == to) return reject("self-loop: constraint graph has a cycle");
  if (path_exists(to, from)) {
    return reject("edge closes a cycle: trace has no serial reordering");
  }
  nodes_[from].out |= 1ULL << to;
  return Status::Ok;
}

ScChecker::Status ScChecker::on_edge(const EdgeDesc& e) {
  const int from = slot_of(e.from);
  const int to = slot_of(e.to);
  if (from < 0 || to < 0) {
    return reject("edge references an ID not bound to any node");
  }
  if (e.anno == 0) {
    return reject("edge without an annotation");
  }
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  if ((e.anno & kAnnoPo) && check_po_edge(f, t) == Status::Reject) {
    return Status::Reject;
  }
  if ((e.anno & kAnnoSto) && check_sto_edge(f, t) == Status::Reject) {
    return Status::Reject;
  }
  if ((e.anno & kAnnoInh) && check_inh_edge(f, t) == Status::Reject) {
    return Status::Reject;
  }
  if ((e.anno & kAnnoForced) && check_forced_edge(f, t) == Status::Reject) {
    return Status::Reject;
  }
  // Model rule: a *pure* program-order edge from a store to a load carries
  // no structural constraint under a store→load-relaxed model (TSO) — the
  // buffered store may serialize after the load.  Any other annotation bit
  // on the edge keeps its structural force.
  if (e.anno == kAnnoPo && rules().relax_store_load &&
      nodes_[f].op.is_store() && nodes_[t].op.is_load()) {
    return Status::Ok;
  }
  return add_structural_edge(f, t);
}

ScChecker::Status ScChecker::feed(const Symbol& sym) {
  if (book_.rejected) return Status::Reject;

  const auto valid_id = [this](GraphId id) {
    return id >= 1 && static_cast<std::size_t>(id) <= cfg_.k + 1;
  };

  if (const auto* n = std::get_if<NodeDesc>(&sym)) {
    if (!valid_id(n->id)) return reject("node ID out of range");
    return on_node(*n);
  }
  if (const auto* a = std::get_if<AddId>(&sym)) {
    if (!valid_id(a->existing) || !valid_id(a->added)) {
      return reject("add-ID with ID out of range");
    }
    if (a->existing == a->added) return Status::Ok;
    // Same rule as CycleChecker: an unbound `existing` is only legal as the
    // reserved null ID (k+1), the observer's retirement idiom.
    const int s = slot_of(a->existing);
    if (s < 0 && static_cast<std::size_t>(a->existing) != cfg_.k + 1) {
      return reject("add-ID references an ID not bound to any node");
    }
    unbind_id(a->added);
    if (book_.rejected) return Status::Reject;
    if (s >= 0) {
      nodes_[s].id_set |= 1ULL << a->added;
      book_.id_slot[a->added] = static_cast<std::int8_t>(s);
    }
    return Status::Ok;
  }
  const auto& e = std::get<EdgeDesc>(sym);
  if (!valid_id(e.from) || !valid_id(e.to)) {
    return reject("edge ID out of range");
  }
  return on_edge(e);
}

ScChecker::Status ScChecker::feed_batch(std::span<const Symbol> syms) {
  if (book_.rejected) return Status::Reject;
  for (const Symbol& sym : syms) {
    if (feed(sym) == Status::Reject) return Status::Reject;
  }
  return Status::Ok;
}

void ScChecker::serialize_canonical(ByteWriter& w,
                                    std::span<const GraphId> id_canon,
                                    const ProcPerm* perm) const {
  // Permutation-aware indirection (see Observer::serialize): permute_procs
  // only relocates the per-processor bookkeeping — chains, pending-⊥ rows,
  // pending_ld columns — and renames op.proc, which this encoding never
  // writes.  Reading those arrays through the inverse renaming therefore
  // reproduces the permuted checker's serialization byte for byte without
  // mutating anything.
  const bool permuted = perm != nullptr && !perm->is_identity();
  ProcPerm inv;
  if (permuted) {
    SCV_EXPECTS(perm->n == cfg_.procs);
    inv = perm->inverse();
  }
  const auto src_proc = [&](std::size_t p) -> std::size_t {
    return permuted ? inv.to[p] : p;
  };
  const auto src_chain = [&](std::size_t c) -> std::size_t {
    return permuted ? rules().chain_image(c, inv.to, cfg_.blocks) : c;
  };

  // Map each active slot to the canonical number of the observer node whose
  // IDs it holds, then emit everything in canonical order with renamed
  // references.
  struct Pair {
    std::uint16_t canon;
    std::uint8_t slot;
  };
  Pair order[kMaxSlots];
  std::size_t count = 0;
  std::uint8_t slot_canon[kMaxSlots] = {};  // slot -> 1-based canonical pos
  std::uint64_t um = used_mask_;
  while (um != 0) {
    const auto s = static_cast<std::size_t>(std::countr_zero(um));
    um &= um - 1;
    SCV_ASSERT(nodes_[s].id_set != 0);
    const auto id =
        static_cast<std::size_t>(std::countr_zero(nodes_[s].id_set));
    SCV_ASSERT(id < id_canon.size() && id_canon[id] != 0);
    order[count++] = Pair{id_canon[id], static_cast<std::uint8_t>(s)};
  }
  std::sort(order, order + count,
            [](const Pair& a, const Pair& b) { return a.canon < b.canon; });
  for (std::size_t i = 0; i < count; ++i) {
    SCV_ASSERT(i == 0 || order[i].canon != order[i - 1].canon);
    slot_canon[order[i].slot] = static_cast<std::uint8_t>(i + 1);
  }
  const auto enc = [&](std::int8_t slot) -> std::uint64_t {
    if (slot == kNone) return 0;
    if (slot == kGone) return count + 1;
    return slot_canon[static_cast<std::uint8_t>(slot)];
  };

  // Encoded into stack scratch and bulk-appended (see Observer::serialize
  // phase 2): one per-field vector round-trip per write is measurable at
  // one call per explored transition.  Bound: chains + block rows + node
  // records at <= 25 + 2*kMaxProcs bytes each.
  std::uint8_t scratch[1 + (kMaxChains + kMaxProcs) * 5 +
                       kMaxBlocks * (3 + 2 * kMaxProcs) + 2 +
                       kMaxSlots * (25 + 2 * kMaxProcs)];
  ScratchWriter sw(scratch, sizeof scratch);
  sw.u8(book_.rejected ? 1 : 0);
  for (std::size_t c = 0; c < chain_count(); ++c) {
    const std::size_t sc = src_chain(c);
    sw.uvar(enc(book_.last_op[sc]));
    sw.u8(static_cast<std::uint8_t>((book_.last_op_live[sc] ? 1 : 0) |
                                    (book_.po_pending[sc] ? 2 : 0)));
    sw.uvar(enc(book_.po_expected_from[sc]));
  }
  if (rules().store_chain) {  // emitted only under TSO: SC stays byte-stable
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      const std::size_t sp = src_proc(p);
      sw.uvar(enc(book_.last_st[sp]));
      sw.u8(static_cast<std::uint8_t>((book_.last_st_live[sp] ? 1 : 0) |
                                      (book_.st_pending[sp] ? 2 : 0)));
      sw.uvar(enc(book_.st_expected_from[sp]));
    }
  }
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    sw.uvar(enc(book_.root_ref[b]));
    sw.u8(static_cast<std::uint8_t>((book_.root_retired[b] ? 1 : 0) |
                                    (book_.retired_no_in[b] << 1) |
                                    (book_.retired_no_out[b] << 3)));
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      sw.uvar(enc(book_.pending_bottom[b][src_proc(p)]));
    }
  }
  sw.uvar(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Node& n = nodes_[order[i].slot];
    // Operation labels and ID bindings are redundant with the observer's
    // canonical record; the structural adjacency and obligation fields are
    // the checker-specific state.
    sw.u8(static_cast<std::uint8_t>((n.po_in ? 1 : 0) | (n.po_out ? 2 : 0) |
                                    (n.sto_in ? 4 : 0) | (n.sto_out ? 8 : 0) |
                                    (n.inh_in ? 16 : 0) |
                                    (n.bottom_pending ? 32 : 0)));
    sw.uvar(enc(n.sto_succ));
    sw.uvar(enc(n.inh_src));
    sw.uvar(enc(n.forced_target));
    sw.uvar(enc(n.pending_for));
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      sw.uvar(enc(n.pending_ld[src_proc(p)]));
    }
    // Set-bit iteration: adjacency masks are sparse (a handful of edges
    // over up to 64 slots), so walking the set bits beats testing every
    // slot by an order of magnitude on the serialization hot path.
    const auto remap = [&](std::uint64_t mask) {
      std::uint64_t canon = 0;
      while (mask != 0) {
        const int s = std::countr_zero(mask);
        mask &= mask - 1;
        canon |= 1ULL << (slot_canon[s] - 1);
      }
      return canon;
    };
    sw.u64(remap(n.out));
    sw.u64(remap(n.forced_out));
  }
  sw.flush(w);
}

void ScChecker::serialize(ByteWriter& w) const {
  // Live-slot layout: the fixed chain/block header, the used-slot mask,
  // then one record per live slot in ascending slot order.  A directory
  // walk holds ~3 live nodes out of 64 slots, so this is the compact-
  // frontier payload's largest saving; the masks ride as varints because
  // adjacency and ID sets are sparse.  Encoded into stack scratch and
  // bulk-appended, like serialize_canonical.
  std::uint8_t scratch[1 + 3 * kMaxChains + 3 * kMaxProcs +
                       kMaxBlocks * (2 + kMaxProcs) + 10 +
                       kMaxSlots * (39 + kMaxProcs)];
  ScratchWriter sw(scratch, sizeof scratch);
  sw.u8(book_.rejected ? 1 : 0);
  for (std::size_t c = 0; c < chain_count(); ++c) {
    sw.u8(static_cast<std::uint8_t>(book_.last_op[c]));
    sw.u8(static_cast<std::uint8_t>((book_.last_op_live[c] ? 1 : 0) |
                                    (book_.po_pending[c] ? 2 : 0)));
    sw.u8(static_cast<std::uint8_t>(book_.po_expected_from[c]));
  }
  if (rules().store_chain) {  // emitted only under TSO: SC stays byte-stable
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      sw.u8(static_cast<std::uint8_t>(book_.last_st[p]));
      sw.u8(static_cast<std::uint8_t>((book_.last_st_live[p] ? 1 : 0) |
                                      (book_.st_pending[p] ? 2 : 0)));
      sw.u8(static_cast<std::uint8_t>(book_.st_expected_from[p]));
    }
  }
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    sw.u8(static_cast<std::uint8_t>(book_.root_ref[b]));
    sw.u8(static_cast<std::uint8_t>((book_.root_retired[b] ? 1 : 0) |
                                    (book_.retired_no_in[b] << 1) |
                                    (book_.retired_no_out[b] << 3)));
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      sw.u8(static_cast<std::uint8_t>(book_.pending_bottom[b][p]));
    }
  }
  sw.uvar(used_mask_);
  for (std::uint64_t um = used_mask_; um != 0; um &= um - 1) {
    const Node& n = nodes_[std::countr_zero(um)];
    sw.u8(static_cast<std::uint8_t>(n.op.kind));
    sw.u8(n.op.proc);
    sw.u8(n.op.block);
    sw.u8(n.op.value);
    sw.uvar(n.id_set);
    sw.uvar(n.out);
    sw.u8(static_cast<std::uint8_t>((n.po_in ? 1 : 0) | (n.po_out ? 2 : 0) |
                                    (n.sto_in ? 4 : 0) | (n.sto_out ? 8 : 0) |
                                    (n.inh_in ? 16 : 0) |
                                    (n.bottom_pending ? 32 : 0)));
    sw.u8(static_cast<std::uint8_t>(n.sto_succ));
    sw.u8(static_cast<std::uint8_t>(n.inh_src));
    sw.u8(static_cast<std::uint8_t>(n.forced_target));
    sw.u8(static_cast<std::uint8_t>(n.pending_for));
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      sw.u8(static_cast<std::uint8_t>(n.pending_ld[p]));
    }
    sw.uvar(n.forced_out);
  }
  sw.flush(w);
}

void ScChecker::restore(ByteReader& r) {
  // Inverse of serialize(); int8 fields round-trip through uint8 so the
  // kNone/kGone sentinels survive.
  const auto i8 = [&r] { return static_cast<std::int8_t>(r.u8()); };
  book_.rejected = r.u8() != 0;
  reason_.clear();  // diagnostic only; rejected states are never re-expanded
  for (std::size_t c = 0; c < chain_count(); ++c) {
    book_.last_op[c] = i8();
    const std::uint8_t f = r.u8();
    book_.last_op_live[c] = (f & 1) != 0;
    book_.po_pending[c] = (f & 2) != 0;
    book_.po_expected_from[c] = i8();
  }
  if (rules().store_chain) {
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      book_.last_st[p] = i8();
      const std::uint8_t f = r.u8();
      book_.last_st_live[p] = (f & 1) != 0;
      book_.st_pending[p] = (f & 2) != 0;
      book_.st_expected_from[p] = i8();
    }
  }
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    book_.root_ref[b] = i8();
    const std::uint8_t f = r.u8();
    book_.root_retired[b] = (f & 1) != 0;
    book_.retired_no_in[b] = (f >> 1) & 3;
    book_.retired_no_out[b] = (f >> 3) & 3;
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      book_.pending_bottom[b][p] = i8();
    }
  }
  // Free slots always hold a default Node (retire() resets them), so only
  // the slots this checker had live need clearing.
  const std::uint64_t used = r.uvar();
  for (std::uint64_t gone = used_mask_ & ~used; gone != 0; gone &= gone - 1) {
    nodes_[std::countr_zero(gone)] = Node{};
  }
  used_mask_ = used;
  for (std::size_t i = 0; i < kMaxSlots; ++i) book_.id_slot[i] = kNone;
  for (std::uint64_t um = used; um != 0; um &= um - 1) {
    const int s = std::countr_zero(um);
    Node& n = nodes_[s];
    n = Node{};
    n.op.kind = static_cast<OpKind>(r.u8());
    n.op.proc = r.u8();
    n.op.block = r.u8();
    n.op.value = r.u8();
    n.id_set = r.uvar();
    for (std::uint64_t ids = n.id_set; ids != 0; ids &= ids - 1) {
      book_.id_slot[std::countr_zero(ids)] = static_cast<std::int8_t>(s);
    }
    n.out = r.uvar();
    const std::uint8_t f = r.u8();
    n.po_in = (f & 1) != 0;
    n.po_out = (f & 2) != 0;
    n.sto_in = (f & 4) != 0;
    n.sto_out = (f & 8) != 0;
    n.inh_in = (f & 16) != 0;
    n.bottom_pending = (f & 32) != 0;
    n.sto_succ = i8();
    n.inh_src = i8();
    n.forced_target = i8();
    n.pending_for = i8();
    for (std::size_t p = 0; p < cfg_.procs; ++p) n.pending_ld[p] = i8();
    n.forced_out = r.uvar();
  }
  book_.touched = ~0u;  // arbitrary new state: no step to be relative to
}

bool ScChecker::try_restore(std::span<const std::uint8_t> bytes,
                            std::string& error) {
  // Structure-validating dry run over the serialize() layout.  The feed
  // path's internal assertions (pending-load liveness, a free slot always
  // existing) hold for every state the checker can reach; a forged
  // base_state could violate them and turn a bad file into an abort, so
  // everything those assertions rely on is checked here first.  Every
  // field is range-checked and varints must be canonical, so an accepted
  // buffer is exactly what serialize() writes for the restored state.
  TryReader r(bytes);
  const auto fail = [&](const char* what) {
    error = what;
    return false;
  };
  const auto slot_ref = [](std::uint8_t v) {
    return static_cast<std::int8_t>(v) == kNone || v < kMaxSlots;
  };
  const auto succ_ref = [&](std::uint8_t v) {
    return static_cast<std::int8_t>(v) == kGone || slot_ref(v);
  };

  std::uint8_t b0 = 0;
  if (!r.u8(b0) || b0 > 1) return fail("bad reject flag");
  for (std::size_t c = 0; c < chain_count(); ++c) {
    std::uint8_t last = 0;
    std::uint8_t flags = 0;
    std::uint8_t exp = 0;
    if (!r.u8(last) || !r.u8(flags) || !r.u8(exp)) {
      return fail("truncated chain record");
    }
    if (!slot_ref(last) || flags > 3 || !slot_ref(exp)) {
      return fail("bad chain record");
    }
  }
  if (rules().store_chain) {
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      std::uint8_t last = 0;
      std::uint8_t flags = 0;
      std::uint8_t exp = 0;
      if (!r.u8(last) || !r.u8(flags) || !r.u8(exp)) {
        return fail("truncated store-chain record");
      }
      if (!slot_ref(last) || flags > 3 || !slot_ref(exp)) {
        return fail("bad store-chain record");
      }
    }
  }
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    std::uint8_t root = 0;
    std::uint8_t flags = 0;
    if (!r.u8(root) || !r.u8(flags)) return fail("truncated block record");
    if (!slot_ref(root) || flags > 0x1f) return fail("bad block record");
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      std::uint8_t pb = 0;
      if (!r.u8(pb)) return fail("truncated block record");
      if (!slot_ref(pb)) return fail("bad block record");
    }
  }

  std::uint64_t used = 0;
  if (!r.uvar(used)) return fail("truncated used-slot mask");
  std::uint64_t seen_ids = 0;
  std::uint64_t pending_refs = 0;
  for (std::uint64_t um = used; um != 0; um &= um - 1) {
    std::uint8_t kind = 0;
    std::uint8_t proc = 0;
    std::uint8_t block = 0;
    std::uint8_t value = 0;
    std::uint64_t id_set = 0;
    std::uint64_t mask = 0;
    std::uint8_t flags = 0;
    if (!r.u8(kind) || !r.u8(proc) || !r.u8(block) || !r.u8(value) ||
        !r.uvar(id_set) || !r.uvar(mask) || !r.u8(flags)) {
      return fail("truncated node record");
    }
    if (kind > 1 || proc >= cfg_.procs || block >= cfg_.blocks ||
        value > cfg_.values) {
      return fail("node operation label out of range");
    }
    // Non-empty, pairwise-disjoint ID sets over the config's ID alphabet
    // keep every slot reachable through at most one ID and bound the
    // active-node count below kMaxSlots (a free slot must always exist).
    if (id_set == 0) return fail("active node with an empty ID set");
    if ((id_set & 1) != 0 || (cfg_.k + 2 < 64 && (id_set >> (cfg_.k + 2)) != 0)) {
      return fail("node ID set outside the configured ID range");
    }
    if ((id_set & seen_ids) != 0) {
      return fail("one ID bound to two nodes");
    }
    seen_ids |= id_set;
    if (flags > 0x3f) return fail("bad node flags");
    std::uint8_t sto_succ = 0;
    std::uint8_t inh_src = 0;
    std::uint8_t forced_target = 0;
    std::uint8_t pending_for = 0;
    if (!r.u8(sto_succ) || !r.u8(inh_src) || !r.u8(forced_target) ||
        !r.u8(pending_for)) {
      return fail("truncated node record");
    }
    if (!succ_ref(sto_succ) || !slot_ref(inh_src) ||
        !slot_ref(forced_target) || !slot_ref(pending_for)) {
      return fail("bad node slot reference");
    }
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      std::uint8_t pl = 0;
      if (!r.u8(pl)) return fail("truncated node record");
      if (!slot_ref(pl)) return fail("bad pending-load reference");
      if (static_cast<std::int8_t>(pl) != kNone) pending_refs |= 1ULL << pl;
    }
    if (!r.uvar(mask)) return fail("truncated node record");  // forced_out
  }
  if (!r.done()) return fail("trailing bytes after the snapshot");
  if ((pending_refs & ~used) != 0) {
    return fail("pending-load reference to an empty slot");
  }

  ByteReader trusted(bytes);
  restore(trusted);
  return true;
}

void ScChecker::permute_procs(const ProcPerm& perm) {
  SCV_EXPECTS(perm.n == cfg_.procs);
  if (perm.is_identity()) return;
  book_.touched = ~0u;  // signatures relocate wholesale; the step mask is void

  // Program-order chain bookkeeping moves to the renamed processor.
  std::int8_t last[kMaxChains];
  bool live[kMaxChains];
  bool pending[kMaxChains];
  std::int8_t expected[kMaxChains];
  for (std::size_t c = 0; c < chain_count(); ++c) {
    const std::size_t dst = rules().chain_image(c, perm.to, cfg_.blocks);
    last[dst] = book_.last_op[c];
    live[dst] = book_.last_op_live[c];
    pending[dst] = book_.po_pending[c];
    expected[dst] = book_.po_expected_from[c];
  }
  for (std::size_t c = 0; c < chain_count(); ++c) {
    book_.last_op[c] = last[c];
    book_.last_op_live[c] = live[c];
    book_.po_pending[c] = pending[c];
    book_.po_expected_from[c] = expected[c];
  }

  // Store-chain bookkeeping moves with its processor (identity under
  // models without the rule: the arrays sit at their initial values).
  {
    std::int8_t st_last[kMaxProcs];
    bool st_live[kMaxProcs];
    bool st_pend[kMaxProcs];
    std::int8_t st_exp[kMaxProcs];
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      st_last[perm.to[p]] = book_.last_st[p];
      st_live[perm.to[p]] = book_.last_st_live[p];
      st_pend[perm.to[p]] = book_.st_pending[p];
      st_exp[perm.to[p]] = book_.st_expected_from[p];
    }
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      book_.last_st[p] = st_last[p];
      book_.last_st_live[p] = st_live[p];
      book_.st_pending[p] = st_pend[p];
      book_.st_expected_from[p] = st_exp[p];
    }
  }

  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    std::int8_t row[kMaxProcs];
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      row[perm.to[p]] = book_.pending_bottom[b][p];
    }
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      book_.pending_bottom[b][p] = row[p];
    }
  }

  std::uint64_t pm = used_mask_;
  while (pm != 0) {
    Node& n = nodes_[static_cast<std::size_t>(std::countr_zero(pm))];
    pm &= pm - 1;
    n.op.proc = perm(n.op.proc);
    std::int8_t pl[kMaxProcs];
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      pl[perm.to[p]] = n.pending_ld[p];
    }
    for (std::size_t p = 0; p < cfg_.procs; ++p) n.pending_ld[p] = pl[p];
  }
}

void ScChecker::proc_signature(ProcId p, ByteWriter& w) const {
  const auto write_chain = [&](std::size_t c) {
    const std::int8_t s = book_.last_op[c];
    if (s == kNone) {
      w.u8(0);
      return;
    }
    std::uint8_t flags = 1;
    if (book_.last_op_live[c]) flags |= 2;
    if (book_.po_pending[c]) flags |= 4;
    if (book_.po_expected_from[c] != kNone) flags |= 8;
    w.u8(flags);
    if (book_.last_op_live[c] && used(s)) {
      const Node& n = nodes_[static_cast<std::size_t>(s)];
      w.u8(static_cast<std::uint8_t>(n.op.kind));
      w.u8(n.op.block);
      w.u8(n.op.value);
    }
  };
  for (std::size_t i = 0; i < rules().chains_per_proc(cfg_.blocks); ++i) {
    write_chain(rules().chain_of(p, i, cfg_.blocks));
  }
  if (rules().store_chain) {  // store-tail record, TSO only
    const std::int8_t s = book_.last_st[p];
    if (s == kNone) {
      w.u8(0);
    } else {
      std::uint8_t flags = 1;
      if (book_.last_st_live[p]) flags |= 2;
      if (book_.st_pending[p]) flags |= 4;
      if (book_.st_expected_from[p] != kNone) flags |= 8;
      w.u8(flags);
      if (book_.last_st_live[p] && used(s)) {
        const Node& n = nodes_[static_cast<std::size_t>(s)];
        w.u8(n.op.block);
        w.u8(n.op.value);
      }
    }
  }
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    w.u8(book_.pending_bottom[b][p] != kNone ? 1 : 0);
  }
  std::uint32_t mine = 0;
  std::uint64_t cm = used_mask_;
  while (cm != 0) {
    const Node& n = nodes_[static_cast<std::size_t>(std::countr_zero(cm))];
    cm &= cm - 1;
    if (n.op.proc == p) ++mine;
  }
  w.uvar(mine);
}

std::uint32_t ScChecker::obligation_procs() const noexcept {
  std::uint32_t mask = 0;
  for (std::size_t c = 0; c < chain_count(); ++c) {
    if (book_.po_pending[c]) {
      mask |= 1u << rules().proc_of_chain(c, cfg_.blocks);
    }
  }
  if (rules().store_chain) {
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      if (book_.st_pending[p]) mask |= 1u << p;
    }
  }
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      if (book_.pending_bottom[b][p] != kNone) mask |= 1u << p;
    }
  }
  for (std::uint64_t m = used_mask_; m != 0; m &= m - 1) {
    const Node& n = nodes_[static_cast<std::size_t>(std::countr_zero(m))];
    // A load owing a forced edge shows up on both ends: the load's own
    // forced_target / pending_for fields and the store's pending list.
    if (n.forced_target != kNone || n.pending_for != kNone ||
        n.bottom_pending) {
      mask |= 1u << n.op.proc;
    }
    for (std::size_t p = 0; p < cfg_.procs; ++p) {
      if (n.pending_ld[p] != kNone) mask |= 1u << p;
    }
  }
  return mask;
}

}  // namespace scv
