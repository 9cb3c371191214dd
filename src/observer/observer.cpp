#include "observer/observer.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace scv {

namespace {
/// In location-mirrored mode, location l is aliased by descriptor ID l+1.
[[nodiscard]] GraphId loc_id(LocId l) { return static_cast<GraphId>(l + 1); }
}  // namespace

std::size_t Observer::active_node_bound(const Protocol& p,
                                        const MemoryModel& model) {
  const auto& pr = p.params();
  const ModelRules& mr = model.rules();
  // Forced-target successors are bounded by the inh-active stores, so
  // within L in the worst case but typically tiny; the slack covers them.
  const std::size_t chain_tails = mr.chain_count(pr.procs, pr.blocks);
  const std::size_t store_tails = mr.store_chain ? pr.procs : 0;
  return pr.locations + pr.procs * pr.blocks + chain_tails + store_tails +
         2 * pr.blocks + 8;
}

Observer::PoolBandwidth Observer::pool_and_bandwidth(
    const Protocol& p, const ObserverConfig& config) {
  const std::size_t pool = config.pool_size != 0
                               ? config.pool_size
                               : default_pool_size(p, config.model);
  return {pool, config.location_mirrored ? p.params().locations + pool
                                         : pool};
}

std::size_t observer_size_bound_bits(std::size_t p, std::size_t b,
                                     std::size_t v, std::size_t L) {
  return (L + p * b) * (ceil_log2(p) + ceil_log2(b) + ceil_log2(v) + 1) +
         L * ceil_log2(L == 0 ? 1 : L);
}

std::size_t ceil_log2(std::size_t x) {
  SCV_EXPECTS(x >= 1);
  std::size_t bits = 0;
  std::size_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

Observer::Observer(const Protocol& protocol, ObserverConfig config)
    : protocol_(&protocol),
      cfg_(config),
      tracker_(protocol.params().locations),
      real_time_order_(protocol.real_time_st_order(config.model)) {
  const auto& pr = protocol.params();
  SCV_EXPECTS(pr.procs <= kMaxObsProcs);
  SCV_EXPECTS(pr.blocks <= kMaxObsBlocks);
  // LocId alphabet bound: locations beyond kMaxLocations would collide
  // with the kClearSrc sentinel in the tracker (and, in location-mirrored
  // mode, overflow the location-alias ID range).
  SCV_EXPECTS(pr.locations <= kMaxLocations);
  rules_ = cfg_.model.rules();
  procs_ = pr.procs;
  blocks_ = pr.blocks;
  chains_ = rules_.chain_count(procs_, blocks_);
  const PoolBandwidth pb = pool_and_bandwidth(protocol, cfg_);
  pool_count_ = pb.pool;
  k_ = pb.k;
  SCV_EXPECTS(pool_count_ >= 1 && pool_count_ <= kMaxBandwidth);
  // The pool is the top pool_count_ IDs of 1..k, above the L location
  // aliases in location-mirrored mode; ID k+1 is the reserved null ID used
  // to announce retirements.
  pool_base_ = static_cast<GraphId>(k_ - pool_count_ + 1);
  SCV_EXPECTS(k_ >= 1 && k_ <= kMaxBandwidth);
  pool_all_ = pool_count_ >= 64 ? ~0ULL : ((1ULL << pool_count_) - 1);
  pool_free_ = pool_all_;
  nodes_.assign(pool_count_, Node{});
}

ObserverStatus Observer::fail(ObserverStatus status, std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return status;
}

GraphId Observer::alloc_pool_id() {
  if (pool_free_ == 0) return kNoId;
  const int idx = std::countr_zero(pool_free_);
  pool_free_ &= pool_free_ - 1;
  return static_cast<GraphId>(pool_base_ + idx);
}

void Observer::free_pool_id(GraphId id) {
  const auto idx = static_cast<std::size_t>(id - pool_base_);
  SCV_EXPECTS(idx < pool_count_);
  SCV_EXPECTS((pool_free_ & (1ULL << idx)) == 0);
  pool_free_ |= 1ULL << idx;
}

std::size_t Observer::live_nodes() const noexcept {
  return static_cast<std::size_t>(std::popcount(live_mask()));
}

NodeHandle Observer::emit_op_node(const Operation& op,
                                  std::vector<Symbol>& out) {
  const GraphId id = alloc_pool_id();
  if (id == kNoId) return kNone;
  const auto h = static_cast<NodeHandle>(id - pool_base_ + 1);
  Node& n = node(h);
  n = Node{};
  n.op = op;
  n.pool_id = id;
  mark_touched(op.proc);  // new chain head + live-node count
  changed_ = true;
  out.push_back(NodeDesc{id, op});

  const std::size_t chain = chain_of(op);
  const NodeHandle prev = last_op_[chain];
  if (prev != kNone) {
    out.push_back(EdgeDesc{node(prev).pool_id, id, kAnnoPo});
  }
  last_op_[chain] = h;
  if (rules().store_chain && op.is_store()) {
    // Store-chain po edge (TSO): order this store after the processor's
    // previous store.  When that store is the chain predecessor the chain
    // edge above already covers the pair (and the checker expects exactly
    // one edge then).
    const NodeHandle prev_st = last_st_[op.proc];
    if (prev_st != kNone && prev_st != prev) {
      out.push_back(EdgeDesc{node(prev_st).pool_id, id, kAnnoPo});
    }
    last_st_[op.proc] = h;
  }
  peak_live_ = std::max(peak_live_, live_nodes());
  return h;
}

void Observer::on_serialized(NodeHandle h, std::vector<Symbol>& out) {
  Node& n = node(h);
  SCV_ASSERT(n.op.is_store() && !n.serialized);
  n.serialized = true;
  mark_touched(n.op.proc);  // the flag is visible via n's chain head record
  changed_ = true;
  const BlockId b = n.op.block;
  const NodeHandle tail = sto_tail_[b];
  if (tail != kNone) {
    Node& t = node(tail);
    out.push_back(EdgeDesc{t.pool_id, n.pool_id, kAnnoSto});
    t.sto_succ = h;
    n.sto_pred = tail;
    // Constraint 5(a): the last load per processor inheriting from the tail
    // now owes — and immediately receives — a forced edge to h.
    for (std::size_t p = 0; p < procs_; ++p) {
      const NodeHandle j = t.pending_ld[p];
      if (j != kNone) {
        out.push_back(EdgeDesc{node(j).pool_id, n.pool_id, kAnnoForced});
        node(j).pending_for = kNone;
        t.pending_ld[p] = kNone;
      }
    }
  } else {
    // First store of the block in ST order: discharge the ⊥-load
    // obligations (constraint 5(b)).
    SCV_ASSERT(root_[b] == kNone && !root_gone_[b]);
    root_[b] = h;
    for (std::size_t p = 0; p < procs_; ++p) {
      const NodeHandle j = pending_bottom_[b][p];
      if (j != kNone) {
        out.push_back(EdgeDesc{node(j).pool_id, n.pool_id, kAnnoForced});
        node(j).bottom_pending = false;
        pending_bottom_[b][p] = kNone;
        mark_touched(p);  // pending-⊥ anchor discharged
      }
    }
  }
  sto_tail_[b] = h;
}

void Observer::apply_tracking(const Transition& t, NodeHandle store_node,
                              std::vector<Symbol>& out) {
  if (store_node != kNone) {
    const NodeHandle old = tracker_.at(t.loc);
    if (old != kNone) {
      --node(old).copies;
      mark_touched(node(old).op.proc);
    }
    tracker_.on_store(t.loc, store_node);
    ++node(store_node).copies;
    mark_touched(node(store_node).op.proc);
    changed_ = true;
    if (cfg_.location_mirrored) {
      out.push_back(AddId{node(store_node).pool_id, loc_id(t.loc)});
    }
  }
  if (t.copies.empty()) return;

  // Stage sources first: entries apply simultaneously over the pre-copy
  // contents (the store stamp above, if any, is visible to them — a ST may
  // land in two locations at once, cf. Lazy Caching).
  NodeHandle staged[16];
  SCV_ASSERT(t.copies.size() <= 16);
  for (std::size_t i = 0; i < t.copies.size(); ++i) {
    staged[i] = t.copies[i].src == kClearSrc ? kNone
                                             : tracker_.at(t.copies[i].src);
  }
  for (std::size_t i = 0; i < t.copies.size(); ++i) {
    const NodeHandle old = tracker_.at(t.copies[i].dst);
    if (old != kNone) {
      --node(old).copies;
      mark_touched(node(old).op.proc);
    }
    if (staged[i] != kNone) {
      ++node(staged[i]).copies;
      mark_touched(node(staged[i]).op.proc);
    }
    // A copy onto a location already tracking the same store leaves the
    // tracker and the copy counts as they were.
    if (staged[i] != old) changed_ = true;
  }
  tracker_.on_copies({t.copies.begin(), t.copies.size()});
  if (cfg_.location_mirrored) {
    for (std::size_t i = 0; i < t.copies.size(); ++i) {
      if (staged[i] != kNone) {
        out.push_back(
            AddId{node(staged[i]).pool_id, loc_id(t.copies[i].dst)});
      } else {
        // The destination no longer tracks any store: release the alias so
        // the checker's ID bindings mirror the tracker exactly.
        out.push_back(AddId{null_id(), loc_id(t.copies[i].dst)});
      }
    }
  }
}

ObserverStatus Observer::step(const Transition& t,
                              std::span<const std::uint8_t> post_state,
                              std::vector<Symbol>& out) {
  touched_ = 0;
  changed_ = false;
  const Action& a = t.action;

  if (a.kind == Action::Kind::Store) {
    const NodeHandle h = emit_op_node(a.op, out);
    if (h == kNone) {
      return fail(ObserverStatus::BandwidthExceeded,
                  "ID pool exhausted on " + protocol_->action_name(a));
    }
    apply_tracking(t, h, out);
    if (real_time_order_) on_serialized(h, out);
    retire_pass(post_state, out);
    return ObserverStatus::Ok;
  }

  if (a.kind == Action::Kind::Load) {
    const NodeHandle src = tracker_.at(t.loc);
    const NodeHandle h = emit_op_node(a.op, out);
    if (h == kNone) {
      return fail(ObserverStatus::BandwidthExceeded,
                  "ID pool exhausted on " + protocol_->action_name(a));
    }
    const ProcId p = a.op.proc;
    const BlockId b = a.op.block;
    if (a.op.value != kBottom) {
      if (src == kNone) {
        return fail(ObserverStatus::TrackingInconsistent,
                    "load " + protocol_->action_name(a) +
                        " reads a location tracking no store");
      }
      const Node& s = node(src);
      if (!s.op.is_store() || s.op.block != b || s.op.value != a.op.value) {
        return fail(ObserverStatus::TrackingInconsistent,
                    "load " + protocol_->action_name(a) +
                        " disagrees with the tracked store " +
                        to_string(s.op));
      }
      out.push_back(EdgeDesc{s.pool_id, node(h).pool_id, kAnnoInh});
      if (node(src).sto_succ == kGoneSucc) {
        return fail(ObserverStatus::TrackingInconsistent,
                    "load inherits from a store whose ST-order successor "
                    "was retired");
      }
      if (node(src).sto_succ != kNone) {
        out.push_back(EdgeDesc{node(h).pool_id,
                               node(node(src).sto_succ).pool_id,
                               kAnnoForced});
      } else {
        const NodeHandle old = node(src).pending_ld[p];
        if (old != kNone) node(old).pending_for = kNone;
        node(src).pending_ld[p] = h;
        node(h).pending_for = src;
      }
    } else {
      if (src != kNone) {
        return fail(ObserverStatus::TrackingInconsistent,
                    "load returned bottom from a location tracking " +
                        to_string(node(src).op));
      }
      if (root_[b] != kNone) {
        out.push_back(
            EdgeDesc{node(h).pool_id, node(root_[b]).pool_id, kAnnoForced});
      } else if (root_gone_[b]) {
        return fail(ObserverStatus::TrackingInconsistent,
                    "bottom-load after the first store of its block was "
                    "retired (could_load_bottom hook is inconsistent)");
      } else {
        const NodeHandle old = pending_bottom_[b][p];
        if (old != kNone) node(old).bottom_pending = false;
        pending_bottom_[b][p] = h;
        node(h).bottom_pending = true;
        mark_touched(p);  // pending-⊥ anchor moved
      }
    }
    apply_tracking(t, kNone, out);
    retire_pass(post_state, out);
    return ObserverStatus::Ok;
  }

  // Internal action: serialization decisions read the pre-copy tracker.
  NodeHandle serialized = kNone;
  if (!real_time_order_ && t.serialize_loc >= 0) {
    serialized = tracker_.at(static_cast<LocId>(t.serialize_loc));
    if (serialized == kNone) {
      return fail(ObserverStatus::TrackingInconsistent,
                  "serialize_loc names a location tracking no store");
    }
  }
  apply_tracking(t, kNone, out);
  if (serialized != kNone) on_serialized(serialized, out);
  retire_pass(post_state, out);
  return ObserverStatus::Ok;
}

bool Observer::must_hold(NodeHandle h, const bool* bottom_loadable) const {
  const Node& n = node(h);
  if (last_op_[chain_of(n.op)] == h) return true;  // program-order tail
  if (n.op.is_store()) {
    // Store-chain tail (TSO): the next store-chain po edge leaves from
    // here, so the node must stay addressable until a newer store arrives.
    if (rules().store_chain && last_st_[n.op.proc] == h) return true;
    if (n.copies > 0) return true;     // inh-active
    if (!n.serialized) return true;    // awaiting its ST-order position
    const BlockId b = n.op.block;
    if (sto_tail_[b] == h) return true;  // next STo edge leaves from here
    if (root_[b] == h && bottom_loadable[b]) return true;  // ⊥ target
    // Forced-target: loads may still inherit from the predecessor and owe
    // this node a forced edge.
    if (n.sto_pred != kNone && node(n.sto_pred).copies > 0) return true;
    return false;
  }
  return n.pending_for != kNone || n.bottom_pending;
}

void Observer::retire(NodeHandle h, std::vector<Symbol>& out) {
  Node& n = node(h);
  mark_touched(n.op.proc);  // live-node count drops
  changed_ = true;
  // Announce the retirement: rebinding the node's ID to the null ID unbinds
  // it, retiring the node in the checker with edge contraction.  (In
  // location-mirrored mode the pool ID is the node's only remaining alias:
  // location aliases are rebound on overwrite and released on clears.)
  out.push_back(AddId{null_id(), n.pool_id});
  if (n.op.is_store()) {
    const BlockId b = n.op.block;
    if (root_[b] == h) {
      root_[b] = kNone;
      root_gone_[b] = true;
    }
    SCV_ASSERT(sto_tail_[b] != h);
    SCV_ASSERT(!rules().store_chain || last_st_[n.op.proc] != h);
  }
  for (std::uint64_t m = live_mask() & ~(1ULL << (h - 1)); m != 0;
       m &= m - 1) {
    Node& o = nodes_[std::countr_zero(m)];
    if (o.sto_succ == h) o.sto_succ = kGoneSucc;
    if (o.sto_pred == h) o.sto_pred = kNone;
    for (auto& pl : o.pending_ld) {
      if (pl == h) pl = kNone;
    }
    if (o.pending_for == h) o.pending_for = kNone;
  }
  free_pool_id(n.pool_id);
  n = Node{};
}

void Observer::retire_pass(std::span<const std::uint8_t> post_state,
                           std::vector<Symbol>& out) {
  bool bottom_loadable[kMaxObsBlocks] = {};
  for (std::size_t b = 0; b < blocks_; ++b) {
    bottom_loadable[b] =
        protocol_->could_load_bottom(post_state, static_cast<BlockId>(b));
  }
  bool changed = true;
  while (changed) {
    changed = false;
    // A pass retires only the node it visits, so every later node of the
    // mask taken here is still live when the pass reaches it.
    for (std::uint64_t m = live_mask(); m != 0; m &= m - 1) {
      const auto h = static_cast<NodeHandle>(std::countr_zero(m) + 1);
      if (!must_hold(h, bottom_loadable)) {
        retire(h, out);
        changed = true;
      }
    }
  }
}

void Observer::serialize(ByteWriter& w, std::vector<GraphId>* id_canon,
                         const ProcPerm* perm) const {
  // Permutation-aware indirection.  The serialization of the π-permuted
  // observer differs from ours only in *where* the anchor arrays are read
  // (the permuted observer's chain c holds our chain π⁻¹(c), its location l
  // holds our location permute_loc⁻¹(l)) and in the node records' written
  // op.proc (π of ours).  Handles are untouched by permute_procs, so the
  // discovery order — and therefore every canonical number — matches a
  // permute-then-serialize byte for byte.
  const bool permuted = perm != nullptr && !perm->is_identity();
  ProcPerm inv;
  LocId inv_loc[kMaxLocations + 1];
  if (permuted) {
    SCV_EXPECTS(perm->n == procs_);
    inv = perm->inverse();
    for (std::size_t m = 0; m < tracker_.locations(); ++m) {
      inv_loc[protocol_->permute_loc(static_cast<LocId>(m), *perm)] =
          static_cast<LocId>(m);
    }
  }
  const auto src_loc = [&](std::size_t l) -> std::size_t {
    return permuted ? inv_loc[l] : l;
  };
  const auto src_proc = [&](std::size_t p) -> std::size_t {
    return permuted ? inv.to[p] : p;
  };
  const auto src_chain = [&](std::size_t c) -> std::size_t {
    return permuted ? rules().chain_image(c, inv.to, blocks_) : c;
  };
  const auto out_proc = [&](ProcId p) -> std::uint8_t {
    return permuted ? perm->to[p] : p;
  };

  // --- Phase 1: canonical discovery order over live nodes.  Every live
  // node is reachable from a fixed-order anchor scan (tracker locations,
  // program-order tails, ST-order tails, roots, pending bottom-loads)
  // followed by a reference closure; naming nodes by discovery position
  // erases the incidental handle/ID permutation a particular history
  // produced — a symmetry reduction on the product state space.
  // Handles range over 1..pool_count_ <= kMaxBandwidth, so fixed stack
  // arrays keep this per-successor hot path allocation-free.
  std::uint16_t canon[kMaxBandwidth + 1] = {};  // handle -> 1-based
  NodeHandle order[kMaxBandwidth];
  std::size_t order_n = 0;
  const auto visit = [&](NodeHandle h) {
    if (h == kNone || h == kGoneSucc) return;
    if (canon[h] != 0) return;
    canon[h] = static_cast<std::uint16_t>(order_n + 1);
    order[order_n++] = h;
  };
  for (std::size_t l = 0; l < tracker_.locations(); ++l) {
    visit(tracker_.at(static_cast<LocId>(src_loc(l))));
  }
  for (std::size_t c = 0; c < chain_count(); ++c) {
    visit(last_op_[src_chain(c)]);
  }
  if (rules().store_chain) {  // TSO only: SC anchor order stays byte-stable
    for (std::size_t p = 0; p < procs_; ++p) {
      visit(last_st_[src_proc(p)]);
    }
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    visit(sto_tail_[b]);
    visit(root_[b]);
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    for (std::size_t p = 0; p < procs_; ++p) {
      visit(pending_bottom_[b][src_proc(p)]);
    }
  }
  for (std::size_t i = 0; i < order_n; ++i) {  // closure (order grows)
    const Node& n = node(order[i]);
    visit(n.sto_succ);
    visit(n.sto_pred);
    for (std::size_t p = 0; p < procs_; ++p) {
      visit(n.pending_ld[src_proc(p)]);
    }
    visit(n.pending_for);
  }
  SCV_ASSERT(order_n == live_nodes());  // liveness implies reachability

  const auto enc = [&](NodeHandle h) -> std::uint64_t {
    if (h == kNone) return 0;
    if (h == kGoneSucc) return order_n + 1;
    return canon[h];
  };

  // --- Phase 2: serialize in canonical order.  Raw handles, pool IDs and
  // the free mask are naming details and are deliberately excluded.
  // Encoded into stack scratch and bulk-appended: this runs once per
  // explored transition, where ByteWriter's per-field vector bookkeeping
  // is measurable.  Bound: locations (<= 2 B uvar each) + chains + block
  // anchors + nodes at <= 11 + 2*kMaxObsProcs bytes each.
  std::uint8_t scratch[2 * (kMaxLocations + 1) +
                       2 * kMaxObsProcs * (kMaxObsBlocks + 1) +
                       kMaxObsBlocks * (5 + 2 * kMaxObsProcs) + 2 +
                       kMaxBandwidth * (16 + 2 * kMaxObsProcs)];
  ScratchWriter sw(scratch, sizeof scratch);
  for (std::size_t l = 0; l < tracker_.locations(); ++l) {
    sw.uvar(enc(tracker_.at(static_cast<LocId>(src_loc(l)))));
  }
  for (std::size_t c = 0; c < chain_count(); ++c) {
    sw.uvar(enc(last_op_[src_chain(c)]));
  }
  if (rules().store_chain) {  // TSO only: SC encoding stays byte-stable
    for (std::size_t p = 0; p < procs_; ++p) {
      sw.uvar(enc(last_st_[src_proc(p)]));
    }
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    sw.uvar(enc(sto_tail_[b]));
    sw.uvar(enc(root_[b]));
    sw.u8(root_gone_[b] ? 1 : 0);
    for (std::size_t p = 0; p < procs_; ++p) {
      sw.uvar(enc(pending_bottom_[b][src_proc(p)]));
    }
  }
  sw.uvar(order_n);
  for (std::size_t i = 0; i < order_n; ++i) {
    const Node& n = node(order[i]);
    sw.u8(static_cast<std::uint8_t>(n.op.kind));
    sw.u8(out_proc(n.op.proc));
    sw.u8(n.op.block);
    sw.u8(n.op.value);
    sw.uvar(n.copies);
    sw.u8(n.serialized ? 1 : 0);
    sw.uvar(enc(n.sto_succ));
    sw.uvar(enc(n.sto_pred));
    for (std::size_t p = 0; p < procs_; ++p) {
      sw.uvar(enc(n.pending_ld[src_proc(p)]));
    }
    sw.uvar(enc(n.pending_for));
    sw.u8(n.bottom_pending ? 1 : 0);
  }
  sw.flush(w);

  if (id_canon != nullptr) {
    id_canon->assign(k_ + 2, 0);
    for (std::size_t i = 0; i < order_n; ++i) {
      (*id_canon)[node(order[i]).pool_id] =
          static_cast<GraphId>(canon[order[i]]);
    }
    if (cfg_.location_mirrored) {
      // Location-alias IDs canonicalize to their node's number as well.
      // (ID l+1 of the permuted observer aliases its location l, which
      // holds our entry at permute_loc⁻¹(l).)
      for (std::size_t l = 0; l < tracker_.locations(); ++l) {
        const NodeHandle h = tracker_.at(static_cast<LocId>(src_loc(l)));
        if (h != kNone) {
          (*id_canon)[l + 1] = static_cast<GraphId>(canon[h]);
        }
      }
    }
  }
}

std::size_t Observer::state_bytes() const {
  ByteWriter w;
  serialize(w);
  return w.data().size();
}

void Observer::snapshot(ByteWriter& w) const {
  // Raw handles and pool IDs, then a live-node mask (bit h-1 for handle h)
  // and records for live nodes only: free handles hold default nodes, so
  // the mask is all restore() needs to rebuild them.  Encoded into stack
  // scratch and bulk-appended like serialize(); every varint below is a
  // uint32 or smaller (<= 5 bytes) except peak_live_ and the mask.
  std::uint8_t scratch[5 * (kMaxLocations + 1) + 8 + 2 * 10 +
                       5 * kMaxObsProcs * (kMaxObsBlocks + 1) +
                       kMaxObsBlocks * (11 + 5 * kMaxObsProcs) +
                       kMaxBandwidth * (31 + 5 * kMaxObsProcs)];
  ScratchWriter sw(scratch, sizeof scratch);
  for (std::size_t l = 0; l < tracker_.locations(); ++l) {
    sw.uvar(tracker_.at(static_cast<LocId>(l)));
  }
  sw.u64(pool_free_);
  sw.uvar(peak_live_);
  for (std::size_t c = 0; c < chain_count(); ++c) sw.uvar(last_op_[c]);
  if (rules().store_chain) {  // TSO only: SC encoding stays byte-stable
    for (std::size_t p = 0; p < procs_; ++p) sw.uvar(last_st_[p]);
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    sw.uvar(sto_tail_[b]);
    sw.uvar(root_[b]);
    sw.u8(root_gone_[b] ? 1 : 0);
    for (std::size_t p = 0; p < procs_; ++p) {
      sw.uvar(pending_bottom_[b][p]);
    }
  }
  const std::uint64_t live = live_mask();
  sw.uvar(live);
  for (std::uint64_t m = live; m != 0; m &= m - 1) {
    const Node& n = nodes_[std::countr_zero(m)];
    sw.u8(static_cast<std::uint8_t>(n.op.kind));
    sw.u8(n.op.proc);
    sw.u8(n.op.block);
    sw.u8(n.op.value);
    sw.uvar(n.pool_id);
    sw.uvar(n.copies);
    sw.u8(n.serialized ? 1 : 0);
    sw.uvar(n.sto_succ);
    sw.uvar(n.sto_pred);
    for (std::size_t p = 0; p < procs_; ++p) sw.uvar(n.pending_ld[p]);
    sw.uvar(n.pending_for);
    sw.u8(n.bottom_pending ? 1 : 0);
  }
  sw.flush(w);
}

void Observer::permute_procs(const ProcPerm& perm) {
  SCV_EXPECTS(perm.n == procs_);
  if (perm.is_identity()) return;
  touched_ = ~0u;  // signatures relocate wholesale; the step mask is void
  changed_ = true;

  // Tracker entries relocate with their storage location.
  permute_scratch_.assign(tracker_.locations(), StIndexTracker::kNoStore);
  for (std::size_t l = 0; l < tracker_.locations(); ++l) {
    const LocId dst = protocol_->permute_loc(static_cast<LocId>(l), perm);
    permute_scratch_[dst] = tracker_.at(static_cast<LocId>(l));
  }
  tracker_.assign(permute_scratch_);
  permute_scratch_.clear();

  // Program-order chain anchors move to their renamed processor.
  NodeHandle chains[kMaxObsProcs * kMaxObsBlocks] = {};
  for (std::size_t c = 0; c < chain_count(); ++c) {
    chains[rules().chain_image(c, perm.to, blocks_)] = last_op_[c];
  }
  for (std::size_t c = 0; c < chain_count(); ++c) last_op_[c] = chains[c];

  // Store-chain tails move with their processor (all-kNone no-op outside
  // TSO).
  {
    NodeHandle st[kMaxObsProcs] = {};
    for (std::size_t p = 0; p < procs_; ++p) st[perm.to[p]] = last_st_[p];
    for (std::size_t p = 0; p < procs_; ++p) last_st_[p] = st[p];
  }

  // Pending ⊥-load anchors are indexed by processor per block.
  for (std::size_t b = 0; b < blocks_; ++b) {
    NodeHandle row[kMaxObsProcs] = {};
    for (std::size_t p = 0; p < procs_; ++p) {
      row[perm.to[p]] = pending_bottom_[b][p];
    }
    for (std::size_t p = 0; p < procs_; ++p) {
      pending_bottom_[b][p] = row[p];
    }
  }

  // Node operations take the renamed processor; handles, pool IDs and the
  // free mask stay put so the descriptor-ID assignment is unchanged.
  for (std::uint64_t m = live_mask(); m != 0; m &= m - 1) {
    Node& n = nodes_[std::countr_zero(m)];
    n.op.proc = perm(n.op.proc);
    NodeHandle pl[kMaxObsProcs] = {};
    for (std::size_t p = 0; p < procs_; ++p) {
      pl[perm.to[p]] = n.pending_ld[p];
    }
    for (std::size_t p = 0; p < procs_; ++p) n.pending_ld[p] = pl[p];
  }
}

void Observer::proc_signature(ProcId p, ByteWriter& w) const {
  const auto write_chain = [&](std::size_t c) {
    const NodeHandle h = last_op_[c];
    if (h == kNone) {
      w.u8(0);
      return;
    }
    const Node& n = node(h);
    w.u8(1);
    w.u8(static_cast<std::uint8_t>(n.op.kind));
    w.u8(n.op.block);
    w.u8(n.op.value);
    w.u8(n.serialized ? 1 : 0);
    w.u8(n.bottom_pending ? 1 : 0);
    w.uvar(n.copies);
  };
  for (std::size_t i = 0; i < rules().chains_per_proc(blocks_); ++i) {
    write_chain(rules().chain_of(p, i, blocks_));
  }
  if (rules().store_chain) {  // store-tail record, TSO only
    const NodeHandle h = last_st_[p];
    if (h == kNone) {
      w.u8(0);
    } else {
      const Node& n = node(h);
      w.u8(1);
      w.u8(n.op.block);
      w.u8(n.op.value);
      w.u8(n.serialized ? 1 : 0);
    }
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    w.u8(pending_bottom_[b][p] != kNone ? 1 : 0);
  }
  std::uint32_t mine = 0;
  for (std::uint64_t m = live_mask(); m != 0; m &= m - 1) {
    if (nodes_[std::countr_zero(m)].op.proc == p) ++mine;
  }
  w.uvar(mine);
}

void Observer::restore(ByteReader& r) {
  const std::uint64_t was_live = live_mask();
  tracker_.restore(r);
  pool_free_ = r.u64();
  peak_live_ = static_cast<std::size_t>(r.uvar());
  for (std::size_t c = 0; c < chain_count(); ++c) {
    last_op_[c] = static_cast<NodeHandle>(r.uvar());
  }
  if (rules().store_chain) {
    for (std::size_t p = 0; p < procs_; ++p) {
      last_st_[p] = static_cast<NodeHandle>(r.uvar());
    }
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    sto_tail_[b] = static_cast<NodeHandle>(r.uvar());
    root_[b] = static_cast<NodeHandle>(r.uvar());
    root_gone_[b] = r.u8() != 0;
    for (std::size_t p = 0; p < procs_; ++p) {
      pending_bottom_[b][p] = static_cast<NodeHandle>(r.uvar());
    }
  }
  const std::uint64_t live = r.uvar();
  SCV_EXPECTS(live == live_mask());
  // Free handles always hold a default Node (retire() resets them), so only
  // the handles leaving the live set need clearing.
  for (std::uint64_t gone = was_live & ~live; gone != 0; gone &= gone - 1) {
    nodes_[std::countr_zero(gone)] = Node{};
  }
  for (std::uint64_t m = live; m != 0; m &= m - 1) {
    Node& n = nodes_[std::countr_zero(m)];
    n = Node{};
    n.op.kind = static_cast<OpKind>(r.u8());
    n.op.proc = r.u8();
    n.op.block = r.u8();
    n.op.value = r.u8();
    n.pool_id = static_cast<GraphId>(r.uvar());
    n.copies = static_cast<std::uint32_t>(r.uvar());
    n.serialized = r.u8() != 0;
    n.sto_succ = static_cast<NodeHandle>(r.uvar());
    n.sto_pred = static_cast<NodeHandle>(r.uvar());
    for (std::size_t p = 0; p < procs_; ++p) {
      n.pending_ld[p] = static_cast<NodeHandle>(r.uvar());
    }
    n.pending_for = static_cast<NodeHandle>(r.uvar());
    n.bottom_pending = r.u8() != 0;
  }
  touched_ = ~0u;  // arbitrary new state: no step to be relative to
  changed_ = true;
  error_.clear();
}

}  // namespace scv
