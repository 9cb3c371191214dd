#include "protocol/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scv {

std::size_t pick_walk_transition(std::span<const Transition> enabled,
                                 Xoshiro256& rng) {
  SCV_EXPECTS(!enabled.empty());
  constexpr unsigned kMemoryOpPercent = 60;
  const auto ops = static_cast<std::size_t>(
      std::count_if(enabled.begin(), enabled.end(), [](const Transition& t) {
        return t.action.is_memory_op();
      }));
  if (ops == 0 || !rng.chance(kMemoryOpPercent, 100)) {
    return rng.below(enabled.size());
  }
  std::size_t k = rng.below(ops);  // the k-th enabled LD/ST, in order
  for (std::size_t i = 0;; ++i) {
    if (enabled[i].action.is_memory_op() && k-- == 0) return i;
  }
}

void Protocol::validate_params(const Params& p) {
  SCV_EXPECTS(p.procs >= 1 && p.blocks >= 1 && p.values >= 1);
  SCV_EXPECTS(p.locations >= 1);
  SCV_EXPECTS(p.locations <= kMaxLocations);
}

std::string Protocol::action_name(const Action& a) const {
  if (a.is_memory_op()) return to_string(a.op);
  std::ostringstream os;
  os << "Internal(" << static_cast<int>(a.internal_id) << ","
     << static_cast<int>(a.arg0) << "," << static_cast<int>(a.arg1) << ")";
  return os.str();
}

void Protocol::transition_effects(const Transition& t,
                                  TransitionEffects& out) const {
  out.reads.clear();
  out.writes.clear();
  out.clears.clear();
  const std::size_t locations = params().locations;
  if (t.action.kind == Action::Kind::Load && t.loc < locations) {
    out.reads.push_back(t.loc);
  }
  if (t.action.kind == Action::Kind::Store && t.loc < locations) {
    out.writes.push_back(t.loc);
  }
  if (t.serialize_loc >= 0 &&
      static_cast<std::size_t>(t.serialize_loc) < locations) {
    out.reads.push_back(static_cast<LocId>(t.serialize_loc));
  }
  for (const CopyEntry& c : t.copies) {
    if (c.src == kClearSrc) {
      if (c.dst < locations) out.clears.push_back(c.dst);
    } else {
      if (c.src < locations) out.reads.push_back(c.src);
      if (c.dst < locations) out.writes.push_back(c.dst);
    }
  }
  out.statically_visible =
      t.action.is_memory_op() || t.serialize_loc >= 0 || !t.copies.empty();
}

void Protocol::permute_procs(std::span<std::uint8_t> /*state*/,
                             const ProcPerm& /*perm*/) const {
  // Benign default (state treated as processor-invariant).  Correct only
  // for protocols whose state holds no per-processor data; a protocol that
  // declares symmetry but forgets this override fails the R6 commutation
  // check and the model checker's self-check, which fall back gracefully
  // instead of crashing here.
}

LocId Protocol::permute_loc(LocId loc, const ProcPerm& /*perm*/) const {
  return loc;
}

Action Protocol::permute_action(const Action& a, const ProcPerm& perm) const {
  Action out = a;
  if (a.is_memory_op()) out.op.proc = perm(a.op.proc);
  return out;
}

void Protocol::proc_signature(std::span<const std::uint8_t> /*state*/,
                              ProcId /*p*/, ByteWriter& /*w*/) const {}

std::uint32_t Protocol::touched_procs(std::span<const std::uint8_t> /*state*/,
                                      const Transition& /*t*/) const {
  return ~0u;
}

Transition Protocol::permute_transition(const Transition& t,
                                        const ProcPerm& perm) const {
  Transition out;
  out.action = permute_action(t.action, perm);
  out.loc = t.action.is_memory_op() ? permute_loc(t.loc, perm) : t.loc;
  for (const CopyEntry& c : t.copies) {
    out.copies.push_back(CopyEntry{
        permute_loc(c.dst, perm),
        c.src == kClearSrc ? kClearSrc : permute_loc(c.src, perm)});
  }
  if (t.serialize_loc >= 0) {
    out.serialize_loc = static_cast<std::int16_t>(
        permute_loc(static_cast<LocId>(t.serialize_loc), perm));
  }
  return out;
}

PorFootprint Protocol::por_footprint(const Transition& t) const {
  PorFootprint fp;  // everything-conflicts default
  if (!t.action.is_memory_op() || t.serialize_loc >= 0 ||
      !t.copies.empty()) {
    return fp;
  }
  // A plain LD/ST with no copies and no serialization hint touches its
  // processor's view of its block; under real-time ST order a store also
  // claims the block's serialization resource (its trace position *is* the
  // ST order slot).  This is honest for every bundled protocol: transitions
  // whose effects reach further (bus snoops, drains) carry copies or are
  // internal, so they keep the everything-conflicts default.
  fp.procs = 1u << t.action.op.proc;
  fp.blocks = 1u << t.action.op.block;
  fp.serializes =
      (t.action.kind == Action::Kind::Store && real_time_st_order())
          ? 1u << t.action.op.block
          : 0u;
  return fp;
}

bool Protocol::independent(const Transition& t, const Transition& u) const {
  return !por_conflict(por_footprint(t), por_footprint(u));
}

void Protocol::permute_proc_chunks(std::span<std::uint8_t> state,
                                   std::size_t offset,
                                   std::size_t chunk_bytes,
                                   const ProcPerm& perm) {
  constexpr std::size_t kMaxChunk = 64;
  SCV_EXPECTS(chunk_bytes <= kMaxChunk);
  if (chunk_bytes == 0) return;
  const ProcPerm inv = perm.inverse();
  auto chunk = [&](std::uint8_t p) {
    return state.subspan(offset + p * chunk_bytes, chunk_bytes);
  };
  bool done[ProcPerm::kMax] = {};
  std::uint8_t saved[kMaxChunk];
  for (std::uint8_t start = 0; start < perm.n; ++start) {
    if (done[start] || perm.to[start] == start) continue;
    // Rotate the cycle through `start`: new[i] = old[perm⁻¹(i)], walking the
    // cycle backwards so each old chunk is read before it is overwritten.
    std::memcpy(saved, chunk(start).data(), chunk_bytes);
    std::uint8_t i = start;
    for (;;) {
      const std::uint8_t j = inv.to[i];
      done[i] = true;
      if (j == start) {
        std::memcpy(chunk(i).data(), saved, chunk_bytes);
        break;
      }
      std::memcpy(chunk(i).data(), chunk(j).data(), chunk_bytes);
      i = j;
    }
  }
}

}  // namespace scv
