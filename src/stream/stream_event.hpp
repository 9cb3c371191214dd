// Fixed-size wire events for the streaming verification service.
//
// Ring slots must be trivially copyable and small, so descriptor symbols
// travel packed: a Symbol is a 3-way variant whose payloads all fit a few
// bytes (IDs are bounded by kMaxBandwidth + 1, operation labels by the
// uint8 Proc/Block/Value domains), flattened here into a 10-byte POD.  The
// per-stream checker configuration rides the same way in the Open event.
// pack/unpack are exact inverses for every value the checker could accept —
// IDs keep their full GraphId width so an out-of-range ID arrives at the
// checker out of range (and is rejected there), rather than being silently
// truncated into a *valid* one by the transport.
#pragma once

#include <cstdint>
#include <vector>

#include "checker/sc_checker.hpp"
#include "descriptor/symbol.hpp"

namespace scv {

/// Flattened Symbol.  No default member initializers: this lives in the
/// StreamEvent union, which must stay trivially default-constructible.
struct PackedSymbol {
  GraphId a;          ///< node id / edge from / add-ID existing
  GraphId b;          ///< edge to / add-ID added
  std::uint8_t tag;   ///< 0 bare node, 1 labeled node, 2 edge, 3 add-ID
  std::uint8_t anno;  ///< edge annotation bits
  std::uint8_t kind;  ///< OpKind (labeled node)
  std::uint8_t proc;
  std::uint8_t block;
  std::uint8_t value;
};

[[nodiscard]] inline PackedSymbol pack_symbol(const Symbol& sym) noexcept {
  PackedSymbol p{};
  if (const auto* n = std::get_if<NodeDesc>(&sym)) {
    p.tag = n->label.has_value() ? 1 : 0;
    p.a = n->id;
    if (n->label.has_value()) {
      p.kind = static_cast<std::uint8_t>(n->label->kind);
      p.proc = n->label->proc;
      p.block = n->label->block;
      p.value = n->label->value;
    }
  } else if (const auto* e = std::get_if<EdgeDesc>(&sym)) {
    p.tag = 2;
    p.a = e->from;
    p.b = e->to;
    p.anno = e->anno;
  } else {
    const auto& a = std::get<AddId>(sym);
    p.tag = 3;
    p.a = a.existing;
    p.b = a.added;
  }
  return p;
}

/// Calls `make` with the descriptor alternative `p` packs (a NodeDesc,
/// EdgeDesc or AddId value) and returns its result.
template <typename Make>
decltype(auto) visit_unpacked(const PackedSymbol& p, Make&& make) {
  switch (p.tag) {
    case 0:
      return make(NodeDesc{p.a, std::nullopt});
    case 1: {
      Operation op;
      op.kind = static_cast<OpKind>(p.kind & 1);
      op.proc = p.proc;
      op.block = p.block;
      op.value = p.value;
      return make(NodeDesc{p.a, op});
    }
    case 2:
      return make(EdgeDesc{p.a, p.b, p.anno});
    default:
      return make(AddId{p.a, p.b});
  }
}

[[nodiscard]] inline Symbol unpack_symbol(const PackedSymbol& p) noexcept {
  return visit_unpacked(p, [](const auto& alt) -> Symbol { return alt; });
}

/// Appends the symbol `p` packs to `log`, built in place: copying a
/// temporary Symbol into the log reloads it whole right after it was
/// stored piecewise, a store-forwarding stall on every symbol.
inline void append_unpacked(const PackedSymbol& p, std::vector<Symbol>& log) {
  visit_unpacked(p, [&](const auto& alt) { log.emplace_back(alt); });
}

/// Flattened ScCheckerConfig for the Open event.  The exploration-only
/// preemption bound is not carried — it bounds a model checker's schedule
/// enumeration and has no meaning for a single observed stream.
struct PackedConfig {
  std::uint8_t k;
  std::uint8_t procs;
  std::uint8_t blocks;
  std::uint8_t values;
  std::uint8_t model_kind;  ///< ModelKind
};

[[nodiscard]] inline PackedConfig pack_config(
    const ScCheckerConfig& cfg) noexcept {
  PackedConfig p{};
  p.k = static_cast<std::uint8_t>(cfg.k);
  p.procs = static_cast<std::uint8_t>(cfg.procs);
  p.blocks = static_cast<std::uint8_t>(cfg.blocks);
  p.values = static_cast<std::uint8_t>(cfg.values);
  p.model_kind = static_cast<std::uint8_t>(cfg.model.kind);
  return p;
}

[[nodiscard]] inline ScCheckerConfig unpack_config(
    const PackedConfig& p) noexcept {
  ScCheckerConfig cfg;
  cfg.k = p.k;
  cfg.procs = p.procs;
  cfg.blocks = p.blocks;
  cfg.values = p.values;
  cfg.model = MemoryModel{};
  if (p.model_kind < kNumModelKinds) {
    cfg.model.kind = static_cast<ModelKind>(p.model_kind);
  } else {
    cfg.k = 0;  // force invalid_reason() to fire instead of guessing a model
  }
  return cfg;
}

/// One ring slot.  16 bytes: stream route + kind + packed payload.
struct StreamEvent {
  enum class Kind : std::uint8_t {
    Open,     ///< payload cfg: start (or restart) stream with this config
    Symbol,   ///< payload sym: one descriptor symbol of the current step
    StepEnd,  ///< step boundary: apply the accumulated batch
    Close,    ///< end of stream: final verdict becomes available
  };

  std::uint32_t stream;
  Kind kind;
  union {
    PackedSymbol sym;
    PackedConfig cfg;
  } u;
};

static_assert(sizeof(StreamEvent) <= 16, "ring slots should stay compact");

}  // namespace scv
