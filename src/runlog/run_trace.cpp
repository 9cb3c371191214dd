#include "runlog/run_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace scv {

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'C', 'V', 'R'};
constexpr std::uint8_t kTagNode = 0;
constexpr std::uint8_t kTagEdge = 1;
constexpr std::uint8_t kTagAddId = 2;

void write_str(ByteWriter& w, const std::string& s) {
  w.uvar(s.size());
  w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

/// Rewrites a version-3 excerpt base (ScChecker's all-slot layout: an
/// in-use byte for each of 64 slots, fixed-width masks) into the live-slot
/// layout ScChecker::try_restore reads.  Purely structural: the chain and
/// block header is copied, the in-use bytes become one mask, and each live
/// record's ID set, adjacency and forced-edge masks turn from u64 into
/// varints.  Field values are left for try_restore to validate.
bool rewrite_v3_base(const ScCheckerConfig& cfg,
                     std::vector<std::uint8_t>& base, std::string& error) {
  constexpr std::size_t kV3Slots = 64;
  const ModelRules rules = cfg.model.rules();
  const std::size_t chains = rules.chain_count(cfg.procs, cfg.blocks);
  const std::size_t header = 1 + 3 * chains +
                             (rules.store_chain ? 3 * cfg.procs : 0) +
                             cfg.blocks * (2 + cfg.procs);
  const auto fail = [&](const char* what) {
    error = std::string("bad version-3 excerpt base: ") + what;
    return false;
  };
  if (base.size() < header) return fail("truncated header");
  TryReader r(std::span<const std::uint8_t>(base).subspan(header));
  ByteWriter records;
  const auto copy_bytes = [&](std::size_t n) {
    std::uint8_t b = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!r.u8(b)) return false;
      records.u8(b);
    }
    return true;
  };
  const auto mask_to_uvar = [&] {
    std::uint64_t mask = 0;
    if (!r.u64(mask)) return false;
    records.uvar(mask);
    return true;
  };
  std::uint64_t used = 0;
  for (std::size_t s = 0; s < kV3Slots; ++s) {
    std::uint8_t in_use = 0;
    if (!r.u8(in_use)) return fail("truncated slot table");
    if (in_use > 1) return fail("bad slot in-use byte");
    if (in_use == 0) continue;
    used |= 1ULL << s;
    // op (4 bytes) | id_set | out | flags + 4 slot refs | pending loads |
    // forced_out
    if (!copy_bytes(4) || !mask_to_uvar() || !mask_to_uvar() ||
        !copy_bytes(5 + cfg.procs) || !mask_to_uvar()) {
      return fail("truncated node record");
    }
  }
  if (!r.done()) return fail("trailing bytes");
  ByteWriter out;
  out.bytes(std::span<const std::uint8_t>(base).first(header));
  out.uvar(used);
  out.bytes(records.data());
  base = std::move(out).take();
  return true;
}

}  // namespace

void write_symbol(ByteWriter& w, const Symbol& sym) {
  if (const auto* n = std::get_if<NodeDesc>(&sym)) {
    w.u8(kTagNode);
    w.uvar(n->id);
    w.u8(n->label.has_value() ? 1 : 0);
    if (n->label.has_value()) {
      w.u8(static_cast<std::uint8_t>(n->label->kind));
      w.u8(n->label->proc);
      w.u8(n->label->block);
      w.u8(n->label->value);
    }
    return;
  }
  if (const auto* e = std::get_if<EdgeDesc>(&sym)) {
    w.u8(kTagEdge);
    w.uvar(e->from);
    w.uvar(e->to);
    w.u8(e->anno);
    return;
  }
  const auto& a = std::get<AddId>(sym);
  w.u8(kTagAddId);
  w.uvar(a.existing);
  w.uvar(a.added);
}

bool read_symbol(TryReader& r, Symbol& sym) {
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return false;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  switch (tag) {
    case kTagNode: {
      std::uint8_t has_label = 0;
      if (!r.uvar(a) || a > 0xffff || !r.u8(has_label) || has_label > 1) {
        return false;
      }
      NodeDesc n;
      n.id = static_cast<GraphId>(a);
      if (has_label != 0) {
        std::uint8_t kind = 0;
        Operation op;
        if (!r.u8(kind) || kind > 1 || !r.u8(op.proc) || !r.u8(op.block) ||
            !r.u8(op.value)) {
          return false;
        }
        op.kind = static_cast<OpKind>(kind);
        n.label = op;
      }
      sym = n;
      return true;
    }
    case kTagEdge: {
      std::uint8_t anno = 0;
      if (!r.uvar(a) || a > 0xffff || !r.uvar(b) || b > 0xffff ||
          !r.u8(anno)) {
        return false;
      }
      sym = EdgeDesc{static_cast<GraphId>(a), static_cast<GraphId>(b), anno};
      return true;
    }
    case kTagAddId: {
      if (!r.uvar(a) || a > 0xffff || !r.uvar(b) || b > 0xffff) return false;
      sym = AddId{static_cast<GraphId>(a), static_cast<GraphId>(b)};
      return true;
    }
    default:
      return false;
  }
}

std::string to_string(RunVerdict v) {
  switch (v) {
    case RunVerdict::Accepted: return "Accepted";
    case RunVerdict::Violation: return "Violation";
    case RunVerdict::BandwidthExceeded: return "BandwidthExceeded";
    case RunVerdict::TrackingInconsistent: return "TrackingInconsistent";
  }
  return "?";
}

std::size_t RunTrace::symbol_count() const noexcept {
  std::size_t n = 0;
  for (const RunStep& s : steps) n += s.symbols.size();
  return n;
}

void write_trace_header(const RunTrace& trace, std::size_t nsteps,
                        ByteWriter& w) {
  w.bytes(kMagic);
  // Full recordings stay on version 2 so the artifact bytes are unchanged;
  // only excerpts (which need the base to replay) use the newest version.
  w.u16(trace.has_base() ? RunTrace::kMaxVersion : RunTrace::kVersion);
  write_str(w, trace.protocol);
  w.uvar(trace.checker.k);
  w.u8(static_cast<std::uint8_t>(trace.checker.procs));
  w.u8(static_cast<std::uint8_t>(trace.checker.blocks));
  w.u8(static_cast<std::uint8_t>(trace.checker.values));
  w.u8(0);  // legacy coherence byte; the model tag carries the model
  write_str(w, to_string(trace.checker.model));
  w.u8(static_cast<std::uint8_t>(trace.verdict));
  write_str(w, trace.reason);
  if (trace.has_base()) {
    w.uvar(trace.dropped_steps);
    w.uvar(trace.base_state.size());
    w.bytes(trace.base_state);
  }
  w.uvar(nsteps);
}

void write_trace_step(const RunStep& step, ByteWriter& w) {
  write_str(w, step.action);
  w.uvar(step.symbols.size());
  for (const Symbol& sym : step.symbols) write_symbol(w, sym);
}

void serialize_run_trace(const RunTrace& trace, ByteWriter& w) {
  write_trace_header(trace, trace.steps.size(), w);
  for (const RunStep& step : trace.steps) write_trace_step(step, w);
}

bool parse_trace_header(TryReader& r, RunTrace& trace, std::uint64_t& nsteps,
                        std::string& error) {
  trace = RunTrace{};
  nsteps = 0;
  const auto fail = [&](const char* what) {
    error = what;
    return false;
  };

  std::uint8_t magic[4] = {};
  for (std::uint8_t& m : magic) {
    if (!r.u8(m)) return fail("truncated header");
  }
  if (!std::equal(std::begin(magic), std::end(magic), std::begin(kMagic))) {
    return fail("bad magic: not a run-trace file");
  }
  std::uint16_t version = 0;
  if (!r.u16(version)) return fail("truncated header");
  if (version < RunTrace::kMinVersion || version > RunTrace::kMaxVersion) {
    error = "unsupported run-trace version " + std::to_string(version) +
            " (expected " + std::to_string(RunTrace::kMinVersion) + ".." +
            std::to_string(RunTrace::kMaxVersion) + ")";
    return false;
  }

  std::uint64_t k = 0;
  std::uint8_t procs = 0;
  std::uint8_t blocks = 0;
  std::uint8_t values = 0;
  std::uint8_t coherence = 0;
  std::uint8_t verdict = 0;
  if (!r.str(trace.protocol) || !r.uvar(k) || !r.u8(procs) ||
      !r.u8(blocks) || !r.u8(values) || !r.u8(coherence)) {
    return fail("truncated header");
  }
  if (coherence > 1) return fail("bad coherence flag");
  // Version 1 predates the model axis: no tag on the wire, the model is SC.
  MemoryModel model{};
  if (version >= 2) {
    std::string model_tag;
    if (!r.str(model_tag)) return fail("truncated header");
    if (!parse_memory_model(model_tag, model)) {
      error = "unknown memory-model tag '" + model_tag + "'";
      return false;
    }
  }
  // The legacy coherence byte (set by writers that predate the model tag's
  // coherence value) folds into the model here and nowhere else.  It can
  // only refine plain sc; next to a tso or bounded-preemption tag it is a
  // contradiction.
  if (coherence != 0) {
    if (model.kind == ModelKind::Tso || model.bounded_preemption()) {
      error = "legacy coherence byte conflicts with model tag '" +
              to_string(model) + "'";
      return false;
    }
    model = MemoryModel::coherence();
  }
  if (!r.u8(verdict) || !r.str(trace.reason)) return fail("truncated header");
  if (verdict > static_cast<std::uint8_t>(RunVerdict::TrackingInconsistent)) {
    return fail("unknown verdict code");
  }
  trace.checker = ScCheckerConfig{static_cast<std::size_t>(k), procs, blocks,
                                  values, model};
  trace.verdict = static_cast<RunVerdict>(verdict);

  if (version >= 3) {
    std::uint64_t base_len = 0;
    if (!r.uvar(trace.dropped_steps) || !r.uvar(base_len)) {
      return fail("truncated excerpt base");
    }
    if (base_len > r.remaining()) return fail("excerpt base exceeds buffer");
    trace.base_state.resize(static_cast<std::size_t>(base_len));
    for (std::uint8_t& b : trace.base_state) {
      if (!r.u8(b)) return fail("truncated excerpt base");
    }
    // Version 3 wrote the checker's all-slot layout; nothing past this
    // point sees it.
    if (version == 3 && !trace.base_state.empty() &&
        !rewrite_v3_base(trace.checker, trace.base_state, error)) {
      return false;
    }
  }

  if (!r.uvar(nsteps)) return fail("truncated step count");
  return true;
}

bool parse_trace_step(TryReader& r, RunStep& step, std::string& error) {
  step = RunStep{};
  const auto fail = [&](const char* what) {
    error = what;
    return false;
  };
  std::uint64_t nsyms = 0;
  if (!r.str(step.action) || !r.uvar(nsyms)) return fail("truncated step");
  if (nsyms > r.remaining()) return fail("symbol count exceeds buffer");
  step.symbols.reserve(static_cast<std::size_t>(nsyms));
  for (std::uint64_t s = 0; s < nsyms; ++s) {
    Symbol sym;
    if (!read_symbol(r, sym)) return fail("malformed symbol");
    step.symbols.push_back(sym);
  }
  return true;
}

bool parse_run_trace(std::span<const std::uint8_t> bytes, RunTrace& trace,
                     std::string& error) {
  TryReader r(bytes);
  std::uint64_t nsteps = 0;
  if (!parse_trace_header(r, trace, nsteps, error)) return false;
  // A step costs at least 2 bytes on the wire; reject counts the buffer
  // cannot possibly hold before reserving anything.
  if (nsteps > r.remaining()) {
    error = "step count exceeds buffer";
    return false;
  }
  trace.steps.reserve(static_cast<std::size_t>(nsteps));
  for (std::uint64_t i = 0; i < nsteps; ++i) {
    RunStep step;
    if (!parse_trace_step(r, step, error)) return false;
    trace.steps.push_back(std::move(step));
  }
  if (!r.done()) {
    error = "trailing bytes after the last step";
    return false;
  }
  return true;
}

bool write_run_trace(const std::string& path, const RunTrace& trace,
                     std::string& error) {
  ByteWriter w;
  serialize_run_trace(trace, w);
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (f == nullptr) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  const auto& bytes = w.data();
  if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

bool read_run_trace(const std::string& path, RunTrace& trace,
                    std::string& error) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) {
    error = "cannot open '" + path + "'";
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f.get());
    bytes.insert(bytes.end(), buf, buf + n);
    if (n < sizeof(buf)) break;
  }
  if (std::ferror(f.get()) != 0) {
    error = "read error on '" + path + "'";
    return false;
  }
  return parse_run_trace(bytes, trace, error);
}

}  // namespace scv
