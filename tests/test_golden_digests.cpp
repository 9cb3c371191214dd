// Golden digests: byte-level parity pins for every registry protocol under
// every memory model of the axis (sc, tso, coherence).
//
// Each cell pins three things:
//   * model_check at threads = 1 with record_counterexample: verdict,
//     states, transitions, depth, the POR counters, and FNV-1a of the
//     serialized counterexample trace.  Cells that fail run to their
//     violation; the rest are capped at kCapStates.
//   * FNV-1a of the serialized record_walk trace (400 steps, seed 7).
//   * Two digests over a seeded 200-step walk, taken for every enabled
//     successor of every visited state, as the BFS workers do:
//       - the key column folds step outcomes, the Product::key bytes, the
//         ProcCanonicalizer::canonicalize_key bytes and orbit sizes, and
//         the touched_procs() dirty masks fed to the canonicalizer;
//       - the snapshot column folds the Product::snapshot bytes.
//     The key column pins the state space the search explores; the
//     snapshot column pins only the raw frontier encoding, which a change
//     to the snapshot layout moves on purpose.
//
// A change that must keep verdicts, counterexamples, trace bytes and state
// encodings unchanged passes this table as it stands.  On a mismatch the
// test prints the whole actual table in initializer syntax, so that a
// deliberate encoding change can paste it over kGolden.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "checker/memory_model.hpp"
#include "mc/model_checker.hpp"
#include "mc/product.hpp"
#include "mc/record.hpp"
#include "protocol/registry.hpp"
#include "runlog/run_trace.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace scv {
namespace {

constexpr std::size_t kCapStates = 20'000;
constexpr std::size_t kViolationStates = 150'000;
constexpr std::size_t kRecordSteps = 400;
constexpr std::uint64_t kRecordSeed = 7;
constexpr std::size_t kProductSteps = 200;
constexpr std::uint64_t kProductSeed = 7;

struct Digest {
  std::string_view protocol;
  std::string_view model;
  McVerdict verdict;
  std::uint64_t states;
  std::uint64_t transitions;
  std::uint64_t depth;
  std::uint64_t por_ample_states;
  std::uint64_t por_deferred_transitions;
  std::uint64_t counterexample;  ///< FNV-1a of the serialized trace, 0 if none
  std::uint64_t walk;            ///< FNV-1a of the serialized record_walk
  std::uint64_t key;             ///< key/canonical-key/orbit/mask digest
  std::uint64_t snapshot;        ///< Product::snapshot digest

  bool operator==(const Digest&) const = default;
};

// The cells whose model_check fails within kViolationStates; every other
// cell is capped at kCapStates.
bool runs_to_violation(std::string_view protocol, std::string_view model) {
  struct Cell {
    std::string_view protocol;
    std::string_view model;
  };
  static constexpr Cell kFailing[] = {
      {"write_buffer", "sc"},           {"write_buffer", "coherence"},
      {"write_buffer_fwd", "sc"},       {"write_buffer_fwd", "coherence"},
      {"write_buffer_fwd_drain", "sc"}, {"msi_bus_buggy", "sc"},
      {"msi_bus_buggy", "tso"},         {"msi_bus_buggy", "coherence"},
      {"get_shared_toy", "sc"},         {"get_shared_toy", "tso"},
      {"get_shared_toy", "coherence"},
  };
  for (const Cell& c : kFailing) {
    if (c.protocol == protocol && c.model == model) return true;
  }
  return false;
}

/// FNV-1a continued from `h` over `bytes`, so one hash can span many
/// buffers without concatenating them.
std::uint64_t fnv_fold(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv_fold_u64(std::uint64_t h, std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return fnv_fold(h, w.data());
}

std::uint64_t trace_hash(const RunTrace& trace) {
  ByteWriter w;
  serialize_run_trace(trace, w);
  return fnv1a64(w.data());
}

struct ProductDigests {
  std::uint64_t key;
  std::uint64_t snapshot;
};

/// Walks `kProductSteps` seeded-random transitions.  At every visited state
/// each enabled successor is built by assign_from + step; its step outcome,
/// key, dirty mask, canonical key and orbit size fold into the key digest
/// and its snapshot into the snapshot digest.  A bare protocol-only product
/// follows the same walk and folds its key and snapshot.
ProductDigests product_digest(const Protocol& proto, const MemoryModel& model) {
  ObserverConfig cfg;
  cfg.model = model;
  Product p(proto, cfg, /*with_observer=*/true);
  Product succ(proto, cfg, /*with_observer=*/true);
  Product bare(proto, cfg, /*with_observer=*/false);
  ProcCanonicalizer canon(proto, /*enable=*/true);
  KeyScratch ks;
  KeyScratch canon_ks;
  ByteWriter snap;
  Xoshiro256 rng(kProductSeed);
  std::vector<Transition> enabled;
  std::vector<Symbol> symbols;

  std::uint64_t h = fnv1a64({});
  std::uint64_t hs = fnv1a64({});
  const auto fold_state = [&](const Product& q) {
    h = fnv_fold(h, q.key(ks));
    snap.clear();
    q.snapshot(snap);
    hs = fnv_fold(hs, snap.data());
  };
  fold_state(p);
  fold_state(bare);
  for (std::size_t i = 0; i < kProductSteps; ++i) {
    enabled.clear();
    p.enumerate(enabled);
    if (enabled.empty()) break;
    canon.begin_base();
    for (const Transition& t : enabled) {
      succ.assign_from(p);
      const StepOutcome outcome = succ.step(t, symbols);
      h = fnv_fold_u64(h, static_cast<std::uint64_t>(outcome));
      if (outcome != StepOutcome::Ok) continue;
      fold_state(succ);
      const std::uint32_t dirty = succ.touched_procs();
      h = fnv_fold_u64(h, dirty);
      const std::uint64_t orbit =
          canon.canonicalize_key(succ, canon_ks, nullptr, dirty);
      h = fnv_fold(h, canon_ks.w.data());
      h = fnv_fold_u64(h, orbit);
    }
    const Transition chosen = enabled[rng.below(enabled.size())];
    if (p.step(chosen, symbols) != StepOutcome::Ok) break;
    (void)bare.step(chosen, symbols);
    fold_state(p);
    fold_state(bare);
  }
  return {h, hs};
}

Digest measure(const RegisteredProtocol& entry, const NamedModel& nm) {
  const std::unique_ptr<Protocol> proto = entry.make();
  Digest d{};
  d.protocol = entry.id;
  d.model = nm.name;

  McOptions opt;
  opt.threads = 1;
  opt.record_counterexample = true;
  opt.max_states =
      runs_to_violation(entry.id, nm.name) ? kViolationStates : kCapStates;
  opt.observer.model = nm.model;
  const McResult r = model_check(*proto, opt);
  d.verdict = r.verdict;
  d.states = r.states;
  d.transitions = r.transitions;
  d.depth = r.depth;
  d.por_ample_states = r.por_ample_states;
  d.por_deferred_transitions = r.por_deferred_transitions;
  d.counterexample =
      r.counterexample_trace ? trace_hash(*r.counterexample_trace) : 0;

  RecordWalkOptions walk;
  walk.steps = kRecordSteps;
  walk.seed = kRecordSeed;
  walk.observer.model = nm.model;
  d.walk = trace_hash(record_walk(*proto, walk));

  const ProductDigests pd = product_digest(*proto, nm.model);
  d.key = pd.key;
  d.snapshot = pd.snapshot;
  return d;
}

std::string initializer_row(const Digest& d) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"%.*s\", \"%.*s\", McVerdict::%s, %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ",\n"
                "     0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL,\n"
                "     0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                static_cast<int>(d.protocol.size()), d.protocol.data(),
                static_cast<int>(d.model.size()), d.model.data(),
                to_string(d.verdict).c_str(),
                d.states, d.transitions, d.depth, d.por_ample_states,
                d.por_deferred_transitions, d.counterexample, d.walk,
                d.key, d.snapshot);
  return buf;
}

// clang-format off
constexpr Digest kGolden[] = {
    {"serial_memory", "sc", McVerdict::StateLimit, 20000, 54793, 5, 0, 0,
     0x0000000000000000ULL, 0xf3bf0668a9678ca0ULL,
     0x61e567b934836cccULL, 0x4f38a86749161ad2ULL},
    {"serial_memory", "tso", McVerdict::StateLimit, 20000, 46042, 5, 0, 0,
     0x0000000000000000ULL, 0x474deccbbd317749ULL,
     0xd1be82b87006e432ULL, 0xec588f47027cc699ULL},
    {"serial_memory", "coherence", McVerdict::StateLimit, 20000, 68218, 5, 0, 0,
     0x0000000000000000ULL, 0xda8f305cd5d25aa1ULL,
     0x9335f97657f0f58aULL, 0xe7ace007d2c5397bULL},
    {"write_buffer", "sc", McVerdict::Violation, 24, 31, 1, 0, 0,
     0x4e9fb186381be002ULL, 0x7df7d70214c4c53fULL,
     0x2711517e82f890e4ULL, 0xe903e496bdf32110ULL},
    {"write_buffer", "tso", McVerdict::StateLimit, 20000, 41432, 5, 0, 0,
     0x0000000000000000ULL, 0x2602b9d92111cd30ULL,
     0xf61179a632af4a74ULL, 0x07691c3b6a9c4904ULL},
    {"write_buffer", "coherence", McVerdict::Violation, 24, 31, 1, 0, 0,
     0xadc42fca1c1b2a5dULL, 0x5a6700531b971bb5ULL,
     0x6f352524709d8d06ULL, 0x93b285e982112c30ULL},
    {"write_buffer_fwd", "sc", McVerdict::Violation, 1773, 2728, 3, 0, 0,
     0xcac0671d7974f3adULL, 0xea35b5a5361e2e8cULL,
     0x2d9b3bcdb83ef139ULL, 0x2d5c70f214d0b35dULL},
    {"write_buffer_fwd", "tso", McVerdict::StateLimit, 20000, 41479, 5, 0, 0,
     0x0000000000000000ULL, 0x384224a69637bd41ULL,
     0xea6eca11ddc23831ULL, 0xee9a318d2a23bc8fULL},
    {"write_buffer_fwd", "coherence", McVerdict::Violation, 7441, 14259, 4, 0, 0,
     0x79baea09e66a3360ULL, 0x88d17faee86b1903ULL,
     0xb3c710fc66e58a7dULL, 0x7e901ed8b2516c9bULL},
    {"write_buffer_fwd_drain", "sc", McVerdict::Violation, 42736, 92771, 5, 0, 0,
     0x5cd843ec6d88ea22ULL, 0xb20e1039b709c4e6ULL,
     0xf80c91ab78f2d511ULL, 0x5ae855745ff8f640ULL},
    {"write_buffer_fwd_drain", "tso", McVerdict::StateLimit, 20000, 41479, 5, 0, 0,
     0x0000000000000000ULL, 0x384224a69637bd41ULL,
     0xea6eca11ddc23831ULL, 0xee9a318d2a23bc8fULL},
    {"write_buffer_fwd_drain", "coherence", McVerdict::StateLimit, 20000, 49910, 5, 0, 0,
     0x0000000000000000ULL, 0x7e514b0e535209b2ULL,
     0x065b0ca66d6ce7daULL, 0x82a1c65c66cc69a4ULL},
    {"msi_bus", "sc", McVerdict::StateLimit, 20000, 51843, 6, 0, 0,
     0x0000000000000000ULL, 0x28cab537822e6f1bULL,
     0x72b1c253cf3130e9ULL, 0x0e29b4d75c408bcbULL},
    {"msi_bus", "tso", McVerdict::StateLimit, 20000, 51671, 6, 0, 0,
     0x0000000000000000ULL, 0x78d9fd148ce50800ULL,
     0xe50fbf3901c2c828ULL, 0x191a02c7ffcb8bc0ULL},
    {"msi_bus", "coherence", McVerdict::StateLimit, 20000, 58648, 6, 0, 0,
     0x0000000000000000ULL, 0x5268da69f3ef00e9ULL,
     0x862fe7a73966cc13ULL, 0x1573906a95193541ULL},
    {"msi_bus_buggy", "sc", McVerdict::Violation, 28951, 74699, 6, 0, 0,
     0xe7d18d114fecbf6cULL, 0xc9a52f8a46f2d3bcULL,
     0x20b2a0183866f711ULL, 0x0e99a961189f91b6ULL},
    {"msi_bus_buggy", "tso", McVerdict::Violation, 124072, 330306, 7, 0, 0,
     0xf7a3ba77828810adULL, 0x4332acfa48859441ULL,
     0x4060f4121981a176ULL, 0x5850cf1a2b4cb98eULL},
    {"msi_bus_buggy", "coherence", McVerdict::Violation, 22430, 65195, 6, 0, 0,
     0xaf52f5b4a87d512fULL, 0x9a93602c89620bbcULL,
     0x4b0b86ea9fe48181ULL, 0xa96beccc8adba9e3ULL},
    {"get_shared_toy", "sc", McVerdict::Violation, 357, 432, 2, 0, 0,
     0xb3c068a4338bedfaULL, 0xb3a01e4dd2386dd4ULL,
     0x2a151fd239cc83c2ULL, 0x99e4975342f14601ULL},
    {"get_shared_toy", "tso", McVerdict::Violation, 4934, 7259, 3, 0, 0,
     0x67ecf294253b6b79ULL, 0x84303cdada1dc504ULL,
     0x8c1a89bdb8dcb7dfULL, 0xd05f9a3c6b56b3d1ULL},
    {"get_shared_toy", "coherence", McVerdict::Violation, 341, 432, 2, 0, 0,
     0xe7980b61e74cb26fULL, 0xdb4dabf83bd50dc1ULL,
     0x886016188c69aaf2ULL, 0x85fc7e879a735de1ULL},
    {"directory", "sc", McVerdict::StateLimit, 20000, 39889, 11, 1537, 4516,
     0x0000000000000000ULL, 0xeaf501703fa46312ULL,
     0xa25f84aff30e1029ULL, 0x9dc6d49da028155aULL},
    {"directory", "tso", McVerdict::StateLimit, 20000, 39845, 11, 1536, 4514,
     0x0000000000000000ULL, 0x7a3f83ccbc29d034ULL,
     0x8563033078f0da75ULL, 0xb1b119b0e4e66bc5ULL},
    {"directory", "coherence", McVerdict::StateLimit, 20000, 41900, 11, 1705, 5059,
     0x0000000000000000ULL, 0x986186cf53abe38dULL,
     0x265bbbd246817f09ULL, 0xba84a71a482293d6ULL},
    {"lazy_caching", "sc", McVerdict::StateLimit, 20000, 59576, 6, 0, 0,
     0x0000000000000000ULL, 0xfad1c2a1c4558027ULL,
     0x863620f1035b4c25ULL, 0xc902388c40b64cd6ULL},
    {"lazy_caching", "tso", McVerdict::StateLimit, 20000, 59529, 6, 0, 0,
     0x0000000000000000ULL, 0x3efee74b201b7a14ULL,
     0x53c55ff21fe3e89bULL, 0x1de845e268d4cecfULL},
    {"lazy_caching", "coherence", McVerdict::StateLimit, 20000, 60147, 6, 0, 0,
     0x0000000000000000ULL, 0xd2cfc866cb2af973ULL,
     0x14cdeda5ec7e09e8ULL, 0x3af63c35d8680394ULL},
};
// clang-format on

TEST(GoldenDigests, RegistryTimesModelsMatchTheTable) {
  std::vector<Digest> actual;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    for (const NamedModel& nm : memory_model_axis()) {
      actual.push_back(measure(entry, nm));
    }
  }

  bool match = actual.size() == std::size(kGolden);
  for (std::size_t i = 0; i < actual.size() && i < std::size(kGolden); ++i) {
    if (actual[i] == kGolden[i]) continue;
    match = false;
    ADD_FAILURE() << "cell " << actual[i].protocol << " × "
                  << actual[i].model << " differs from the table";
  }
  if (!match) {
    std::string table = "constexpr Digest kGolden[] = {\n";
    for (const Digest& d : actual) table += initializer_row(d);
    table += "};\n";
    ADD_FAILURE() << "table size " << std::size(kGolden) << ", measured "
                  << actual.size() << "; actual table:\n"
                  << table;
  }
}

}  // namespace
}  // namespace scv
