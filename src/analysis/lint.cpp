#include "analysis/lint.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "analysis/internal.hpp"
#include "util/assert.hpp"

namespace scv {

std::string to_string(LintRule r) {
  switch (r) {
    case LintRule::R1_TrackingLabels: return "R1:tracking-labels";
    case LintRule::R2_LocationLiveness: return "R2:location-liveness";
    case LintRule::R3_Bandwidth: return "R3:bandwidth";
    case LintRule::R4_ObserverInterference: return "R4:non-interference";
    case LintRule::R5_DeadTransitions: return "R5:dead-transitions";
    case LintRule::R6_ProcessorSymmetry: return "R6:processor-symmetry";
    case LintRule::R7_Independence: return "R7:independence";
    case LintRule::R8_FootprintImprecision: return "R8:footprint-imprecision";
  }
  return "?";
}

std::string to_string(LintSeverity s) {
  switch (s) {
    case LintSeverity::Note: return "note";
    case LintSeverity::Warning: return "warning";
    case LintSeverity::Error: return "error";
  }
  return "?";
}

bool parse_lint_rule(const std::string& text, LintRule& out) {
  if (text.size() < 2 || (text[0] != 'R' && text[0] != 'r')) return false;
  if (text[1] < '1' || text[1] > '8') return false;
  if (text.size() > 2 && text[2] != ':') return false;
  out = static_cast<LintRule>(text[1] - '1');
  // A full id like "R2:location-liveness" must match the canonical name.
  return text.size() <= 2 || to_string(out) == text;
}

std::size_t LintReport::count(LintSeverity s) const {
  std::size_t n = 0;
  for (const LintFinding& f : findings) n += f.severity == s ? 1 : 0;
  return n;
}

std::size_t LintReport::count(LintRule r) const {
  std::size_t n = 0;
  for (const LintFinding& f : findings) n += f.rule == r ? 1 : 0;
  return n;
}

std::string LintReport::summary() const {
  std::ostringstream os;
  os << protocol << ": " << count(LintSeverity::Error) << " error(s), "
     << count(LintSeverity::Warning) << " warning(s) (" << stats.states_sampled
     << " states, " << stats.transitions_checked << " transitions, "
     << stats.prefixes_walked << " prefixes, "
     << (stats.exhaustive ? "exhaustive" : "sampled")
     << (stats.truncated ? ", truncated sample" : "") << ")";
  return os.str();
}

std::string LintReport::format() const {
  std::ostringstream os;
  os << summary() << "\n";
  for (const LintFinding& f : findings) {
    os << "  [" << to_string(f.severity) << "] " << to_string(f.rule) << ": "
       << f.message << "\n";
  }
  return os.str();
}

namespace analysis {

namespace {
/// Per-rule finding cap; beyond it a single suppression note is emitted.
constexpr std::size_t kMaxFindingsPerRule = 16;
/// Skeleton caps of LintOptions::Mode::Sampled.
constexpr std::size_t kSampledMaxStates = 2048;
constexpr std::size_t kSampledMaxDepth = 64;
}  // namespace

void LintContext::add(LintRule rule, LintSeverity severity,
                      std::string message, const std::string& dedup_key) {
  const auto idx = static_cast<std::size_t>(rule);
  if (!seen_.insert(to_string(rule) + "\x1f" + dedup_key).second) return;
  if (per_rule_[idx] >= kMaxFindingsPerRule) {
    if (!capped_[idx]) {
      capped_[idx] = true;
      report->suppressed_rules.push_back(rule);
      report->findings.push_back(
          {rule, LintSeverity::Note,
           "further findings for this rule suppressed (cap " +
               std::to_string(kMaxFindingsPerRule) + ")"});
    }
    return;
  }
  ++per_rule_[idx];
  report->findings.push_back({rule, severity, std::move(message)});
}

namespace {

/// R1 checks that do not need any state: the Params contract itself.
void check_params(LintContext& ctx) {
  const auto& pr = ctx.protocol->params();
  if (pr.locations == 0) {
    ctx.add(LintRule::R1_TrackingLabels, LintSeverity::Error,
            "protocol declares zero storage locations; every LD/ST tracking "
            "label is necessarily dangling",
            "zero-locations");
  }
  if (pr.locations > kMaxLocations) {
    ctx.add(LintRule::R1_TrackingLabels, LintSeverity::Error,
            "protocol declares " + std::to_string(pr.locations) +
                " locations, above kMaxLocations=" +
                std::to_string(kMaxLocations) +
                "; location 0xff would alias the kClearSrc sentinel",
            "too-many-locations");
  }
}

}  // namespace
}  // namespace analysis

LintReport lint_protocol(const Protocol& protocol,
                         const LintOptions& options) {
  LintReport report;
  report.protocol = protocol.name();
  report.stats.exhaustive = options.mode == LintOptions::Mode::Exhaustive;

  analysis::LintContext ctx;
  ctx.protocol = &protocol;
  ctx.options = &options;
  ctx.report = &report;
  ctx.loc_written.assign(protocol.params().locations, false);
  ctx.loc_read.assign(protocol.params().locations, false);

  if (ctx.rule_selected(LintRule::R1_TrackingLabels)) {
    analysis::check_params(ctx);
  }

  // One exhaustive enumeration of the protocol's control skeleton feeds
  // every rule pass (DESIGN.md §15); Sampled mode caps it for use as a
  // cheap precheck.
  analysis::SkeletonBuildOptions sopt;
  if (options.mode == LintOptions::Mode::Sampled) {
    sopt.max_states = analysis::kSampledMaxStates;
    sopt.max_depth = analysis::kSampledMaxDepth;
  }
  const analysis::ProtocolSkeleton skeleton =
      analysis::build_skeleton(protocol, sopt);
  ctx.skeleton = &skeleton;
  report.stats.states_sampled = skeleton.num_states();
  report.stats.transitions_checked = skeleton.edges.size();
  report.stats.truncated = !skeleton.complete;

  analysis::check_transitions(ctx);
  analysis::check_location_liveness(ctx);
  analysis::check_bandwidth(ctx);
  // R6 exercises the protocol's own permute hooks, which abort on
  // structurally broken metadata just like the observer does; gate it the
  // same way as R4.
  if (!report.has_errors()) analysis::check_symmetry(ctx);
  // R7/R8 share the inferred conflict relation over the skeleton; both
  // step the protocol through its own hooks, so same gating.
  std::optional<analysis::InferredPor> inferred;
  const bool want_por_rules =
      ctx.rule_selected(LintRule::R7_Independence) ||
      ctx.rule_selected(LintRule::R8_FootprintImprecision);
  if (!report.has_errors() && want_por_rules && protocol.por_enabled()) {
    inferred.emplace(analysis::infer_por(skeleton));
    ctx.inferred = &*inferred;
  }
  if (!report.has_errors()) analysis::check_por_independence(ctx);
  if (!report.has_errors()) analysis::check_footprint_precision(ctx);
  // R4 drives a real Observer along prefixes, and the observer (rightly)
  // aborts on structurally broken metadata — dangling labels, bandwidth
  // over the representable maximum.  Differential walks therefore only run
  // once the structural rules came back clean.
  if (!report.has_errors()) analysis::check_non_interference(ctx);

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     if (a.severity != b.severity) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     }
                     return static_cast<int>(a.rule) <
                            static_cast<int>(b.rule);
                   });
  return report;
}

}  // namespace scv
