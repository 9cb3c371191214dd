// TimedProtocol: a Protocol decorator that forwards every virtual to the
// wrapped protocol and accumulates time and call counts per hook family.
//
// The model checker only ever sees `const Protocol&` (src/ uses no
// dynamic_cast or typeid on it), so passing the decorator to model_check is
// transparent: same verdict, states, transitions and counterexample bytes —
// the traced mc run checks exactly that.
//
// Tallies are kept per thread without synchronization on the hot path.  The
// thread that constructed the decorator (the caller of model_check, which
// also runs single-worker passes inline) accumulates into main_tally();
// every other thread (the model checker's pool workers) accumulates into a
// thread-local tally that is merged into other_tally() when the thread
// exits.  The pool is joined before model_check returns, so both tallies
// are complete once the call is back.
#pragma once

#include <cstdint>
#include <mutex>
#include <thread>

#include "protocol/protocol.hpp"

namespace perfbench {

struct ProtocolTally {
  double enumerate_s = 0.0;
  double apply_s = 0.0;
  double could_load_bottom_s = 0.0;
  /// proc_signature, permute_procs, permute_loc, permute_action,
  /// touched_procs — the orbit canonicalizer's protocol hooks.
  double symmetry_hooks_s = 0.0;
  /// por_footprint, independent — the declared-POR hooks.
  double por_hooks_s = 0.0;
  std::uint64_t enumerate_calls = 0;
  std::uint64_t apply_calls = 0;
  std::uint64_t could_load_bottom_calls = 0;
  std::uint64_t symmetry_hook_calls = 0;
  std::uint64_t por_hook_calls = 0;

  ProtocolTally& operator+=(const ProtocolTally& o);
  ProtocolTally& operator-=(const ProtocolTally& o);

  /// Protocol time spent inside the model checker's expand phase:
  /// enumerate, apply (both stepping and ample checks), could_load_bottom
  /// (called by the observer step) and the POR hooks (ample selection).
  [[nodiscard]] double expand_s() const {
    return enumerate_s + apply_s + could_load_bottom_s + por_hooks_s;
  }
};

class TimedProtocol final : public scv::Protocol {
 public:
  explicit TimedProtocol(const scv::Protocol& inner);
  TimedProtocol(const TimedProtocol&) = delete;
  TimedProtocol& operator=(const TimedProtocol&) = delete;
  ~TimedProtocol() override = default;

  /// Clears both tallies.  Call only while no other thread uses the
  /// decorator (between model_check calls).
  void reset();
  [[nodiscard]] ProtocolTally main_tally() const { return main_; }
  [[nodiscard]] ProtocolTally other_tally() const;

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const Params& params() const override {
    return inner_.params();
  }
  [[nodiscard]] std::size_t state_size() const override {
    return inner_.state_size();
  }
  void initial_state(std::span<std::uint8_t> state) const override {
    inner_.initial_state(state);
  }
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<scv::Transition>& out) const override;
  void apply(std::span<std::uint8_t> state,
             const scv::Transition& t) const override;
  [[nodiscard]] bool real_time_st_order() const override {
    return inner_.real_time_st_order();
  }
  [[nodiscard]] bool real_time_st_order(
      const scv::MemoryModel& m) const override {
    return inner_.real_time_st_order(m);
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       scv::BlockId b) const override;
  [[nodiscard]] std::string action_name(
      const scv::Action& a) const override {
    return inner_.action_name(a);
  }
  void transition_effects(const scv::Transition& t,
                          scv::TransitionEffects& out) const override {
    inner_.transition_effects(t, out);
  }
  [[nodiscard]] bool processor_symmetric() const override {
    return inner_.processor_symmetric();
  }
  void permute_procs(std::span<std::uint8_t> state,
                     const scv::ProcPerm& perm) const override;
  [[nodiscard]] scv::LocId permute_loc(
      scv::LocId loc, const scv::ProcPerm& perm) const override;
  [[nodiscard]] scv::Action permute_action(
      const scv::Action& a, const scv::ProcPerm& perm) const override;
  void proc_signature(std::span<const std::uint8_t> state, scv::ProcId p,
                      scv::ByteWriter& w) const override;
  [[nodiscard]] std::uint32_t touched_procs(
      std::span<const std::uint8_t> state,
      const scv::Transition& t) const override;
  [[nodiscard]] bool por_enabled() const override {
    return inner_.por_enabled();
  }
  [[nodiscard]] scv::PorFootprint por_footprint(
      const scv::Transition& t) const override;
  [[nodiscard]] bool independent(const scv::Transition& t,
                                 const scv::Transition& u) const override;

  /// Merges a worker thread's tally (called from that thread's exit).
  void merge_other(const ProtocolTally& t) const;

 private:
  /// The tally the calling thread accumulates into.
  [[nodiscard]] ProtocolTally& local() const;

  const scv::Protocol& inner_;
  const std::thread::id main_thread_;
  mutable ProtocolTally main_;
  mutable std::mutex other_mu_;
  mutable ProtocolTally other_;
};

}  // namespace perfbench
