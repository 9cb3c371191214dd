#include "timed_protocol.hpp"

#include <chrono>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A non-main thread's tally, merged into its decorator when the thread
/// exits (or when the thread starts serving a different decorator).
struct WorkerSlot {
  const TimedProtocol* owner = nullptr;
  ProtocolTally tally;

  void flush() {
    if (owner != nullptr) owner->merge_other(tally);
    owner = nullptr;
    tally = ProtocolTally{};
  }
  ~WorkerSlot() { flush(); }
};

thread_local WorkerSlot t_slot;

}  // namespace

ProtocolTally& ProtocolTally::operator+=(const ProtocolTally& o) {
  enumerate_s += o.enumerate_s;
  apply_s += o.apply_s;
  could_load_bottom_s += o.could_load_bottom_s;
  symmetry_hooks_s += o.symmetry_hooks_s;
  por_hooks_s += o.por_hooks_s;
  enumerate_calls += o.enumerate_calls;
  apply_calls += o.apply_calls;
  could_load_bottom_calls += o.could_load_bottom_calls;
  symmetry_hook_calls += o.symmetry_hook_calls;
  por_hook_calls += o.por_hook_calls;
  return *this;
}

ProtocolTally& ProtocolTally::operator-=(const ProtocolTally& o) {
  enumerate_s -= o.enumerate_s;
  apply_s -= o.apply_s;
  could_load_bottom_s -= o.could_load_bottom_s;
  symmetry_hooks_s -= o.symmetry_hooks_s;
  por_hooks_s -= o.por_hooks_s;
  enumerate_calls -= o.enumerate_calls;
  apply_calls -= o.apply_calls;
  could_load_bottom_calls -= o.could_load_bottom_calls;
  symmetry_hook_calls -= o.symmetry_hook_calls;
  por_hook_calls -= o.por_hook_calls;
  return *this;
}

TimedProtocol::TimedProtocol(const scv::Protocol& inner)
    : inner_(inner), main_thread_(std::this_thread::get_id()) {}

void TimedProtocol::reset() {
  main_ = ProtocolTally{};
  const std::lock_guard<std::mutex> lock(other_mu_);
  other_ = ProtocolTally{};
}

ProtocolTally TimedProtocol::other_tally() const {
  const std::lock_guard<std::mutex> lock(other_mu_);
  return other_;
}

void TimedProtocol::merge_other(const ProtocolTally& t) const {
  const std::lock_guard<std::mutex> lock(other_mu_);
  other_ += t;
}

ProtocolTally& TimedProtocol::local() const {
  if (std::this_thread::get_id() == main_thread_) return main_;
  if (t_slot.owner != this) {
    t_slot.flush();
    t_slot.owner = this;
  }
  return t_slot.tally;
}

void TimedProtocol::enumerate(std::span<const std::uint8_t> state,
                              std::vector<scv::Transition>& out) const {
  const auto t0 = Clock::now();
  inner_.enumerate(state, out);
  ProtocolTally& t = local();
  t.enumerate_s += since(t0);
  ++t.enumerate_calls;
}

void TimedProtocol::apply(std::span<std::uint8_t> state,
                          const scv::Transition& tr) const {
  const auto t0 = Clock::now();
  inner_.apply(state, tr);
  ProtocolTally& t = local();
  t.apply_s += since(t0);
  ++t.apply_calls;
}

bool TimedProtocol::could_load_bottom(std::span<const std::uint8_t> state,
                                      scv::BlockId b) const {
  const auto t0 = Clock::now();
  const bool r = inner_.could_load_bottom(state, b);
  ProtocolTally& t = local();
  t.could_load_bottom_s += since(t0);
  ++t.could_load_bottom_calls;
  return r;
}

void TimedProtocol::permute_procs(std::span<std::uint8_t> state,
                                  const scv::ProcPerm& perm) const {
  const auto t0 = Clock::now();
  inner_.permute_procs(state, perm);
  ProtocolTally& t = local();
  t.symmetry_hooks_s += since(t0);
  ++t.symmetry_hook_calls;
}

scv::LocId TimedProtocol::permute_loc(scv::LocId loc,
                                      const scv::ProcPerm& perm) const {
  const auto t0 = Clock::now();
  const scv::LocId r = inner_.permute_loc(loc, perm);
  ProtocolTally& t = local();
  t.symmetry_hooks_s += since(t0);
  ++t.symmetry_hook_calls;
  return r;
}

scv::Action TimedProtocol::permute_action(const scv::Action& a,
                                          const scv::ProcPerm& perm) const {
  const auto t0 = Clock::now();
  const scv::Action r = inner_.permute_action(a, perm);
  ProtocolTally& t = local();
  t.symmetry_hooks_s += since(t0);
  ++t.symmetry_hook_calls;
  return r;
}

void TimedProtocol::proc_signature(std::span<const std::uint8_t> state,
                                   scv::ProcId p, scv::ByteWriter& w) const {
  const auto t0 = Clock::now();
  inner_.proc_signature(state, p, w);
  ProtocolTally& t = local();
  t.symmetry_hooks_s += since(t0);
  ++t.symmetry_hook_calls;
}

std::uint32_t TimedProtocol::touched_procs(std::span<const std::uint8_t> state,
                                           const scv::Transition& tr) const {
  const auto t0 = Clock::now();
  const std::uint32_t r = inner_.touched_procs(state, tr);
  ProtocolTally& t = local();
  t.symmetry_hooks_s += since(t0);
  ++t.symmetry_hook_calls;
  return r;
}

scv::PorFootprint TimedProtocol::por_footprint(
    const scv::Transition& tr) const {
  const auto t0 = Clock::now();
  const scv::PorFootprint r = inner_.por_footprint(tr);
  ProtocolTally& t = local();
  t.por_hooks_s += since(t0);
  ++t.por_hook_calls;
  return r;
}

bool TimedProtocol::independent(const scv::Transition& a,
                                const scv::Transition& b) const {
  const auto t0 = Clock::now();
  const bool r = inner_.independent(a, b);
  ProtocolTally& t = local();
  t.por_hooks_s += since(t0);
  ++t.por_hook_calls;
  return r;
}

}  // namespace perfbench
