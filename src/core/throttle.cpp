#include "core/throttle.hpp"

#include "base/check.hpp"

namespace pp::core {

AggressivenessGovernor::AggressivenessGovernor(std::vector<Limit> limits, double slack)
    : limits_(std::move(limits)), slack_(slack) {
  states_.resize(limits_.size());
}

click::ControlShim* AggressivenessGovernor::find_shim(click::Router& router) {
  for (const auto& e : router.elements()) {
    if (auto* shim = dynamic_cast<click::ControlShim*>(e.get()); shim != nullptr) return shim;
  }
  return nullptr;
}

void AggressivenessGovernor::operator()(sim::Machine& machine,
                                        const std::vector<FlowHandle>& flows) {
  for (std::size_t i = 0; i < limits_.size(); ++i) {
    const Limit& lim = limits_[i];
    State& st = states_[i];
    PP_CHECK(lim.flow_index >= 0 && lim.flow_index < static_cast<int>(flows.size()));
    const FlowHandle& h = flows[static_cast<std::size_t>(lim.flow_index)];
    const sim::Core& core = machine.core(h.core);

    const std::uint64_t refs = core.counters().l3_refs;
    const sim::Cycles now = core.now();
    if (!st.primed) {
      st.primed = true;
      st.last_refs = refs;
      st.last_now = now;
      continue;
    }
    const double dt = static_cast<double>(now - st.last_now) / machine.config().hz();
    if (dt <= 0) continue;
    const double observed = static_cast<double>(refs - st.last_refs) / dt;
    st.last_refs = refs;
    st.last_now = now;

    click::ControlShim* shim = find_shim(*h.router);
    if (shim == nullptr) continue;

    const double ratio = observed / lim.refs_per_sec_cap;
    if (ratio > 1.0 + slack_) {
      // Over budget: slow the flow proportionally (extra plain CPU work per
      // packet), exactly the paper's containment knob.
      const std::uint64_t cur = shim->extra_instr();
      const std::uint64_t bump = static_cast<std::uint64_t>(
          static_cast<double>(cur == 0 ? 256 : cur) * (ratio - 1.0)) + 64;
      shim->set_extra_instr(cur + bump);
      ++interventions_;
    } else if (ratio < 1.0 - 2 * slack_ && shim->extra_instr() > 0) {
      // Comfortably under budget: relax so legitimate load is not punished.
      shim->set_extra_instr(shim->extra_instr() * 9 / 10);
    }
  }
}

}  // namespace pp::core
