#include "core/testbed.hpp"

#include "api/options.hpp"
#include "base/check.hpp"
#include "core/scenario.hpp"

namespace pp::core {

sim::SimFidelity fidelity_from_env() {
  // Shim over the single audited environment parse (api/options.cpp):
  // SIM_FIDELITY typos warn there instead of silently running exact.
  return api::SessionOptions::from_env().fidelity;
}

std::uint32_t sample_period_max_from_env(sim::SimFidelity fidelity,
                                         std::uint32_t sample_period) {
  return api::resolve_sample_period_max(fidelity, sample_period,
                                        api::SessionOptions::from_env().sample_period_max);
}

RunConfig RunConfig::simple(std::vector<FlowSpec> flows, std::uint64_t seed) {
  RunConfig cfg;
  cfg.placement.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    cfg.placement[i].core = static_cast<int>(i);
  }
  cfg.flows = std::move(flows);
  cfg.seed = seed;
  return cfg;
}

Testbed::Testbed(Scale scale, std::uint64_t seed)
    : scale_(scale), seed_(seed), sizes_(WorkloadSizes::for_scale(scale)) {
  mcfg_.fidelity = fidelity_from_env();
  mcfg_.sample_period_max = sample_period_max_from_env(mcfg_.fidelity, mcfg_.sample_period);
  set_run_budget_ms(api::SessionOptions::from_env().run_budget_ms);
}

double Testbed::default_warmup_ms() const {
  switch (scale_) {
    case Scale::kQuick:
      return 2.0;
    case Scale::kStandard:
      return 6.0;
    case Scale::kFull:
      return 12.0;
  }
  return 6.0;
}

double Testbed::default_measure_ms() const {
  switch (scale_) {
    case Scale::kQuick:
      return 3.0;
    case Scale::kStandard:
      return 8.0;
    case Scale::kFull:
      return 20.0;
  }
  return 8.0;
}

RunConfig Testbed::configure(std::vector<FlowSpec> flows, std::uint64_t seed) const {
  RunConfig cfg = RunConfig::simple(std::move(flows), seed == 0 ? seed_ : seed);
  cfg.warmup_ms = default_warmup_ms();
  cfg.measure_ms = default_measure_ms();
  cfg.budget_ms = run_budget_ms_;
  cfg.deadline = run_deadline_;
  return cfg;
}

std::vector<FlowMetrics> Testbed::run(const RunConfig& cfg) const {
  return run_scenario(Scenario::of(*this, cfg));
}

FlowMetrics Testbed::run_solo(const FlowSpec& spec) const {
  RunConfig cfg = configure({spec});
  return run(cfg)[0];
}

}  // namespace pp::core
