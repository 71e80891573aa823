#include "core/testbed.hpp"

namespace pp::core {

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
    : scale_(scale), seed_(seed), sizes_(WorkloadSizes::for_scale(scale)) {}

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

}  // namespace pp::core
