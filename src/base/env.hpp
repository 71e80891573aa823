// Experiment scale selection.
//
// Three scales (api::SessionOptions::scale, set from REPRO_SCALE by the
// audited environment parse in api/options.cpp; nothing here reads it):
//   quick    — fast sanity pass (short measurement windows, fewer sweep
//              points, 1 seed); for CI and iteration.
//   standard — default; enough packets for <1% throughput noise, 3 seeds.
//   full     — paper fidelity (longest windows, dense sweeps, 5 seeds,
//              matching the paper's 5-run averages).
#pragma once

#include <cstdint>

namespace pp {

enum class Scale : std::uint8_t { kQuick, kStandard, kFull };

/// Human-readable name.
[[nodiscard]] const char* to_string(Scale s);

/// Number of independent seeds to average, mirroring the paper's 5 runs.
[[nodiscard]] int seeds_for(Scale s);

}  // namespace pp
