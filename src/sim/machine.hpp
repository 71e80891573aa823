// The simulated platform: cores + memory hierarchy + NUMA address space,
// plus the discrete-event execution loop.
//
// Execution model (DESIGN.md Section 5): each runnable core is bound to a
// Task; the machine repeatedly picks the core with the smallest local clock
// and lets its task process one unit of work (one packet / one synthetic
// batch). This preserves the feedback loop the paper highlights — sensitive
// co-runners slow down under contention and therefore issue fewer competing
// references per second.
#pragma once

#include <memory>
#include <vector>

#include "sim/address_space.hpp"
#include "sim/core.hpp"
#include "sim/memory_system.hpp"
#include "sim/types.hpp"

namespace pp::sim {

/// One unit of schedulable work. `run` must advance the core's clock; the
/// machine guards against zero-progress tasks.
class Task {
 public:
  virtual ~Task() = default;
  /// Process one work unit (typically one packet end-to-end).
  virtual void run(Core& core) = 0;
};

/// Value snapshot of a machine's simulated state: the memory system's
/// (MemorySystem::State) plus every core's clock and counters. Bound tasks
/// and the address space are not part of it — a machine restoring a
/// snapshot must have built the same allocations itself.
struct MachineState {
  MemorySystem::State memory;
  std::vector<Cycles> clocks;
  std::vector<Counters> counters;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg = MachineConfig{});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] int num_cores() const { return cfg_.num_cores(); }
  [[nodiscard]] Core& core(int i) { return *cores_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] MemorySystem& memory() { return *ms_; }
  [[nodiscard]] AddressSpace& address_space() { return as_; }

  /// Bind a task to a core (non-owning; nullptr = idle).
  void set_task(int core, Task* task);
  [[nodiscard]] Task* task(int core) const { return tasks_[static_cast<std::size_t>(core)]; }

  /// Run every bound core, interleaved by local clock, until each active
  /// core's clock reaches `deadline`.
  void run_until(Cycles deadline);

  /// Latest local clock across all cores (active or not).
  [[nodiscard]] Cycles max_time() const;

  /// Bring every core's clock up to at least `t` (used when starting a
  /// measurement window so all flows begin together).
  void align_clocks(Cycles t);

  [[nodiscard]] MachineState save_state() const;

  /// Overwrite the simulated state with `s`, saved from a machine of the same
  /// MachineConfig (see MemorySystem::restore_state).
  void restore_state(const MachineState& s);

 private:
  MachineConfig cfg_;
  std::unique_ptr<MemorySystem> ms_;
  AddressSpace as_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<Task*> tasks_;
};

}  // namespace pp::sim
