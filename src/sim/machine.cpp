#include "sim/machine.hpp"

#include "base/check.hpp"

namespace pp::sim {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg), ms_(std::make_unique<MemorySystem>(cfg)), as_(cfg.sockets) {
  // Sampled fidelity exempts every set a registered hot line maps to from
  // statistical modeling; the registrations live in the address space.
  ms_->bind_pins(&as_);
  cores_.reserve(static_cast<std::size_t>(cfg_.num_cores()));
  for (int i = 0; i < cfg_.num_cores(); ++i) {
    cores_.push_back(std::make_unique<Core>(i, ms_.get()));
  }
  tasks_.assign(static_cast<std::size_t>(cfg_.num_cores()), nullptr);
}

void Machine::set_task(int core, Task* task) {
  PP_CHECK(core >= 0 && core < num_cores());
  tasks_[static_cast<std::size_t>(core)] = task;
}

void Machine::run_until(Cycles deadline) {
  for (;;) {
    // Pick the active core with the smallest local clock. A linear scan over
    // <= 12 cores beats any heap.
    int best = -1;
    Cycles best_t = ~Cycles{0};
    for (int i = 0; i < num_cores(); ++i) {
      if (tasks_[static_cast<std::size_t>(i)] == nullptr) continue;
      const Cycles t = cores_[static_cast<std::size_t>(i)]->now();
      if (t < best_t) {
        best_t = t;
        best = i;
      }
    }
    if (best < 0 || best_t >= deadline) return;
    Core& c = *cores_[static_cast<std::size_t>(best)];
    const Cycles before = c.now();
    tasks_[static_cast<std::size_t>(best)]->run(c);
    if (c.now() == before) c.stall(1);  // guarantee forward progress
  }
}

Cycles Machine::max_time() const {
  Cycles t = 0;
  for (const auto& c : cores_) {
    if (c->now() > t) t = c->now();
  }
  return t;
}

void Machine::align_clocks(Cycles t) {
  for (auto& c : cores_) {
    if (c->now() < t) c->set_now(t);
  }
}

MachineState Machine::save_state() const {
  MachineState s;
  s.memory = ms_->save_state();
  for (const auto& c : cores_) {
    s.clocks.push_back(c->now());
    s.counters.push_back(c->counters());
  }
  return s;
}

void Machine::restore_state(const MachineState& s) {
  PP_CHECK(s.clocks.size() == cores_.size() && s.counters.size() == cores_.size());
  ms_->restore_state(s.memory);
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->set_now(s.clocks[i]);
    cores_[i]->counters() = s.counters[i];
  }
}

}  // namespace pp::sim
