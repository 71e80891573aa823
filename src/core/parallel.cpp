#include "core/parallel.hpp"

#include <atomic>
#include <thread>
#include <vector>

namespace pp::core {

void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::size_t workers = threads <= 1 ? 1 : static_cast<std::size_t>(threads);
  if (workers > n) workers = n;
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

}  // namespace pp::core
