// Host-side parallelism for the experiment drivers.
//
// Every simulated Machine is a self-contained, single-threaded,
// deterministic world (its RNG streams derive from the run seed, never from
// global state), so independent runs — sweep levels, seeds, placements,
// bench-figure configurations — can execute concurrently on host threads
// with results that are bit-identical to the serial order regardless of
// thread count: each job writes its own pre-assigned slot and aggregation
// happens in job order afterwards.
#pragma once

#include <cstddef>
#include <functional>

namespace pp::core {

/// Run fn(0..n-1), distributing indices over up to `threads` host threads
/// (serial when threads <= 1 or n <= 1). Blocks until every index has run.
/// `fn` must not throw; jobs must be independent: no shared mutable state
/// beyond their own output slots, except a fan-out's SetupShare
/// (core/scenario.hpp), through which jobs of one setup group hand over a
/// warm machine state. Every slot's result stays the same whichever job
/// warmed the machine, in whatever order and on however many threads.
void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn);

}  // namespace pp::core
