// Seeded request generation for the three workloads. The program under test
// only ever sees what these functions emit; the same workload seed yields the
// same sequence, and cold specs are salted through per-flow `seed`s (part of
// the scenario key — `name` is not), so two workload seeds never share a
// cold scenario key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// splitmix64 finalizer: a bijective 64-bit mix.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  [[nodiscard]] double uniform();            // [0, 1)
  [[nodiscard]] int below(int n);            // [0, n)
  [[nodiscard]] double exponential(double mean);

 private:
  std::uint64_t s_;
};

enum class Workload : std::uint8_t { kColdStreamed, kWarmServe, kMixedServe };

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] bool workload_from_string(const std::string& s, Workload& out);

/// One request as the load generator sends it.
struct Request {
  std::uint64_t id = 0;
  std::string kind;            // solo | corun | predict
  std::string spec;            // compact spec JSON, sent verbatim
  std::string format = "text"; // text | csv | json
  bool cold = false;           // never-seen spec: its reply must simulate
  bool tcp = true;             // transport (false = Unix socket)
  double at_s = 0;             // scheduled send time from the window start (open loop)
  int dup_of = -1;             // index of the request this re-sends while in flight
  int item = -1;               // warm working-set item (spec x format)
};

// ------------------------------------------------------------ warm working set

/// The fixed warm working set: solo/corun specs with 1-6 flows and predict
/// specs with 2-4 flows, exact fidelity, default flow seeds. Independent of
/// the workload seed, so one fixture serves every run.
[[nodiscard]] const std::vector<std::string>& working_set_specs();

/// Kind of working-set spec `spec` (solo | corun | predict).
[[nodiscard]] const char* working_set_kind(int spec);

struct WarmItem {
  int spec = 0;
  std::string format;
};

/// Every (spec, format) pair of the working set, spec-major.
[[nodiscard]] const std::vector<WarmItem>& working_set_items();

/// Zipf(s) over ranks 1..n, drawn by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s);
  [[nodiscard]] int draw(Rng& rng) const;  // 0-based rank

 private:
  std::vector<double> cdf_;
};

/// Working-set item for a Zipf rank (a fixed permutation, so the hot items
/// are the same on every seed).
[[nodiscard]] int item_for_rank(int rank);

// ----------------------------------------------------------------- cold specs

/// Flow seed for flow `flow` of cold request `request` under `workload_seed`.
/// Always > 1, so a cold flow never aliases a default-seeded fixture flow.
[[nodiscard]] std::uint64_t cold_flow_seed(std::uint64_t workload_seed, std::uint64_t request,
                                           int flow);

// ------------------------------------------------------------------ workloads

/// cold_streamed: one closed-loop block of never-seen streamed specs
/// (predict with 2-4 flows, corun with 2-6 flows). Every block holds the
/// same shapes; the seed orders them and picks flow types and seeds.
[[nodiscard]] std::vector<Request> cold_streamed_block(std::uint64_t seed, int block);

/// Poisson arrivals of Zipf(1) working-set requests at `rate` per second over
/// [t0, t0 + duration), alternating Unix socket and TCP. Ids start at
/// `first_id`.
[[nodiscard]] std::vector<Request> warm_schedule(std::uint64_t seed, double rate, double t0,
                                                 double duration, std::uint64_t first_id);

/// mixed_serve: warm arrivals at kMixedWarmRate plus never-seen exact-tier
/// solo/corun specs on a seeded schedule, some arriving in pairs, about one
/// in eight re-sent while in flight. Sorted by send time.
[[nodiscard]] std::vector<Request> mixed_schedule(std::uint64_t seed, double duration);

inline constexpr double kMixedWarmRate = 100;   // warm requests per second
inline constexpr double kMixedColdPeriod = 0.6; // seconds between cold arrivals

}  // namespace pb
