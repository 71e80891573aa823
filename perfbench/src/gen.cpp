#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace pb {

namespace {

constexpr const char* kFlowTypes[6] = {"IP", "MON", "FW", "RE", "VPN", "SYN"};
constexpr const char* kFormats[3] = {"text", "csv", "json"};

/// Seeds the flow-type draws of cold specs: fixed, so every workload seed
/// sees the same mix of shapes and types (its cost) with different flow seeds.
constexpr std::uint64_t kTypeSeed = 0x7a9e5;

/// Working-set shape: how many specs of each kind (fixed; see README.md).
constexpr int kWarmSolo = 36;
constexpr int kWarmCorun = 60;
constexpr int kWarmPredict = 24;

/// Hands out flow types from a bag refilled with a seeded permutation of all
/// six, so every block of requests uses the types in near-equal numbers.
class TypeBag {
 public:
  explicit TypeBag(Rng& rng) : rng_(rng) {}
  int take() {
    if (bag_.empty()) {
      bag_ = {0, 1, 2, 3, 4, 5};
      for (int i = 5; i > 0; --i) std::swap(bag_[i], bag_[rng_.below(i + 1)]);
    }
    const int t = bag_.back();
    bag_.pop_back();
    return t;
  }

 private:
  Rng& rng_;
  std::vector<int> bag_;
};

[[nodiscard]] std::string flows_json(const std::vector<int>& types,
                                     const std::vector<std::uint64_t>& seeds) {
  std::string j = "[";
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (i > 0) j += ",";
    j += std::string("{\"type\":\"") + kFlowTypes[types[i]] + "\"";
    if (!seeds.empty()) j += ",\"seed\":" + std::to_string(seeds[i]);
    j += "}";
  }
  return j + "]";
}

[[nodiscard]] std::string spec_json(const std::string& kind, const std::string& name,
                                    const char* fidelity, const std::vector<int>& types,
                                    const std::vector<std::uint64_t>& seeds) {
  return "{\"version\":1,\"kind\":\"" + kind + "\",\"name\":\"" + name + "\",\"fidelity\":\"" +
         fidelity + "\",\"flows\":" + flows_json(types, seeds) + "}";
}

/// A never-seen spec: every flow carries a seed derived from the workload
/// seed and the request id.
[[nodiscard]] Request cold_request(std::uint64_t seed, std::uint64_t id, const std::string& kind,
                                   int nflows, const char* fidelity, TypeBag& bag,
                                   const char* tag) {
  std::vector<int> types;
  std::vector<std::uint64_t> seeds;
  for (int f = 0; f < nflows; ++f) {
    types.push_back(bag.take());
    seeds.push_back(cold_flow_seed(seed, id, f));
  }
  Request r;
  r.id = id;
  r.kind = kind;
  r.cold = true;
  r.spec = spec_json(kind, std::string(tag) + "-" + std::to_string(id), fidelity, types, seeds);
  return r;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Rng::next() {
  s_ += 0x9e3779b97f4a7c15ULL;
  return mix64(s_ - 0x9e3779b97f4a7c15ULL);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

int Rng::below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

double Rng::exponential(double mean) { return -mean * std::log(1.0 - uniform()); }

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kColdStreamed:
      return "cold_streamed";
    case Workload::kWarmServe:
      return "warm_serve";
    case Workload::kMixedServe:
      return "mixed_serve";
  }
  return "?";
}

bool workload_from_string(const std::string& s, Workload& out) {
  for (const Workload w : {Workload::kColdStreamed, Workload::kWarmServe, Workload::kMixedServe}) {
    if (s == to_string(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------ warm working set

const std::vector<std::string>& working_set_specs() {
  static const std::vector<std::string> specs = [] {
    std::vector<std::string> out;
    Rng rng(0x5eedf1c5);
    TypeBag bag(rng);
    const auto add = [&](const char* kind, int count, int min_flows, int max_flows) {
      for (int i = 0; i < count; ++i) {
        std::vector<int> types;
        const int n = min_flows + i % (max_flows - min_flows + 1);
        for (int f = 0; f < n; ++f) types.push_back(bag.take());
        out.push_back(spec_json(kind, "ws-" + std::to_string(out.size()), "exact", types, {}));
      }
    };
    add("solo", kWarmSolo, 1, 6);
    add("corun", kWarmCorun, 1, 6);
    add("predict", kWarmPredict, 2, 4);
    return out;
  }();
  return specs;
}

const char* working_set_kind(int spec) {
  if (spec < kWarmSolo) return "solo";
  return spec < kWarmSolo + kWarmCorun ? "corun" : "predict";
}

const std::vector<WarmItem>& working_set_items() {
  static const std::vector<WarmItem> items = [] {
    std::vector<WarmItem> out;
    const int n = static_cast<int>(working_set_specs().size());
    for (int s = 0; s < n; ++s) {
      for (const char* f : kFormats) out.push_back(WarmItem{s, f});
    }
    return out;
  }();
  return items;
}

Zipf::Zipf(int n, double s) {
  double sum = 0;
  for (int k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

int Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? static_cast<int>(cdf_.size()) - 1
                          : static_cast<int>(it - cdf_.begin());
}

int item_for_rank(int rank) {
  static const std::vector<int> perm = [] {
    std::vector<int> p(working_set_items().size());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<int>(i);
    Rng rng(0x21bf);
    for (std::size_t i = p.size() - 1; i > 0; --i) {
      std::swap(p[i], p[static_cast<std::size_t>(rng.below(static_cast<int>(i) + 1))]);
    }
    return p;
  }();
  return perm[static_cast<std::size_t>(rank)];
}

// ----------------------------------------------------------------- cold specs

std::uint64_t cold_flow_seed(std::uint64_t workload_seed, std::uint64_t request, int flow) {
  const std::uint64_t h =
      mix64(mix64(workload_seed ^ 0xc01dc01dULL) + mix64(request * 8 + static_cast<std::uint64_t>(flow)));
  // JSON-safe in every consumer (< 2^53) and never the default seed 1.
  return (h >> 12) | 2;
}

// ------------------------------------------------------------------ workloads

std::vector<Request> cold_streamed_block(std::uint64_t seed, int block) {
  // The block's shapes and flow types are the same under every seed, so a
  // run's cost does not depend on its seed; the seed orders the block and
  // salts every flow seed, which is what makes each spec never-seen.
  static const std::pair<const char*, int> kShapes[] = {
      {"predict", 2}, {"predict", 3}, {"predict", 4}, {"corun", 2},
      {"corun", 3},   {"corun", 4},   {"corun", 5},   {"corun", 6},
  };
  constexpr int kBlock = static_cast<int>(sizeof kShapes / sizeof kShapes[0]);
  Rng rng(mix64(seed) + static_cast<std::uint64_t>(block));
  Rng type_rng(kTypeSeed + static_cast<std::uint64_t>(block));
  TypeBag bag(type_rng);
  std::vector<int> order(kBlock);
  for (int i = 0; i < kBlock; ++i) order[i] = i;
  for (int i = kBlock - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
  std::vector<Request> out;
  for (int i = 0; i < kBlock; ++i) {
    const auto& [kind, n] = kShapes[order[i]];
    const std::uint64_t id = static_cast<std::uint64_t>(block) * kBlock + static_cast<std::uint64_t>(i);
    Request r = cold_request(seed, id, kind, n, "streamed", bag, "cs");
    r.format = kFormats[id % 3];
    r.tcp = true;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> warm_schedule(std::uint64_t seed, double rate, double t0, double duration,
                                   std::uint64_t first_id) {
  static const Zipf zipf(static_cast<int>(working_set_items().size()), 1.0);
  Rng rng(mix64(seed ^ 0x3a73) + first_id);
  std::vector<Request> out;
  double t = t0 + rng.exponential(1.0 / rate);
  for (std::uint64_t id = first_id; t < t0 + duration; ++id) {
    Request r;
    r.id = id;
    r.item = item_for_rank(zipf.draw(rng));
    const WarmItem& it = working_set_items()[static_cast<std::size_t>(r.item)];
    r.spec = working_set_specs()[static_cast<std::size_t>(it.spec)];
    r.format = it.format;
    r.kind = working_set_kind(it.spec);
    r.tcp = (id % 2) == 1;
    r.at_s = t;
    out.push_back(std::move(r));
    t += rng.exponential(1.0 / rate);
  }
  return out;
}

std::vector<Request> mixed_schedule(std::uint64_t seed, double duration) {
  std::vector<Request> out = warm_schedule(seed, kMixedWarmRate, 0, duration, 0);
  static const std::pair<const char*, int> kShapes[] = {
      {"solo", 1}, {"corun", 2}, {"solo", 2}, {"corun", 3}};
  // The cold schedule's shape (times, shapes, types, pairs, re-sends) is the
  // same under every seed, so a run's contention pattern does not depend on
  // it; the seed salts every flow seed and draws the warm arrivals.
  Rng type_rng(kTypeSeed);
  TypeBag bag(type_rng);
  std::uint64_t id = 1'000'000;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dups;  // (re-send id, original id)
  int k = 0;
  for (double t = 0.1; t < duration; t += kMixedColdPeriod, ++k) {
    // Every third arrival brings a companion 30 ms later, so two cold
    // requests hold both worker slots at once.
    const int n_here = k % 3 == 0 ? 2 : 1;
    for (int c = 0; c < n_here; ++c) {
      const auto& [kind, n] = kShapes[(k + c) % 4];
      Request r = cold_request(seed, id, kind, n, "exact", bag, "mx");
      r.at_s = t + (c == 0 ? 0.0 : 0.03);
      r.format = kFormats[id % 3];
      r.tcp = (id % 2) == 1;
      ++id;
      out.push_back(r);
      if ((k + c) % 8 == 3) {
        // Re-sent while in flight: alternately the same bytes (the daemon's
        // flight dedup) and another format (the store's single-flight).
        Request d = r;
        d.id = id++;
        d.cold = false;
        dups.emplace_back(d.id, r.id);
        d.at_s = r.at_s + 0.01;
        d.tcp = !r.tcp;
        if ((k / 8) % 2 == 1) d.format = kFormats[(r.id + 1) % 3];
        out.push_back(std::move(d));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) { return a.at_s < b.at_s; });
  std::map<std::uint64_t, int> index;
  for (std::size_t i = 0; i < out.size(); ++i) index[out[i].id] = static_cast<int>(i);
  for (const auto& [dup, orig] : dups) out[static_cast<std::size_t>(index[dup])].dup_of = index[orig];
  return out;
}

}  // namespace pb
