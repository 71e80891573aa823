// Pure measurement arithmetic shared by the load generator and the traced
// replay: nearest-rank percentiles with the ten-samples-beyond rule,
// open-loop generator lateness, and span self time. Everything here is a
// function of its arguments, so tests/selftest.cpp pins it exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Nearest-rank percentile (p in (0, 100]) of `v`: the smallest sample with
/// at least p% of the samples at or below it, i.e. sorted[ceil(p/100*n) - 1].
/// Empty input gives 0.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
  std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}

/// Samples strictly beyond the nearest-rank p-th percentile position. A
/// percentile is reportable when at least ten lie beyond it (p75 needs
/// n >= 40, p90 n >= 100, p99 n >= 1000).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return r >= n ? 0 : n - r;
}

/// Robust tail: split `v` (in schedule order) into consecutive chunks of at
/// least `chunk` samples, take each chunk's p-th percentile, report their
/// median. One host stall then moves one chunk, not the result. With fewer
/// than `chunk` samples this is the plain percentile.
[[nodiscard]] inline double chunked_percentile(const std::vector<double>& v, double p,
                                               std::size_t chunk) {
  const std::size_t chunks = std::max<std::size_t>(1, chunk == 0 ? 1 : v.size() / chunk);
  const std::size_t size = v.size() / chunks;
  std::vector<double> tails;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(c * size);
    const auto e = c + 1 == chunks ? v.end() : b + static_cast<std::ptrdiff_t>(size);
    tails.push_back(percentile(std::vector<double>(b, e), p));
  }
  return percentile(tails, 50);
}

/// Open-loop lateness of one request: how long after its scheduled send time
/// it actually went out (never negative — an early wakeup is on time).
[[nodiscard]] inline double lateness(double scheduled_s, double sent_s) {
  return sent_s > scheduled_s ? sent_s - scheduled_s : 0.0;
}

/// Lateness summary of a schedule: p99 of per-request lateness, and the
/// trend (mean lateness of the last quarter minus the first quarter, in
/// schedule order) that marks a backlog growing over the window.
struct LatenessSummary {
  double p99_s = 0;
  double trend_s = 0;
};

[[nodiscard]] inline LatenessSummary summarize_lateness(const std::vector<double>& scheduled_s,
                                                        const std::vector<double>& sent_s) {
  LatenessSummary out;
  const std::size_t n = std::min(scheduled_s.size(), sent_s.size());
  if (n == 0) return out;
  std::vector<double> late(n);
  for (std::size_t i = 0; i < n; ++i) late[i] = lateness(scheduled_s[i], sent_s[i]);
  out.p99_s = percentile(late, 99);
  const std::size_t q = n / 4;
  if (q > 0) {
    double head = 0;
    double tail = 0;
    for (std::size_t i = 0; i < q; ++i) {
      head += late[i];
      tail += late[n - q + i];
    }
    out.trend_s = (tail - head) / static_cast<double>(q);
  }
  return out;
}

/// Total length of the union of [begin, end) intervals, each clipped to
/// [lo, hi). Overlapping intervals count once.
[[nodiscard]] inline double union_length(std::vector<std::pair<double, double>> iv, double lo,
                                         double hi) {
  for (auto& [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double cur_b = 0;
  double cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (e <= b) continue;
    if (!open || b > cur_e) {
      if (open) total += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_b;
  return total;
}

/// One traced call: name, [start, end) in ns since the tracer's epoch, the
/// span that caused it (-1 = root) and the request it belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (children on parallel threads may overlap; they count once).
[[nodiscard]] inline std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(static_cast<double>(s.start_ns),
                                                            static_cast<double>(s.end_ns));
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double b = static_cast<double>(spans[i].start_ns);
    const double e = static_cast<double>(spans[i].end_ns);
    out[i] = (e - b) - union_length(kids[i], b, e);
  }
  return out;
}

}  // namespace pb
