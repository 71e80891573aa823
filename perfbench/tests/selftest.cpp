// Tests of the benchmark's own arithmetic and generators: the nearest-rank
// percentile and its ten-samples-beyond rule, open-loop lateness, span self
// time, generator determinism and cold-key disjointness across seeds.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <set>

#include "api/session.hpp"
#include "core/scenario.hpp"
#include "gen.hpp"
#include "stats.hpp"

namespace {

using pb::Span;

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(pb::percentile(v, 5), 15);
  EXPECT_EQ(pb::percentile(v, 30), 20);
  EXPECT_EQ(pb::percentile(v, 40), 20);
  EXPECT_EQ(pb::percentile(v, 50), 35);
  EXPECT_EQ(pb::percentile(v, 100), 50);
  EXPECT_EQ(pb::percentile({3, 1, 2}, 50), 2);  // unsorted input
  EXPECT_EQ(pb::percentile({}, 50), 0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(pb::percentile(hundred, 90), 90);
  EXPECT_EQ(pb::percentile(hundred, 99), 99);
}

TEST(Percentile, TenSamplesBeyond) {
  EXPECT_EQ(pb::samples_beyond(100, 90), 10u);
  EXPECT_EQ(pb::samples_beyond(99, 90), 9u);
  EXPECT_EQ(pb::samples_beyond(1000, 99), 10u);
  EXPECT_EQ(pb::samples_beyond(999, 99), 9u);
  EXPECT_EQ(pb::samples_beyond(40, 75), 10u);  // cold_streamed's 40-answer floor
  EXPECT_EQ(pb::samples_beyond(39, 75), 9u);
  EXPECT_EQ(pb::samples_beyond(48, 90), 4u);
  EXPECT_EQ(pb::samples_beyond(0, 50), 0u);
}

TEST(Percentile, ChunkedMedianOfTails) {
  std::vector<double> v;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 100; ++i) v.push_back(i);
  }
  v[150] = 1e6;  // one stall in the second chunk
  EXPECT_EQ(pb::chunked_percentile(v, 99, 100), 99);
  EXPECT_EQ(pb::chunked_percentile(v, 50, 1000), 50);  // too few for two chunks
  EXPECT_EQ(pb::chunked_percentile({}, 99, 100), 0);
}

TEST(Lateness, FromScheduledSendTime) {
  EXPECT_DOUBLE_EQ(pb::lateness(1.0, 1.25), 0.25);
  EXPECT_DOUBLE_EQ(pb::lateness(1.0, 0.9), 0.0);  // early wakeups are on time
  const std::vector<double> sched = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<double> sent = {0, 1, 2, 3, 4.5, 5.5, 6.5, 7.5};
  const pb::LatenessSummary s = pb::summarize_lateness(sched, sent);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.5);
  EXPECT_DOUBLE_EQ(s.trend_s, 0.5);  // last quarter 0.5 late, first quarter on time
  const pb::LatenessSummary steady = pb::summarize_lateness(sched, sched);
  EXPECT_DOUBLE_EQ(steady.p99_s, 0);
  EXPECT_DOUBLE_EQ(steady.trend_s, 0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40);
  // [90, 120) is clipped to the parent.
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},
      {"c", 90, 120, 0, 1},
      {"grandchild", 12, 20, 1, 1},
  };
  const std::vector<double> self = pb::self_times_ns(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - (50 + 10));
  EXPECT_DOUBLE_EQ(self[1], 30 - 8);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[4], 8);
  EXPECT_DOUBLE_EQ(pb::union_length({{0, 10}, {0, 10}, {5, 15}}, 0, 100), 15);
  EXPECT_DOUBLE_EQ(pb::union_length({{0, 10}, {20, 30}}, 5, 25), 10);
}

[[nodiscard]] std::vector<pb::Request> sequence(pb::Workload w, std::uint64_t seed) {
  switch (w) {
    case pb::Workload::kColdStreamed: {
      std::vector<pb::Request> out;
      for (int b = 0; b < 4; ++b) {
        for (pb::Request& r : pb::cold_streamed_block(seed, b)) out.push_back(std::move(r));
      }
      return out;
    }
    case pb::Workload::kWarmServe:
      return pb::warm_schedule(seed, 400, 0, 5, 0);
    case pb::Workload::kMixedServe:
      return pb::mixed_schedule(seed, 20);
  }
  return {};
}

TEST(Generator, SameSeedSameSequence) {
  for (const pb::Workload w :
       {pb::Workload::kColdStreamed, pb::Workload::kWarmServe, pb::Workload::kMixedServe}) {
    const std::vector<pb::Request> a = sequence(w, 7);
    const std::vector<pb::Request> b = sequence(w, 7);
    const std::vector<pb::Request> c = sequence(w, 8);
    ASSERT_EQ(a.size(), b.size()) << pb::to_string(w);
    ASSERT_FALSE(a.empty());
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].spec, b[i].spec);
      EXPECT_EQ(a[i].format, b[i].format);
      EXPECT_EQ(a[i].at_s, b[i].at_s);
      EXPECT_EQ(a[i].tcp, b[i].tcp);
      EXPECT_EQ(a[i].dup_of, b[i].dup_of);
      differs = differs || i >= c.size() || a[i].spec != c[i].spec || a[i].at_s != c[i].at_s;
    }
    EXPECT_TRUE(differs) << pb::to_string(w) << ": another seed gave the same sequence";
  }
}

TEST(Generator, ScheduleShape) {
  const std::vector<pb::Request> warm = pb::warm_schedule(3, 400, 0, 10, 0);
  EXPECT_NEAR(static_cast<double>(warm.size()), 4000, 300);  // Poisson, rate 400/s
  int tcp = 0;
  for (const pb::Request& r : warm) {
    EXPECT_GE(r.item, 0);
    tcp += r.tcp ? 1 : 0;
  }
  EXPECT_NEAR(tcp, static_cast<int>(warm.size()) / 2, 1);  // transports interleave
  const std::vector<pb::Request> mixed = pb::mixed_schedule(3, 30);
  int cold = 0;
  int dups = 0;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(mixed[i - 1].at_s, mixed[i].at_s);
    }
    cold += mixed[i].cold ? 1 : 0;
    if (mixed[i].dup_of >= 0) {
      ++dups;
      const pb::Request& orig = mixed[static_cast<std::size_t>(mixed[i].dup_of)];
      EXPECT_TRUE(orig.cold);
      EXPECT_EQ(orig.spec, mixed[i].spec);
      EXPECT_GT(mixed[i].at_s, orig.at_s);
    }
  }
  EXPECT_GT(cold, 50);
  EXPECT_NEAR(static_cast<double>(dups), cold / 8.0, 3);
}

/// Every scenario key a cold request's spec lowers to (solo/corun plans and
/// the solo baselines are what carry the flow seeds).
[[nodiscard]] std::set<std::string> cold_keys(const std::vector<pb::Request>& reqs) {
  std::set<std::string> keys;
  pp::core::ProfileStore store;
  for (const pb::Request& r : reqs) {
    if (!r.cold) continue;
    const std::optional<pp::api::ExperimentSpec> spec = pp::api::ExperimentSpec::parse(r.spec);
    EXPECT_TRUE(spec.has_value()) << r.spec;
    if (!spec.has_value()) continue;
    pp::api::SessionOptions opts;
    opts.scale = pp::Scale::kQuick;
    opts = pp::api::apply_spec(*spec, opts);
    pp::api::ViewStack v(opts, spec->seeds, store);
    for (const pp::core::FlowSpec& f : spec->flows) {
      for (const pp::core::Scenario& s : v.solo.plan(f)) keys.insert(pp::core::scenario_key(s).hex());
    }
    if (spec->kind != pp::api::ExperimentKind::kPredict) {
      for (const pp::core::Scenario& s : pp::api::lower_spec(*spec, v.tb)) {
        keys.insert(pp::core::scenario_key(s).hex());
      }
    }
  }
  return keys;
}

TEST(Generator, ColdKeysDisjointAcrossSeeds) {
  for (const pb::Workload w : {pb::Workload::kColdStreamed, pb::Workload::kMixedServe}) {
    const std::set<std::string> a = cold_keys(sequence(w, 11));
    const std::set<std::string> b = cold_keys(sequence(w, 12));
    ASSERT_GT(a.size(), 20u);
    for (const std::string& k : a) EXPECT_EQ(b.count(k), 0u) << pb::to_string(w);
  }
}

TEST(Generator, ColdKeysNeverInTheWorkingSet) {
  std::vector<pb::Request> ws;
  for (const std::string& s : pb::working_set_specs()) {
    pb::Request r;
    r.cold = true;  // lower every working-set spec the same way
    r.spec = s;
    ws.push_back(std::move(r));
  }
  const std::set<std::string> fixture = cold_keys(ws);
  for (const std::string& k : cold_keys(sequence(pb::Workload::kMixedServe, 5))) {
    EXPECT_EQ(fixture.count(k), 0u);
  }
}

TEST(Generator, WorkingSetShape) {
  const std::vector<std::string>& specs = pb::working_set_specs();
  EXPECT_EQ(specs.size(), 120u);
  EXPECT_EQ(pb::working_set_items().size(), 360u);
  std::set<std::string> distinct(specs.begin(), specs.end());
  EXPECT_EQ(distinct.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::optional<pp::api::ExperimentSpec> s = pp::api::ExperimentSpec::parse(specs[i]);
    ASSERT_TRUE(s.has_value()) << specs[i];
    EXPECT_EQ(pp::api::to_string(s->kind), std::string(pb::working_set_kind(static_cast<int>(i))));
  }
}

}  // namespace
