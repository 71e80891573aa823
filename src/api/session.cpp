#include "api/session.hpp"

#include <algorithm>
#include <unordered_map>

#include "api/artifacts.hpp"
#include "api/json.hpp"
#include "base/check.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "core/parallel.hpp"

namespace pp::api {

namespace {

using Runs = std::vector<std::shared_ptr<const core::ScenarioResult>>;

/// The `n` fan-out results starting at slot `at`.
[[nodiscard]] Runs slots(const Runs& runs, std::size_t at, std::size_t n) {
  return {runs.begin() + static_cast<std::ptrdiff_t>(at),
          runs.begin() + static_cast<std::ptrdiff_t>(at + n)};
}

}  // namespace

// ------------------------------------------------------------------- stack

ViewStack::ViewStack(const SessionOptions& opts, int seeds, core::ProfileStore& store)
    : tb(opts.scale, 1),
      solo(tb, seeds > 0 ? seeds : default_seeds(opts.scale), &store),
      sweep(solo, 5, opts.threads),
      predictor(solo, sweep),
      placement(solo, opts.threads) {
  // The Testbed constructor already applied the environment defaults; make
  // the explicit options authoritative (they usually coincide — from_env()
  // is the default — so env-configured sessions stay bit-identical to the
  // historical path).
  sim::MachineConfig& m = tb.machine_config();
  m.fidelity = opts.fidelity;
  m.sample_period_max =
      resolve_sample_period_max(opts.fidelity, m.sample_period, opts.sample_period_max);
  tb.set_run_budget_ms(opts.run_budget_ms);
  tb.set_run_deadline(opts.wall_deadline);
}

// ----------------------------------------------------------------- session

Session::Session(SessionOptions opts, core::ProfileStore* store) : opts_(std::move(opts)) {
  if (store != nullptr) {
    store_ = store;
    return;
  }
  const SessionOptions env = SessionOptions::from_env();
  if (opts_.cache_dir == env.cache_dir && opts_.cache_dir_ro == env.cache_dir_ro) {
    store_ = &core::ProfileStore::global();
  } else {
    owned_store_ = std::make_unique<core::ProfileStore>(opts_.cache_dir, opts_.cache_dir_ro);
    store_ = owned_store_.get();
  }
}

Session::Stats Session::stats() const {
  Stats s;
  s.specs_run = specs_run_.load();
  s.specs_deduped = specs_deduped_.load();
  s.specs_failed = specs_failed_.load();
  return s;
}

Result Session::run(const ExperimentSpec& spec) {
  specs_run_.fetch_add(1, std::memory_order_relaxed);

  const SessionOptions eff = apply_spec(spec, opts_);
  const Artifact* artifact = spec.artifact.empty() ? nullptr : find_artifact(spec.artifact);
  const int seeds = spec.seeds > 0 ? spec.seeds
                    : artifact != nullptr ? artifact->default_seeds(eff.scale)
                                          : default_seeds(eff.scale);
  const auto seed_count = static_cast<std::size_t>(seeds);

  Result res;
  res.kind = spec.kind;
  res.name = spec.name;
  res.scale = eff.scale;
  res.fidelity = eff.fidelity;
  res.seeds = seeds;

  // Every failure path funnels here: data sections are cleared so an error
  // Result is never half-filled, and the error is structured, not an abort.
  const auto fail = [&](StatusKind kind, std::string site, std::string detail) -> Result& {
    res.flows.clear();
    res.sweeps.clear();
    res.study.reset();
    res.artifact_text.clear();
    res.error = Error{kind, std::move(site), std::move(detail)};
    specs_failed_.fetch_add(1, std::memory_order_relaxed);
    return res;
  };

  // Parse normally rejects these; guard against hand-built specs without
  // taking the process down (this used to be a PP_CHECK abort).
  if (!spec.artifact.empty() && artifact == nullptr) {
    return fail(StatusKind::kInvalidSpec, "session.run",
                "unknown artifact \"" + spec.artifact + "\" (known: " + artifact_names() + ")");
  }
  if (artifact == nullptr && spec.flows.empty()) {
    return fail(StatusKind::kInvalidSpec, "session.run", "spec has no flows");
  }

  try {
    ViewStack v(eff, seeds, *store_);

    if (artifact != nullptr) {
      artifact->render(v, res.artifact_text);
      return res;
    }
    switch (spec.kind) {
      case ExperimentKind::kSolo: {
        const std::vector<core::Scenario> plan = lower_spec(spec, v.tb);
        const auto runs = store_->get_or_run_many(plan, eff.threads);
        for (std::size_t i = 0; i < spec.flows.size(); ++i) {
          FlowReport fr;
          fr.spec = spec.flows[i];
          fr.metrics = core::SoloProfiler::merge_plan(slots(runs, i * seed_count, seed_count));
          fr.solo_pps = fr.metrics.pps();
          res.flows.push_back(std::move(fr));
        }
        break;
      }
      case ExperimentKind::kCorun: {
        // One store fan-out: the corun seeds first, then the solo plan of
        // each distinct flow spec (a repeated spec reuses its first
        // occurrence's slots). Aggregation reads fixed slots in flow order.
        std::vector<core::Scenario> plan = lower_spec(spec, v.tb);
        std::vector<std::size_t> solo_at(spec.flows.size());
        for (std::size_t i = 0; i < spec.flows.size(); ++i) {
          const auto first = std::find(spec.flows.begin(), spec.flows.end(), spec.flows[i]);
          const auto j = static_cast<std::size_t>(first - spec.flows.begin());
          if (j < i) {
            solo_at[i] = solo_at[j];
            continue;
          }
          solo_at[i] = plan.size();
          for (core::Scenario& s : v.solo.plan(spec.flows[i])) plan.push_back(std::move(s));
        }
        const auto runs = store_->get_or_run_many(plan, eff.threads);
        for (std::size_t i = 0; i < spec.flows.size(); ++i) {
          std::vector<core::FlowMetrics> per_seed;
          per_seed.reserve(seed_count);
          for (std::size_t s = 0; s < seed_count; ++s) per_seed.push_back((*runs[s])[i]);
          FlowReport fr;
          fr.spec = spec.flows[i];
          fr.metrics = core::merge_metrics(per_seed);
          const core::FlowMetrics solo =
              core::SoloProfiler::merge_plan(slots(runs, solo_at[i], seed_count));
          fr.solo_pps = solo.pps();
          fr.drop_pct = core::drop_pct(solo, fr.metrics);
          res.flows.push_back(std::move(fr));
        }
        break;
      }
      case ExperimentKind::kSweep: {
        res.sweeps = v.sweep.sweep_many(spec.flows, spec.mode,
                                        core::SweepProfiler::default_levels(eff.scale));
        break;
      }
      case ExperimentKind::kPredict: {
        // Section 4 verbatim, generalized to arbitrary FlowSpecs: solo
        // profiles + normal-placement SYN sweeps for every flow (one store
        // fan-out), then each flow's predicted drop is its curve read at the
        // sum of its competitors' solo refs/sec.
        const auto sweeps = v.sweep.sweep_many(spec.flows, core::ContentionMode::kBoth,
                                               core::SweepProfiler::default_levels(eff.scale));
        for (std::size_t i = 0; i < spec.flows.size(); ++i) {
          double competing_refs = 0;
          for (std::size_t j = 0; j < spec.flows.size(); ++j) {
            if (j != i) competing_refs += sweeps[j].solo.refs_per_sec();
          }
          FlowReport fr;
          fr.spec = spec.flows[i];
          fr.metrics = sweeps[i].solo;
          fr.solo_pps = sweeps[i].solo.pps();
          fr.drop_pct = sweeps[i].curve.drop_at(competing_refs);
          res.flows.push_back(std::move(fr));
        }
        break;
      }
      case ExperimentKind::kPlacementSearch: {
        res.study = v.placement.evaluate(spec.flows);
        break;
      }
    }
  } catch (const StatusError& e) {
    return fail(e.status().kind, e.status().site, e.status().detail);
  } catch (const std::exception& e) {
    return fail(StatusKind::kInternal, "session.run", e.what());
  }
  return res;
}

std::vector<Result> Session::run_many(const std::vector<ExperimentSpec>& specs) {
  // Dedup on the canonical serialized form (equal specs <=> equal text):
  // each distinct spec executes once; duplicates share its Result. The
  // store's scenario-level single-flight already prevents duplicated
  // simulation across *overlapping* specs — this also skips their
  // re-aggregation.
  std::unordered_map<std::string, std::size_t> first;
  std::vector<std::size_t> unique_indices;
  std::vector<std::size_t> owner(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string key = specs[i].to_json();
    const auto [it, inserted] = first.try_emplace(key, unique_indices.size());
    if (inserted) {
      unique_indices.push_back(i);
    } else {
      specs_deduped_.fetch_add(1, std::memory_order_relaxed);
    }
    owner[i] = it->second;
  }

  std::vector<Result> unique(unique_indices.size());
  core::parallel_for(unique_indices.size(), opts_.threads,
                     [&](std::size_t u) { unique[u] = run(specs[unique_indices[u]]); });

  std::vector<Result> out;
  out.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) out.push_back(unique[owner[i]]);
  return out;
}

// --------------------------------------------------------------- rendering

namespace {

[[nodiscard]] std::string flow_label(const core::FlowSpec& f) {
  std::string s = core::to_string(f.type);
  if (f.type == core::FlowType::kSyn || f.type == core::FlowType::kSynMax) {
    s += strformat("(%llu,%llu)", static_cast<unsigned long long>(f.syn.reads),
                   static_cast<unsigned long long>(f.syn.instr));
  }
  if (f.batch != 1) s += strformat(" b%d", f.batch);
  return s;
}

void metrics_json(std::string& j, const char* indent, const core::FlowMetrics& m) {
  j += strformat("%s\"core\": %d,\n", indent, m.core);
  j += strformat("%s\"seconds\": %s,\n", indent, json_double(m.seconds).c_str());
  j += strformat("%s\"packets\": %llu,\n", indent,
                 static_cast<unsigned long long>(m.delta.packets));
  j += strformat("%s\"drops\": %llu,\n", indent,
                 static_cast<unsigned long long>(m.delta.drops));
  j += strformat("%s\"mpps\": %s,\n", indent, json_double(m.pps() / 1e6).c_str());
  j += strformat("%s\"cpi\": %s,\n", indent, json_double(m.cpi()).c_str());
  j += strformat("%s\"l3_refs_per_sec_m\": %s,\n", indent,
                 json_double(m.refs_per_sec() / 1e6).c_str());
  j += strformat("%s\"l3_hits_per_sec_m\": %s,\n", indent,
                 json_double(m.hits_per_sec() / 1e6).c_str());
  j += strformat("%s\"cycles_per_packet\": %s,\n", indent,
                 json_double(m.cycles_per_packet()).c_str());
  j += strformat("%s\"l3_refs_per_packet\": %s,\n", indent,
                 json_double(m.refs_per_packet()).c_str());
  j += strformat("%s\"l3_misses_per_packet\": %s,\n", indent,
                 json_double(m.misses_per_packet()).c_str());
  j += strformat("%s\"l2_hits_per_packet\": %s", indent,
                 json_double(m.l2_hits_per_packet()).c_str());
}

}  // namespace

std::string Error::to_json() const {
  return strformat("{\"kind\": \"%s\", \"site\": %s, \"detail\": %s}", pp::to_string(kind),
                   json_quote(site).c_str(), json_quote(detail).c_str());
}

std::string Result::to_json() const {
  std::string j = "{\n";
  j += strformat("  \"version\": %d,\n", kSpecSchemaVersion);
  j += strformat("  \"kind\": \"%s\",\n", to_string(kind));
  if (!name.empty()) j += "  \"name\": " + json_quote(name) + ",\n";
  if (error.has_value()) {
    j += "  \"error\": " + error->to_json() + "\n}\n";
    return j;
  }
  j += strformat("  \"scale\": \"%s\",\n", pp::to_string(scale));
  j += strformat("  \"fidelity\": \"%s\",\n", sim::to_string(fidelity));
  j += strformat("  \"seeds\": %d", seeds);
  if (!flows.empty()) {
    j += ",\n  \"flows\": [";
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowReport& fr = flows[i];
      j += i == 0 ? "\n" : ",\n";
      j += strformat("    {\"type\": \"%s\",\n", core::to_string(fr.spec.type));
      metrics_json(j, "     ", fr.metrics);
      j += strformat(",\n     \"solo_mpps\": %s", json_double(fr.solo_pps / 1e6).c_str());
      if (kind != ExperimentKind::kSolo) {
        j += strformat(",\n     \"%s\": %s",
                       kind == ExperimentKind::kPredict ? "predicted_drop_pct" : "drop_pct",
                       json_double(fr.drop_pct).c_str());
      }
      j += "}";
    }
    j += "\n  ]";
  }
  if (!sweeps.empty()) {
    j += ",\n  \"sweeps\": [";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const core::SweepResult& sr = sweeps[i];
      j += i == 0 ? "\n" : ",\n";
      j += strformat("    {\"target\": \"%s\", \"mode\": \"%s\", \"levels\": [",
                     core::to_string(sr.target), core::to_string(sr.mode));
      for (std::size_t l = 0; l < sr.levels.size(); ++l) {
        const core::SweepLevel& lvl = sr.levels[l];
        j += l == 0 ? "\n" : ",\n";
        j += strformat(
            "      {\"reads\": %llu, \"instr\": %llu, \"table_mb\": %llu, "
            "\"competing_refs_per_sec_m\": %s, \"drop_pct\": %s, \"target_mpps\": %s}",
            static_cast<unsigned long long>(lvl.syn.reads),
            static_cast<unsigned long long>(lvl.syn.instr),
            static_cast<unsigned long long>(lvl.syn.table_mb),
            json_double(lvl.competing_refs_per_sec / 1e6).c_str(),
            json_double(lvl.drop_pct).c_str(), json_double(lvl.target.pps() / 1e6).c_str());
      }
      j += "\n    ]}";
    }
    j += "\n  ]";
  }
  if (study.has_value()) {
    const auto outcome = [](const core::PlacementOutcome& o) {
      std::string s = "{\"sockets\": [";
      for (std::size_t i = 0; i < o.socket_of_flow.size(); ++i) {
        if (i > 0) s += ", ";
        s += strformat("%d", o.socket_of_flow[i]);
      }
      s += strformat("], \"avg_drop_pct\": %s, \"per_flow_drop_pct\": [",
                     json_double(o.avg_drop_pct).c_str());
      for (std::size_t i = 0; i < o.per_flow_drop.size(); ++i) {
        if (i > 0) s += ", ";
        s += json_double(o.per_flow_drop[i]);
      }
      s += "]}";
      return s;
    };
    j += strformat(",\n  \"placement\": {\n    \"placements_evaluated\": %d,\n",
                   study->placements_evaluated);
    j += "    \"best\": " + outcome(study->best) + ",\n";
    j += "    \"worst\": " + outcome(study->worst) + "\n  }";
  }
  j += "\n}\n";
  return j;
}

namespace {

[[nodiscard]] TextTable flows_table(const Result& r) {
  switch (r.kind) {
    case ExperimentKind::kSolo: {
      TextTable t({"Flow", "Mpps", "cycles per instruction", "L3 refs/sec (M)",
                   "L3 hits/sec (M)", "cycles per packet", "L3 refs per packet",
                   "L3 misses per packet", "L2 hits per packet"});
      for (const FlowReport& fr : r.flows) {
        const core::FlowMetrics& m = fr.metrics;
        t.add_numeric_row(flow_label(fr.spec),
                          {m.pps() / 1e6, m.cpi(), m.refs_per_sec() / 1e6,
                           m.hits_per_sec() / 1e6, m.cycles_per_packet(),
                           m.refs_per_packet(), m.misses_per_packet(),
                           m.l2_hits_per_packet()});
      }
      return t;
    }
    case ExperimentKind::kPredict: {
      TextTable t({"Flow", "solo Mpps", "predicted drop (%)", "predicted Mpps"});
      for (const FlowReport& fr : r.flows) {
        t.add_numeric_row(flow_label(fr.spec),
                          {fr.solo_pps / 1e6, fr.drop_pct,
                           fr.solo_pps / 1e6 * (1.0 - fr.drop_pct / 100.0)});
      }
      return t;
    }
    default: {
      TextTable t({"Flow", "core", "Mpps", "solo Mpps", "measured drop (%)",
                   "L3 refs/sec (M)", "cycles per packet"});
      for (const FlowReport& fr : r.flows) {
        const core::FlowMetrics& m = fr.metrics;
        t.add_row({flow_label(fr.spec), strformat("%d", m.core),
                   strformat("%.2f", m.pps() / 1e6), strformat("%.2f", fr.solo_pps / 1e6),
                   strformat("%.1f", fr.drop_pct), strformat("%.2f", m.refs_per_sec() / 1e6),
                   strformat("%.1f", m.cycles_per_packet())});
      }
      return t;
    }
  }
}

[[nodiscard]] TextTable sweeps_table(const Result& r) {
  TextTable t({"Target", "mode", "SYN reads", "SYN instr", "competing refs/sec (M)",
               "drop (%)", "target Mpps"});
  for (const core::SweepResult& sr : r.sweeps) {
    for (const core::SweepLevel& lvl : sr.levels) {
      t.add_row({core::to_string(sr.target), core::to_string(sr.mode),
                 strformat("%llu", static_cast<unsigned long long>(lvl.syn.reads)),
                 strformat("%llu", static_cast<unsigned long long>(lvl.syn.instr)),
                 strformat("%.2f", lvl.competing_refs_per_sec / 1e6),
                 strformat("%.1f", lvl.drop_pct),
                 strformat("%.2f", lvl.target.pps() / 1e6)});
    }
  }
  return t;
}

[[nodiscard]] TextTable placement_table(const Result& r) {
  TextTable t({"Placement", "avg drop (%)", "socket of flow 0..11"});
  const auto row = [&t](const char* label, const core::PlacementOutcome& o) {
    std::string sockets;
    for (const int s : o.socket_of_flow) sockets += strformat("%d", s);
    t.add_row({label, strformat("%.1f", o.avg_drop_pct), sockets});
  };
  row("best", r.study->best);
  row("worst", r.study->worst);
  return t;
}

[[nodiscard]] TextTable result_table(const Result& r) {
  if (!r.sweeps.empty()) return sweeps_table(r);
  if (r.study.has_value()) return placement_table(r);
  return flows_table(r);
}

}  // namespace

std::string Result::to_text() const {
  std::string head = name.empty() ? std::string(to_string(kind)) : name;
  if (error.has_value()) {
    return banner(head) + strformat("ERROR %s at %s: %s\n", pp::to_string(error->kind),
                                    error->site.c_str(), error->detail.c_str());
  }
  head += strformat(" (%s, %s fidelity, %d seed%s)", pp::to_string(scale),
                    sim::to_string(fidelity), seeds, seeds == 1 ? "" : "s");
  std::string out = banner(head) + result_table(*this).to_text();
  if (study.has_value()) {
    out += strformat("placements evaluated: %d\n", study->placements_evaluated);
  }
  return out;
}

std::string Result::to_csv() const {
  if (error.has_value()) {
    TextTable t({"error", "site", "detail"});
    t.add_row({pp::to_string(error->kind), error->site, error->detail});
    return t.to_csv();
  }
  return result_table(*this).to_csv();
}

std::string render_result(const Result& r, const std::string& format) {
  if (!r.artifact_text.empty()) return r.artifact_text;  // never set on failure
  if (format == "json") return r.to_json();
  if (format == "csv") return r.to_csv();
  return r.to_text() + "\n";
}

}  // namespace pp::api
