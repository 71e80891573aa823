// pbench — the repo benchmark's load generator, fixture builder and traced
// replay (README.md beside this directory's CMakeLists.txt). run.py builds it
// together with ppd and drives it:
//
//   pbench fixture --dir DIR --threads N
//   pbench run --workload W --seed N --seconds S --trace 0|1 --threads N
//              --ppd PATH --dir DIR --fixture DIR --out FILE
//
// `run` writes one JSON object to FILE: correctness, attempted/failed
// counts, and the end-to-end, per-layer and report-only metrics.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "api/session.hpp"
#include "bench.hpp"
#include "gen.hpp"

namespace pb {

namespace {

constexpr const char* kStamp = "complete";

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void write_metrics(std::FILE* f, const char* key, const Metrics& m) {
  std::fprintf(f, "\"%s\": {", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::fprintf(f, "}");
}

}  // namespace

bool build_fixture(const std::string& dir, int threads, std::string& err) {
  if (std::filesystem::exists(dir + "/" + kStamp)) return true;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/cache");
  pp::api::SessionOptions opts = daemon_session_options(threads);
  opts.cache_dir = dir + "/cache";
  pp::api::Session session(opts);
  std::vector<pp::api::ExperimentSpec> specs;
  for (const std::string& json : working_set_specs()) {
    std::optional<pp::api::ExperimentSpec> s = pp::api::ExperimentSpec::parse(json, &err);
    if (!s.has_value()) return false;
    specs.push_back(std::move(*s));
  }
  const std::vector<pp::api::Result> results = session.run_many(specs);
  std::ofstream out(dir + "/expected.bin", std::ios::binary);
  for (const WarmItem& it : working_set_items()) {
    const pp::api::Result& r = results[static_cast<std::size_t>(it.spec)];
    if (!r.ok()) {
      err = "working-set spec failed: " + r.error->detail;
      return false;
    }
    const std::string bytes = render(r, it.format);
    const std::uint32_t n = static_cast<std::uint32_t>(bytes.size());
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  out.close();
  if (!out) {
    err = "cannot write " + dir + "/expected.bin";
    return false;
  }
  std::ofstream(dir + "/" + kStamp) << working_set_items().size() << "\n";
  return true;
}

bool load_expected(const std::string& dir, std::vector<std::string>& out) {
  if (!std::filesystem::exists(dir + "/" + kStamp)) return false;
  std::ifstream in(dir + "/expected.bin", std::ios::binary);
  out.clear();
  for (std::size_t i = 0; i < working_set_items().size(); ++i) {
    std::uint32_t n = 0;
    if (!in.read(reinterpret_cast<char*>(&n), sizeof n) || n > (64u << 20)) return false;
    std::string bytes(n, '\0');
    if (!in.read(bytes.data(), n)) return false;
    out.push_back(std::move(bytes));
  }
  return true;
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbench fixture|run [flags] (see perfbench/README.md)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Config cfg;
  std::string out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      if (!workload_from_string(v, cfg.workload)) {
        std::fprintf(stderr, "pbench: unknown workload \"%s\"\n", v.c_str());
        return 2;
      }
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      cfg.trace = v == "1";
    } else if (k == "--threads") {
      cfg.threads = std::max(1, std::atoi(v.c_str()));
    } else if (k == "--ppd") {
      cfg.ppd = v;
    } else if (k == "--dir") {
      cfg.dir = v;
    } else if (k == "--fixture") {
      cfg.fixture = v;
    } else if (k == "--out") {
      out = v;
    } else {
      std::fprintf(stderr, "pbench: unknown flag \"%s\"\n", k.c_str());
      return 2;
    }
  }

  if (cmd == "fixture") {
    std::string err;
    if (!build_fixture(cfg.dir, cfg.threads, err)) {
      std::fprintf(stderr, "pbench: fixture: %s\n", err.c_str());
      return 1;
    }
    return 0;
  }
  if (cmd != "run" || cfg.ppd.empty() || cfg.dir.empty() || out.empty()) {
    std::fprintf(stderr, "pbench: run needs --ppd, --dir and --out\n");
    return 2;
  }

  std::filesystem::create_directories(cfg.dir);
  RunState st;
  run_workload(cfg, st);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "pbench: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"violations\": [",
               st.violations.empty() ? "true" : "false",
               static_cast<unsigned long long>(st.attempted),
               static_cast<unsigned long long>(st.failed));
  for (std::size_t i = 0; i < st.violations.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", json_escape(st.violations[i]).c_str());
  }
  std::fprintf(f, "], ");
  write_metrics(f, "e2e", st.e2e);
  std::fprintf(f, ", ");
  write_metrics(f, "layers", st.layers);
  std::fprintf(f, ", ");
  write_metrics(f, "report", st.report);
  std::fprintf(f, "}\n");
  std::fclose(f);
  return st.violations.empty() ? 0 : 1;
}
