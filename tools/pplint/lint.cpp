#include "pplint/lint.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/fault.hpp"
#include "base/strings.hpp"

namespace pp::lint {

namespace {

namespace fs = std::filesystem;

[[nodiscard]] bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

[[nodiscard]] bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

/// Blank out // and /* */ comments (and the contents of string/char
/// literals when `strip_strings`), preserving byte offsets and newlines so
/// line numbers survive. The fault-site rule needs literals intact; every
/// other rule wants them gone so `"PP_CHECK"` in a message cannot trip it.
[[nodiscard]] std::string strip_comments(const std::string& in, bool strip_strings) {
  std::string out = in;
  enum class St : std::uint8_t { kCode, kLine, kBlock, kStr, kChar };
  St st = St::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') st = St::kCode;
        else out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          if (strip_strings) {
            out[i] = ' ';
            if (next != '\0' && next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (strip_strings && c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
    }
  }
  return out;
}

[[nodiscard]] std::vector<std::string> to_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// `token` as a whole identifier; when `call_only`, it must be followed
/// (after whitespace) by an opening parenthesis.
[[nodiscard]] bool has_token(const std::string& line, const char* token, bool call_only) {
  const std::size_t n = std::string(token).size();
  for (std::size_t at = line.find(token); at != std::string::npos;
       at = line.find(token, at + 1)) {
    if (at > 0 && is_ident(line[at - 1])) continue;
    const std::size_t end = at + n;
    if (end < line.size() && is_ident(line[end])) continue;
    if (!call_only) return true;
    std::size_t p = end;
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
    if (p < line.size() && line[p] == '(') return true;
  }
  return false;
}

struct Pattern {
  const char* needle;   // substring ("::now(") or token, per `token`
  bool token;
  bool call_only;       // token must be a call (identifier followed by '(')
  const char* what;     // diagnostic text
};

[[nodiscard]] std::vector<Diagnostic> scan(const std::string& file, const std::string& text,
                                           const char* rule,
                                           const std::vector<Pattern>& patterns) {
  std::vector<Diagnostic> out;
  const std::vector<std::string> lines = to_lines(strip_comments(text, /*strip_strings=*/true));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const Pattern& p : patterns) {
      const bool hit = p.token ? has_token(lines[i], p.needle, p.call_only)
                               : lines[i].find(p.needle) != std::string::npos;
      if (hit) {
        out.push_back({file, static_cast<int>(i) + 1, rule, p.what});
        break;  // one diagnostic per line per rule
      }
    }
  }
  return out;
}

[[nodiscard]] bool in_sim_layers(const std::string& file) {
  return starts_with(file, "src/sim/") || starts_with(file, "src/core/") ||
         starts_with(file, "src/model/");
}

[[nodiscard]] bool below_api(const std::string& file) {
  static const char* kLayers[] = {"src/base/", "src/sim/", "src/model/", "src/click/",
                                  "src/apps/", "src/net/", "src/core/"};
  return std::any_of(std::begin(kLayers), std::end(kLayers),
                     [&](const char* dir) { return starts_with(file, dir); });
}

[[nodiscard]] bool in_isolation_paths(const std::string& file) {
  static const char* kFiles[] = {
      "src/api/session.cpp", "src/api/session.hpp", "src/api/serve.cpp", "src/api/serve.hpp",
      "src/api/frame.cpp",   "src/api/frame.hpp",   "src/api/client.cpp", "src/api/client.hpp",
  };
  return std::any_of(std::begin(kFiles), std::end(kFiles),
                     [&](const char* f) { return file == f; });
}

/// Per-line `pplint: allow(rule)` markers (raw text: markers live in
/// comments, which the match pass strips).
[[nodiscard]] std::vector<std::pair<int, std::string>> allow_markers(const std::string& text) {
  std::vector<std::pair<int, std::string>> out;
  const std::vector<std::string> lines = to_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::size_t at = lines[i].find("pplint: allow(");
    while (at != std::string::npos) {
      const std::size_t open = at + std::string("pplint: allow").size();
      const std::size_t close = lines[i].find(')', open);
      if (close == std::string::npos) break;
      out.emplace_back(static_cast<int>(i) + 1,
                       lines[i].substr(open + 1, close - open - 1));
      at = lines[i].find("pplint: allow(", close);
    }
  }
  return out;
}

}  // namespace

std::string format(const Diagnostic& d) {
  return strformat("%s:%d: [%s] %s", d.file.c_str(), d.line, d.rule.c_str(),
                   d.message.c_str());
}

std::vector<Diagnostic> check_getenv(const std::string& file, const std::string& text) {
  if (!starts_with(file, "src/")) return {};
  if (file == "src/api/options.cpp") return {};  // SessionOptions::from_env itself
  static const std::vector<Pattern> kPatterns = {
      {"getenv", true, false,
       "environment read outside SessionOptions::from_env (src/api/options.cpp) — "
       "route the knob through the audited parse"},
      {"secure_getenv", true, false,
       "environment read outside SessionOptions::from_env (src/api/options.cpp) — "
       "route the knob through the audited parse"},
  };
  return scan(file, text, "getenv", kPatterns);
}

std::vector<Diagnostic> check_layering(const std::string& file, const std::string& text) {
  if (!below_api(file)) return {};
  std::vector<Diagnostic> out;
  // Comments blanked, literals kept: the include path IS a literal.
  const std::vector<std::string> lines = to_lines(strip_comments(text, /*strip_strings=*/false));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    const std::size_t word = line.find_first_not_of(" \t", hash + 1);
    if (word == std::string::npos || line.compare(word, 7, "include") != 0) continue;
    if (line.find("\"api/", word) == std::string::npos &&
        line.find("<api/", word) == std::string::npos) {
      continue;
    }
    out.push_back({file, static_cast<int>(i) + 1, "layering",
                   "api/ header included below the api layer — pass the value down "
                   "from SessionOptions / api::ViewStack instead"});
  }
  return out;
}

std::vector<Diagnostic> check_nondeterminism(const std::string& file, const std::string& text) {
  if (!in_sim_layers(file)) return {};
  static const std::vector<Pattern> kPatterns = {
      {"rand", true, true, "rand() is not seeded by the scenario — use base/rng.hpp"},
      {"srand", true, true, "srand() is global state outside the scenario seed"},
      {"random_device", true, false,
       "std::random_device is nondeterministic — derive streams from the scenario seed"},
      {"time(nullptr", false, false, "wall-clock read breaks bit-identical replay"},
      {"time(NULL", false, false, "wall-clock read breaks bit-identical replay"},
      {"time(0)", false, false, "wall-clock read breaks bit-identical replay"},
      {"::now(", false, false,
       "wall-clock read in a simulation layer breaks bit-identical replay"},
      {"gettimeofday", true, false, "wall-clock read breaks bit-identical replay"},
      {"clock_gettime", true, false, "wall-clock read breaks bit-identical replay"},
      {"clock", true, true, "CPU-clock read breaks bit-identical replay"},
  };
  return scan(file, text, "nondeterminism", kPatterns);
}

std::vector<Diagnostic> check_noabort(const std::string& file, const std::string& text) {
  if (!in_isolation_paths(file)) return {};
  static const std::vector<Pattern> kPatterns = {
      {"PP_CHECK", true, false,
       "PP_CHECK aborts the process — the serve/session paths return structured errors "
       "(pp::Status / api::Error) instead"},
      {"PP_DCHECK", true, false,
       "PP_DCHECK aborts debug builds — the serve/session paths return structured errors "
       "instead"},
      {"abort", true, true, "abort() in an error-isolation path takes the daemon down"},
      {"assert", true, true,
       "assert() aborts debug builds — return a structured error instead"},
      {"exit", true, true, "exit() in an error-isolation path takes the daemon down"},
  };
  return scan(file, text, "noabort", kPatterns);
}

std::vector<Diagnostic> check_fault_sites(const std::string& file, const std::string& text,
                                          const std::unordered_set<std::string>& known_sites) {
  if (!starts_with(file, "src/")) return {};
  std::vector<Diagnostic> out;
  // Comments blanked, literals kept: the site names ARE literals.
  const std::string code = strip_comments(text, /*strip_strings=*/false);
  int line = 1;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '\n') {
      ++line;
      continue;
    }
    if (code[i] != 'f' || code.compare(i, 6, "fault(") != 0) continue;
    if (i > 0 && is_ident(code[i - 1])) continue;  // register_fault_site, known_fault_sites
    // Scan the argument list for string literals (handles the conditional
    // form `fault(flag ? "a" : "b")`).
    int depth = 0;
    int lit_line = line;
    for (std::size_t j = i + 5; j < code.size(); ++j) {
      if (code[j] == '\n') ++lit_line;
      if (code[j] == '(') ++depth;
      if (code[j] == ')' && --depth == 0) {
        i = j;
        break;
      }
      if (code[j] == '"') {
        std::string site;
        for (++j; j < code.size() && code[j] != '"'; ++j) site += code[j];
        if (known_sites.find(site) == known_sites.end()) {
          out.push_back({file, lit_line, "faultsite",
                         "fault site \"" + site +
                             "\" is not in the register_fault_site registry "
                             "(base/fault.cpp) — unreachable from PP_FAULTS and "
                             "missing from docs/robustness.md"});
        }
      }
    }
  }
  return out;
}

std::vector<Diagnostic> lint_text(const std::string& file, const std::string& text,
                                  const std::unordered_set<std::string>& known_sites) {
  std::vector<Diagnostic> all;
  for (auto&& d : check_getenv(file, text)) all.push_back(std::move(d));
  for (auto&& d : check_layering(file, text)) all.push_back(std::move(d));
  for (auto&& d : check_nondeterminism(file, text)) all.push_back(std::move(d));
  for (auto&& d : check_noabort(file, text)) all.push_back(std::move(d));
  for (auto&& d : check_fault_sites(file, text, known_sites)) all.push_back(std::move(d));

  // Apply suppressions, then flag the stale ones: an allow that matches no
  // diagnostic on its line is a rotted marker (or a typo'd rule name) and
  // must be removed — suppressions are part of the audited surface.
  const std::vector<std::pair<int, std::string>> allows = allow_markers(text);
  std::vector<Diagnostic> out;
  std::vector<bool> used(allows.size(), false);
  for (auto& d : all) {
    bool suppressed = false;
    for (std::size_t a = 0; a < allows.size(); ++a) {
      if (allows[a].first == d.line && allows[a].second == d.rule) {
        suppressed = true;
        used[a] = true;
      }
    }
    if (!suppressed) out.push_back(std::move(d));
  }
  for (std::size_t a = 0; a < allows.size(); ++a) {
    if (!used[a]) {
      out.push_back({file, allows[a].first, "allow",
                     "stale suppression: no [" + allows[a].second +
                         "] diagnostic fires on this line"});
    }
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

std::vector<Diagnostic> check_header_standalone(const std::string& header,
                                                const std::vector<std::string>& include_dirs,
                                                const std::string& compiler) {
  static int counter = 0;
  const std::string tu = (fs::temp_directory_path() /
                          strformat("pplint_hdr_%d_%d.cpp", static_cast<int>(::getpid()),
                                    counter++))
                             .string();
  {
    std::ofstream out(tu, std::ios::trunc);
    out << "#include \"" << header << "\"\n";
  }
  std::string includes;
  for (const std::string& dir : include_dirs) includes += " -I" + dir;
  const std::string cmd = strformat("%s -std=c++20 -fsyntax-only%s %s 2>&1",
                                    compiler.c_str(), includes.c_str(), tu.c_str());
  std::string output;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    fs::remove(tu);
    return {{header, 1, "header", "cannot spawn compiler: " + compiler}};
  }
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int rc = ::pclose(pipe);
  fs::remove(tu);
  if (rc == 0) return {};
  const std::size_t nl = output.find('\n');
  return {{header, 1, "header",
           "not self-contained (does not compile standalone): " +
               (nl == std::string::npos ? output : output.substr(0, nl))}};
}

std::vector<Diagnostic> lint_tree(const Options& opt) {
  std::unordered_set<std::string> sites = opt.known_sites;
  if (sites.empty()) {
    for (const FaultSiteInfo& s : known_fault_sites()) sites.insert(s.name);
  }

  const fs::path root(opt.root);
  const auto collect = [&](const char* dir, std::vector<std::string>& into) {
    if (!fs::is_directory(root / dir)) return;
    for (const fs::directory_entry& e : fs::recursive_directory_iterator(root / dir)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      into.push_back(fs::relative(e.path(), root).generic_string());
    }
  };
  std::vector<std::string> files;
  collect("src", files);
  collect("bench", files);
  collect("tools", files);
  std::sort(files.begin(), files.end());

  // src/ headers include each other as "dir/name.hpp" relative to src/;
  // bench/tools headers resolve against the repo root and src/.
  const std::vector<std::string> include_dirs = {(root / "src").string(), root.string()};

  std::vector<Diagnostic> out;
  for (const std::string& file : files) {
    std::ifstream in(root / file);
    std::ostringstream buf;
    buf << in.rdbuf();
    // The linter's own sources spell the marker and pattern strings out;
    // exempting them from the text rules avoids self-matches (the header
    // rule still applies).
    if (!starts_with(file, "tools/pplint/")) {
      for (auto&& d : lint_text(file, buf.str(), sites)) out.push_back(std::move(d));
    }
    if (opt.check_headers && file.size() > 4 && file.compare(file.size() - 4, 4, ".hpp") == 0) {
      const std::string rel = starts_with(file, "src/")
                                  ? file.substr(std::string("src/").size())
                                  : file;
      for (auto&& d : check_header_standalone(rel, include_dirs, opt.compiler)) {
        d.file = file;
        out.push_back(std::move(d));
      }
    }
  }
  return out;
}

}  // namespace pp::lint
