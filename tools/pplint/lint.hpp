// pplint — the repo-invariant linter (docs/static_analysis.md).
//
// The platform's determinism contracts are conventions a compiler cannot
// check: every environment read goes through SessionOptions::from_env, the
// simulation layers never touch a wall clock or a PRNG the scenario seed
// does not control, the layers below api/ never include an api/ header, the serve/session error-isolation paths never abort,
// every fault-injection literal names a registered site, and every public
// header compiles standalone. pplint turns each convention into a scan with
// file:line diagnostics, run as a CTest (lint_pplint_tree) and a CI job.
//
// A deliberate exception is suppressed inline with
//
//   // pplint: allow(<rule>) — <why>
//
// on the offending line; the marker is part of the diagnostic surface (an
// allow for a rule that never fires on that line is itself an error), so
// suppressions cannot rot silently.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

namespace pp::lint {

struct Diagnostic {
  std::string file;  // path as given (tree scans: relative to the root)
  int line = 0;      // 1-based
  std::string rule;  // e.g. "getenv"
  std::string message;
};

/// "file:line: [rule] message" — the gcc-style format editors and CI
/// annotations understand.
[[nodiscard]] std::string format(const Diagnostic& d);

// ---------------------------------------------------------------- the rules
//
// Each checker takes the file's repo-relative path (scoping is part of the
// rule) and its full text, and returns the violations it found. Comments are
// stripped before matching (a mention of PP_CHECK in prose is not a call),
// but `pplint: allow(...)` markers are honored wherever they appear.

/// Rule "getenv": every environment read outside SessionOptions::from_env
/// (src/api/options.cpp) bypasses the audited parse — typos stop warning and
/// snapshots diverge. Scope: src/**.
[[nodiscard]] std::vector<Diagnostic> check_getenv(const std::string& file,
                                                   const std::string& text);

/// Rule "layering": an #include of an api/ header from a layer below it
/// (configuration flows down through api::ViewStack; a lower layer that
/// reaches up grows a second path). Scope: src/{base,sim,model,click,apps,
/// net,core}/**.
[[nodiscard]] std::vector<Diagnostic> check_layering(const std::string& file,
                                                     const std::string& text);

/// Rule "nondeterminism": rand()/srand(), std::random_device, time(nullptr),
/// and wall-clock reads (steady_clock::now and friends, gettimeofday,
/// clock_gettime) inside the simulation layers break bit-identical replay.
/// Scope: src/sim/**, src/core/**, src/model/**.
[[nodiscard]] std::vector<Diagnostic> check_nondeterminism(const std::string& file,
                                                           const std::string& text);

/// Rule "noabort": PP_CHECK/PP_DCHECK/abort/assert in the serve/session
/// error-isolation paths turn an isolated request failure into a daemon
/// crash — those files return structured errors instead. Scope:
/// src/api/{session,serve,frame,client}.{hpp,cpp}.
[[nodiscard]] std::vector<Diagnostic> check_noabort(const std::string& file,
                                                    const std::string& text);

/// Rule "faultsite": every string literal passed to pp::fault(...) must name
/// a site in the register_fault_site registry, or the injection point is
/// unreachable from PP_FAULTS (and undocumented — the registry drives the
/// docs table). Scope: src/**.
[[nodiscard]] std::vector<Diagnostic> check_fault_sites(
    const std::string& file, const std::string& text,
    const std::unordered_set<std::string>& known_sites);

/// Rule "allow": an `pplint: allow(<rule>)` marker whose rule never fires on
/// that line (stale suppression, or a typo'd rule name). Produced by
/// lint_tree/lint_text, not a standalone checker.

// ------------------------------------------------------------- tree driving

struct Options {
  std::string root;           // repo root (the directory holding src/)
  bool check_headers = true;  // run the standalone-compile rule
  std::string compiler = "c++";
  std::unordered_set<std::string> known_sites;  // empty = pp::known_fault_sites()
};

/// All text rules over one file (`file` repo-relative), including stale-allow
/// detection. Exposed for the fixture tests.
[[nodiscard]] std::vector<Diagnostic> lint_text(const std::string& file,
                                                const std::string& text,
                                                const std::unordered_set<std::string>& known_sites);

/// Rule "header": `header` (an absolute or cwd-relative path to a .hpp) must
/// compile standalone: `<compiler> -std=c++20 -fsyntax-only` over a TU that
/// includes only it, with `include_dirs` on the include path. Returns
/// diagnostics naming the header (first compiler error attached) — empty
/// means self-contained. `slot` names the temporary TU; concurrent callers
/// in one process pass distinct slots.
[[nodiscard]] std::vector<Diagnostic> check_header_standalone(
    const std::string& header, const std::vector<std::string>& include_dirs,
    const std::string& compiler, std::size_t slot = 0);

/// The full tree scan: every src/**/*.{hpp,cpp} through the text rules, plus
/// (opt.check_headers) every header under src/** and tools/** through the
/// standalone rule, compiled over up to min(hardware threads, 8) workers.
/// Deterministic order (sorted paths).
[[nodiscard]] std::vector<Diagnostic> lint_tree(const Options& opt);

}  // namespace pp::lint
