// pplint — repo-invariant linter CLI (docs/static_analysis.md).
//
//   pplint [--root DIR] [--no-headers] [--compiler CC]
//
// Scans src/** for violations of the platform's determinism and isolation
// contracts and prints gcc-style file:line diagnostics. Exit 0 = clean,
// 1 = violations, 2 = usage. Registered as the `lint_pplint_tree` CTest and
// run by the CI lint job.
#include <cstdio>
#include <cstring>
#include <string>

#include "pplint/lint.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pplint [--root DIR] [--no-headers] [--compiler CC]\n"
               "  --root DIR     repo root to scan (default: the build-time source dir)\n"
               "  --no-headers   skip the standalone-header-compile rule\n"
               "  --compiler CC  compiler for the header rule (default: c++)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pp::lint::Options opt;
#ifdef PP_SOURCE_DIR
  opt.root = PP_SOURCE_DIR;
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (std::strcmp(argv[i], "--no-headers") == 0) {
      opt.check_headers = false;
    } else if (std::strcmp(argv[i], "--compiler") == 0 && i + 1 < argc) {
      opt.compiler = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.root.empty()) {
    std::fprintf(stderr, "pplint: no --root given and no build-time default\n");
    return usage();
  }

  const std::vector<pp::lint::Diagnostic> diags = pp::lint::lint_tree(opt);
  for (const pp::lint::Diagnostic& d : diags) {
    std::printf("%s\n", pp::lint::format(d).c_str());
  }
  std::fprintf(stderr, "pplint: %zu file-scope rule(s), %zu violation(s)\n",
               static_cast<std::size_t>(6), diags.size());
  return diags.empty() ? 0 : 1;
}
