#!/bin/sh
# clang-tidy gate runner (docs/static_analysis.md).
#
# Runs the curated .clang-tidy check set over every first-party translation
# unit in the compile database (src/ and tools/ — tests are covered by
# their own suites and by pplint). WarningsAsErrors:'*' in .clang-tidy makes
# any finding fatal, so this script is a pass/fail gate.
#
# The dev container ships only gcc, so the gate degrades explicitly: no
# clang-tidy binary => exit 77 (the CTest SKIP_RETURN_CODE, reported as a
# skipped test, never a silent pass). CI's lint job installs clang-tidy and
# runs this for real. Override the binary with CLANG_TIDY=... if yours is
# versioned (clang-tidy-15 etc.).
#
# Usage: tools/run_clang_tidy.sh [build-dir]   (default: build)
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"

tidy="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$tidy" >/dev/null 2>&1; then
  echo "run_clang_tidy: $tidy not installed; skipping (install clang-tidy to run the gate)" >&2
  exit 77
fi

if [ ! -f "$build/compile_commands.json" ]; then
  echo "run_clang_tidy: $build/compile_commands.json missing; configure with cmake first" >&2
  echo "(CMAKE_EXPORT_COMPILE_COMMANDS is always on in this repo's CMakeLists)" >&2
  exit 2
fi

# First-party TUs only: the compile database also carries GTest etc. when
# vendored, and tests/ tune their assertions to gcc; the gate's surface is
# the shipped library, binaries, and tools.
files=$(cd "$root" && find src tools -name '*.cpp' 2>/dev/null | sort)
if [ -z "$files" ]; then
  echo "run_clang_tidy: no sources found under $root" >&2
  exit 2
fi

status=0
for f in $files; do
  if ! (cd "$root" && "$tidy" -p "$build" --quiet "$f"); then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "run_clang_tidy: findings above (checks: see .clang-tidy)" >&2
else
  echo "run_clang_tidy: clean ($(printf '%s\n' "$files" | wc -l | tr -d ' ') TUs)" >&2
fi
exit "$status"
