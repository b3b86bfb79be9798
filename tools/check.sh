#!/usr/bin/env bash
# Full static/dynamic analysis gate for the SDUR repo.
#
# Runs, in order:
#   1. the static analyzer (tools/analyze): determinism rules, the src/
#      layering DAG, encode/decode symmetry and hot-path hygiene; writes
#      a machine-readable report to bench_json/ANALYZE.json;
#   2. clang-format / clang-tidy, when the tools exist (they are optional —
#      the reference container ships gcc only);
#   3. a -Werror compile of the whole tree (the warning set is
#      -Wall -Wextra -Wconversion -Wshadow, see CMakeLists.txt);
#   4. the same -Werror compile in the benchmark configuration (Release,
#      SDUR_AUDIT=OFF), where optimizer-only warnings surface;
#   5. the test suite under AddressSanitizer + UndefinedBehaviorSanitizer;
#   6. the test suite under -D_GLIBCXX_ASSERTIONS (hardened libstdc++);
#   7. a -Werror build with both instrumentation switches off
#      (-DSDUR_TRACE=OFF -DSDUR_FABRIC_COUNTERS=OFF): the tracing and
#      fabric-counter macros must compile to no-ops without warnings, and
#      the tracer, histogram, fabric-equivalence, CLI, bench-harness and
#      deployment tests still pass without instrumentation.
#
# There is no ThreadSanitizer stage: the simulator is single-threaded and
# src/, tests/, bench/ and tools/ hold no threads, atomics or mutexes.
#
# Build trees land in build-{werror,werror-release,asan,glibcxx,traceoff}/
# (see CMakePresets.json for the equivalent presets). Knobs:
#   SDUR_CHECK_JOBS=N   parallelism (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${SDUR_CHECK_JOBS:-$(nproc)}"

bold() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

configure_and_build() { # <dir> <cmake-args...>
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >"$dir.configure.log" 2>&1 || {
    cat "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j "$JOBS"
}

run_ctest() { # <dir> <extra ctest args...>
  local dir="$1"; shift
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "$@")
}

bold "1/7 static analysis"
mkdir -p bench_json
python3 tools/analyze --selftest
python3 tools/analyze --json bench_json/ANALYZE.json

bold "2/7 clang-format / clang-tidy (optional)"
if command -v clang-format >/dev/null 2>&1; then
  mapfile -t fmt_files < <(git ls-files '*.h' '*.cpp')
  clang-format --dry-run --Werror "${fmt_files[@]}"
  echo "clang-format: clean"
else
  echo "clang-format not installed — skipped (config: .clang-format)"
fi
if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
  configure_and_build build-tidy -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  run-clang-tidy -p build-tidy -quiet -j "$JOBS" 'src/.*\.cpp'
else
  echo "clang-tidy not installed — skipped (config: .clang-tidy)"
fi

bold "3/7 -Werror compile (-Wall -Wextra -Wconversion -Wshadow)"
configure_and_build build-werror -DCMAKE_CXX_FLAGS=-Werror
echo "warnings-clean"

bold "4/7 -Werror Release compile, audit off (the benchmark configuration)"
# perfbench and run_benches.sh compile Release with the audit hooks out:
# optimizer-only warnings and audit-only variable uses show up only here.
configure_and_build build-werror-release -DCMAKE_BUILD_TYPE=Release -DSDUR_AUDIT=OFF \
  -DCMAKE_CXX_FLAGS=-Werror
echo "warnings-clean"

bold "5/7 ASan + UBSan test suite"
configure_and_build build-asan -DSDUR_SANITIZE=asan
ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
  run_ctest build-asan

bold "6/7 _GLIBCXX_ASSERTIONS test suite"
configure_and_build build-glibcxx -DSDUR_GLIBCXX_ASSERTIONS=ON
run_ctest build-glibcxx

bold "7/7 SDUR_TRACE=OFF SDUR_FABRIC_COUNTERS=OFF -Werror build"
# The instrumentation macros must vanish cleanly: the whole tree compiles
# warning-free with SDUR_TRACE=0 and SDUR_FABRIC_COUNTERS=0, and the tests
# below still pass (the equivalence tests prove the simulation itself never
# depended on the tracer or the fabric counters).
configure_and_build build-traceoff -DSDUR_TRACE=OFF -DSDUR_FABRIC_COUNTERS=OFF \
  -DCMAKE_CXX_FLAGS=-Werror
# latency_breakdown_smoke / trace_json_parses are excluded: with the
# instrumentation compiled out there is nothing to attribute or export.
run_ctest build-traceoff -R 'Trace|Histogram|FabricEquiv|cli_|harness|Deployment'

bold "all checks passed"
