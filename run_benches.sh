#!/bin/bash
# Usage: run_benches.sh [bench-name ...]
# Builds the `audit-off` preset (build-audit-off/: audit hooks compiled
# out, so host timings are not inflated by the invariant audit) and runs
# every binary in its bench/ directory. With arguments, runs only the named
# benches (basenames, e.g. `run_benches.sh harness_perf cert_perf`) — handy
# for seeding the perf trajectory with the hot-path benches without paying
# for the full figure suite.
repo=$(cd "$(dirname "$0")" && pwd)
build="$repo/build-audit-off"
out="$repo/bench_output.txt"
json_dir="$repo/bench_json"
mkdir -p "$json_dir"
(cd "$repo" && cmake --preset audit-off >/dev/null && cmake --build --preset audit-off -j "$(nproc)") \
  > "$out" 2>&1 || { echo "audit-off build failed; see $out" >&2; exit 1; }
# Figure benches write machine-readable BENCH_<name>.json rows here
# (see BenchReport in bench/common.h).
export SDUR_BENCH_JSON_DIR="$json_dir"
for b in "$build"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  if [ "$#" -gt 0 ]; then
    wanted=0
    for want in "$@"; do
      [ "$name" = "$want" ] && wanted=1
    done
    [ "$wanted" = 1 ] || continue
  fi
  echo "### $name ###" >> "$out"
  args=()
  case "$name" in
    # google-benchmark binary: use its native JSON reporter.
    micro_components)
      args=(--benchmark_out="$json_dir/BENCH_micro_components.json" --benchmark_out_format=json)
      ;;
  esac
  start=$SECONDS
  "$b" "${args[@]}" >> "$out" 2>&1
  echo "[wall $((SECONDS-start))s]" >> "$out"
  echo >> "$out"
done
# Fold this run's BENCH_*.json into bench_json/TRAJECTORY.json, keyed by
# commit SHA, so perf numbers accumulate across PRs into one time series.
# A filtered run folds only the selected benches (stale BENCH files from
# other binaries must not be re-attributed to this commit). Each folded
# report is stamped with the build type and audit flag it was measured on.
SDUR_BENCH_FILTER="$*" python3 - "$json_dir" "$repo" "$build" <<'PY' >> "$out" 2>&1
import json, os, pathlib, re, subprocess, sys

json_dir, repo, build = pathlib.Path(sys.argv[1]), sys.argv[2], pathlib.Path(sys.argv[3])
try:
    sha = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
except Exception:
    sha = "unknown"

cache = (build / "CMakeCache.txt").read_text()
def cache_value(name):
    m = re.search(rf"^{name}:[A-Z]+=(.*)$", cache, re.M)
    return m.group(1) if m else "unknown"
stamp = {"build_type": cache_value("CMAKE_BUILD_TYPE"), "audit": cache_value("SDUR_AUDIT")}

traj_path = json_dir / "TRAJECTORY.json"
trajectory = {}
if traj_path.exists():
    try:
        trajectory = json.loads(traj_path.read_text())
    except json.JSONDecodeError:
        print(f"TRAJECTORY.json unreadable; starting fresh")

selected = set(os.environ.get("SDUR_BENCH_FILTER", "").split())
# Report names that differ from their binary's basename (the filter is
# given binary names on the command line).
aliases = {"trace_breakdown": "latency_breakdown",
           "vote_batching": "ablation_vote_batching",
           "convoy_bypass": "ablation_convoy_bypass"}
entry = trajectory.get(sha, {})
for f in sorted(json_dir.glob("BENCH_*.json")):
    name = f.stem.removeprefix("BENCH_")
    if selected and name not in selected and aliases.get(name) not in selected:
        continue
    try:
        report = json.loads(f.read_text())
    except json.JSONDecodeError as e:
        print(f"skipping {f.name}: {e}")
        continue
    report["build"] = stamp
    entry[name] = report

trajectory[sha] = entry
traj_path.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
print(f"TRAJECTORY.json: {len(entry)} bench report(s) recorded under {sha[:12]}")
PY
echo "ALL-BENCHES-DONE" >> "$out"
