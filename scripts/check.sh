#!/usr/bin/env bash
# Full static-analysis + sanitizer gate for the namtree repo.
#
# Runs, in order:
#   1. repo lint          scripts/lint_namtree.py (zero findings enforced)
#   2. format check       clang-format --dry-run (skipped when absent)
#   3. clang-tidy         over src/ (skipped when absent)
#   4. plain build        -Werror, full ctest
#   5. asan+ubsan build   -Werror, full ctest
#   6. tsan build         -Werror, full ctest
#
# Usage: scripts/check.sh [--quick] [--explore N]
#   --quick      skip the tsan pass (the slowest stage)
#   --explore N  after the plain build, replay the differential and
#                fault-injection suites under N schedule seeds
#                (NAMTREE_SCHEDULE_SEED=1..N; see docs/simulator.md
#                §Schedule exploration). Reports the first failing seed.
#
# Build trees live under build-check/ so the gate never disturbs an
# existing build/ directory.

set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

QUICK=0
EXPLORE=0
EXPECT_EXPLORE_N=0
for arg in "$@"; do
  if [[ "$EXPECT_EXPLORE_N" == 1 ]]; then
    EXPLORE="$arg"
    EXPECT_EXPLORE_N=0
    continue
  fi
  case "$arg" in
    --quick) QUICK=1 ;;
    --explore) EXPECT_EXPLORE_N=1 ;;
    --explore=*) EXPLORE="${arg#--explore=}" ;;
    *) echo "usage: scripts/check.sh [--quick] [--explore N]" >&2; exit 2 ;;
  esac
done
if [[ "$EXPECT_EXPLORE_N" == 1 || ! "$EXPLORE" =~ ^[0-9]+$ ]]; then
  echo "usage: scripts/check.sh [--quick] [--explore N]" >&2; exit 2
fi

CTEST_PARALLEL="${CTEST_PARALLEL:-$(nproc)}"
FAILED=0

banner() { printf '\n=== %s ===\n' "$*"; }

run_suite() {
  local name="$1"; shift
  local dir="build-check/$name"
  banner "build: $name"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNAMTREE_WERROR=ON "$@"
  cmake --build "$dir" -j "$(nproc)"
  banner "ctest: $name"
  ctest --test-dir "$dir" --output-on-failure -j "$CTEST_PARALLEL"
}

banner "lint: scripts/lint_namtree.py"
python3 scripts/lint_namtree.py

banner "format: clang-format"
if command -v clang-format >/dev/null 2>&1; then
  mapfile -t SOURCES < <(git ls-files 'src/*.h' 'src/*.cc' 'tests/*.cc' \
                                      'bench/*.cc')
  clang-format --dry-run --Werror "${SOURCES[@]}"
  echo "clang-format: clean (${#SOURCES[@]} files)"
else
  echo "clang-format not installed; skipping (CI runs it)"
fi

banner "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1 && command -v clang++ >/dev/null 2>&1; then
  TIDY_DIR=build-check/tidy
  cmake -B "$TIDY_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cc')
  clang-tidy -p "$TIDY_DIR" --quiet "${TIDY_SOURCES[@]}" || FAILED=1
else
  echo "clang-tidy (with clang++) not installed; skipping (CI runs it)"
fi

# The suites replayed per schedule seed: every differential (model-vs-sim)
# and fault-injection test — the workloads where an HB race or a
# schedule-dependent protocol bug would surface as a kRemoteRace finding.
EXPLORE_FILTER='Differential|Crash|Orphan|RpcTimeout|ResourceExhaustion'
EXPLORE_FILTER+='|Straggler|Backoff|Jitter|ScheduleExplorer'

explore_schedules() {
  local dir="build-check/plain"
  local seed
  for ((seed = 1; seed <= EXPLORE; seed++)); do
    banner "schedule seed $seed / $EXPLORE"
    if ! NAMTREE_SCHEDULE_SEED="$seed" \
         ctest --test-dir "$dir" --output-on-failure -j "$CTEST_PARALLEL" \
               -R "$EXPLORE_FILTER"; then
      echo "FAILING SCHEDULE SEED: $seed" >&2
      echo "reproduce with:" >&2
      echo "  NAMTREE_SCHEDULE_SEED=$seed ctest --test-dir $dir" \
           "--output-on-failure -R '$EXPLORE_FILTER'" >&2
      FAILED=1
      return
    fi
  done
  echo "schedule exploration clean: $EXPLORE seeds"
}

run_suite plain
if [[ "$EXPLORE" -gt 0 ]]; then
  banner "schedule exploration: $EXPLORE seeds over differential + fault suites"
  explore_schedules
fi
run_suite asan-ubsan -DNAMTREE_SANITIZE="address;undefined"
if [[ "$QUICK" == 0 ]]; then
  run_suite tsan -DNAMTREE_SANITIZE="thread"
  # The suite's only multi-threaded test: fail if it is renamed away.
  ctest --test-dir build-check/tsan --output-on-failure \
        -R IndependentCellsMatchAcrossThreads --no-tests=error
else
  banner "tsan skipped (--quick)"
fi

if [[ "$FAILED" != 0 ]]; then
  banner "FAILED"
  exit 1
fi
banner "ALL CHECKS PASSED"
