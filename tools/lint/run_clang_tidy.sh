#!/bin/sh
# Run clang-tidy over the simulator library with the repo's .clang-tidy
# config. Usage: tools/lint/run_clang_tidy.sh [build-dir]
# The build dir must have been configured with
#   cmake -B <build-dir> -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
#
# Binary selection: $CLANG_TIDY when set (any path or name), else
# `clang-tidy` on PATH, else the newest versioned `clang-tidy-N` —
# distro packages often install only the suffixed name.
#
# clang-tidy is deliberately NOT a build dependency: the container image
# bakes in only the C++ toolchain, and the coroutine/determinism checks
# we care most about are enforced by the project-native analyzer
# (tools/analyze/) which builds with the project itself. clang-tidy is
# an extra layer run where it IS installed (the CI `analyze` job
# installs it and runs this script after the analyzer); when no binary
# is found this script says so clearly and exits with a *distinct*
# status (3, vs 0 clean / 1 findings / 2 usage error) so callers can
# tell "skipped" from "passed" instead of silently treating absence as
# success.
set -eu

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="${1:-$root/build}"

tidy="${CLANG_TIDY:-}"
if [ -n "$tidy" ] && ! command -v "$tidy" >/dev/null 2>&1; then
    echo "run_clang_tidy: CLANG_TIDY='$tidy' is not executable" >&2
    exit 2
fi
if [ -z "$tidy" ] && command -v clang-tidy >/dev/null 2>&1; then
    tidy=clang-tidy
fi
if [ -z "$tidy" ]; then
    for v in 22 21 20 19 18 17 16 15 14 13 12 11; do
        if command -v "clang-tidy-$v" >/dev/null 2>&1; then
            tidy="clang-tidy-$v"
            break
        fi
    done
fi

if [ -z "$tidy" ]; then
    echo "run_clang_tidy: SKIPPED - no clang-tidy binary found (looked" \
         "for \$CLANG_TIDY, clang-tidy, clang-tidy-22..11 on PATH)." \
         "It is optional; the project-native shrimp_analyze covers the" \
         "critical checks. Install clang-tidy (or point CLANG_TIDY at" \
         "one) to run this layer. Exiting 3 so callers can distinguish" \
         "skipped from clean." >&2
    exit 3
fi
if [ ! -f "$build/compile_commands.json" ]; then
    echo "run_clang_tidy: $build/compile_commands.json missing;" \
         "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 2
fi

echo "run_clang_tidy: using $tidy"
# shellcheck disable=SC2046
find "$root/src" -name '*.cc' -print0 |
    xargs -0 -P "$(nproc)" -n 4 "$tidy" -p "$build" --quiet
echo "run_clang_tidy: clean"
