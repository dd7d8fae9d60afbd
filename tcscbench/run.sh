#!/usr/bin/env bash
# The TCSC benchmark, run from the root of a checkout of the program:
#
#   bash tcscbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the program's sources together with the benchmark (sbt, offline)
# into tcscbench/target the first time, or when a source changed, then runs
# one measurement. Everything it writes stays under the checkout: build
# output, .bench_build/ (classpath, logs, result records, spans, Spark's
# scratch space).
set -euo pipefail

bench=tcscbench
out=.bench_build

if [ ! -d src/main/scala/repro ] || [ ! -f "$bench/build.sbt" ]; then
  echo "tcscbench: run from the root of a checkout; src/main/scala/repro not found" >&2
  exit 2
fi
mkdir -p "$out/tmp" "$out/results"

if [ -z "${SPARK_HOME:-}" ] && command -v spark-submit >/dev/null; then
  SPARK_HOME=$(dirname "$(dirname "$(readlink -f "$(command -v spark-submit)")")")
  export SPARK_HOME
fi

sources_hash() {
  find src/main/scala jobs "$bench/src/main" "$bench/build.sbt" "$bench/project" \
    -path "$bench/project/target" -prune -o -path "$bench/project/project" -prune -o \
    -type f -print 2>/dev/null | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16
}

hash=$(sources_hash)
if [ ! -s "$out/classpath" ] || [ "$(cat "$out/classpath.src" 2>/dev/null)" != "$hash" ]; then
  repos=()
  if [ -f "$HOME/.sbt/repositories" ]; then
    repos=(-Dsbt.override.build.repos=true "-Dsbt.repository.config=$HOME/.sbt/repositories")
  fi
  echo "tcscbench: building (log in $out/build.log)" >&2
  if ! (cd "$bench" && COURSIER_MODE=offline timeout -k 10 840 sbt --batch \
        -Dsbt.log.noformat=true -Dsbt.offline=true -Dsbt.server.autostart=false -Dsbt.boot.lock=false \
        "${repos[@]}" compile "export Runtime/fullClasspath") >"$out/build.log" 2>&1; then
    tail -n 40 "$out/build.log" >&2
    echo "tcscbench: build failed" >&2
    exit 3
  fi
  tail -n 1 "$out/build.log" >"$out/classpath"
  echo "$hash" >"$out/classpath.src"
fi

sha=unknown
if [ -d .git ] && command -v git >/dev/null; then
  sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
[ "$sha" = unknown ] && sha="src-$hash"

exec java -Xmx2g \
  -Djava.io.tmpdir="$out/tmp" \
  -Dlog4j2.configurationFile="$bench/log4j2.properties" \
  -cp "$(cat "$out/classpath")" \
  tcscbench.Main --out "$out/results" --sha "$sha" "$@"
