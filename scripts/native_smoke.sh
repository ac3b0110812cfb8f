#!/bin/sh
# Native smoke: emit the catalogue under raw, IR-EDDI, hybrid and
# FERRUM, link every program with perfbench/harness.c and run it on this
# CPU, through the benchmark's native-overhead workload (5 s, seed 1).
# Fails unless every native output equals the IR interpreter's (the
# result's "failed" is 0) and FERRUM-protected code runs less than 20x
# slower than raw.  Skips, saying so, off x86-64 Linux or without gcc.
# Run from the root of a checkout.
set -e

host=$(uname -sm)
if [ "$host" != "Linux x86_64" ]; then
  echo "native-smoke: skipped, needs x86-64 Linux (host is $host)"
  exit 0
fi
if ! command -v gcc >/dev/null 2>&1; then
  echo "native-smoke: skipped, no gcc on PATH"
  exit 0
fi

out=$(python3 perfbench/run.py --workload native-overhead --seed 1 \
  --seconds 5 --trace 0)
printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
m = r["metrics"]
ratios = {k: m[k]["value"] for k in m if k.startswith("native_overhead_")}
print("native-smoke: attempted %d, failed %d, %s" % (
    r["attempted"], r["failed"],
    ", ".join("%s %.2f" % kv for kv in sorted(ratios.items()))))
if r["failed"] != 0:
    sys.exit("native-smoke: a native output differs from Ir.Interp")
if not ratios["native_overhead_ferrum"] < 20:
    sys.exit("native-smoke: FERRUM overhead is not below 20x raw")
'
echo "native-smoke: native outputs equal Ir.Interp, FERRUM overhead below 20x"
