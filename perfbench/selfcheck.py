#!/usr/bin/env python3
"""Self-checks of the benchmark itself (small datasets, short runs).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

1. Every workload runs in both modes with 0 failed operations, and every
   metric name and unit it prints matches BENCHMARK.json (run.py refuses a
   result line that does not).
2. With a fixed seed, the deterministic counts repeat exactly across two
   runs: index_bytes_per_triple, exec.rows_scanned, engine.ecs_tried, the
   dataset shape, and storage.pages_read on the single-client lubm_paged.
3. A deliberately corrupted reference answer is reported as a failed
   operation, not silently passed.
4. Each traced run writes its spans as JSON lines (name, start, end,
   parent span, request id) to .bench_build/perfbench/spans_<workload>.jsonl.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SPANS = os.path.join(".bench_build", "perfbench", "spans_%s.jsonl")
SPAN_KEYS = ["end_ns", "id", "name", "parent", "request", "start_ns"]
SCALE = "0.1"
SECONDS = "1"
SEED = "7"
DETERMINISTIC = ["data.triples", "cs.count", "ecs.count", "exec.rows_scanned",
                 "engine.ecs_tried"]


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        check(False, "%s (trace %d) exited with %d" %
              (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def check_spans(workload):
    spans = []
    with open(SPANS % workload) as f:
        for line in f:
            spans.append(json.loads(line))
    ok = len(spans) > 0 and any(s["parent"] >= 0 for s in spans)
    for i, s in enumerate(spans):
        ok = ok and sorted(s) == SPAN_KEYS and s["id"] == i
        ok = ok and -1 <= s["parent"] < i and s["start_ns"] <= s["end_ns"]
    check(ok, "%s: %d spans written with parent and request ids" %
          (workload, len(spans)))


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in [w["name"] for w in spec["workloads"]]:
        plain = [run(w, 0), run(w, 0)]
        traced = []
        for _ in range(2):
            traced.append(run(w, 1))
            check_spans(w)
        for r in plain + traced:
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s: %d operations, none failed" % (w, r["attempted"]))
        check(value(plain[0], "index_bytes_per_triple") ==
              value(plain[1], "index_bytes_per_triple"),
              "%s: index_bytes_per_triple repeats" % w)
        names = DETERMINISTIC + (["storage.pages_read"] if w == "lubm_paged"
                                 else [])
        for name in names:
            check(value(traced[0], name) == value(traced[1], name),
                  "%s: %s repeats (%g)" % (w, name, value(traced[0], name)))
        corrupt = run(w, 0, "--corrupt-reference")
        check(corrupt["failed"] > 0 and not corrupt["correct"],
              "%s: corrupted reference gives %d failed operations" %
              (w, corrupt["failed"]))


if __name__ == "__main__":
    main()
