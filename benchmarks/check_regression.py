#!/usr/bin/env python
"""Compare a pytest-benchmark JSON run against the committed baseline.

Usage::

    pytest benchmarks/bench_smoke.py benchmarks/bench_kernel.py \
        --benchmark-json=current.json
    python benchmarks/check_regression.py current.json
    python benchmarks/check_regression.py current.json --update

Exits 1 when any benchmark's best (min) time exceeds ``--threshold``
(default 2.0) times its baseline entry — the CI gate for performance
regressions.  ``--update`` rewrites the baseline from the current run
instead (commit the result after a deliberate performance change).
Benchmarks missing from the baseline are reported but do not fail, so
adding a new case does not require touching two files in lockstep.
``--subset`` declares the run a deliberate slice (a CI job gating a
single case): baselined benchmarks absent from the run are then not
treated as lost coverage.

``--manifest PATH`` additionally gates behaviour, not just speed: the
``counters`` section of a ``trace.manifest.json`` recorded by a traced
run (``repro-bench --trace ...``; see :mod:`repro.obs`) is compared
*exactly* against the baseline's ``counters`` block — those counters
(event counts, replans, migrations, heap pops, ...) are deterministic
per spec and seed under any ``--jobs``, so any drift names the counter
that moved and fails the gate.  The ``local`` manifest section
(process-local cache effects) is deliberately not compared.
``--update`` with ``--manifest`` refreshes the counter block too.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_BASELINE = "benchmarks/baseline_smoke.json"


def load_doc(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_mins(path: str) -> dict:
    doc = load_doc(path)
    benches = doc.get("benchmarks", doc)  # baseline may be the flat map
    if isinstance(benches, dict):
        return {name: float(v) for name, v in benches.items()}
    return {b["name"]: float(b["stats"]["min"]) for b in benches}


def load_counters(path: str) -> dict:
    """The deterministic ``counters`` section of a trace manifest.

    Accepts a ``trace.manifest.json`` or a flushed ``trace.json`` (whose
    manifest is embedded under ``reproManifest``).
    """
    doc = load_doc(path)
    if "reproManifest" in doc:
        doc = doc["reproManifest"]
    return {name: int(v) for name, v in (doc.get("counters") or {}).items()}


def check_counters(current: dict, baseline: dict) -> list:
    """Exact comparison; returns ``(name, detail)`` failures.

    Mirrors the benchmark semantics: a NEW counter is reported but does
    not fail (no two-file lockstep for new instrumentation); a changed
    or vanished counter fails by name.
    """
    failures = []
    for name in sorted(set(current) | set(baseline)):
        cur, base = current.get(name), baseline.get(name)
        if base is None:
            print(f"  NEW  counter {name}: {cur} (not in baseline; "
                  f"consider --update)")
        elif cur is None:
            print(f"  GONE counter {name}: in baseline ({base}) but not "
                  "in this run")
            failures.append((name, f"gone (baseline {base})"))
        elif cur != base:
            print(f"  FAIL counter {name}: {cur} vs baseline {base}")
            failures.append((name, f"{cur} != {base}"))
        else:
            print(f"  ok   counter {name}: {cur}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current",
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when current_min > threshold * "
                             "baseline_min (default: 2.0)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    parser.add_argument("--subset", action="store_true",
                        help="the run deliberately covers a slice of "
                             "the baseline; absent benchmarks do not "
                             "fail the gate")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="trace.manifest.json (or flushed "
                             "trace.json) from a traced run; its "
                             "deterministic 'counters' section must "
                             "match the baseline's exactly")
    args = parser.parse_args(argv)

    current = load_mins(args.current)
    manifest_counters = (load_counters(args.manifest)
                         if args.manifest else None)
    if args.update:
        try:
            prior = load_doc(args.baseline)
        except FileNotFoundError:
            prior = {}
        # Counters refresh only when a manifest is supplied; a plain
        # timing update keeps the committed behaviour baseline.
        counters = (manifest_counters if manifest_counters is not None
                    else prior.get("counters"))
        doc = {
            "_comment": "min times (s) from benchmarks/bench_smoke.py + "
                        "bench_kernel.py; "
                        + ("'counters' is the deterministic section of "
                           "the traced online-gap manifest (repro-bench "
                           "--trace sim run online-gap --no-store); "
                           "regenerate with check_regression.py --update "
                           "[--manifest trace.manifest.json]"
                           if counters else
                           "regenerate with check_regression.py --update"),
            "benchmarks": {name: current[name] for name in sorted(current)},
        }
        if counters:
            doc["counters"] = {n: counters[n] for n in sorted(counters)}
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(current)} benchmarks"
              + (f", {len(counters)} counters" if counters else "") + ")")
        return 0

    try:
        baseline = load_mins(args.baseline)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 1

    failures = []
    for name in sorted(current):
        cur = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"  NEW  {name}: {cur:.6f}s (not in baseline; "
                  f"consider --update)")
            continue
        ratio = cur / base if base > 0 else float("inf")
        status = "FAIL" if ratio > args.threshold else "ok"
        print(f"  {status:4s} {name}: {cur:.6f}s vs baseline "
              f"{base:.6f}s ({ratio:.2f}x)")
        if ratio > args.threshold:
            failures.append((name, ratio))
    missing = [] if args.subset else sorted(set(baseline) - set(current))
    for name in missing:
        # A baselined benchmark that stops running has silently lost
        # its regression coverage — that must fail the gate, not pass
        # it; rename/remove deliberately via --update.
        print(f"  GONE {name}: in baseline but not in this run")

    counter_failures = []
    if manifest_counters is not None:
        baseline_counters = {
            n: int(v)
            for n, v in (load_doc(args.baseline).get("counters")
                         or {}).items()}
        if baseline_counters:
            counter_failures = check_counters(manifest_counters,
                                              baseline_counters)
        else:
            print("  (no counter baseline yet; rerun with --manifest "
                  "--update to record one)")

    if failures or missing or counter_failures:
        if failures:
            print(f"\n{len(failures)} benchmark(s) regressed beyond "
                  f"{args.threshold:.1f}x", file=sys.stderr)
        if missing:
            print(f"\n{len(missing)} baselined benchmark(s) did not "
                  "run; update the baseline if this was deliberate",
                  file=sys.stderr)
        if counter_failures:
            names = ", ".join(name for name, _ in counter_failures)
            print(f"\n{len(counter_failures)} deterministic counter(s) "
                  f"drifted from the baseline: {names}", file=sys.stderr)
        return 1
    print(f"\nall {len(current)} benchmarks within "
          f"{args.threshold:.1f}x of baseline"
          + (f"; all {len(manifest_counters)} counters exact"
             if manifest_counters is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
