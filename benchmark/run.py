"""Benchmark of the steinertorelli package: one workload per run.

    python3 benchmark/run.py --workload curve-torelli --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  One process, one thread, no subprocesses.  A run

1. sets up SETUPS times (fresh import of the package, scene loading,
   seeded input generation) and reports the median as setup_s;
2. runs one untimed pass whose outputs are checked against the oracles,
   which also fills the package's caches;
3. repeats timed passes over the same operations until --seconds is
   used up, comparing every operation's report bytes with those of the
   first pass, and times a fixed reference loop before every pass and
   after the last.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced passes alternate
and the per-layer metrics are printed instead.  Per-run details and the
spans of one traced pass go to benchmark/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
PACKAGE = "steinertorelli"
MODULES = ("errors", "exactfield", "polyalg", "scenes", "steiner", "koszul",
           "torelli", "cli")
SETUPS = 3
MIN_PASSES = 3
REF_EVERY = 0.1

import layertrace as tracing  # noqa: E402
import workloads  # noqa: E402


class Modules:
    """The package's modules from one fresh import."""

    def __init__(self):
        for name in list(sys.modules):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    def layers(self):
        return {name: getattr(self, name) for name in tracing.LAYERS}


def setup(workload, seed):
    t0 = time.perf_counter()
    mods = Modules()
    ops = workloads.OPERATIONS[workload](mods, ROOT, seed)
    return time.perf_counter() - t0, mods, ops


# ---- the reference loop -----------------------------------------------------


def reference_loop():
    """Fixed pure-Python work of the package's kind: elimination mod a
    prime on a fixed matrix, Fraction elimination on a small one, and the
    tuple building and dict lookups of matrix construction and monomial
    indexing."""
    p = 10007
    n = 28
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n + 4):
            x = (1103515245 * x + 12345) % 2147483648
            row.append(x % p)
        rows.append(row)
    rank = 0
    for c in range(n + 4):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = [v * inv % p for v in rows[rank]]
        rows[rank] = top
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    q = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
          for j in range(9)] for i in range(8)]
    for c in range(8):
        piv = next((i for i in range(c, 8) if q[i][c]), None)
        if piv is None:
            continue
        q[c], q[piv] = q[piv], q[c]
        for i in range(8):
            if i != c and q[i][c]:
                f = q[i][c] / q[c][c]
                q[i] = [a - f * b for a, b in zip(q[i], q[c])]
    index = {}
    for i in range(600):
        key = tuple((i * k + rank) % 13 for k in range(6))
        row = tuple(Fraction(x, 1 + k) for k, x in enumerate(key))
        index[key] = index.get(key, ()) + (row,)
    return len(index)


def time_reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


# ---- passes -----------------------------------------------------------------


def run_pass(ops, baseline, refs=None, refs_near=None):
    """One pass; returns per-op seconds, failures and byte mismatches.

    With a `refs` list, the reference loop is timed at the start and then
    after any operation that ends REF_EVERY seconds or more after the last
    reference, so the reference sees the same host as the operations;
    `refs_near` gets, per operation, the index of the last reference
    timed before it."""
    times, failed, mismatched = [], 0, []
    last_ref = time.perf_counter()
    if refs is not None:
        refs.append(time_reference())
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        res = op.run()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if refs is not None:
            refs_near.append(len(refs) - 1)
        if not res.ok:
            failed += 1
        if baseline is not None and res.payload != baseline[i]:
            mismatched.append(op.name)
        if refs is not None and t1 - last_ref >= REF_EVERY:
            refs.append(time_reference())
            last_ref = time.perf_counter()
    return times, failed, mismatched


def check_pass(ops):
    """The untimed first pass: run, check against the oracles, and keep
    every report's bytes as the reference for later passes."""
    payloads, errors, failures = [], [], []
    for op in ops:
        res = op.run()
        payloads.append(res.payload)
        if not res.ok:
            failures.append(f"{op.name}: {res.payload[:160]!r}")
            continue
        try:
            op.check(res)
        except workloads.CheckFailed as exc:
            errors.append(f"{op.name}: {exc}")
    return payloads, errors, failures


def measure(ops, baseline, seconds, resetup, tracer=None):
    """Timed passes until `seconds` is used; with a tracer, untraced and
    traced passes alternate and the traced ones are returned apart.  After
    every untraced pass `resetup` times one more set-up, so the set-up
    samples are spread over the run like the passes."""
    plain, traced, op_times, setups = [], [], [], []
    refs, refs_near = [], []
    attempted = failed = 0
    mismatched = set()
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if tracer else (False,)):
            if with_trace:
                tracer.reset(keep_spans=not traced)
                tracer.install()
            gc.collect()
            pass_refs, near = (None, None) if with_trace else ([], [])
            times, fails, bad = run_pass(ops, baseline, pass_refs, near)
            if with_trace:
                tracer.uninstall()
                traced.append((sum(times), tracer.snapshot()))
                if len(traced) == 1:
                    spans = tracer.spans
            else:
                plain.append(sum(times))
                op_times.append(times)
                refs.append(pass_refs)
                refs_near.append(near)
                setups.append(resetup())
            attempted += len(ops)
            failed += fails
            mismatched.update(bad)
        elapsed = time.perf_counter() - start
        last = plain[-1] + (traced[-1][0] if traced else 0.0)
        if len(plain) >= MIN_PASSES and elapsed + last > seconds:
            break
    if tracer:
        tracer.spans = spans
    return {"plain": plain, "traced": traced, "refs": refs,
            "refs_near": refs_near, "setups": setups,
            "op_times": op_times, "attempted": attempted, "failed": failed,
            "mismatched": sorted(mismatched)}


# ---- metrics ----------------------------------------------------------------


def pass_times(run):
    """Wall-clock figures of the untraced passes: the median pass time, and
    the latency of the median operation (each operation's median over the
    passes, then the median over operations), in seconds and relative to
    the reference loop timed in the same pass or next to the operation."""
    n = len(run["op_times"][0])
    per_op, per_op_rel = [[] for _ in range(n)], [[] for _ in range(n)]
    for ts, refs, near in zip(run["op_times"], run["refs"],
                              run["refs_near"]):
        for i, (t, k) in enumerate(zip(ts, near)):
            per_op[i].append(t)
            # the references timed just before and just after the op
            per_op_rel[i].append(t / statistics.fmean(refs[k:k + 2]))
    return {
        "wall_s": statistics.median(run["plain"]),
        "wall_rel": statistics.median(
            t / statistics.fmean(refs)
            for t, refs in zip(run["plain"], run["refs"])),
        "op_p50_s": statistics.median(map(statistics.median, per_op)),
        "op_p50_rel": statistics.median(map(statistics.median, per_op_rel)),
    }


def end_to_end(run):
    times = pass_times(run)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "wall_rel": (times["wall_rel"], "ratio"),
        "op_p50_rel": (times["op_p50_rel"], "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run, setup_snapshot):
    passes = [tracing.layer_metrics(snap) for _, snap in run["traced"]]
    out = {}
    for name, (_, unit) in passes[0].items():
        out[name] = (statistics.median(p[name][0] for p in passes), unit)
    # scene files are loaded in set-up by some workloads and inside the
    # operations by others: count both
    load, unit = out["scenes.load_s"]
    out["scenes.load_s"] = (load + setup_snapshot.get("scenes.load_s", 0.0),
                            unit)
    # the raw wall-clock figures follow the host's speed too closely to
    # carry a bound (see README), so they are reported here, unbounded
    times = pass_times(run)
    out["bench.wall_s"] = (times["wall_s"], "s")
    out["bench.op_p50_s"] = (times["op_p50_s"], "s")
    overhead = (statistics.median(t for t, _ in run["traced"])
                - times["wall_s"])
    out["bench.trace_overhead_s"] = (overhead, "s")
    return out


# ---- entry point ------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"no {PACKAGE} package under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RESULTS, exist_ok=True)

    setups = []
    for _ in range(SETUPS):
        dt, mods, ops = setup(args.workload, args.seed)
        setups.append(dt)

    tracer = setup_snapshot = None
    if args.trace:
        # one more, traced set-up, so scene loading there is seen
        tracer = tracing.Tracer(mods.layers())
        tracer.install()
        ops = workloads.OPERATIONS[args.workload](mods, ROOT, args.seed)
        tracer.uninstall()
        setup_snapshot = tracer.snapshot()

    baseline, errors, failures = check_pass(ops)
    run = measure(ops, baseline, args.seconds,
                  lambda: setup(args.workload, args.seed)[0], tracer)
    run["setups"] = setups + run["setups"]
    if run["mismatched"]:
        errors.append("reports differ between passes: "
                      + ", ".join(run["mismatched"]))
    for line in errors:
        print("CHECK FAILED " + line, file=sys.stderr)
    for line in failures:
        print("FAILED " + line, file=sys.stderr)

    if args.trace:
        metrics = per_layer(run, setup_snapshot)
        tracer.write_spans(os.path.join(
            RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(run)
    result = {"correct": not errors, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, setups=run["setups"], passes=run["plain"],
                  traced_passes=[t for t, _ in run["traced"]],
                  refs=run["refs"], refs_near=run["refs_near"],
                  op_times=run["op_times"],
                  ops=[op.name for op in ops],
                  errors=errors, failures=failures)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
