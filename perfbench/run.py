#!/usr/bin/env python3
"""coeffmod benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload general-fp --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src; nothing
under src/ is edited.  A run

1. times set-up: SETUP_REPEATS fresh interpreters that import coeffmod and
   build its argument parser (`setup_s`, see measure_setup);
2. writes the spec files of the variants it will use (not timed);
3. runs passes over the workload's operations until --seconds have elapsed
   (always whole passes, at least MIN_PASSES), timing a short fixed
   pure-Python reference loop before every operation (outside its timing);
4. checks every answer (see workloads.py) and prints one summary line per
   metric, then the JSON result as the last line.

With --trace 1 the run makes one untraced and one traced pass over the
variant pass 0 would use, whatever --seconds says, and the result holds the
per-layer metrics of the traced pass.  Spans are written to
.perfbench/trace-<workload>.npz.

`--record` re-runs every variant of every workload once and rewrites
references.json; use it only on a commit whose answers are trusted.

Exit status: 0 when every answer is correct, 1 when an answer failed the
gate (the result line is still printed), 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
REFERENCE_ITERATIONS = 50_000
REFERENCE_NOMINAL_S = 0.03
MIN_PASSES = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import coeffmod, coeffmod.cli; coeffmod.cli.build_parser()"
)


def reference_loop():
    """Fixed pure-Python work of the program's kind (dicts of tuples, exact
    rationals), a few tens of milliseconds long.  It runs before every
    operation, so its time samples how fast the host runs Python throughout
    the pass; on a shared host that speed changes from second to second."""
    start = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 61, i % 53, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 16 == 0:
            acc += Fraction(i % 97 + 1, i % 89 + 1)
    if acc <= 0 or len(table) == 0:
        raise RuntimeError("reference loop lost its work")
    return time.perf_counter() - start


def measure_setup():
    """Set-up time in seconds on a host where reference_loop() takes
    REFERENCE_NOMINAL_S: the median over SETUP_REPEATS fresh interpreters of
    each one's wall time over a reference loop run just before it.  Raw
    start-up times moved by a third between runs an hour apart."""
    ratios = []
    for _ in range(SETUP_REPEATS):
        loop = reference_loop()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT, check=False)
        ratios.append((time.perf_counter() - start) / loop)
        if done.returncode != 0:
            raise SystemExit(f"set-up failed: importing coeffmod from {SRC} exited {done.returncode}")
    return statistics.median(ratios) * REFERENCE_NOMINAL_S


def clock():
    return time.perf_counter(), time.process_time()


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(workloads, name, seed, seconds, references):
    """Whole passes until `seconds` have elapsed, and at least MIN_PASSES so
    that the medians outvote one slow pass; pass j uses variant
    (seed + j) mod the number of variants run.  Returns the passes and, for
    each, the mean time of the reference loops run around its operations."""
    pool = workloads.variants(name)
    passes, refs = [], []
    elapsed = 0.0
    while len(passes) < MIN_PASSES or elapsed < seconds:
        variant = pool[(seed + len(passes)) % len(pool)]
        ops = workloads.build(name, variant, WORKDIR)
        loops = []
        done = workloads.run_pass(
            ops, variant, references[name][str(variant)], clock, on_op=lambda i: loops.append(reference_loop())
        )
        loops.append(reference_loop())
        passes.append(done)
        refs.append(statistics.mean(loops))
        elapsed += done.wall_s
    return passes, refs


def end_to_end(passes, refs, setup_s):
    """The bounded metrics of BENCHMARK.json, and the raw timings beside them.

    Raw times follow the host's speed, which on a shared host moves by more
    than any bound the benchmark may set from one run to the next, so the
    bounded timings are in units of the reference loop timed alongside."""
    bounded = {
        "wall_norm": metric(statistics.median(p.wall_s / r for p, r in zip(passes, refs)), "ratio"),
        "op_p50_norm": metric(
            statistics.median(o.wall_s / r for p, r in zip(passes, refs) for o in p.outcomes), "ratio"
        ),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    raw = {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "op_p50_s": metric(statistics.median(o.wall_s for p in passes for o in p.outcomes), "s"),
    }
    return bounded, raw


def run_traced(workloads, layers, tracer_mod, name, seed, references):
    """One variant (the one pass 0 of an untraced run uses) once untraced,
    then once traced, so the per-layer counts of one seed repeat exactly."""
    pool = workloads.variants(name)
    variant = pool[seed % len(pool)]
    refs = references[name][str(variant)]
    plain = workloads.run_pass(workloads.build(name, variant, WORKDIR), variant, refs, clock)
    ops = workloads.build(name, variant, WORKDIR)
    tracer = tracer_mod.Tracer().install()
    try:
        traced = workloads.run_pass(ops, variant, refs, clock, on_op=lambda i: setattr(tracer, "current_op", i))
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.save(os.path.join(WORKDIR, f"trace-{name}.npz"), spans)
    stats = tracer_mod.SpanStats(tracer.names, spans)
    return layers.per_layer(stats, tracer, 1, traced.wall_s / plain.wall_s - 1.0), [plain, traced]


def record(workloads):
    references = {}
    for name in workloads.WORKLOADS:
        references[name] = {}
        for variant in range(workloads.VARIANTS):
            done = workloads.run_pass(workloads.build(name, variant, WORKDIR), variant, None, clock)
            bad = [o for o in done.outcomes if o.failure]
            if bad:
                raise SystemExit(f"{name} v{variant}: refusing to record failed operations: "
                                 + "; ".join(f"{o.label}: {o.failure}" for o in bad))
            references[name][str(variant)] = {o.label: o.answer for o in done.outcomes}
            print(f"recorded {name} v{variant} in {done.wall_s:.2f}s", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite references.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coeffmod", "__init__.py")):
        print(f"error: no coeffmod sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.record:
        record(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    references = workloads.load_references()
    if args.trace:
        import layers
        import tracer

        metrics, passes = run_traced(workloads, layers, tracer, args.workload, args.seed, references)
        shown = {}
    else:
        setup_s = measure_setup()
        passes, refs = run_timed(workloads, args.workload, args.seed, args.seconds, references)
        metrics, shown = end_to_end(passes, refs, setup_s)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for o in p.outcomes:
            if o.failure:
                print(f"FAILED v{p.variant} {o.label}: {o.failure}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"(slowest {max(p.wall_s for p in passes):.3f} s), {attempted} operations, {failed} failed")
    shown["failed_frac"] = metric(failed / attempted, "ratio")
    for key, value in {**metrics, **shown}.items():
        print(f"{key} = {value['value']:.6g} {value['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
