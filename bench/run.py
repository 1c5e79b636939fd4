"""Run one benchmark workload against the haarnull sources in ../src.

    python3 bench/run.py --workload codec-scan --seed 1 --seconds 40 --trace 0

The run plans its round of operations from --seed, sets up (imports
haarnull and builds the round's inputs through the public constructors),
runs one warm-up round, then repeats whole rounds until --seconds have
passed since the warm-up began; afterwards it sets up again to take the
median set-up time.  Every output is checked (untimed) by checks.py.
The last line of stdout is one
JSON object: correct, attempted, failed and the metrics, each with its
unit; the end-to-end metrics with --trace 0, the per-layer metrics of
BENCHMARK.json with --trace 1.  A copy of it, and with --trace 1 the spans
of the first traced round, go to bench/out/.  The exit code is 0 only when
every output was correct.
"""

import argparse
import gc
import os
import random
import resource
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15


def set_up(planned):
    """Import haarnull and build the round's inputs through its public
    constructors; return the package, the inputs and the seconds it took."""
    started = time.perf_counter()
    import haarnull as hn

    inputs = [workloads.KINDS[kind][0](hn, raw) for kind, raw in planned]
    return hn, inputs, time.perf_counter() - started


def set_up_again(planned, preloaded, repeats):
    """Seconds taken by further set-ups, each after dropping every module
    loaded since `preloaded` was taken, so each pays the whole import.

    Runs after the measurement: a dropped module is not all given back, so
    repeated imports would raise the peak memory the run reports.
    """
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m not in preloaded]:
            del sys.modules[name]
        gc.collect()
        times.append(set_up(planned)[2])
    return times


def run_round(hn, planned, inputs, checks, problems):
    """Run and check every operation once; return each one's seconds, None if it failed."""
    clock = time.perf_counter
    times = []
    for (kind, raw), inp in zip(planned, inputs):
        call = workloads.KINDS[kind][1]
        try:
            started = clock()
            out = call(hn, inp)
            elapsed = clock() - started
        except Exception as exc:  # a failing operation is counted, not fatal
            times.append(None)
            problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        times.append(elapsed)
        try:
            checks[kind](raw, out)
        except Exception as exc:
            problems.append(f"{kind}: {type(exc).__name__}: {exc}")
    return times


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def kind_summary(planned, rounds):
    """Per kind: operations and median ms; and the kinds holding the p50 and p99."""
    from statistics import median

    timed = [(t, kind) for r in rounds for t, (kind, _) in zip(r, planned) if t is not None]
    by_kind = {}
    for elapsed, kind in timed:
        by_kind.setdefault(kind, []).append(elapsed)
    lines = [
        f"  {kind:<20} {len(v):>6} ops  median {median(v) * 1e3:9.3f} ms"
        for kind, v in sorted(by_kind.items())
    ]
    ranked = sorted(timed)
    for q in (50, 99):
        lines.append(f"  p{q} falls in {percentile(ranked, q)[1]}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    planned = workloads.PLANS[args.workload](random.Random(args.seed))
    sys.path.insert(0, SRC)
    preloaded = set(sys.modules)
    hn, inputs, first_setup = set_up(planned)
    if not os.path.abspath(hn.__file__).startswith(SRC + os.sep):
        print(f"haarnull was imported from {hn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import json
    from statistics import fmean, median

    import checks
    import spans

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_of = {
        kind: checks.checker(kind, workloads.PREFIX_BUDGET) for kind, _ in planned
    }
    gc.collect()

    problems = []
    deadline = time.perf_counter() + args.seconds
    warm_up = run_round(hn, planned, inputs, check_of, problems)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(sys.modules)
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(hn, planned, inputs, check_of, problems))
        if tracer is not None:
            tracer.end_round()
    everything = [warm_up] + rounds
    attempted = sum(len(r) for r in everything)
    failed = sum(t is None for r in everything for t in r)

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times = [first_setup] + set_up_again(planned, preloaded, SETUP_REPEATS - 1)
        # The machine is shared, and for seconds at a time other work slows
        # every operation alike.  Sums and per-round figures averaged over
        # the rounds follow the share of the run spent slow; a median over
        # the whole run would jump between the two speeds instead.
        done = [[t for t in r if t is not None] for r in rounds]
        pooled = sorted(t for r in done for t in r)
        found = {
            "setup_s": (median(setup_times), "s"),
            "ops_per_s": (len(pooled) / sum(pooled), "1/s"),
            "op_p50_ms": (fmean(median(r) for r in done) * 1e3, "ms"),
            "op_p99_ms": (percentile(pooled, 99) * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        wanted = spec["end_to_end"]
    else:
        found = tracer.metrics()
        wanted = spec["per_layer"]
        if not tracer.counts_repeat():
            problems.append("traced rounds made different calls or counts")

    metrics = {}
    for m in wanted:
        value, unit = found[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"{m['name']} is measured in {unit}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    busy = [sum(t for t in r if t is not None) for r in rounds]
    print(
        f"{args.workload} seed {args.seed}: {len(planned)} ops per round, "
        f"{len(rounds)} timed rounds; seconds in operations per round: "
        f"warm-up {sum(t for t in warm_up if t is not None):.4f}, "
        f"median timed {median(busy):.4f}",
        file=sys.stderr,
    )
    print(kind_summary(planned, rounds), file=sys.stderr)
    for problem in problems[:10]:
        print("problem:", problem, file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.csv")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
