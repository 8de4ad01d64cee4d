"""Seeded closed-loop benchmark of bnpick.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-certify --seed 1 --seconds 30 --trace 0

One client runs one op at a time (a closed loop) through a fixed number of
rounds, about ``--seconds`` seconds of them, then every output goes through
the oracle.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same ops with a span around every public call, the first round's ops
also once untraced, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metrics.
"""

import os

# BLAS is pinned to one thread before numpy is imported, here and in every
# child process, which inherits this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The process and its children run on one CPU, so that the calibration
# kernel (speed.py) measures the speed of the CPU that runs the ops: the
# CPUs of a shared host slow down independently of each other.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("exact-certify", "float-certify", "cli-mixed")
SETUP_REPEATS = 5


def _setup(name: str, seed: int, seconds: float):
    """Import bnpick and build the workload's inputs; returns (workload,
    seconds scaled to the reference speed)."""
    from speed import HostSpeed

    speed = HostSpeed()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(name, seed, seconds)
    return workload, speed.scale(time.perf_counter() - start)


def _setup_probe(name: str, seed: int, seconds: float) -> float:
    """The set-up time of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Record:
    """One op's outcome; ``scaled`` is its wall time ``seconds`` at the
    reference speed (see speed.py)."""

    __slots__ = ("op", "cell", "seconds", "scaled", "out", "error", "failed")

    def __init__(self, op, cell, seconds, scaled, out, error):
        self.op, self.cell, self.seconds, self.scaled = op, cell, seconds, scaled
        self.out, self.error = out, error
        self.failed = None


def _run_op(workload, op, cell, tracer, speed):
    from ops import OpTimeout

    start = time.perf_counter()
    out, error = None, ""
    try:
        out = workload.run(op, tracer)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raise:{type(exc).__name__}"
    seconds = time.perf_counter() - start
    return Record(op, cell, seconds, speed.scale(seconds), out, error)


def _schedule(workload):
    """Every op of every round in order, with its cell: its position in the round."""
    return [(op, cell) for ops in workload.rounds for cell, op in enumerate(ops)]


def closed_loop(workload, tracer, pause=None, pauses=0):
    """Run every op of every round back to back.

    ``pause`` is called ``pauses`` times between ops, at even intervals of
    the op count; the time it takes is not loop time.  Returns the records,
    each with its time scaled to the reference speed.
    """
    from speed import HostSpeed

    schedule = _schedule(workload)
    at = [len(schedule) * (j + 1) // (pauses + 1) for j in range(pauses)]
    records = []
    speed = HostSpeed()
    for i, (op, cell) in enumerate(schedule):
        while at and at[0] <= i:
            at.pop(0)
            pause()
            speed.restart()
        tracer.op_id = i
        records.append(_run_op(workload, op, cell, tracer, speed))
    for _ in at:
        pause()
    return records


def traced_loop(workload):
    """Every op traced; the ops of the first round also plain, back to back.

    The paired ops give the tracer's overhead.  Which form runs first
    follows the Thue-Morse sequence of the op index, so that order effects,
    such as a warmer allocator on the second run, cancel in the ratio of the
    two forms' total scaled op times.  Returns the traced records, the
    tracer and the total scaled op time of each form over the paired ops.
    """
    from ops import Tracer
    from speed import HostSpeed

    tracer, plain = Tracer(True), Tracer(False)
    speed = HostSpeed()
    paired = len(workload.rounds[0])
    records, traced_s, plain_s = [], 0.0, 0.0
    for i, (op, cell) in enumerate(_schedule(workload)):
        tracer.op_id = i
        if i >= paired:
            records.append(_run_op(workload, op, cell, tracer, speed))
            continue
        forms = (tracer, plain) if bin(i).count("1") % 2 == 0 else (plain, tracer)
        runs = {form.enabled: _run_op(workload, op, cell, form, speed) for form in forms}
        records.append(runs[True])
        traced_s += runs[True].scaled
        plain_s += runs[False].scaled
    return records, tracer, traced_s, plain_s


def judge(workload, records) -> dict:
    """Fill in each record's failed checks; returns the count per check."""
    import oracle

    counts = dict.fromkeys(oracle.CHECKS, 0)
    verdicts = {}
    for rec in records:
        if rec.error:
            rec.failed = ["timeout" if rec.error == "timeout" else "raise"]
        else:
            key = id(rec.op)
            if key not in verdicts:  # repeated ops give identical outputs
                verdicts[key] = workload.judge(rec.op, rec.out)
            rec.failed = verdicts[key]
        for check in rec.failed:
            counts[check] += 1
    return counts


def _peak_rss_mb(workload) -> float:
    """The peak RSS of this process plus the largest CLI child's own peak."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.child_peak_kb) / 1024.0


def _environment(seed: int) -> dict:
    import numpy
    import workloads

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
        "op_limit_s": workloads.OP_LIMIT_S,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def cell_times(records) -> list:
    """The scaled op time of each cell: its median over the rounds."""
    by_cell = {}
    for rec in records:
        by_cell.setdefault(rec.cell, []).append(rec.scaled)
    return [statistics.median(v) for v in by_cell.values()]


def end_to_end(workload, records, setup_samples) -> dict:
    cells = cell_times(records)
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "ops_per_s": _metric(len(cells) / sum(cells), "1/s"),
        "op_s.p50": _metric(statistics.median(cells), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(workload), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bnpick" / "__init__.py").is_file():
        print(f"error: no bnpick sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload, first_setup = _setup(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        print(f"{first_setup!r}")
        return 0

    import layers
    import workloads
    from ops import Tracer

    env = _environment(args.seed)
    print("environment " + json.dumps(env))
    if args.trace == 0:
        setup = [first_setup]  # the rest come from fresh interpreters, spread over the loop
        records = closed_loop(
            workload, Tracer(False),
            pause=lambda: setup.append(_setup_probe(args.workload, args.seed, args.seconds)),
            pauses=SETUP_REPEATS - 1,
        )
        counts = judge(workload, records)
        metrics = end_to_end(workload, records, setup)
        cells = cell_times(records)
        p90 = statistics.quantiles(cells, n=10, method="inclusive")[8]
        print(f"samples {len(records)} ops in {len(workload.rounds)} rounds of "
              f"{len(cells)} cells; raw loop time {sum(r.seconds for r in records):.1f} s; "
              f"scaled op_s.p90 {p90:.4f} s, {sum(1 for c in cells if c > p90)} cells beyond it")
    else:
        records, tracer, traced_s, plain_s = traced_loop(workload)
        counts = judge(workload, records)
        metrics = layers.per_layer(workload, records, tracer, traced_s, plain_s, counts)
        shares = layers.op_time_shares(tracer)
        print("share of traced op time by call "
              + json.dumps({name: round(v, 4) for name, v in shares.items()}))
        workloads.OUT_DIR.mkdir(exist_ok=True)
        dump = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        dump.write_text(json.dumps({"environment": env, "spans": layers.span_rows(
            workload, records, tracer)}))
        print(f"spans written to {dump.relative_to(ROOT)}")
    failed = sum(1 for r in records if r.failed)
    raised = Counter(r.error[len("raise:"):] for r in records if r.error.startswith("raise:"))
    print(f"failed {failed} of {len(records)} ops; by check "
          + json.dumps({k: v for k, v in counts.items() if v})
          + ("; raised " + json.dumps(raised) if raised else ""))
    result = {
        "correct": workload_correct(args.workload, counts),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def workload_correct(name: str, counts: dict) -> bool:
    import workloads

    allowed = workloads.SEED_FAILURES[name] | {"timeout"}
    return all(not n or check in allowed for check, n in counts.items())


if __name__ == "__main__":
    sys.exit(main())
