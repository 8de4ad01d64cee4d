"""Per-layer metrics of a traced run, named after the package modules.

``<call>.self_s`` is the mean self time per call: span time minus the time
of its child spans.  ``fail`` counts calls that raised.  Ratios whose base
is zero on a workload (the layer is not exercised there) read 0.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import bnpick as b

import oracle
from ops import CertifyOutput, OpTimeout, SolveOutput, Tracer, degenerate_solve_traced, time_limit
from workloads import ROOT, CliWorkload, cli_env

CLI_COMMANDS = ("pick", "solve", "apply", "verify")
LIMIT_KINDS = ("value", "derivative", "residual", "kernel_diagonal")
IMPORT_REPEATS = 5
PROBE_LIMIT_S = 60.0

SELF_CALLS = (
    "problem.build_system",
    "problem.check_lyapunov",
    "algebra.hermitian_inertia",
    "algebra.matrix_inverse",
    "algebra.derivative",
    "resolvent.build_theta",
    "resolvent.check_j_unitarity",
    "resolvent.kernel_theta_negative_squares",
    "resolvent.factorize",
    "transform.is_nevanlinna",
    "transform.apply_lft",
    "solver.classify_all",
    "solver.solve_degenerate",
    *(f"boundary.nt_limit.{kind}" for kind in LIMIT_KINDS),
    "boundary.kernel_negative_squares",
    "boundary.fmi_check",
)
FAIL_CALLS = (
    "problem.check_lyapunov",
    "resolvent.check_j_unitarity",
    "resolvent.kernel_theta_negative_squares",
    "resolvent.factorize",
    "transform.apply_lft",
    "solver.solve_degenerate",
)


def metric_units() -> list:
    """Every per-layer metric name with its unit and direction."""
    out = [("fail_ratio", "1", "lower"), ("problem.build_system.calls", "count", "higher")]
    out += [(f"{call}.self_s", "s", "lower") for call in SELF_CALLS]
    out += [(f"{call}.fail", "count", "lower") for call in FAIL_CALLS]
    out += [
        ("algebra.w_degree.max", "count", "lower"),
        ("algebra.coeff_bits.max", "bits", "lower"),
        ("resolvent.ju_residual.max", "1", "lower"),
        ("solver.node_verified_ratio", "1", "higher"),
        ("boundary.nt_limit.converged_ratio", "1", "higher"),
        ("boundary.sampled_reach_ratio", "1", "higher"),
        ("boundary.sampled_over", "count", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.{cmd}.subprocess_s", "s", "lower"), (f"cli.{cmd}.inproc_s", "s", "lower")]
    out += [
        ("trace.overhead_ratio", "1", "lower"),
        ("trace.uncovered_ratio", "1", "lower"),
    ]
    out += [(f"oracle.{check}", "count", "lower") for check in oracle.CHECKS]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _coeff_bits(func) -> int:
    bits = 0
    for c in func.num.coeffs + func.den.coeffs:
        if isinstance(c, b.GaussianRational):
            for part in (c.re, c.im):
                bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
        elif c:
            bits = max(bits, int(abs(c)).bit_length())
    return bits


def _self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = defaultdict(float)
    for row in spans:
        if row[4] is not None:
            child[row[4]] += row[3] - row[2]
    return [row[3] - row[2] - child[i] for i, row in enumerate(spans)]


def _algebra_probes(tracer: Tracer, workload, records):
    """Inertia and inverse of each P touched, derivative of each w, timed once."""
    tracer.op_id = "probe"
    seen_problems, seen_w = set(), set()
    for rec in records:
        index = rec.op[0]
        if index not in seen_problems:
            seen_problems.add(index)
            P = workload.systems[index].P
            with tracer.span("algebra.hermitian_inertia"):
                b.hermitian_inertia(P)
            with tracer.span("algebra.matrix_inverse"):
                b.matrix_inverse(P)
        if isinstance(rec.out, CertifyOutput) and id(rec.op) not in seen_w:
            seen_w.add(id(rec.op))
            try:
                with time_limit(PROBE_LIMIT_S), tracer.span("algebra.derivative"):
                    rec.out.w.derivative()
            except OpTimeout:
                pass


def _cli_probes(tracer: Tracer, workload: CliWorkload, metrics: dict):
    """Interpreter start plus import, and each command run in-process."""
    tracer.op_id = "probe"
    imports = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bnpick"], env=cli_env(), cwd=ROOT,
                       check=True, timeout=PROBE_LIMIT_S)
        imports.append(time.perf_counter() - start)
    metrics["cli.import_s"] = statistics.median(imports)
    inproc = defaultdict(list)
    for op in workload.rounds[0]:
        inproc[op[1][0]].append(workload.inproc(op))
    for cmd, values in inproc.items():
        metrics[f"cli.{cmd}.inproc_s"] = statistics.median(values)
    for problem in workload.degenerate:
        with tracer.span("op.solve"):
            degenerate_solve_traced(tracer, problem.data)


def _certify_counts(workload, records):
    """Over certify ops (and CLI applies): (ops, nodes confirmed, nodes
    checked, sampled == predicted, sampled > predicted)."""
    ops = ok = total = reach = over = 0
    for rec in records:
        if isinstance(rec.out, CertifyOutput):
            nodes, sampled, predicted = rec.out.node_ok, rec.out.sampled, rec.out.report.class_index
        elif isinstance(workload, CliWorkload) and rec.out and rec.op[1][0] == "apply":
            try:
                doc = json.loads(rec.out[1])
            except ValueError:  # a failed apply prints no document
                continue
            nodes = [n["verified"] for n in doc["classification"]]
            sampled, predicted = doc["kernel_negative_squares"], doc["class_index"]
        else:
            continue
        ops += 1
        ok += sum(bool(v) for v in nodes)
        total += len(nodes)
        reach += sampled == predicted
        over += sampled > predicted
    return ops, ok, total, reach, over


def per_layer(workload, records, tracer: Tracer, traced_s, plain_s, counts) -> dict:
    values = {name: 0.0 for name, _, _ in metric_units()}
    loop_spans = len(tracer.spans)
    if isinstance(workload, CliWorkload):
        _cli_probes(tracer, workload, values)
    else:
        _algebra_probes(tracer, workload, records)
    spans = tracer.spans
    selfs = _self_times(spans)
    self_sum, calls, fails = defaultdict(float), defaultdict(int), defaultdict(int)
    converged = limits = 0
    for i, (op_id, name, start, end, parent, status, attrs) in enumerate(spans):
        if name.startswith("op."):
            continue
        self_sum[name] += selfs[i]
        calls[name] += 1
        fails[name] += status == "raise"
        if name.startswith("boundary.nt_limit."):
            limits += 1
            converged += bool(attrs.get("converged"))
        if name == "resolvent.check_j_unitarity" and "residual" in attrs:
            values["resolvent.ju_residual.max"] = max(
                values["resolvent.ju_residual.max"], attrs["residual"])
    for name in SELF_CALLS:
        values[f"{name}.self_s"] = _ratio(self_sum[name], calls[name])
    for name in FAIL_CALLS:
        values[f"{name}.fail"] = fails[name]
    values["problem.build_system.calls"] = calls["problem.build_system"]
    for cmd in CLI_COMMANDS:
        durations = [s[3] - s[2] for s in spans[:loop_spans] if s[1] == f"cli.{cmd}.subprocess"]
        if durations:
            values[f"cli.{cmd}.subprocess_s"] = statistics.median(durations)
    values["boundary.nt_limit.converged_ratio"] = _ratio(converged, limits)
    certified, ok, total, reach, over = _certify_counts(workload, records)
    values["solver.node_verified_ratio"] = _ratio(ok, total)
    values["boundary.sampled_reach_ratio"] = _ratio(reach, certified)
    values["boundary.sampled_over"] = over
    degrees, bits = [0], [0]
    for rec in records:
        funcs = []
        if isinstance(rec.out, CertifyOutput):
            funcs = [rec.out.w]
            degrees.append(max(rec.out.w.num.degree, rec.out.w.den.degree))
        elif isinstance(rec.out, SolveOutput):
            funcs = [e for row in rec.out.theta.entries for e in row]
        bits += [_coeff_bits(f) for f in funcs]
    values["algebra.w_degree.max"] = max(degrees)
    values["algebra.coeff_bits.max"] = max(bits)
    values["trace.overhead_ratio"] = 1.0 - plain_s / traced_s
    values["trace.uncovered_ratio"] = 1.0 - sum(op_time_shares(tracer).values())
    for check, n in counts.items():
        values[f"oracle.{check}"] = n
    values["fail_ratio"] = _ratio(sum(1 for r in records if r.failed), len(records))
    units = {name: unit for name, unit, _ in metric_units()}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def op_time_shares(tracer: Tracer) -> dict:
    """Share of traced op time spent in each layer call, largest first."""
    op_time, busy = 0.0, defaultdict(float)
    for op_id, name, start, end, parent, _, _ in tracer.spans:
        if op_id == "probe":
            continue
        if name.startswith("op."):
            op_time += end - start
        elif parent is not None:
            busy[name] += end - start
    shares = {name: t / op_time for name, t in busy.items()} if op_time else {}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def span_rows(workload, records, tracer: Tracer) -> list:
    """Spans as JSON rows: op id, op label, name, start, end, parent, status."""
    labels = {i: workload.describe(rec.op) for i, rec in enumerate(records)}
    return [
        {"op": op_id, "label": labels.get(op_id, op_id), "name": name, "start": start,
         "end": end, "parent": parent, "status": status}
        for op_id, name, start, end, parent, status, _ in tracer.spans
    ]
