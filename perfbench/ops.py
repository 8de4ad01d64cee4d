"""Benchmark ops, the per-op time limit and the span recorder.

An op is one request a user would make.  Each in-process op exists in two
forms doing the same work: the plain form calls the library the way a user
would (``solve``, ``classify_and_verify``); the traced form splits the op
into the public calls the library makes, in its order, and records a span
around each.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import bnpick as b
from bnpick.solver import VERIFY_TOL


class OpTimeout(BaseException):
    """Raised inside an op that exceeds the per-op limit.

    A BaseException, so library code catching ``Exception`` cannot swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def time_limit(seconds: float):
    """Interrupt the body with ``OpTimeout`` after ``seconds`` of wall time."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tracer:
    """Span recorder: (op id, name, start, end, parent index, status, attrs).

    A disabled tracer records nothing, so the plain and traced forms of an
    op can share code where they do the same calls.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        attrs: dict = {}
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        status = "ok"
        try:
            yield attrs
        except OpTimeout:
            status = "timeout"
            raise
        except BaseException:
            status = "raise"
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (self.op_id, name, start, end, parent, status, attrs)


@dataclass
class SolveOutput:
    kappa: int
    lyapunov: object
    theta: object
    j_unitarity: object
    theta_kernel: object  # int, or the ArithmeticError the count raised
    factors: tuple


@dataclass
class CertifyOutput:
    report: object
    node_ok: tuple
    w: object
    sampled: int


def solve_op(problem, system, tracer: Tracer) -> SolveOutput:
    """``solve`` on an invertible problem plus the certificates of its result."""
    data = system.data
    if tracer.enabled:
        with tracer.span("problem.build_system"):
            system = b.build_system(data)
        with tracer.span("problem.check_lyapunov"):
            lyap = b.check_lyapunov(system)
        with tracer.span("resolvent.build_theta"):
            theta = b.build_theta(system)
        kappa = system.kappa
    else:
        bundle = b.solve(data)
        theta, kappa = bundle.theta, bundle.kappa
        lyap = b.check_lyapunov(system)
    with tracer.span("resolvent.check_j_unitarity") as attrs:
        ju = b.check_j_unitarity(theta)
        attrs["residual"] = ju.max_residual
    try:
        with tracer.span("resolvent.kernel_theta_negative_squares"):
            count = b.kernel_theta_negative_squares(system, theta)
    except ArithmeticError as exc:
        count = exc
    with tracer.span("resolvent.factorize"):
        factors = b.factorize(system, problem.split)
    return SolveOutput(kappa, lyap, theta, ju, count, factors)


def _span_of(system):
    xs = [float(x) for x in system.X]
    return (min(xs), max(xs))


def certify_op(system, phi, tracer: Tracer) -> CertifyOutput:
    """``classify_and_verify`` for one parameter, or its traced split."""
    if not tracer.enabled:
        report, w, sampled = b.classify_and_verify(system, phi)
        node_ok = tuple(node.verification.ok for node in report.nodes)
        return CertifyOutput(report, node_ok, w, sampled)
    with tracer.span("transform.is_nevanlinna"):
        check = b.is_nevanlinna(phi)
    if not check.ok:
        raise b.NotNevanlinnaError("parameter kernel is not positive", check.witness)
    with tracer.span("resolvent.build_theta"):
        theta = b.build_theta(system)
    with tracer.span("transform.apply_lft"):
        w = b.apply_lft(theta, phi)
    with tracer.span("solver.classify_all"):
        report = b.classify_all(system, phi)
    node_ok = tuple(
        verify_node(tracer, system, w, node.node - 1, node.predicted)
        for node in report.nodes
    )
    with tracer.span("boundary.kernel_negative_squares"):
        sampled = b.kernel_negative_squares(w, span=_span_of(system))
    return CertifyOutput(report, node_ok, w, sampled)


def traced_limit(tracer: Tracer, f, x0, kind):
    with tracer.span(f"boundary.nt_limit.{kind.value}") as attrs:
        estimate = b.nt_limit(f, x0, kind)
        attrs["converged"] = estimate.converged
    return estimate


def verify_node(tracer, system, w, i, outcome) -> bool:
    """The per-node limit check ``classify_and_verify`` makes, from public calls.

    Equalities hold within ``VERIFY_TOL``; strict inequalities need slack above it.
    """
    x_i = system.X[i]
    if system.data.is_regular(i):
        w_i = float(system.data.values[i])
        gamma_i = float(system.data.derivative_bounds[i])
        value = traced_limit(tracer, w, x_i, b.LimitKind.VALUE)
        deriv = traced_limit(tracer, w, x_i, b.LimitKind.DERIVATIVE)
        value_err = abs(value.value.real - w_i) if value.is_finite else float("inf")
        if outcome.kind == "exact":
            deriv_err = abs(deriv.value.real - gamma_i) if deriv.is_finite else float("inf")
            err = max(value_err, deriv_err)
            return err <= VERIFY_TOL
        if outcome.kind in ("strict_below", "strict_above"):
            if not (value_err <= VERIFY_TOL and deriv.is_finite):
                return False
            slack = gamma_i - deriv.value.real
            if outcome.kind == "strict_above":
                slack = -slack
            return slack > VERIFY_TOL
        if outcome.kind == "missed":
            return value_err > VERIFY_TOL
        kernel = traced_limit(tracer, w, x_i, b.LimitKind.KERNEL_DIAGONAL)
        return (value.status == "dne" or value.is_infinite or value_err > VERIFY_TOL
                or kernel.is_infinite)
    xi_i = float(system.data.residues[i - system.ell])
    residual = traced_limit(tracer, w, x_i, b.LimitKind.RESIDUAL)
    if not residual.is_finite:
        return False
    r = residual.value.real
    if outcome.kind == "exact":
        return abs(r - xi_i) <= VERIFY_TOL
    if outcome.kind == "zero_residual":
        return abs(r) <= VERIFY_TOL
    if abs(r) <= VERIFY_TOL:
        return False
    bound = -1.0 / xi_i
    slack = bound - (-1.0 / r)
    if outcome.kind == "strict_above":
        slack = -slack
    return slack > VERIFY_TOL


def degenerate_solve_traced(tracer: Tracer, data) -> None:
    """``solve`` on a singular-P problem, split into its public calls.

    Mirrors the unique-solution path: the closed form, one limit check per
    node condition, the bordered-kernel count and the plain kernel count.
    """
    with tracer.span("problem.build_system"):
        system = b.build_system(data)
    with tracer.span("solver.solve_degenerate"):
        w = b.solve_degenerate(system)
    for i in range(system.n):
        x_i = system.X[i]
        if system.data.is_regular(i):
            traced_limit(tracer, w, x_i, b.LimitKind.VALUE)
            traced_limit(tracer, w, x_i, b.LimitKind.DERIVATIVE)
        else:
            traced_limit(tracer, w, x_i, b.LimitKind.RESIDUAL)
    with tracer.span("boundary.fmi_check"):
        b.fmi_check(system, w)
    with tracer.span("boundary.kernel_negative_squares"):
        b.kernel_negative_squares(w, span=_span_of(system))
