"""JSON-in / JSON-out command-line front end.

Four subcommands expose the pipeline: ``pick`` assembles and reports the
Pick system, ``solve`` produces the resolvent or the unique degenerate
solution, ``apply`` transforms a parameter and classifies it, ``verify``
checks a candidate function against the data.  Problems, parameters and
outputs travel as JSON documents; paths may be omitted in favor of
stdin/stdout; only ``apply`` and ``verify`` take ``--param``.  Exit codes:
0 success, 2 input error, 3 validation error or a value beyond the float
range.

Each subcommand imports the modules it runs when it starts, so that one
process per command pays only for those: ``pick`` needs the exact algebra
and the Pick system, and the sampled certificates (and numpy) load only
where a command samples.
"""

from __future__ import annotations

# bnpick's modules come first, so that a process which compiles them from
# source (no cached bytecode) compiles algebra.py, the largest, while its
# heap is still small: loading argparse, json and fractions first raised the
# peak RSS of a `pick` child by about 1 MB.
from ._sections import DEFAULT_GRID, VERIFY_TOL, GridConfig
from .algebra import RANK_TOL, RationalFunction, scalar_to_json
from .errors import BnpickError, InputError, InvalidDataError, SingularPickError
from .problem import InterpolationData, _real_scalars, build_system, check_lyapunov, is_infinite

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .transform import Parameter

_INPUT_ERRORS = (InputError, InvalidDataError)


@dataclass(frozen=True)
class RunConfig:
    """Backend choice, tolerances and sampling grid for one CLI run.

    The defaults reproduce the golden corpus bit-for-bit on the exact
    backend.
    """

    backend: str = "exact"
    rank_tol: float = RANK_TOL
    verify_tol: float = VERIFY_TOL
    grid: GridConfig = field(default_factory=lambda: DEFAULT_GRID)
    out: str | None = None

    @staticmethod
    def from_json(obj) -> "RunConfig":
        """Parse a config document; a key it does not know, top-level or in
        ``grid``, or a value of the wrong kind, is an ``InputError`` that
        names the key."""
        if not isinstance(obj, dict):
            raise InputError("config document must be a JSON object")
        backend = obj.get("backend", "exact")
        if backend not in ("exact", "float"):
            raise InputError(f"unknown backend {backend!r}")
        grid_doc = obj.get("grid", {})
        if not isinstance(grid_doc, dict):
            raise InputError("config 'grid' must be a JSON object")
        unknown = sorted(set(obj) - set(RunConfig.__dataclass_fields__))
        unknown += sorted(f"grid.{k}" for k in set(grid_doc) - set(GridConfig.__dataclass_fields__))
        if unknown:
            raise InputError(f"unknown config key(s): {', '.join(unknown)}")
        grid = DEFAULT_GRID
        for key, value in grid_doc.items():
            try:
                grid = replace(grid, **{key: value})
            except (TypeError, ValueError) as exc:  # a value GridConfig rejects
                raise InputError(f"config 'grid.{key}': {exc}") from None
        out = obj.get("out")
        if out is not None and not isinstance(out, str):
            raise InputError("config 'out' must be a path")
        return RunConfig(
            backend=backend,
            rank_tol=_float_entry(obj, "rank_tol", RANK_TOL),
            verify_tol=_float_entry(obj, "verify_tol", VERIFY_TOL),
            grid=grid,
            out=out,
        )


def _float_entry(obj: dict, key: str, default: float) -> float:
    value = obj.get(key, default)
    try:
        value = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise InputError(f"config {key!r} must be a number >= 0")
    return value


def _read_json(path: str | None, *, stdin_ok: bool = False, inline_ok: bool = False):
    if path is None:
        if not stdin_ok:
            raise InputError("missing required input document")
        text = _sys.stdin.read()
    elif inline_ok and path.lstrip().startswith("{"):
        text = path
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.from_json(_read_json(args.config))
    return RunConfig()


def _load_problem(args, config: RunConfig) -> InterpolationData:
    doc = _read_json(getattr(args, "problem", None), stdin_ok=True)
    if not isinstance(doc, dict):
        raise InvalidDataError("problem document must be a JSON object")
    data = InterpolationData.from_json(doc)
    if config.backend == "float" and data.exact:
        data = InterpolationData(*(_real_scalars(getattr(data, f.name), True, f.name)
                                   for f in fields(data)))
    return data


def _load_parameter(args) -> Parameter:
    from .transform import Parameter

    doc = _read_json(getattr(args, "param", None), stdin_ok=False, inline_ok=True)
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError("parameter document must carry a 'type' field")
    return _parse(Parameter.from_json, doc, "parameter")


def _load_candidate(args) -> RationalFunction:
    doc = _read_json(getattr(args, "param", None), stdin_ok=False, inline_ok=True)
    if isinstance(doc, dict) and "type" in doc:
        from .transform import Parameter

        phi = _parse(Parameter.from_json, doc, "candidate")
        if phi.is_infinite:
            raise InvalidDataError("the infinite parameter is not a candidate function")
        return phi.as_rational()
    if isinstance(doc, dict) and "theta" in doc:
        from .transform import apply_lft

        return apply_lft(*_parse(_realization, doc, "candidate"))
    if isinstance(doc, dict) and "num" in doc and "den" in doc:
        return _parse(RationalFunction.from_json, doc, "candidate")
    raise InputError("candidate must be {'num': [...], 'den': [...]}, "
                     "{'theta': ..., 'phi': ...} or a parameter")


def _realization(doc) -> tuple:
    """(Theta, phi) of a float w's document, as ``RationalFunction.to_json``
    writes it for a w with an origin (float ``apply`` and singular
    ``solve``): the residue form, constant term included
    (``RationalMatrix2x2.from_json``), and phi's parameter document."""
    from .resolvent import RationalMatrix2x2
    from .transform import Parameter

    if not isinstance(doc["phi"], dict):
        raise TypeError("'phi' must be a parameter document")
    return RationalMatrix2x2.from_json(doc["theta"]), Parameter.from_json(doc["phi"])


def _parse(from_json, doc, what: str):
    """``from_json(doc)``, with what a malformed document raises (a zero
    denominator included) turned into an ``InputError``."""
    try:
        return from_json(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def _emit(doc, args, config: RunConfig) -> None:
    path = getattr(args, "out", None) or config.out
    text = json.dumps(doc, indent=2, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_pick(args) -> int:
    config = _load_config(args)
    data = _load_problem(args, config)
    system = build_system(data, config.rank_tol)
    lyapunov = check_lyapunov(system)
    doc = {
        "backend": "exact" if system.exact else "float",
        "n": system.n,
        "ell": system.ell,
        "kappa": system.kappa,
        "singular": not system.invertible,
        "inertia": system.inertia._asdict(),
        "P": [[scalar_to_json(system.P.entry(i, j)) for j in range(system.n)]
              for i in range(system.n)],
        "X": [scalar_to_json(x) for x in system.X],
        "E": [scalar_to_json(e) for e in system.E],
        "C": [scalar_to_json(c) for c in system.C],
        "lyapunov_residual": lyapunov.to_json(),
        "derived": None,
    }
    if system.invertible:
        doc["derived"] = {
            "p_inv": [[scalar_to_json(v) for v in row] for row in system.p_inv],
            "tilde_e": [scalar_to_json(v) for v in system.tilde_e],
            "tilde_c": [scalar_to_json(v) for v in system.tilde_c],
            "eta": ["inf" if is_infinite(v) else scalar_to_json(v) for v in system.eta],
            "tilde_p_diag": [scalar_to_json(v) for v in system.tilde_p_diag],
        }
    _emit(doc, args, config)
    return 0


def cmd_solve(args) -> int:
    from .resolvent import solve

    config = _load_config(args)
    data = _load_problem(args, config)
    bundle = solve(data, rank_tol=config.rank_tol, config=config.grid, tol=config.verify_tol)
    _emit(bundle.to_json(), args, config)
    return 0


def cmd_apply(args) -> int:
    from .solver import classify_and_verify

    config = _load_config(args)
    data = _load_problem(args, config)
    phi = _load_parameter(args)
    system = build_system(data, config.rank_tol)
    if not system.invertible:
        raise SingularPickError(
            "apply needs an invertible Pick matrix; run solve for the degenerate case"
        )
    report, w, sampled = classify_and_verify(
        system, phi, config=config.grid, tol=config.verify_tol
    )
    doc = {"w": w.to_json(), **report.to_json(), "kernel_negative_squares": sampled}
    _emit(doc, args, config)
    return 0


def cmd_verify(args) -> int:
    from .solver import _verification_json, verify_candidate

    config = _load_config(args)
    data = _load_problem(args, config)
    w = _load_candidate(args)
    system = build_system(data, config.rank_tol)
    report = verify_candidate(system, w, tol=config.verify_tol, config=config.grid)
    _emit(_verification_json(report), args, config)
    return 0


_COMMANDS = {
    "pick": cmd_pick,
    "solve": cmd_solve,
    "apply": cmd_apply,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnpick",
        description="Boundary Nevanlinna-Pick interpolation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("pick", "assemble the Pick system and its derived quantities"),
        ("solve", "solve: resolvent when P is invertible, unique w when singular"),
        ("apply", "apply a parameter through the resolvent and classify it"),
        ("verify", "verify a candidate function against the data"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--problem", help="problem JSON file (stdin when omitted)")
        if name in ("apply", "verify"):
            cmd.add_argument("--param", help="parameter/candidate JSON file or inline JSON")
        cmd.add_argument("--config", help="run-config JSON file")
        cmd.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except BnpickError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            vector = ", ".join(map(str, witness.vector))
            print(f"witness: {witness.negatives} negative eigenvalue(s) of the Bezout matrix B; "
                  f"v = [{vector}] has v^T B v / v^T v = {witness.quotient}", file=_sys.stderr)
        return 3
    except OverflowError as exc:  # an exact value that a float output or check cannot hold
        print(f"error: a value exceeds the float range: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
