"""Command-line front end: JSON run reports on stdout, summaries on stderr.

Subcommands map one-to-one onto the library layers: ``prep`` compiles and
verifies stabilizer-code preparation circuits, ``weight`` / ``cor`` /
``crange`` / ``antishallow`` evaluate state metrics, ``bounds`` checks the
resource inequalities for a circuit/target pair, ``ghz-demo`` runs the
adaptive GHZ construction end to end, and ``lightcone`` traces causal cones
through a circuit's gate graph.

Conventions
-----------
* stdout carries exactly one JSON run report; every human-readable line
  goes to stderr, so reports can be piped safely.  When a handler fails,
  the report has null ``inputs`` / ``results`` and an ``error`` object
  ``{"kind": exception class, "message": text}`` (exit codes 1 and 3); a
  tripped guard adds ``"guard": {"name", "limit", "value"}``.
* exit codes: 0 success (verification passed where applicable), 1 usage,
  parse or input validation error, 2 verification failure, 3 resource guard tripped.
* with ``--seed`` the JSON report is bit-for-bit reproducible; the
  wall-clock ``timing_s`` field is only emitted for unseeded runs.
* a state is a spec ``family:params`` (``ghz:6``, ``dicke:6:2``, ``basis:01``),
  ``builtin:NAME`` (``ghz6`` or ``ghz(6)`` is ``ghz:6``; a code such as ``toric4``
  names its target state) or a tableau file; a code is ``builtin:NAME`` or a file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import cache
from pathlib import Path
from typing import Sequence

from .bounds import (
    ResourceProfile,
    check_adaptive_weight,
    check_clifford_adaptive,
    check_correlation,
    check_nonadaptive,
    weight_checks,
)
from .circuit import (
    Gate,
    Geometry,
    backward_lightcone,
    depth,
    forward_lightcone,
    g_value,
    ghz_adaptive,
    validate,
)
from .circuit import from_json as circuit_from_json
from .circuit import to_json as circuit_to_json
from .densesim import _FAMILY_TABLE, _guard as _dense_cap, _read_spec, from_tableau, make_state
from .errors import ContradictionError, ResourceGuardError
from .metrics import (
    _group_cap,
    _oracle_entries,
    anti_shallowness_lower,
    anti_shallowness_upper,
    correlation_strength_w,
    min_weight_generators,
    pauli_correlation_range,
)
from .pauli import format_pauli, parse_pauli
from .prep import builtin_code, parse_code_text, prepare_state, verify_preparation, x_type_logicals
from .tableau import _json_key, _json_object, _split_name, from_stabilizers
from .tableau import from_json as tableau_from_json
from .tableau import to_json as tableau_to_json
from .tableau import ghz_state

__all__ = ["main"]

_BUILTIN = "builtin:"


class _UsageError(Exception):
    """Bad command-line usage; ``main`` reports it as ``UsageError``, exit 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the report contract reserves 2 for
    verification failures and asks for a report, so usage errors raise."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


# -- shared input helpers --------------------------------------------------------


def _digest_file(path: str) -> dict:
    import hashlib  # here, not at module level: only file inputs need it, and every run would pay for it

    data = Path(path).read_bytes()
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()[:16]}


def _load_state(spec: str, form: str, guard=lambda n: None) -> tuple:
    """The state ``spec`` names, as a ``"tableau"`` or a ``"dense"`` state, and
    a tableau file's digest (None for a spec).  ``builtin:NAME`` is ``family:N``
    for a one-size family, else a built-in code's target, built from its checks
    and X-type logicals as ``prepare_state`` splits them, without compiling; a
    family name or other text with a colon is a spec, other text a tableau
    file.  ``guard(n)`` (for a dense state, the dense cap) refuses a spec
    unbuilt."""
    if spec.startswith(_BUILTIN):
        family, size = _split_name(spec[len(_BUILTIN):])
        if size is None or _FAMILY_TABLE.get(family, ("",))[0] != f"{family}:N":  # not ghz6 or plus(4): a code
            code = builtin_code(spec[len(_BUILTIN):])
            (_dense_cap if form == "dense" else guard)(code.n)
            target = from_stabilizers([*code.checks, *x_type_logicals(code)])
            return (target if form == "tableau" else from_tableau(target)), None
        params = [size]
    elif ":" in spec or spec.strip().lower() in _FAMILY_TABLE:
        family, params = _read_spec(spec)
    else:
        t = tableau_from_json(json.loads(Path(spec).read_text()))
        return (t if form == "tableau" else from_tableau(t)), _digest_file(spec)
    if form == "dense":  # make_state trips the dense cap before it builds
        return make_state(family, *params), None
    if _FAMILY_TABLE[family][2] is None:
        raise ValueError(f"state family {family!r} has no stabilizer tableau")
    guard(len(params[0]) if family == "basis" else params[0])
    return _FAMILY_TABLE[family][2](*params), None


def _parse_qubits(text: str) -> tuple[int, ...]:
    qubits = tuple(int(p) for p in text.split(",") if p.strip())
    if not qubits:
        raise ValueError("empty qubit list")
    return qubits


def _parse_geometry(text: str) -> Geometry:
    if text == "all":
        return Geometry.all_to_all()
    m = re.fullmatch(r"grid:(\d+)", text)
    if m:
        return Geometry.grid(int(m.group(1)))
    raise ValueError(f"geometry must be 'all' or 'grid:R', got {text!r}")


def _load_code(source: str) -> tuple:
    if source.startswith(_BUILTIN):
        return builtin_code(source[len(_BUILTIN):]), {"source": source}
    code = parse_code_text(Path(source).read_text(), name=Path(source).stem)
    return code, _digest_file(source)


def _load_circuit(path: str) -> tuple:
    return circuit_from_json(Path(path).read_text()), _digest_file(path)


# -- subcommand handlers ---------------------------------------------------------
#
# Each handler returns (inputs, results, exit_code, summary_lines); main()
# wraps them into the run report.


def _cmd_prep(args) -> tuple:
    code, code_input = _load_code(args.code)
    inputs = {"code": code_input}

    if args.partition == "auto":
        circ, target = prepare_state(code)
    else:
        spec = _json_object(json.loads(Path(args.partition).read_text()), "partition")
        inputs["partition"] = _digest_file(args.partition)
        s1, s2 = ([parse_pauli(p) for p in _json_key(spec, key, list, owner="partition")] for key in ("s1", "s2"))
        phi = spec.get("phi", "plus")
        if phi == "plus":
            phi_layers = [[Gate("H", (q,)) for q in range(code.n)]]
        elif phi == "zero":
            phi_layers = []
        else:
            raise ValueError("partition 'phi' must be 'plus' or 'zero'")
        circ, target = prepare_state(code, s1=s1, s2=s2, phi_layers=phi_layers)

    exhaustive = args.verify == "exhaustive"
    try:
        trials = 0 if exhaustive else int(args.verify)
    except ValueError:
        raise ValueError("--verify takes a trial count or 'exhaustive'") from None
    report = verify_preparation(circ, target, trials=trials, also_exhaustive=exhaustive)

    if args.out:
        Path(args.out).write_text(circuit_to_json(circ, indent=2))

    results = {
        "code": {
            "name": code.name,
            "n": code.n,
            "checks": code.t,
            "k": code.k,
            "sparsity": code.s,
        },
        "target": tableau_to_json(target),
        "circuit_out": args.out,
        "verify": report,
    }
    ok = bool(report["all_match"])
    mode = (
        f"exhaustive over all 2^{circ.cbits} branches"
        if exhaustive
        else f"{report['random_trials']} random trials"
    )
    verdict = {True: "PASS", False: "FAIL", None: "NOTHING CHECKED"}[report["all_match"]]
    summary = [
        f"prep: {code.name or 'code'} n={code.n} checks={code.t}"
        f" -> depth {report['depth']}, ancillas {report['n_a']}",
        f"verification ({mode}): {verdict}",
    ]
    return inputs, results, 0 if ok else 2, summary


def _cmd_weight(args) -> tuple:
    t, digest = _load_state(args.tableau, "tableau", _group_cap)
    inputs = {"tableau": digest or {"source": args.tableau}}
    picked, vector = min_weight_generators(t)
    results = {
        "n": t.n,
        "weight": vector[0],
        "vector": list(vector.entries),
        "generators": [format_pauli(p) for p in picked],
    }
    code = 0
    summary = [f"weight: wt_s = {vector[0]} on {t.n} qubits"]
    if args.oracle:
        oracle = _oracle_entries(t, 1)
        agrees = oracle == list(vector.entries)
        results["oracle"] = {"vector": oracle, "agrees": agrees}
        summary.append(f"oracle cross-check: {'agree' if agrees else 'DISAGREE'}")
        code = 0 if agrees else 2
    return inputs, results, code, summary


def _cmd_cor(args) -> tuple:
    s, digest = _load_state(args.family, "dense")
    region = _parse_qubits(args.region) if args.region else tuple(range(s.n))
    method = {"pauli": "pauli-enum", "alt": "alternating-sign"}[args.method]
    rep = correlation_strength_w(s, region, args.w, method, seed=args.seed or 0)
    results = {"family": args.family, "n": s.n, **rep.to_json()}
    summary = [f"cor: {args.family} w={args.w} -> {rep.value:.6g} ({rep.method})"]
    return {"family": digest or args.family}, results, 0, summary


def _cmd_crange(args) -> tuple:
    if args.delta == float("inf"):  # the report would carry Infinity, which is not JSON
        raise ValueError(f"--delta must be finite, got {args.delta}")
    s, digest = _load_state(args.family, "dense")
    value = pauli_correlation_range(s, 1e-9 if args.delta is None else args.delta)
    results = {"family": args.family, "n": s.n, "delta": args.delta, "crange": value}
    summary = [f"crange: {args.family} -> {value}"]
    return {"family": digest or args.family}, results, 0, summary


def _cmd_bounds(args) -> tuple:
    circ, circuit_input = _load_circuit(args.circuit)
    target, digest = _load_state(args.target, "tableau")
    geometry = _parse_geometry(args.geometry)
    inputs = {"circuit": circuit_input, "target": digest or {"source": args.target}}

    profile = ResourceProfile.from_circuit(circ, target.n, geometry=geometry)
    weight = [check_nonadaptive] if profile.n_a == 0 else []
    vector, checks = weight_checks(profile, target, weight + [check_adaptive_weight, check_clifford_adaptive])
    correlation_note = None
    if target.n >= 2:
        try:
            crange = pauli_correlation_range(from_tableau(target))
            checks.append(check_correlation(profile, 1, crange))
        except ResourceGuardError as exc:
            correlation_note = f"skipped: {exc}"
    ok = all(rec["satisfied"] for rec in checks)
    # Only an exact comparison can fail; against an upper bound it is inconclusive.
    violated = any(not rec["satisfied"] and rec.get("status") != "inconclusive" for rec in checks)
    results = {
        "profile": profile.to_json(),
        "weight_vector": None if vector is None else list(vector.entries),
        "checks": checks,
        "correlation_note": correlation_note,
        "all_satisfied": ok,
    }
    verdict = "all satisfied" if ok else "VIOLATION" if violated else "inconclusive"
    summary = [
        f"bounds: n={profile.n} ancillas={profile.n_a} K={profile.K} depth={profile.L}",
        f"{len(checks)} checks -> {verdict}",
    ]
    return inputs, results, 2 if violated else 0, summary


def _cmd_ghz_demo(args) -> tuple:
    circ = ghz_adaptive(args.n, args.a, args.k)
    target = ghz_state(args.n)
    report = verify_preparation(circ, target, trials=args.trials)
    results = {
        "n": args.n,
        "a": args.a,
        "k": args.k,
        "m": circ.m,
        "ancillas": circ.m - args.n,
        "depth": report["depth"],
        "verify": report,
    }
    ok = bool(report["all_match"])
    summary = [
        f"ghz-demo: n={args.n} a={args.a} K={args.k}"
        f" -> ancillas {circ.m - args.n}, depth {report['depth']},"
        f" {'verified' if ok else 'FAILED'}",
    ]
    inputs = {"n": args.n, "a": args.a, "k": args.k}
    return inputs, results, 0 if ok else 2, summary


def _cmd_antishallow(args) -> tuple:
    s, digest = _load_state(args.family, "dense")
    lower = anti_shallowness_lower(s)
    candidates = [make_state("zero", s.n), make_state("plus", s.n)]
    upper = anti_shallowness_upper(
        s, candidates, product_search=True, seed=args.seed or 0
    )
    results = {
        "family": args.family,
        "n": s.n,
        "lower": lower,
        "upper": upper,
        "interval": [lower, upper],
    }
    summary = [f"antishallow: {args.family} -> [{lower:.6g}, {upper:.6g}]"]
    return {"family": digest or args.family}, results, 0, summary


def _cmd_lightcone(args) -> tuple:
    circ, circuit_input = _load_circuit(args.circuit)
    sources = sorted(set(_parse_qubits(args.sources)))
    inputs = {"circuit": circuit_input}
    direction = "backward" if args.backward else "forward"
    k = max([2] + [len(op.qubits) for layer in circ.layers for op in layer if isinstance(op, Gate)])
    violations = validate(circ, k).violations + [
        f"source qubit {q} outside 0..{circ.m - 1}" for q in sources if not 0 <= q < circ.m
    ]
    if violations:
        results = {"direction": direction, "sources": sources, "violations": violations}
        return inputs, results, 1, [f"lightcone: invalid input: {'; '.join(violations)}"]
    cone = (backward_lightcone if args.backward else forward_lightcone)(circ, sources)
    g = g_value(k, depth(circ))
    bound = len(sources) * g
    ok = len(cone) <= bound
    results = {
        "direction": direction,
        "sources": sources,
        "cone": sorted(cone),
        "size": len(cone),
        "g_value": g,
        "bound": bound,
        "within_bound": ok,
    }
    summary = [
        f"lightcone: {len(sources)} source(s) -> {len(cone)} qubits"
        f" (bound {bound}, {'ok' if ok else 'EXCEEDED'})",
    ]
    return inputs, results, 0 if ok else 2, summary


# -- parser / dispatch -----------------------------------------------------------


@cache  # one parser per process: parsing keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed randomized steps and drop the timing field for"
        " bit-reproducible reports",
    )

    parser = _Parser(prog="adaptstab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "prep", parents=[common], help="compile and verify a code preparation circuit"
    )
    p.add_argument("code", help="check-list file or builtin:NAME (steane, repetition5, toric2)")
    p.add_argument(
        "--partition",
        default="auto",
        help="'auto' or a JSON file with 's1', 's2', and optional 'phi'",
    )
    p.add_argument(
        "--verify",
        default="20",
        help="seeded trial count (>= 0), read off one symbolic pass with no all-branch verdict and"
        " drawn only when that pass finds a wrong branch, or 'exhaustive': that pass's verdict"
        " on every outcome branch, at any cbit count, and no trials",
    )
    p.add_argument("--out", default=None, help="write the circuit JSON to this path")
    p.set_defaults(handler=_cmd_prep)

    p = sub.add_parser(
        "weight", parents=[common], help="minimal generator weights of a stabilizer state"
    )
    p.add_argument("tableau", help="stabilizer state: ghz:6, plus:4, zero:3, basis:01, builtin:NAME or a tableau file")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the greedy vector against the rank-sweep oracle",
    )
    p.set_defaults(handler=_cmd_weight)

    p = sub.add_parser(
        "cor", parents=[common], help="minimum pairwise correlation strength"
    )
    p.add_argument("family", help="state, e.g. ghz:8, w:8, dicke:6:2, builtin:steane or a tableau file")
    p.add_argument("--w", type=int, default=1, help="subset size (default 1)")
    p.add_argument("--region", default=None, help="comma-separated qubits (default all)")
    p.add_argument("--method", choices=("pauli", "alt"), default="pauli")
    p.set_defaults(handler=_cmd_cor)

    p = sub.add_parser("crange", parents=[common], help="correlation range of a state")
    p.add_argument("family", help="state, as for cor")
    p.add_argument(
        "--delta",
        type=float,
        default=None,
        help="threshold for the robust range (default: exact support)",
    )
    p.set_defaults(handler=_cmd_crange)

    p = sub.add_parser(
        "bounds", parents=[common], help="resource inequalities for a circuit/target pair"
    )
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--target", required=True, help="target stabilizer state, as for weight")
    p.add_argument("--geometry", default="all", help="'all' or 'grid:R'")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "ghz-demo", parents=[common], help="adaptive GHZ preparation end to end"
    )
    p.add_argument("--n", type=int, required=True, help="number of target qubits")
    p.add_argument("--a", type=int, required=True, help="fan-out block size")
    p.add_argument("--k", type=int, required=True, help="gate fan-in K")
    p.add_argument(
        "--trials",
        type=int,
        default=20,
        help="seeded branches (>= 0) read off the symbolic pass over every branch, drawn only when it finds a wrong one",
    )
    p.set_defaults(handler=_cmd_ghz_demo)

    p = sub.add_parser(
        "antishallow", parents=[common], help="anti-shallowness interval of a state"
    )
    p.add_argument("family", help="state, as for cor")
    p.set_defaults(handler=_cmd_antishallow)

    p = sub.add_parser(
        "lightcone", parents=[common], help="causal cone of a qubit set"
    )
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument(
        "--from", dest="sources", required=True, help="comma-separated source qubits"
    )
    p.add_argument(
        "--backward", action="store_true", help="trace inputs instead of outputs"
    )
    p.set_defaults(handler=_cmd_lightcone)

    return parser


def _report_text(argv: list, inputs, results, error: Exception | None, timing: float | None) -> str:
    """The run report as JSON text, encoded whole before any of it is written."""
    report = {"command": ["adaptstab", *argv], "inputs": inputs, "results": results}
    if error is not None:
        kind = "UsageError" if isinstance(error, _UsageError) else type(error).__name__
        report["error"] = {"kind": kind, "message": str(error)}
    if isinstance(error, ResourceGuardError):
        report["guard"] = {"name": error.name, "limit": error.limit, "value": error.value}
    if timing is not None:
        report["timing_s"] = timing
    return json.dumps(report, indent=2)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    start = time.perf_counter()
    args = inputs = results = error = None
    try:
        args = parser.parse_args(argv)
        inputs, results, code, summary = args.handler(args)
    except SystemExit as exc:  # --help printed its text
        return int(exc.code or 0)
    except _UsageError as exc:
        error, code, summary = exc, 1, [f"error: {exc}"]
    except ResourceGuardError as exc:
        error, code, summary = exc, 3, [f"resource guard: {exc}"]
    except (ContradictionError, ValueError, KeyError, TypeError, OSError) as exc:
        error, code, summary = exc, 1, [f"error: {exc}"]

    if args is not None:
        seeded = args.seed is not None
    else:  # a usage error: read --seed N or --seed=N off the unparsed arguments
        seeded = "--seed" in argv[:-1] or any(a.startswith("--seed=") for a in argv)
    timing = None if seeded else round(time.perf_counter() - start, 6)
    try:
        text = _report_text(argv, inputs, results, error, timing)
    except ValueError as exc:  # an int too long for str(): one error report, not a cut one
        code, summary = 1, [f"error: {exc}"]
        text = _report_text(argv, None, None, exc, timing)
    sys.stdout.write(text + "\n")
    sys.stdout.flush()
    for line in summary:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
