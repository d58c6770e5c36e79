"""The benchmark's three workloads: inputs, jobs and their checks.

Each workload is a fixed list of jobs.  A job's ``run`` is the timed call
into the package; ``summarize`` turns its result into the package's public
JSON forms outside the timed region; ``check`` hands that summary to the
independent checker.  Inputs come from ``--seed`` through ``random.Random``
and reach the package only as arguments (check strings, outcome-draw
seeds, random-state seeds).

``scale="small"`` shrinks every ladder for the self-test; the two CLI jobs
then use sizes whose reports the package can produce today, so the report
checks run too.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checker as ck
from checker import expect

WORKLOADS = ("code-prep", "ghz-verify", "state-metrics")


class JobFailed(RuntimeError):
    """The package reported failure for an operation (non-zero CLI exit)."""


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]  # outputs of earlier jobs in the pass -> result
    summarize: Callable[[object], object]
    check: Callable[[object], None]


def build(workload: str, seed: int, program: SimpleNamespace, scale: str = "full") -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    small = scale == "small"
    return {"code-prep": _code_prep, "ghz-verify": _ghz_verify, "state-metrics": _state_metrics}[workload](
        program, rng, small
    )


# -- shared pieces -------------------------------------------------------------------


def _draws(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(k)]


def _cli_job(program, name: str, argv: list[str], check: Callable[[dict], None]) -> Job:
    """A CLI run in-process.  No report on stdout is a failed operation; a
    report is checked, and its exit code must be 0."""

    def run(_outputs):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = program.cli.main(list(argv))
        if not out.getvalue().strip():
            raise JobFailed(f"adaptstab {' '.join(argv)} exited {code} with no report: {err.getvalue().strip()[-200:]}")
        return code, out.getvalue()

    def check_report(out):
        expect(out["exit"] == 0, f"{name}: exit code {out['exit']}")
        check(out["report"])

    return Job(name, run, lambda r: {"exit": r[0], "report": json.loads(r[1])}, check_report)


def _generators(program, tab) -> list[str]:
    return program.tableau.to_json(tab)["generators"]


def _simulate_job(program, name: str, source: Callable[[dict], tuple], seeds: list[int], check) -> Job:
    """Simulate a circuit on seeded outcome draws; ``source`` yields
    (circuit, target or None) from the pass's earlier outputs."""

    def run(outputs):
        circ, target = source(outputs)
        results = []
        for s in seeds:
            tab, record = program.circuit.simulate(circ, seed=s)
            equal = None if target is None else program.tableau.states_equal(tab, target)
            results.append((tab, record, equal))
        return results

    def summarize(results):
        return [
            {"state": _generators(program, tab), "record": list(record), "equal": equal}
            for tab, record, equal in results
        ]

    return Job(name, run, summarize, check)


# -- code-prep -----------------------------------------------------------------------


def toric_checks(side: int) -> list[str]:
    """Toric code on a side x side torus, qubits on edges: horizontal edge
    (r, c) is qubit r*side + c, vertical edge (r, c) is side^2 + r*side + c.
    One star and one plaquette are dropped so the checks are independent."""
    n = 2 * side * side

    def h(r, c):
        return (r % side) * side + c % side

    def v(r, c):
        return side * side + (r % side) * side + c % side

    rows = []
    for letter, support in (
        ("X", lambda r, c: {h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)}),
        ("Z", lambda r, c: {h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)}),
    ):
        for r in range(side):
            for c in range(side):
                if (r, c) != (side - 1, side - 1):
                    sup = support(r, c)
                    rows.append("+" + "".join(letter if q in sup else "I" for q in range(n)))
    return rows


def _expect_code_state(group: ck.Group, checks: list[ck.Pauli], label: str) -> None:
    """Checks and every X-type logical stabilize with sign +1."""
    ck.expect_stabilizes(group, checks, f"{label} checks")
    ck.expect_stabilizes(group, ck.x_logical_space(checks), f"{label} X-type logicals")


def _code_prep(program, rng, small):
    compile_sides = (2, 3, 4) if small else (2, 3, 4, 6, 8)
    sim_draws = {2: 2, 3: 1} if small else {2: 2, 3: 2, 4: 2}
    cli_side = 2 if small else 4
    strings = {side: toric_checks(side) for side in set(compile_sides) | {cli_side}}
    codes = {side: program.prep.build_code(strings[side], f"toric({side})") for side in compile_sides}
    own = {side: ck.parse_all(s) for side, s in strings.items()}
    jobs = []

    for side in compile_sides:
        checks = own[side]
        n, t, s = checks[0].n, len(checks), ck.sparsity(checks)

        def check_compile(out, checks=checks, n=n, t=t, s=s, label=f"compile toric({side})"):
            circ = out["circuit"]
            expect(ck.counted_depth(circ) <= 2 + s + s * s, f"{label}: depth {ck.counted_depth(circ)} > 2+s+s^2")
            expect(circ["m"] == n + t and circ["cbits"] == t, f"{label}: expected one ancilla per check")
            ck.expect_one_measurement_per_ancilla(circ, n, label)
            group = ck.expect_stabilizer_group(ck.parse_all(out["target"]), n, f"{label} target")
            _expect_code_state(group, checks, f"{label} target")

        def summarize_compile(result):
            circ, target = result
            return {"circuit": json.loads(program.circuit.to_json(circ)), "target": _generators(program, target)}

        jobs.append(
            Job(
                f"compile-toric{side}",
                lambda _o, code=codes[side]: program.prep.prepare_state(code),
                summarize_compile,
                check_compile,
            )
        )

    for side, k in sim_draws.items():
        checks = own[side]

        def check_sim(out, checks=checks, label=f"simulate toric({side})"):
            for draw in out:
                group = ck.expect_stabilizer_group(ck.parse_all(draw["state"]), checks[0].n, label)
                _expect_code_state(group, checks, label)
                expect(draw["equal"] is True, f"{label}: states_equal disagrees with the checker")

        jobs.append(
            _simulate_job(
                program,
                f"simulate-toric{side}",
                lambda outputs, side=side: outputs[f"compile-toric{side}"],
                _draws(rng, k),
                check_sim,
            )
        )

    cli_checks = own[cli_side]

    def check_cli_prep(report, checks=cli_checks):
        label = "cli prep"
        n, t, s = checks[0].n, len(checks), ck.sparsity(checks)
        res = report["results"]
        verify = res["verify"]
        expect(verify["all_match"] is True, f"{label}: verification failed")
        expect(verify["depth"] <= 2 + s + s * s, f"{label}: depth above 2+s+s^2")
        expect(verify["n_a"] == t and verify["m"] == n + t, f"{label}: expected one ancilla per check")
        group = ck.expect_stabilizer_group(ck.parse_all(res["target"]["generators"]), n, f"{label} target")
        _expect_code_state(group, checks, f"{label} target")
        for rec in verify["bounds"]:
            expect(rec["satisfied"] is True and rec["lhs"] >= rec["rhs"], f"{label}: bound {rec['check']} violated")

    jobs.append(
        _cli_job(
            program,
            f"cli-prep-toric{cli_side}",
            ["prep", f"builtin:toric{cli_side}", "--verify", "1", "--seed", "0"],
            check_cli_prep,
        )
    )
    return jobs


# -- ghz-verify ----------------------------------------------------------------------


def _ghz_verify(program, rng, small):
    verify_n, sim_sizes, fanout_sizes, demo = (
        (8, (8, 16), (32, 64), (8, 2)) if small else (16, (16, 32, 64), (128, 256, 512), (32, 8))
    )
    sim_draws = {n: (1 if n == max(sim_sizes) else 2) for n in sim_sizes}
    ghz = program.circuit.ghz_adaptive
    jobs = []

    target = program.tableau.from_stabilizers(
        [program.pauli.parse_pauli(s) for s in _ghz_strings(verify_n)]
    )
    verify_circuit = ghz(verify_n, 2, 2)
    verify_json = json.loads(program.circuit.to_json(verify_circuit))

    def check_verify(report, n=verify_n, circ=verify_json):
        label = f"verify ghz{n}"
        branches = 2 ** circ["cbits"]
        expect(report["all_match"] is True, f"{label}: verification failed")
        expect(
            report["realizable"] == report["branches"] == branches,
            f"{label}: realizable={report['realizable']} branches={report['branches']}, expected {branches}",
        )
        expect(report["depth"] == ck.counted_depth(circ), f"{label}: depth differs from the circuit's")
        expect(report["n_a"] == circ["m"] - n, f"{label}: ancilla count differs from the circuit's")
        ck.expect_bounds_satisfied(report, n, label)

    jobs.append(
        Job(
            f"verify-ghz{verify_n}",
            lambda _o: program.prep.verify_preparation(verify_circuit, target, trials=20, also_exhaustive=True),
            lambda report: report,
            check_verify,
        )
    )

    def ghz_check(n, label):
        def check(out):
            for draw in out:
                ck.expect_ghz(draw["state"], n, label)

        return check

    for n in sim_sizes:
        circ = ghz(n, min(8, n), 2)
        jobs.append(
            _simulate_job(
                program,
                f"simulate-ghz{n}",
                lambda _o, circ=circ: (circ, None),
                _draws(rng, sim_draws[n]),
                ghz_check(n, f"simulate ghz{n}"),
            )
        )
    for n in fanout_sizes:
        circ = ghz(n, n, 2)
        jobs.append(
            _simulate_job(
                program, f"fanout-ghz{n}", lambda _o, circ=circ: (circ, None), [0], ghz_check(n, f"fan-out ghz{n}")
            )
        )

    demo_n, demo_a = demo

    def check_demo(report, n=demo_n, a=demo_a):
        label = f"cli ghz-demo {n}"
        verify = report["results"]["verify"]
        branches = 2 ** (-(-n // a) - 1)
        expect(verify["all_match"] is True, f"{label}: verification failed")
        expect(verify["realizable"] == verify["branches"] == branches, f"{label}: expected {branches} branches")
        ck.expect_bounds_satisfied(verify, n, label)

    jobs.append(
        _cli_job(
            program,
            f"cli-ghz-demo{demo_n}",
            ["ghz-demo", "--n", str(demo_n), "--a", str(demo_a), "--k", "2", "--seed", "0"],
            check_demo,
        )
    )
    return jobs


def _ghz_strings(n: int) -> list[str]:
    return ["+" + "X" * n] + ["+" + "I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]


# -- state-metrics -------------------------------------------------------------------


def _state_metrics(program, rng, small):
    ghz_sizes = (6, 8) if small else (14, 16, 18)
    weight_n, oracle_sizes, crange_n = (6, (6, 8), 6) if small else (16, (10, 14), 8)
    dense = (
        [("w", 6, 0), ("ghz", 6, 0), ("dicke", 6, 2)] if small else [("w", 8, 0), ("ghz", 10, 0), ("dicke", 8, 2)]
    )
    tab = program.tableau
    metrics = program.metrics
    jobs = []

    def weight_summary(result):
        picked, vector = result
        return {"generators": [str(p) for p in picked], "vector": list(vector.entries)}

    for n in ghz_sizes:
        state = tab.from_stabilizers([program.pauli.parse_pauli(s) for s in _ghz_strings(n)])
        own = ck.Group(n, ck.ghz_stabilizers(n))

        def check_ghz_weight(out, n=n, own=own):
            label = f"weight ghz{n}"
            expect(out["vector"] == [n] + [2] * (n - 1), f"{label}: vector {out['vector']} is not (n, 2, ..., 2)")
            ck.expect_weight_generators(out["generators"], out["vector"], own, n, label)

        jobs.append(Job(f"weight-ghz{n}", lambda _o, s=state: metrics.min_weight_generators(s), weight_summary, check_ghz_weight))

    random_states = {n: tab.random_stabilizer_state(n, rng.randrange(2**31)) for n in (weight_n, *oracle_sizes, crange_n)}
    own_gens = {n: ck.parse_all(_generators(program, t)) for n, t in random_states.items()}

    def check_random_weight(out, n=weight_n):
        ck.expect_weight_generators(out["generators"], out["vector"], ck.Group(n, own_gens[n]), n, f"weight random{n}")

    jobs.append(
        Job(
            f"weight-random{weight_n}",
            lambda _o: metrics.min_weight_generators(random_states[weight_n]),
            weight_summary,
            check_random_weight,
        )
    )

    for n in oracle_sizes:

        def run_oracle(_o, n=n):
            t = random_states[n]
            picked, vector = metrics.min_weight_generators(t)
            return (picked, vector), [metrics.weight_vector_oracle(t, k) for k in range(1, n + 1)]

        def check_oracle(out, n=n):
            label = f"oracle random{n}"
            ck.expect_weight_generators(out["generators"], out["vector"], ck.Group(n, own_gens[n]), n, label)
            expect(out["oracle"] == out["vector"], f"{label}: greedy {out['vector']} != rank sweep {out['oracle']}")
            if n <= 10:
                brute = ck.brute_weight_vector(own_gens[n])
                expect(brute == out["vector"], f"{label}: greedy {out['vector']} != brute force {brute}")

        jobs.append(
            Job(
                f"oracle-random{n}",
                run_oracle,
                lambda result: {**weight_summary(result[0]), "oracle": list(result[1])},
                check_oracle,
            )
        )

    def run_crange(_o):
        s = program.densesim.from_tableau(random_states[crange_n])
        return s, metrics.pauli_correlation_range(s)

    def check_crange(out, n=crange_n):
        label = f"crange random{n}"
        psi = ck.dense_from_generators(own_gens[n])
        expect(ck.close(ck.overlap(psi, _amps(out["amps"])), 1.0, 1e-9), f"{label}: from_tableau state is wrong")
        want = ck.pauli_correlation_range(psi, n)
        expect(out["crange"] == want, f"{label}: range {out['crange']} != {want}")

    jobs.append(
        Job(
            f"crange-random{crange_n}",
            run_crange,
            lambda r: {"amps": _amps_json(r[0]), "crange": r[1]},
            check_crange,
        )
    )

    for family, n, k in dense:
        plan = [(1, "pauli-enum"), (2, "pauli-enum"), (1, "alternating-sign")]
        if family == "dicke":
            plan.append((2, "alternating-sign"))
        params = (family, n, k) if family == "dicke" else (family, n)

        def run_cor(_o, params=params, n=n, plan=plan):
            s = program.densesim.make_state(*params)
            reports = [metrics.correlation_strength_w(s, range(n), w, method, seed=0) for w, method in plan]
            return s, reports, metrics.pauli_correlation_range(s)

        def summarize_cor(result):
            s, reports, crange = result
            return {"amps": _amps_json(s), "reports": [r.to_json() for r in reports], "crange": crange}

        def check_cor(out, family=family, n=n, k=k):
            label = f"correlation {family}{n}"
            psi = ck.dense_family(family, n, k)
            expect(ck.close(ck.overlap(psi, _amps(out["amps"])), 1.0, 1e-9), f"{label}: make_state gives another state")
            pauli_value = {}
            for rep in out["reports"]:
                w, value, pair = rep["w"], rep["value"], rep["pair"]
                a1, a2 = pair["a1"], pair["a2"]
                expect(len(a1) == len(a2) == w and not set(a1) & set(a2), f"{label}: bad subset pair {pair}")
                if rep["method"] == "pauli-enum":
                    pauli_value[w] = value
                    cor = ck.connected_correlation(psi, n, a1, pair["o1"], a2, pair["o2"])
                    expect(ck.close(abs(cor), value), f"{label} w={w}: pair gives {abs(cor)}, reported {value}")
                else:
                    expect(value >= pauli_value[w] - 1e-9, f"{label} w={w}: alternating-sign below pauli-enum")
            want = 1.0 if family == "ghz" else ck.dicke_w1_value(n, 1 if family == "w" else k)
            expect(ck.close(pauli_value[1], want), f"{label}: w=1 value {pauli_value[1]} != {want}")
            expect(out["crange"] == n, f"{label}: correlation range {out['crange']} != {n}")

        jobs.append(Job(f"correlation-{family}{n}", run_cor, summarize_cor, check_cor))
    return jobs


def _amps_json(state) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amps]


def _amps(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])
