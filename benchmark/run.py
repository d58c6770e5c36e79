"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload code-prep --seed 1 --seconds 34 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  One process, one thread: BLAS pools are pinned to one thread
before numpy loads.

A run repeats whole passes over the workload's fixed job list for about
``--seconds`` (it ends within half a pass of that), so every run attempts
the same operations in the same proportions.  With ``--trace 0`` it
reports the end-to-end metrics: ``pass_s`` (median pass time),
``setup_s`` (median over fresh interpreters of importing ``adaptstab`` plus
building the inputs) and ``peak_rss_mib``.  Both times are host-speed
corrected (see ``HostClock``): the shared host runs the same code up to
1.8 times slower for stretches of seconds, which raw wall time would
report as the program's.  With ``--trace 1`` the first half of the time
runs untraced passes and the second half traced ones, and it reports the
per-layer metrics named in ``BENCHMARK.json``; the spans themselves are
written to ``.bench_out/``.  Outputs of the first pass are checked by the
independent checker, and every later pass must reproduce them exactly.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# tracer needs only the standard library.  workloads and checker load
# numpy, so they are imported after the package: set-up time then includes
# numpy's import, as a user pays it.
from tracer import BOUNDS_FUNCTIONS, TIMED, Tracer  # noqa: E402

MODULES = ("pauli", "tableau", "densesim", "circuit", "metrics", "bounds", "prep", "cli")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

# Host-speed reference, timed next to the measured code.  REF_NOMINAL_S is
# the median sample inside a pass on a quiet 2-vCPU Xeon guest (Python
# 3.11.7); it only fixes the scale of the corrected times.
REF_ROUNDS = 20_000
REF_NOMINAL_S = 0.0018
REF_EVERY_S = 0.1
SETUP_REF_SAMPLES = 50


def reference_sample() -> float:
    """Time a fixed pure-Python integer loop of about 2 ms.  Of the
    references tried, it tracked the program's slow stretches best (see
    README.md)."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ROUNDS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostClock:
    """Wall time rescaled to a fixed host speed.

    A SIGALRM timer interrupts the block every ``REF_EVERY_S`` to time
    ``reference_sample``, so the samples cover the block evenly; ``closing``
    more samples follow it.  ``seconds`` is the block's wall time without the
    samples, times ``REF_NOMINAL_S`` over the median sample: the time the
    block would take on a host that runs the reference at its nominal speed.
    The median, because a sample lasts 2 ms and one preemption inside it
    would sway a mean.  A change to the program moves ``seconds``; a slow
    stretch of the host moves the program and the samples alike and cancels
    out.
    """

    def __init__(self, closing: int = 1):
        self.closing = closing
        self.samples: list[float] = []

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.samples.append(reference_sample()))
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        busy = wall - sum(self.samples)
        self.samples += [reference_sample() for _ in range(self.closing)]
        self.seconds = busy * REF_NOMINAL_S / statistics.median(self.samples)


def import_program() -> SimpleNamespace:
    """The package's modules, from this checkout's ``src/`` and nowhere else."""
    if not (ROOT / "src" / "adaptstab").is_dir():
        raise RuntimeError(f"no package source at {ROOT / 'src' / 'adaptstab'}")
    program = SimpleNamespace(**{m: importlib.import_module(f"adaptstab.{m}") for m in MODULES})
    if Path(program.pauli.__file__).resolve().parents[1] != ROOT / "src":
        raise RuntimeError(f"adaptstab imported from {program.pauli.__file__}, not from {ROOT / 'src'}")
    return program


def setup_probe(workload: str, seed: int, scale: str) -> float:
    """Import time of the package (numpy included) plus input build time,
    in this process, host-speed corrected.  Set-up is short, so samples
    taken right after it join the few taken during it."""
    with HostClock(closing=SETUP_REF_SAMPLES) as clock:
        program = import_program()
        import workloads

        workloads.build(workload, seed, program, scale)
    return clock.seconds


def measure_setup(workload: str, seed: int, scale: str) -> list[float]:
    """Set-up time, once per fresh interpreter, so import cost is paid each time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload,
             "--seed", str(seed), "--scale", scale],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Passes of one run: times, failures and the reference outputs."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.pass_s: list[float] = []
        self.ref_s: list[float] = []  # median reference sample of each corrected pass
        self.job_s: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.reference: dict[str, object] = {}
        self.mismatches: list[str] = []

    def one_pass(self, tracer=None, corrected=False) -> float:
        """One pass; its wall time, or its ``HostClock`` time if ``corrected``."""
        outputs: dict[str, object] = {}
        if corrected:
            with HostClock() as clock:
                self._run_jobs(outputs, tracer)
            elapsed = clock.seconds
            self.ref_s.append(statistics.median(clock.samples))
        else:
            start = time.perf_counter()
            self._run_jobs(outputs, tracer)
            elapsed = time.perf_counter() - start
        self.attempted += len(self.jobs)
        self.pass_s.append(elapsed)
        for job in self.jobs:
            if job.name not in outputs:
                continue
            summary = job.summarize(outputs[job.name])
            if job.name not in self.reference:
                self.reference[job.name] = summary
            elif summary != self.reference[job.name]:
                self.mismatches.append(f"{job.name}: output differs from the first pass")
        return elapsed

    def _run_jobs(self, outputs: dict, tracer) -> None:
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs[job.name] = job.run(outputs)
                else:
                    outputs[job.name] = tracer.run_span(f"job.{job.name}", job.run, outputs)
            except Exception as exc:  # a failed operation is counted; the pass goes on
                self.failed += 1
                self.errors.setdefault(job.name, f"{type(exc).__name__}: {exc}")
            self.job_s[job.name].append(time.perf_counter() - t0)

    def passes_until(self, deadline: float, corrected=False) -> list[float]:
        """At least one pass; another only while it would end no more than
        half a pass after the deadline."""
        start = time.perf_counter()
        times = [self.one_pass(corrected=corrected)]
        while time.perf_counter() + (time.perf_counter() - start) / len(times) / 2 < deadline:
            times.append(self.one_pass(corrected=corrected))
        return times

    def problems(self) -> list[str]:
        import checker

        found = list(dict.fromkeys(self.mismatches))
        for job in self.jobs:
            if job.name not in self.reference:
                continue
            try:
                job.check(self.reference[job.name])
            except checker.CheckFailed as exc:
                found.append(f"{job.name}: {exc}")
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found.append(f"{job.name}: malformed output ({type(exc).__name__}: {exc})")
        return found


def traced_passes(run: Run, program, deadline: float):
    """Traced passes; per-pass calls, self times and branch counts."""
    tracer = Tracer()
    profiles = []
    tracer.install(program)
    try:
        while True:
            first, products = len(tracer.spans), tracer.products
            elapsed = run.one_pass(tracer)
            calls, self_s, branches = tracer.pass_profile(first)
            profiles.append((elapsed, calls, self_s, branches, tracer.products - products, len(tracer.spans) - first))
            if time.perf_counter() + elapsed / 2 >= deadline:
                break
    finally:
        tracer.uninstall()
    return tracer, profiles


def layer_metrics(run: Run, untraced: list[float], profiles) -> tuple[dict[str, float], list[str]]:
    """Per-layer values: counters from the first traced pass (they must repeat
    in every traced pass), self times as medians over traced passes."""
    problems = []
    counters = [(calls, branches, products) for _, calls, _, branches, products, _ in profiles]
    if any(c != counters[0] for c in counters[1:]):
        problems.append("traced counters differ between passes with the same inputs")
    calls, branches, products = counters[0]
    med = statistics.median
    values: dict[str, float] = {}
    for modname, fnames in TIMED.items():
        for fname in fnames:
            name = f"{modname}.{fname}"
            values[f"{name}.calls"] = calls.get(name, 0)
            values[f"{name}.self_s"] = med(p[2].get(name, 0.0) for p in profiles)
    bounds_names = [f"bounds.{f}" for f in BOUNDS_FUNCTIONS] + ["bounds.ResourceProfile.from_circuit"]
    values["bounds.calls"] = sum(calls.get(b, 0) for b in bounds_names)
    values["bounds.self_s"] = med(sum(p[2].get(b, 0.0) for b in bounds_names) for p in profiles)
    values["prep.verify_preparation.branches"] = branches
    values["pauli.multiply.calls"] = products
    for job, times in run.job_s.items():
        values[f"job.{job}.s"] = med(times[: len(untraced)])
    traced_s = med(p[0] for p in profiles)
    values["trace.pass_s"] = traced_s
    values["trace.untraced_pass_s"] = med(untraced)
    values["trace.overhead_s"] = traced_s - med(untraced)
    values["trace.spans"] = profiles[0][5]
    values["trace.unlisted_self_s"] = med(sum(v for k, v in p[2].items() if k.startswith("job.")) for p in profiles)
    return values, problems


def execute(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload; returns raw metric values plus the run's bookkeeping."""
    setup = measure_setup(workload, seed, scale)
    program = import_program()
    import workloads

    run = Run(workloads.build(workload, seed, program, scale))
    start = time.perf_counter()
    problems: list[str] = []
    if trace:
        untraced = run.passes_until(start + seconds / 2)
        tracer, profiles = traced_passes(run, program, start + seconds)
        values, problems = layer_metrics(run, untraced, profiles)
        tracer.write(ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed, "scale": scale, "traced_passes": len(profiles)})
    else:
        run.passes_until(start + seconds, corrected=True)
        values = {
            "pass_s": statistics.median(run.pass_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    problems = run.problems() + problems
    return {"values": values, "problems": problems, "attempted": run.attempted, "failed": run.failed,
            "errors": run.errors, "pass_s": run.pass_s, "ref_s": run.ref_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        print(repr(setup_probe(args.workload, args.seed, args.scale)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = execute(args.workload, args.seed, seconds, bool(args.trace), args.scale)
    for job, message in result["errors"].items():
        print(f"failed operation {job}: {message}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"passes: {' '.join(f'{t:.3f}' for t in result['pass_s'])}", file=sys.stderr)
    if result["ref_s"]:
        print(f"reference sample, ms (nominal {REF_NOMINAL_S * 1e3:g}): "
              f"{' '.join(f'{t * 1e3:.3f}' for t in result['ref_s'])}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values and not m["name"].startswith("job.")]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    # Jobs of the other workloads did not run here: zero seconds.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
