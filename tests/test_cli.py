"""End-to-end tests for the adaptstab command line.

Every invocation goes through main(argv) -> exit code, with stdout captured
as the JSON run report and stderr as the human summary.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab import circuit, cli, densesim, metrics, prep
from adaptstab.circuit import from_json as circuit_from_json
from adaptstab.circuit import ghz_adaptive, simulate
from adaptstab.circuit import to_json as circuit_to_json
from adaptstab.cli import main
from adaptstab.densesim import from_tableau
from adaptstab.tableau import from_json as tableau_from_json
from adaptstab.tableau import ghz_state, random_stabilizer_state, states_equal
from adaptstab.tableau import to_json as tableau_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# -- prep ------------------------------------------------------------------------


def test_prep_steane_exhaustive(capsys):
    code, report, err = run(capsys, "prep", "builtin:steane", "--verify", "exhaustive")
    assert code == 0
    v = report["results"]["verify"]
    assert v["all_match"] is True
    assert v["branches"] == 64 and v["realizable"] == 8
    assert v["depth"] <= 44
    assert all(b["satisfied"] for b in v["bounds"])
    assert "PASS" in err


def test_prep_toric3_exhaustive_above_12_cbits(capsys):
    code, report, err = run(capsys, "prep", "builtin:toric3", "--verify", "exhaustive", "--seed", "0")
    assert code == 0
    v = report["results"]["verify"]
    assert v["all_match"] is True and v["unsupported"] is None
    assert v["branches"] == 2**16 and v["realizable"] == 2**8
    assert "exhaustive over all 2^16 branches): PASS" in err


def test_prep_exhaustive_runs_no_random_trials(capsys, monkeypatch):
    calls = []
    for module in (circuit, prep):
        monkeypatch.setattr(module, "simulate", lambda *a, **k: calls.append(a) or simulate(*a, **k))
    code, report, _ = run(capsys, "prep", "builtin:toric3", "--verify", "exhaustive")
    assert code == 0 and calls == []
    v = report["results"]["verify"]
    assert v["random_trials"] == 0 and v["branches"] == 2**16 and v["all_match"] is True


def test_prep_zero_trials_checks_nothing_and_fails(capsys):
    code, report, err = run(capsys, "prep", "builtin:toric2", "--verify", "0")
    assert code == 2
    assert report["results"]["verify"]["all_match"] is None
    assert "(0 random trials): NOTHING CHECKED" in err


def test_prep_repetition3_builds_ghz3(capsys, tmp_path):
    out = tmp_path / "circuit.json"
    code, report, _ = run(
        capsys, "prep", "builtin:repetition3", "--out", str(out), "--verify", "exhaustive"
    )
    assert code == 0
    target = tableau_from_json(report["results"]["target"])
    assert states_equal(target, ghz_state(3))
    circ = circuit_from_json(out.read_text())
    got, _ = simulate(circ, seed=0)
    assert states_equal(got, ghz_state(3))


def test_prep_partition_file(capsys, tmp_path):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps({"s1": ["+ZZI", "+IZZ"], "s2": ["+XXX"], "phi": "plus"}))
    code, report, _ = run(
        capsys,
        "prep",
        "builtin:repetition3",
        "--partition",
        str(part),
        "--verify",
        "exhaustive",
    )
    assert code == 0
    assert states_equal(tableau_from_json(report["results"]["target"]), ghz_state(3))
    assert report["inputs"]["partition"] == {"path": str(part), "sha256": "b80b4f64fe7ca0b4"}


def test_cli_import_leaves_hashlib_unloaded():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, adaptstab.cli; print('hashlib' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr[-2000:]


@pytest.mark.parametrize(
    "argv", [["ghz-demo", "--n", "8", "--a", "2", "--k", "2", "--trials", "-3"], ["prep", "builtin:toric2", "--verify", "-3"]]
)
def test_negative_trial_count_exits_1(capsys, argv):
    code, report, err = run(capsys, *argv)
    assert code == 1 and report["results"] is None and "guard" not in report
    assert report["error"] == {"kind": "ValueError", "message": "trials must be >= 0, got -3"}
    assert "error: trials must be >= 0, got -3" in err


def _wide_partition_error(capsys, tmp_path, s1, s2):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps({"s1": s1, "s2": s2, "phi": "plus"}))
    code, report, err = run(capsys, "prep", "builtin:repetition4", "--partition", str(part))
    assert code == 1 and report["results"] is None
    assert report["error"]["kind"] == "ValueError"
    assert f"error: {report['error']['message']}" in err
    return report["error"]["message"]


def test_prep_partition_with_wide_s2_element_exits_1(capsys, tmp_path):
    message = _wide_partition_error(capsys, tmp_path, ["ZZII", "IZZI", "IIZZ"], ["XXXXX"])
    assert message == "S2 element +XXXXX acts on 5 qubits, code has 4"


def test_prep_partition_with_wide_s1_element_exits_1(capsys, tmp_path):
    # The wide element is named, not the first correct one read against it.
    message = _wide_partition_error(capsys, tmp_path, ["ZZIII", "IZZI", "IIZZ"], ["XXXX"])
    assert message == "S1 element +ZZIII acts on 5 qubits, code has 4"


def test_prep_random_trials_only(capsys):
    code, report, _ = run(capsys, "prep", "builtin:repetition5", "--verify", "6")
    assert code == 0
    v = report["results"]["verify"]
    assert v["random_trials"] == 6 and v["branches"] is None


def test_prep_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a pauli\n")
    code, report, err = run(capsys, "prep", str(bad))
    assert code == 1 and report["results"] is None
    assert report["error"]["kind"] == "ValueError"
    assert "error" in err


@pytest.mark.parametrize("declared,shown", [(True, "true"), (1.0, "1.0"), (2.9, "2.9")])
def test_prep_non_integer_declared_n_exits_1(capsys, tmp_path, declared, shown):
    # A JSON code file's "n" must be an integer: true and 1.0 are not 1.
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": declared, "checks": ["Z"]}))
    code, report, err = run(capsys, "prep", str(path))
    assert code == 1 and report["inputs"] is None and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": f"code field 'n' must be an integer, got {shown}"}
    assert err.splitlines() == [f"error: code field 'n' must be an integer, got {shown}"]


def test_prep_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "prep", str(tmp_path / "nope.txt"))
    assert code == 1
    assert "error" in err


def test_prep_bad_verify_value_exits_1(capsys):
    code, _, err = run(capsys, "prep", "builtin:repetition3", "--verify", "maybe")
    assert code == 1
    assert "trial count" in err


# -- weight ----------------------------------------------------------------------


def test_weight_ghz6(capsys):
    code, report, _ = run(capsys, "weight", "builtin:ghz6")
    assert code == 0
    r = report["results"]
    assert r["weight"] == 6
    assert r["vector"] == [6, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("spelling", ["ghz(6)", " GHZ6 ", "ghz( 6 )"])
def test_weight_builtin_size_spellings(capsys, spelling):
    """Every spelling of a sized name reads as ``ghz6``; only the command
    line and the recorded source keep the spelling given."""
    _, want, _ = run(capsys, "weight", "builtin:ghz6", "--seed", "0")
    code, report, _ = run(capsys, "weight", f"builtin:{spelling}", "--seed", "0")
    assert code == 0
    assert report["results"] == want["results"]
    assert report["inputs"] == {"tableau": {"source": f"builtin:{spelling}"}}


def test_weight_zero_state(capsys):
    code, report, _ = run(capsys, "weight", "builtin:zero3")
    assert code == 0
    assert report["results"]["weight"] == 1
    assert report["results"]["vector"] == [1, 1, 1]


def test_weight_oracle_agreement(capsys):
    code, report, err = run(capsys, "weight", "builtin:ghz5", "--oracle")
    assert code == 0
    oracle = report["results"]["oracle"]
    assert oracle["agrees"] is True
    assert oracle["vector"] == report["results"]["vector"]
    assert "agree" in err


@pytest.mark.parametrize("state", ["random10", "random14", "ghz8"])
def test_weight_oracle_reads_one_rank_sweep(capsys, tmp_path, monkeypatch, state):
    t = ghz_state(8) if state == "ghz8" else random_stabilizer_state(int(state[6:]), 7)
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(tableau_to_json(t)))
    tables = []
    group_table = metrics._group_table
    monkeypatch.setattr(metrics, "_group_table", lambda tab: tables.append(tab.n) or group_table(tab))
    code, report, _ = run(capsys, "weight", str(path), "--oracle")
    assert code == 0
    assert tables == [t.n, t.n]  # one table for the greedy, one for the whole oracle vector
    monkeypatch.undo()
    per_k = [metrics.weight_vector_oracle(t, k) for k in range(1, t.n + 1)]
    assert report["results"]["oracle"]["vector"] == per_k == report["results"]["vector"]


def test_weight_tableau_file(capsys, tmp_path):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(tableau_to_json(ghz_state(4))))
    code, report, _ = run(capsys, "weight", str(path))
    assert code == 0
    assert report["results"]["weight"] == 4
    assert report["inputs"]["tableau"]["sha256"]


def test_weight_size_guard_exits_3(capsys):
    code, report, err = run(capsys, "weight", "builtin:ghz25")
    assert code == 3 and report["results"] is None
    assert report["error"] == {"kind": "ResourceGuardError", "message": "group enumeration capped at n <= 20, got n = 25"}
    assert report["guard"] == {"name": "group_table", "limit": 20, "value": 25}
    assert "resource guard" in err


@pytest.mark.parametrize(
    "argv,guard",
    [
        (["weight", "builtin:ghz24"], {"name": "group_table", "limit": 20, "value": 24}),
        (["crange", "ghz:20"], {"name": "dense", "limit": 16, "value": 20}),
    ],
)
def test_guard_report_names_the_guard(capsys, monkeypatch, argv, guard):
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    code, report, _ = run(capsys, *argv, "--seed", "0")
    assert code == 3 and report["guard"] == guard
    assert list(report) == ["command", "inputs", "results", "error", "guard"]


def test_weight_unknown_builtin_exits_1(capsys):
    code, report, err = run(capsys, "weight", "builtin:foo5")
    assert code == 1
    assert "unknown builtin" in err
    assert report["error"]["kind"] == "ValueError"
    assert "unknown builtin" in report["error"]["message"]
    assert report["command"] == ["adaptstab", "weight", "builtin:foo5"]


def test_weight_generator_width_mismatch_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "generators": ["+ZII", "+IZI", "+IIZZ"]}))
    code, report, err = run(capsys, "weight", str(bad))
    assert code == 1 and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": "generator +IIZZ acts on 4 qubits, expected 3"}
    assert "error" in err


def test_weight_non_string_generator_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "generators": [1, 2]}))
    code, report, _ = run(capsys, "weight", str(bad))
    assert code == 1 and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": "Pauli must be a string, got 1"}


@pytest.mark.parametrize(
    "doc,shown",
    [({"n": True, "generators": ["Z"]}, "true"), ({"n": 2.9, "generators": ["ZI", "IZ"]}, "2.9"), ({"n": 1.0, "generators": ["Z"]}, "1.0")],
)
def test_weight_non_integer_n_exits_1(capsys, tmp_path, doc, shown):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(doc))
    code, report, err = run(capsys, "weight", str(path))
    assert code == 1 and report["inputs"] is None and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": f"tableau field 'n' must be an integer, got {shown}"}
    assert err.splitlines() == [f"error: tableau field 'n' must be an integer, got {shown}"]


# -- cor / crange ----------------------------------------------------------------


def test_cor_ghz8_is_one(capsys):
    code, report, _ = run(capsys, "cor", "ghz:8")
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0)
    assert report["results"]["w"] == 1


def test_cor_hypergraph4(capsys):
    code, report, _ = run(capsys, "cor", "hypergraph:4")
    assert code == 0
    assert report["results"]["value"] == pytest.approx(0.25)


def test_cor_w8_pairs(capsys):
    code, report, _ = run(capsys, "cor", "w:8")
    assert code == 0
    assert report["results"]["value"] == pytest.approx(2 / 8)


def test_cor_w_two(capsys):
    code, report, _ = run(capsys, "cor", "w:8", "--w", "2")
    assert code == 0
    assert report["results"]["value"] == pytest.approx(0.25)


def test_cor_region_subset(capsys):
    code, report, _ = run(capsys, "cor", "ghz:6", "--region", "0,1,2")
    assert code == 0
    assert report["results"]["region"] == [0, 1, 2]
    assert report["results"]["value"] == pytest.approx(1.0)


def test_cor_region_outside_register_exits_1(capsys):
    code, report, err = run(capsys, "cor", "ghz:4", "--region", "0,9")
    assert code == 1 and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": "region qubit 9 outside 0..3"}
    assert "region qubit 9" in err


def test_cor_alt_method_seeded_reproducible(capsys):
    code1, report1, _ = run(capsys, "cor", "ghz:4", "--method", "alt", "--seed", "7")
    code2, report2, _ = run(capsys, "cor", "ghz:4", "--method", "alt", "--seed", "7")
    assert code1 == code2 == 0
    assert report1 == report2
    assert "timing_s" not in report1
    assert report1["results"]["method"] == "alternating-sign"


def test_cor_unknown_family_exits_1(capsys):
    code, _, err = run(capsys, "cor", "cluster:4")
    assert code == 1
    assert "unknown state family" in err


@pytest.mark.parametrize(
    "spec,form",
    [("ghz:4:2", "ghz:N"), ("dicke:4", "dicke:N:K"), ("plus:3:1", "plus:N"), ("w", "w:N"), ("basis:01:1", "basis:BITS")],
)
def test_state_spec_with_wrong_parameter_count_exits_1(capsys, spec, form):
    for command in ("cor", "crange", "antishallow"):
        code, report, err = run(capsys, command, spec)
        assert code == 1 and report["results"] is None
        message = f"state spec {spec!r} does not have the form {form}"
        assert report["error"] == {"kind": "ValueError", "message": message}
        assert message in err


def test_crange_w8(capsys):
    code, report, _ = run(capsys, "crange", "w:8")
    assert code == 0
    assert report["results"]["crange"] == 8


def test_crange_ghz_with_delta(capsys):
    code, report, _ = run(capsys, "crange", "ghz:6", "--delta", "0.5")
    assert code == 0
    assert report["results"]["crange"] == 6


def test_crange_with_delta_runs_above_the_subset_scan_cap(capsys):
    code, report, _ = run(capsys, "crange", "w:14", "--delta", "0.1")
    assert code == 0
    assert report["results"]["crange"] == 14 and report["results"]["delta"] == 0.1


@pytest.mark.parametrize("delta,shown", [("-1", "-1.0"), ("nan", "nan")])
def test_crange_negative_or_nan_delta_exits_1(capsys, delta, shown):
    # A product state has range 1; no threshold below 0 or NaN reads it as 4.
    code, report, err = run(capsys, "crange", "zero:4", "--delta", delta)
    message = f"correlation threshold must be >= 0, got {shown}"
    assert code == 1 and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": message}
    assert f"error: {message}" in err


@pytest.mark.parametrize("delta", ["inf", "1e400"])
def test_crange_infinite_delta_exits_1(capsys, delta):
    # The library takes inf (range 1), but a report holding it would not be JSON.
    code, report, err = run(capsys, "crange", "zero:4", "--delta", delta)
    message = "--delta must be finite, got inf"
    assert code == 1 and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": message}
    assert f"error: {message}" in err


def test_crange_guard_exits_3(capsys):
    code, _, err = run(capsys, "crange", "w:20")
    assert code == 3
    assert "resource guard" in err


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_every_subcommand_writes_strict_json(capsys, tmp_path):
    # json.loads takes Infinity and NaN; a report must parse without them,
    # as the CI smoke steps parse it.
    with pytest.raises(ValueError, match="^Infinity is not JSON$"):
        _strict_json('{"delta": Infinity}')
    cpath, tpath = tmp_path / "circuit.json", tmp_path / "target.json"
    cpath.write_text(circuit_to_json(ghz_adaptive(8, 2, 2)))
    tpath.write_text(json.dumps(tableau_to_json(ghz_state(8))))
    for argv, code in (
        (["prep", "builtin:steane", "--verify", "exhaustive"], 0),
        (["weight", "builtin:ghz6", "--oracle"], 0),
        (["cor", "w:6", "--w", "2"], 0),
        (["crange", "w:6", "--delta", "0.1"], 0),
        (["bounds", "--circuit", str(cpath), "--target", str(tpath)], 0),
        (["ghz-demo", "--n", "8", "--a", "2", "--k", "2"], 0),
        (["antishallow", "ghz:6"], 0),
        (["lightcone", "--circuit", str(cpath), "--from", "0"], 0),
        (["crange", "zero:4", "--delta", "inf"], 1),
    ):
        argv = [*argv, "--seed", "0"]
        assert main(argv) == code, argv
        assert _strict_json(capsys.readouterr().out)["command"] == ["adaptstab", *argv]


# -- one state loader ------------------------------------------------------------


@pytest.mark.parametrize("spec,alias", [("ghz:6", "builtin:ghz6"), ("plus:4", "builtin:plus4"), ("zero:3", "builtin:zero3")])
def test_weight_reads_a_spec_as_its_builtin_alias(capsys, spec, alias):
    _, want, _ = run(capsys, "weight", alias, "--seed", "0")
    code, report, _ = run(capsys, "weight", spec, "--seed", "0")
    assert code == 0
    assert report["results"] == want["results"]
    assert report["inputs"] == {"tableau": {"source": spec}}


def test_weight_basis_spec_reads_signed_z_generators(capsys):
    code, report, _ = run(capsys, "weight", "basis:0110", "--seed", "0")
    assert code == 0
    assert report["results"]["vector"] == [1, 1, 1, 1]
    assert sorted(report["results"]["generators"]) == sorted(["+ZIII", "-IZII", "-IIZI", "+IIIZ"])


@pytest.mark.parametrize("family", ["ghz", "plus", "zero"])
def test_dense_commands_read_a_builtin_alias_as_its_spec(capsys, family):
    for n in range(2, 9):
        alt = [["cor", "--w", "2", "--method", "alt"]] if n >= 4 else []
        for argv in (["cor"], *alt, ["crange"], ["crange", "--delta", "0.1"], ["antishallow"]):
            _, want, _ = run(capsys, *argv, f"{family}:{n}", "--seed", "0")
            code, report, _ = run(capsys, *argv, f"builtin:{family}{n}", "--seed", "0")
            assert code == 0, report
            assert report["inputs"] == {"family": f"builtin:{family}{n}"}
            assert report["results"] == {**want["results"], "family": f"builtin:{family}{n}"}


@pytest.mark.parametrize("spec", ["ghz:1", "ghz:7", "plus:5", "basis:1", "basis:0110", "zero:3"])
def test_tableau_and_dense_forms_of_a_spec_are_one_state(spec):
    t, digest = cli._load_state(spec, "tableau")
    s, _ = cli._load_state(spec, "dense")
    assert digest is None  # only a tableau file has one
    assert np.array_equal(from_tableau(t).amps, s.amps)


def test_weight_builtin_code_is_its_prepared_target(capsys, tmp_path):
    _, prepped, _ = run(capsys, "prep", "builtin:toric2", "--seed", "0")
    path = tmp_path / "target.json"
    path.write_text(json.dumps(prepped["results"]["target"]))
    _, want, _ = run(capsys, "weight", str(path), "--seed", "0")
    code, report, _ = run(capsys, "weight", "builtin:toric2", "--seed", "0")
    assert code == 0
    assert report["results"] == want["results"]
    assert report["inputs"] == {"tableau": {"source": "builtin:toric2"}}


def test_cor_reads_a_builtin_code_target_and_a_tableau_file(capsys, tmp_path):
    _, want, _ = run(capsys, "cor", "ghz:3", "--seed", "0")
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(tableau_to_json(ghz_state(3))))
    for spec in ("builtin:repetition3", str(path)):
        code, report, _ = run(capsys, "cor", spec, "--seed", "0")
        assert code == 0
        assert report["results"] == {**want["results"], "family": spec}


@pytest.mark.parametrize("command", ["cor", "crange", "antishallow"])
def test_dense_commands_record_a_tableau_file_by_its_digest(capsys, tmp_path, command):
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(tableau_to_json(ghz_state(3))))
    _, weighed, _ = run(capsys, "weight", str(path), "--seed", "0")
    digest = {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()[:16]}
    assert weighed["inputs"] == {"tableau": digest}
    code, report, _ = run(capsys, command, str(path), "--seed", "0")
    assert code == 0 and report["inputs"] == {"family": digest}
    for spec in ("ghz:3", "builtin:ghz3", "builtin:repetition3"):  # a spec is recorded as written
        assert run(capsys, command, spec, "--seed", "0")[1]["inputs"] == {"family": spec}


@pytest.mark.parametrize("spec,family", [("w:8", "w"), ("builtin:w8", "w"), ("dicke:6:2", "dicke"), ("hypergraph:4", "hypergraph")])
def test_weight_of_a_dense_only_family_exits_1(capsys, spec, family):
    code, report, err = run(capsys, "weight", spec)
    assert code == 1 and report["results"] is None
    message = f"state family {family!r} has no stabilizer tableau"
    assert report["error"] == {"kind": "ValueError", "message": message}
    assert message in err


def test_dense_form_of_a_large_tableau_trips_the_dense_guard(capsys):
    for spec in ("zero:17", "builtin:repetition17"):
        code, report, _ = run(capsys, "cor", spec)
        assert code == 3 and report["error"]["kind"] == "ResourceGuardError"


def _refuse(*_args, **_kwargs):
    raise AssertionError("built a state that its size guard refuses")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["weight", "zero:100000"], "group enumeration capped at n <= 20, got n = 100000"),
        (["weight", "ghz:4000"], "group enumeration capped at n <= 20, got n = 4000"),
        (["weight", "builtin:toric24"], "group enumeration capped at n <= 20, got n = 1152"),
        (["cor", "builtin:toric24"], "dense simulation of 1152 qubits exceeds the cap of 16 (set ADAPTSTAB_MAX_QUBITS to override)"),
    ],
)
def test_size_guards_trip_before_the_state_is_built(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    for family in ("ghz", "zero"):
        monkeypatch.setitem(densesim._FAMILY_TABLE, family, (densesim._FAMILY_TABLE[family][0], _refuse, _refuse))
    for builder in ("prepare_state", "x_type_logicals", "from_stabilizers", "from_tableau", "make_state"):
        monkeypatch.setattr(cli, builder, _refuse)
    code, report, err = run(capsys, *argv, "--seed", "0")
    assert code == 3 and report["results"] is None
    assert report["error"] == {"kind": "ResourceGuardError", "message": message}
    assert f"resource guard: {message}" in err


@pytest.mark.parametrize("name", ["repetition3", "repetition6", "steane", "toric2", "toric3"])
def test_builtin_code_target_is_the_prepared_target(name):
    # Same generators in the same order, destabilizers included, without compiling.
    t, digest = cli._load_state(f"builtin:{name}", "tableau")
    assert digest is None
    assert tableau_to_json(t) == tableau_to_json(prep.prepare_state(prep.builtin_code(name))[1])


def test_builtin_code_targets_load_without_compiling(capsys, monkeypatch, tmp_path):
    circ, _ = prep.prepare_state(prep.builtin_code("toric2"))
    cpath = tmp_path / "c.json"
    cpath.write_text(circuit_to_json(circ))
    files = {}
    for name in ("toric2", "steane", "repetition5"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(tableau_to_json(prep.prepare_state(prep.builtin_code(name))[1])))
    argvs = [
        ["weight", "builtin:toric2"],
        ["cor", "builtin:steane"],
        ["crange", "builtin:repetition5"],
        ["antishallow", "builtin:steane"],
        ["bounds", "--circuit", str(cpath), "--target", "builtin:toric2"],
    ]
    monkeypatch.setattr(cli, "prepare_state", _refuse)
    for argv in argvs:
        code, report, _ = run(capsys, *argv, "--seed", "0")
        name = argv[-1][len("builtin:"):]
        _, want, _ = run(capsys, *argv[:-1], str(files[name]), "--seed", "0")
        assert code == 0 and report["results"] is not None
        results, want = report["results"], want["results"]
        if "family" in results:  # the dense commands echo the spec as written
            assert results.pop("family") == argv[-1] and want.pop("family") == str(files[name])
        assert results == want


@pytest.mark.parametrize(
    "argv,message",
    [
        (["weight", "builtin:ghz(x)"], "size in 'ghz(x)' is not an integer: 'x'"),
        (["prep", "builtin:toric(x)"], "size in 'toric(x)' is not an integer: 'x'"),
        (["cor", "ghz:x"], "state spec 'ghz:x' does not have the form ghz:N"),
        (["weight", "basis:012"], "state spec 'basis:012' does not have the form basis:BITS"),
    ],
)
def test_non_integer_size_names_the_spec(capsys, argv, message):
    code, report, err = run(capsys, *argv)
    assert code == 1 and report["results"] is None
    assert report["error"] == {"kind": "ValueError", "message": message}
    assert message in err


# -- bounds ----------------------------------------------------------------------


@pytest.fixture
def ghz8_files(tmp_path):
    cpath = tmp_path / "circuit.json"
    tpath = tmp_path / "target.json"
    cpath.write_text(circuit_to_json(ghz_adaptive(8, 2, 2)))
    tpath.write_text(json.dumps(tableau_to_json(ghz_state(8))))
    return str(cpath), str(tpath)


def test_bounds_ghz_circuit_all_satisfied(capsys, ghz8_files):
    cpath, tpath = ghz8_files
    code, report, err = run(capsys, "bounds", "--circuit", cpath, "--target", tpath)
    assert code == 0
    r = report["results"]
    assert r["all_satisfied"] is True
    assert r["profile"]["n_a"] == 3
    assert len(r["checks"]) == 3
    assert r["weight_vector"][0] == 8
    assert "all satisfied" in err


def test_bounds_builtin_target_matches_file(capsys, ghz8_files):
    cpath, tpath = ghz8_files
    _, want, _ = run(capsys, "bounds", "--circuit", cpath, "--target", tpath, "--seed", "0")
    code, report, _ = run(capsys, "bounds", "--circuit", cpath, "--target", "builtin:ghz8", "--seed", "0")
    assert code == 0
    assert report["results"] == want["results"]
    assert report["inputs"]["target"] == {"source": "builtin:ghz8"}


def test_bounds_missing_target_exits_1(capsys, ghz8_files):
    cpath, _ = ghz8_files
    code, _, err = run(capsys, "bounds", "--circuit", cpath)
    assert code == 1
    assert "error" in err


def test_bounds_grid_geometry_rejects_nonlocal(capsys, ghz8_files):
    cpath, tpath = ghz8_files
    code, _, err = run(
        capsys, "bounds", "--circuit", cpath, "--target", tpath, "--geometry", "grid:1"
    )
    assert code == 1
    assert "invalid circuit" in err


def test_bounds_grid_geometry_local_chain(capsys, tmp_path):
    from adaptstab.circuit import AdaptiveCircuit, Gate
    from adaptstab.tableau import zero_state

    chain = AdaptiveCircuit(
        4, 0, [[Gate("CNOT", (q, q + 1))] for q in range(3)]
    )
    cpath = tmp_path / "chain.json"
    tpath = tmp_path / "zero.json"
    cpath.write_text(circuit_to_json(chain))
    tpath.write_text(json.dumps(tableau_to_json(zero_state(4))))
    code, report, _ = run(
        capsys,
        "bounds",
        "--circuit",
        str(cpath),
        "--target",
        str(tpath),
        "--geometry",
        "grid:1",
    )
    assert code == 0
    r = report["results"]
    assert r["profile"]["n_a"] == 0
    assert r["profile"]["geometry"]["kind"] == "grid"
    # includes the measurement-free check when n_a = 0
    assert any(rec["check"] == "nonadaptive" for rec in r["checks"])


def test_bounds_above_weight_cap_reports_proved(capsys, tmp_path):
    cpath = tmp_path / "circuit.json"
    code, prep, _ = run(capsys, "prep", "builtin:repetition24", "--verify", "1", "--seed", "0", "--out", str(cpath))
    assert code == 0
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps(prep["results"]["target"]))
    code, report, err = run(capsys, "bounds", "--circuit", str(cpath), "--target", str(tpath), "--seed", "0")
    assert code == 0
    r = report["results"]
    assert r["weight_vector"] is None
    # The heaviest target generator (the weight-24 logical) bounds wt_s from above.
    assert [(rec["check"], rec["rhs"], rec["wt_s_exact"], rec["status"]) for rec in r["checks"]] == [
        ("adaptive_weight", 24, False, "proved"),
        ("clifford_adaptive", 24, False, "proved"),
    ]
    assert r["all_satisfied"] is True
    assert r["correlation_note"].startswith("skipped")
    assert "all satisfied" in err


def test_bounds_above_weight_cap_inconclusive_is_not_a_violation(capsys, tmp_path):
    from adaptstab.circuit import AdaptiveCircuit, Gate

    cpath = tmp_path / "shallow.json"
    tpath = tmp_path / "ghz24.json"
    cpath.write_text(circuit_to_json(AdaptiveCircuit(24, 0, [[Gate("H", (0,))]])))
    tpath.write_text(json.dumps(tableau_to_json(ghz_state(24))))
    code, report, err = run(capsys, "bounds", "--circuit", str(cpath), "--target", str(tpath))
    assert code == 0
    r = report["results"]
    assert r["weight_vector"] is None and r["all_satisfied"] is False
    assert [(rec["check"], rec["status"], rec["satisfied"]) for rec in r["checks"]] == [
        ("nonadaptive", "inconclusive", False),
        ("adaptive_weight", "inconclusive", False),
        ("clifford_adaptive", "inconclusive", False),
    ]
    assert "inconclusive" in err


def test_bounds_bad_geometry_exits_1(capsys, ghz8_files):
    cpath, tpath = ghz8_files
    code, _, err = run(
        capsys, "bounds", "--circuit", cpath, "--target", tpath, "--geometry", "ring"
    )
    assert code == 1
    assert "geometry" in err


# -- ghz-demo --------------------------------------------------------------------


def test_ghz_demo_16_4_2(capsys):
    code, report, err = run(capsys, "ghz-demo", "--n", "16", "--a", "4", "--k", "2")
    assert code == 0
    r = report["results"]
    assert r["ancillas"] == 3
    assert r["depth"] == 7
    assert r["verify"]["all_match"] is True
    assert r["verify"]["branches"] == 8
    assert "verified" in err


def test_ghz_demo_checks_every_branch_above_12_cbits(capsys):
    code, report, _ = run(capsys, "ghz-demo", "--n", "256", "--a", "16", "--k", "2", "--trials", "1", "--seed", "0")
    assert code == 0
    v = report["results"]["verify"]
    assert v["all_match"] is True and v["branches"] == v["realizable"] == 2**15


def test_ghz_demo_above_weight_cap_proves_bounds(capsys):
    code, report, _ = run(capsys, "ghz-demo", "--n", "32", "--a", "8", "--k", "2", "--seed", "0")
    assert code == 0
    bounds = report["results"]["verify"]["bounds"]
    assert [(b["lhs"], b["rhs"], b["status"]) for b in bounds] == [(131072, 32, "proved"), (1024, 32, "proved")]


def test_ghz_demo_seeded_reproducible(capsys):
    args = ("ghz-demo", "--n", "8", "--a", "2", "--k", "2", "--seed", "1")
    code1, report1, _ = run(capsys, *args)
    code2, report2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert report1 == report2
    assert "timing_s" not in report1


# -- antishallow -----------------------------------------------------------------


def test_antishallow_ghz8_interval(capsys):
    code, report, _ = run(capsys, "antishallow", "ghz:8", "--seed", "0")
    assert code == 0
    r = report["results"]
    assert r["lower"] == pytest.approx(math.log2(36 / 35))
    assert r["upper"] == pytest.approx(1.0)
    assert r["interval"] == [r["lower"], r["upper"]]


@pytest.mark.parametrize("spec", ["basis:00", "plus:4", "zero:4", "w:1"])
def test_antishallow_product_state_interval_is_zero(capsys, spec):
    code, report, _ = run(capsys, "antishallow", spec, "--seed", "0")
    assert code == 0
    r = report["results"]
    assert r["interval"] == [r["lower"], r["upper"]] == [0.0, 0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in r["interval"])  # not -0.0


# -- lightcone -------------------------------------------------------------------


def test_lightcone_forward_fanout(capsys, tmp_path):
    cpath = tmp_path / "fanout.json"
    cpath.write_text(circuit_to_json(ghz_adaptive(8, 8, 2)))
    code, report, _ = run(capsys, "lightcone", "--circuit", str(cpath), "--from", "0")
    assert code == 0
    r = report["results"]
    assert r["size"] == 8  # root reaches every target through the CNOT tree
    assert r["size"] <= r["bound"]
    assert r["within_bound"] is True


def test_lightcone_backward(capsys, tmp_path):
    cpath = tmp_path / "fanout.json"
    cpath.write_text(circuit_to_json(ghz_adaptive(8, 8, 2)))
    code, report, _ = run(
        capsys, "lightcone", "--circuit", str(cpath), "--from", "7", "--backward"
    )
    assert code == 0
    cone = report["results"]["cone"]
    assert 7 in cone and 0 in cone
    assert report["results"]["direction"] == "backward"


def test_lightcone_rejects_invalid_circuit(capsys, tmp_path):
    cpath = tmp_path / "bad.json"
    layers = [[{"op": "CNOT", "qubits": [0, 5]}], [{"op": "FOO", "qubits": [1]}]]
    cpath.write_text(json.dumps({"m": 2, "cbits": 0, "layers": layers}))
    code, report, err = run(capsys, "lightcone", "--circuit", str(cpath), "--from", "0")
    assert code == 1
    r = report["results"]
    assert "cone" not in r
    assert any("qubit 5 out of range" in v for v in r["violations"])
    assert any("unknown gate 'FOO'" in v for v in r["violations"])
    assert "invalid input" in err


def test_lightcone_rejects_source_outside_circuit(capsys, tmp_path):
    cpath = tmp_path / "fanout.json"
    cpath.write_text(circuit_to_json(ghz_adaptive(2, 2, 2)))
    code, report, _ = run(capsys, "lightcone", "--circuit", str(cpath), "--from", "7")
    assert code == 1
    assert report["results"]["violations"] == ["source qubit 7 outside 0..1"]
    assert report["results"]["sources"] == [7]


def test_lightcone_missing_circuit_file_reports_error(capsys, tmp_path):
    missing = str(tmp_path / "nonexistent.json")
    code, report, err = run(capsys, "lightcone", "--circuit", missing, "--from", "0", "--seed", "0")
    assert code == 1
    assert report == {
        "command": ["adaptstab", "lightcone", "--circuit", missing, "--from", "0", "--seed", "0"],
        "inputs": None,
        "results": None,
        "error": {"kind": "FileNotFoundError", "message": report["error"]["message"]},
    }
    assert "nonexistent.json" in report["error"]["message"]
    assert "error" in err


# -- malformed circuit JSON --------------------------------------------------------


@pytest.mark.parametrize(
    "field,edit",
    [
        ("m", lambda d: d.update(m=float(d["m"]))),
        ("cbits", lambda d: d.update(cbits=True)),
        ("qubit", lambda d: d["layers"][3][0].update(qubit=4.0)),
        ("cbit", lambda d: d["layers"][3][0].update(cbit=False)),
        ("qubits", lambda d: d["layers"][1][0].update(qubits=[0, True])),
        ("cond.bits", lambda d: d["layers"][4][0]["cond"].update(bits=[0.0])),
        ("cond.xor", lambda d: d["layers"][4][0]["cond"].update(xor=True)),
    ],
)
def test_circuit_from_json_rejects_non_integer_fields(field, edit):
    doc = json.loads(circuit_to_json(ghz_adaptive(4, 2, 2)))
    edit(doc)
    with pytest.raises(ValueError, match=f"^circuit field '{re.escape(field)}' must be an integer, got "):
        circuit_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "field,edit",
    [
        ("qubits", lambda d: d["layers"][1][0].update(qubits=0)),
        ("qubits", lambda d: d["layers"][1][0].pop("qubits")),
        ("cond.bits", lambda d: d["layers"][4][0]["cond"].update(bits=0)),
        ("layers[2]", lambda d: d["layers"].__setitem__(2, {"op": "CNOT", "qubits": [2, 4]})),
        ("op", lambda d: d["layers"][0][0].update(op=["H"])),
        ("pauli", lambda d: d["layers"][1][0].update(op="CP", pauli=["X"])),
    ],
)
def test_lightcone_reports_misshapen_circuit_field_as_value_error(capsys, tmp_path, field, edit):
    doc = json.loads(circuit_to_json(ghz_adaptive(4, 2, 2)))
    edit(doc)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(doc))
    code, report, _ = run(capsys, "lightcone", "--circuit", str(cpath), "--from", "0")
    assert code == 1 and report["results"] is None
    assert report["error"]["kind"] == "ValueError"
    assert report["error"]["message"].startswith(f"circuit field '{field}' ")


_BAD_TABLEAU = '{"n": 2, "generators": 5}'


@pytest.mark.parametrize(
    "argv,text,needle",
    [
        (["weight"], _BAD_TABLEAU, "tableau field 'generators' must be a list"),
        (["weight"], '{"generators": ["ZI", "IZ"]}', "tableau field 'n' is missing"),
        (["weight"], '{"n": 2, "generators": ["ZI", "IZ"], "destabilizers": 7}', "tableau field 'destabilizers'"),
        (["weight"], '["ZI", "IZ"]', "a tableau must be a JSON object"),
        (["bounds", "--circuit", "CIRCUIT", "--target"], _BAD_TABLEAU, "tableau field 'generators' must be a list"),
        (["prep"], '{"name": "x"}', "code field 'checks' is missing"),
        (["prep", "builtin:repetition3", "--partition"], '{"s2": []}', "partition field 's1' is missing"),
        (["prep", "builtin:repetition3", "--partition"], '[["ZZI", "IZZ"], ["XXX"]]', "a partition must be a JSON object"),
    ],
    ids=["generators", "n", "destabilizers", "tableau-doc", "bounds-target", "checks", "s1", "partition-doc"],
)
def test_misshapen_input_file_field_is_a_value_error(capsys, tmp_path, argv, text, needle):
    cpath, path = tmp_path / "c.json", tmp_path / "input.json"
    cpath.write_text(circuit_to_json(ghz_adaptive(4, 2, 2)))
    path.write_text(text)
    code, report, _ = run(capsys, *[str(cpath) if a == "CIRCUIT" else a for a in argv], str(path))
    assert code == 1 and report["results"] is None
    assert report["error"]["kind"] == "ValueError"
    assert needle in report["error"]["message"]


_JSON_VALUES = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.floats(-3, 12),
    st.text("MZXHCNOTP", max_size=4),
    st.none(),
    st.lists(st.integers(-2, 8), max_size=3),
    st.just({}),
)


def _slots(node):
    """(container, key) of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def mutated_circuits(draw):
    """Circuit JSON of a small adaptive GHZ circuit with a few values
    replaced by other JSON values, or deleted."""
    doc = json.loads(circuit_to_json(ghz_adaptive(4, 2, 2)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        if draw(st.booleans()):
            container[key] = draw(_JSON_VALUES)
        else:
            del container[key]
    return json.dumps(doc)


@settings(max_examples=120, deadline=None)
@given(mutated_circuits())
def test_mutated_circuit_json_gets_one_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        cpath, tpath = Path(tmp) / "circuit.json", Path(tmp) / "target.json"
        cpath.write_text(text)
        tpath.write_text(json.dumps(tableau_to_json(ghz_state(4))))
        for argv in (["bounds", "--circuit", str(cpath), "--target", str(tpath)], ["lightcone", "--circuit", str(cpath), "--from", "0"]):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
            report = json.loads(out.getvalue())
            assert code in (0, 1, 2), (argv, report)
            if "error" in report:
                assert code == 1 and report["error"]["kind"] == "ValueError", report


# -- report contract ---------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    for argv, message in (
        (["bogus-subcommand"], "invalid choice"),
        ([], "the following arguments are required: subcommand"),
        (["lightcone", "--circuit", "x.json", "--from", "0", "--qubits", "0"], "unrecognized arguments: --qubits 0"),
        (["ghz-demo", "--n", "four", "--a", "2", "--k", "2"], "invalid int value"),
    ):
        code, report, err = run(capsys, *argv)
        assert code == 1
        assert report["command"] == ["adaptstab", *argv]
        assert report["inputs"] is None and report["results"] is None
        assert report["error"]["kind"] == "UsageError"
        assert report["error"]["message"].startswith("adaptstab")
        assert message in report["error"]["message"]
        assert "usage:" in err and message in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "prep" in out and "lightcone" in out


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process; a usage error must leave nothing
    # behind that changes the reports of later calls.
    calls = (
        ["weight", "builtin:ghz3", "--bogus", "--seed", "0"],
        ["weight", "builtin:ghz4", "--oracle", "--seed", "0"],
        ["cor", "ghz:4", "--w", "1", "--seed", "0"],
    )
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert cli._build_parser() is cli._build_parser()
    assert [(main(argv), capsys.readouterr()) for argv in calls] == fresh
    assert [code for code, _ in fresh] == [1, 0, 0]
    assert main(["--help"]) == 0 and "usage:" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("seed", [["--seed", "0"], []])
def test_an_int_past_the_digit_limit_gives_one_error_report(capsys, monkeypatch, seed):
    # The report is encoded whole before it is written, so a result that
    # str() refuses ends in one error report, not a cut one and a traceback.
    huge = {"all_match": True, "depth": 1, "branches": 1 << 20000}
    monkeypatch.setattr(cli, "verify_preparation", lambda *a, **k: huge)
    code = main(["ghz-demo", "--n", "4", "--a", "2", "--k", "2", *seed])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 1 and out.endswith("}\n")
    assert report["inputs"] is None and report["results"] is None
    assert report["error"]["kind"] == "ValueError" and "4300" in report["error"]["message"]
    assert list(report) == ["command", "inputs", "results", "error"] + ["timing_s"] * (not seed)
    assert err == f"error: {report['error']['message']}\n"


def test_report_shape_and_timing(capsys):
    code, report, _ = run(capsys, "weight", "builtin:ghz3")
    assert code == 0
    assert report["command"][0] == "adaptstab"
    assert set(report) == {"command", "inputs", "results", "timing_s"}


def test_seeded_report_drops_timing(capsys):
    code, report, _ = run(capsys, "weight", "builtin:ghz3", "--seed", "0")
    assert code == 0
    assert set(report) == {"command", "inputs", "results"}


def test_seeded_usage_error_drops_timing(capsys):
    for seed in (["--seed", "0"], ["--seed=0"]):
        argv = ["prep", "builtin:steane", *seed, "--bogus"]
        outs = []
        for _ in range(2):
            assert main(argv) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert "timing_s" not in report and report["error"]["kind"] == "UsageError"
    code, report, _ = run(capsys, "prep", "builtin:steane", "--bogus")
    assert code == 1 and "timing_s" in report
