import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion.cli import _emit, run_command
from qregion.hrep import export_h_representation, parse_h_representation
from qregion.region import RegionConstants, nonempty_subsets

from helpers import (emit_reference, esq_search_reference, ghz_state,
                     random_mixture_spec, random_sender_state)

GHZ_TEXT = "{family: ghz, labels: [A1, A2, R], dims: [2, 2, 2], reference: R}\n"
BELL_SENDERS_TEXT = ("{family: bell, labels: [A1, A2, R], dims: [2, 2, 1], "
                     "pair: [A1, A2], reference: R}\n")


@pytest.fixture
def ghz_spec_file(tmp_path):
    path = tmp_path / "ghz.spec"
    path.write_text(GHZ_TEXT)
    return path


def _strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": null', text)


def test_hrep_export_ghz_rows():
    rc = qr.region_constants(ghz_state(), "R")
    lines = export_h_representation(rc).splitlines()
    begin, end = lines.index("begin"), lines.index("end")
    assert lines[begin + 1].split() == ["3", "3", "real"]
    values = [[float(x) for x in line.split()]
              for line in lines[begin + 2:end]]
    assert np.allclose(values, [[-0.5, 1, 0], [-0.5, 0, 1], [-1.5, 1, 1]],
                       atol=1e-8)


def test_hrep_round_trip():
    rc = qr.region_constants(ghz_state(), "R")
    back = parse_h_representation(export_h_representation(rc))
    assert back.senders == rc.senders
    assert back.reference == rc.reference
    for subset in nonempty_subsets(rc.senders):
        assert abs(back.value(subset) - rc.value(subset)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((2, 4)))
def test_hrep_round_trip_property(m, seed, d_ref):
    # 17 significant digits round-trip every double exactly
    rc = qr.region_constants(random_sender_state(m, seed, d_ref=d_ref), "R")
    text = export_h_representation(rc)
    back = parse_h_representation(text)
    assert back.senders == rc.senders
    assert back.reference == rc.reference
    assert np.array_equal(back.table, rc.table)
    assert export_h_representation(back) == text


def test_hrep_zero_constants():
    senders = ("A1", "A2")
    rc = RegionConstants(senders, "R",
                         {s: 0.0 for s in nonempty_subsets(senders)})
    text = export_h_representation(rc)
    for line in text.splitlines():
        if line.startswith(" ") and len(line.split()) == 3:
            fields = line.split()
            if fields[0] not in ("3",):
                assert float(fields[0]) == 0.0


def test_hrep_parse_rejects_non_finite_constant():
    text = export_h_representation(qr.region_constants(ghz_state(), "R"))
    lines = text.splitlines()
    row = lines.index("begin") + 2
    lines[row] = " nan" + lines[row][len(lines[row].split()[0]) + 1:]
    with pytest.raises(qr.RegionError, match="finite"):
        parse_h_representation("\n".join(lines))


def test_hrep_parse_rejects_repeated_subset():
    text = "\n".join(["* senders: A1 A2", "H-representation", "begin",
                      " 4 3 real", " -1 1 0", " -1 0 1", " -1.5 1 1",
                      " -9 1 1", "end"])
    with pytest.raises(qr.RegionError, match=r"repeated row .*'A1', 'A2'"):
        parse_h_representation(text)


def test_hrep_parse_names_a_non_numeric_line():
    head = ["H-representation", "begin"]
    with pytest.raises(qr.RegionError, match=r"size line: '1 x real'"):
        parse_h_representation("\n".join(head + [" 1 x real", " -1 1",
                                                  "end"]))
    with pytest.raises(qr.RegionError, match=r"row: '-1 y'"):
        parse_h_representation("\n".join(head + [" 1 2 real", " -1 y",
                                                  "end"]))


@pytest.mark.parametrize("lines, message", [
    (["* senders: A1"], "no begin/size line found"),
    (["begin", " 1 2 real", "end"], "expected 1 rows of 2 entries"),
    (["* senders: A1 A2", "begin", " 1 2 real", " -0.5 1", "end"],
     "2 sender names for 1 columns"),
    (["begin", " 1 2 real", " -0.5 2", "end"],
     r"non-indicator row \[-0.5, 2.0\]"),
    (["begin", " 1 2 real", " -0.5 0", "end"], "empty-subset row"),
], ids=["no-block", "row-count", "sender-count", "non-indicator", "empty"])
def test_hrep_parse_refusals(lines, message):
    with pytest.raises(qr.RegionError, match=f"^{message}$"):
        parse_h_representation("\n".join(lines))


def test_hrep_parse_names_unnamed_senders_q1_to_qm():
    rc = parse_h_representation("\n".join(
        ["begin", " 3 3 real", " -1 1 0", " -0.5 0 1", " -1.5 1 1", "end"]))
    assert rc.senders == ("Q1", "Q2") and rc.reference == "R"
    assert rc.value({"Q2"}) == 0.5 and rc.value({"Q1", "Q2"}) == 1.5


def test_region_command_report(tmp_path, ghz_spec_file):
    out = tmp_path / "report.json"
    code = run_command(["region", "--state", str(ghz_spec_file),
                        "--out", str(out), "--seed", "1"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["constants"] == {"A1": 0.5, "A2": 0.5, "A1+A2": 1.5}
    rates = sorted((v["rates"]["A1"], v["rates"]["A2"])
                   for v in report["vertices"])
    assert np.allclose(rates, [(0.5, 1.0), (1.0, 0.5)], atol=1e-8)
    assert report["supermodular"] == "pass"
    assert report["spec_sha256"]
    parsed = parse_h_representation(report["h_representation"])
    assert parsed.senders == ("A1", "A2")


def test_corners_and_greedy_commands(tmp_path, ghz_spec_file):
    out = tmp_path / "corners.json"
    assert run_command(["corners", "--state", str(ghz_spec_file),
                        "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["vertices"]) == 2

    gout = tmp_path / "greedy.json"
    assert run_command(["greedy", "--state", str(ghz_spec_file),
                        "--out", str(gout), "--costs", "1,2"]) == 0
    greport = json.loads(gout.read_text())
    assert greport["objective"] == pytest.approx(2.0, abs=1e-8)
    assert greport["point"] == {"A1": pytest.approx(1.0),
                                "A2": pytest.approx(0.5)}


def test_esq_command(tmp_path, ghz_spec_file):
    out = tmp_path / "esq.json"
    code = run_command(["esq", "--state", str(ghz_spec_file),
                        "--out", str(out), "--seed", "3",
                        "--d-e-max", "2", "--restarts", "2",
                        "--iterations", "2"])
    assert code == 0
    report = json.loads(out.read_text())
    est = report["esq_estimates"]["A1+A2"]
    assert est["value"] <= 1e-6
    assert report["outer_constants"]["A1+A2"] \
        == pytest.approx(1.5, abs=1e-6)


def test_classify_command_verdicts(tmp_path, ghz_spec_file, capsys):
    out = tmp_path / "cls.json"
    code = run_command(["classify", "--state", str(ghz_spec_file),
                        "--out", str(out), "--point", "0.4,0.4",
                        "--seed", "3", "--d-e-max", "2", "--restarts", "2"])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "not_achievable"
    assert "not_achievable" in capsys.readouterr().out

    bell_file = out.parent / "bellss.spec"
    bell_file.write_text(BELL_SENDERS_TEXT)
    out2 = tmp_path / "cls2.json"
    run_command(["classify", "--state", str(bell_file), "--out", str(out2),
                 "--point", "0.2,0.2", "--seed", "3", "--d-e-max", "2",
                 "--restarts", "2"])
    assert json.loads(out2.read_text())["verdict"] == "gap"


def test_classify_verdict_agrees_with_inner_membership(tmp_path, capsys):
    # every C_K of the product state is 0: the point is within FEAS_TOL
    spec = tmp_path / "prod.spec"
    spec.write_text("{family: product, labels: [A1, A2, R], dims: [2, 2, 2], "
                    "basis: '000', reference: R}\n")
    out = tmp_path / "cls.json"
    assert run_command(["classify", "--state", str(spec), "--out", str(out),
                        "--point=-5e-8,0", "--d-e-max", "2",
                        "--restarts", "2"]) == 0
    report = json.loads(out.read_text())
    assert report["inner_membership"] == "boundary"
    assert report["violated_inner"] == []
    assert report["verdict"] == "achievable"
    assert capsys.readouterr().out.strip() == "achievable"


def test_simulate_command_csv(tmp_path, ghz_spec_file):
    bell_file = tmp_path / "bell.spec"
    bell_file.write_text("{family: bell, labels: [A, R], dims: [2, 2], "
                         "pair: [A, R], reference: R}\n")
    out = tmp_path / "curve.csv"
    code = run_command(["simulate", "--state", str(bell_file),
                        "--out", str(out), "--seed", "9", "--copies", "1",
                        "--grid", "0,1", "--trials", "4"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "Q,trials,mean_dist,stderr_dist,mean_fid"
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(0.75, abs=1e-9)


def test_report_determinism(tmp_path, ghz_spec_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_command(["esq", "--state", str(ghz_spec_file),
                            "--out", str(path), "--seed", "11",
                            "--d-e-max", "2", "--restarts", "2"]) == 0
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())
    assert a.read_bytes() != b"" and b.read_bytes() != b""


def test_exit_codes(tmp_path, ghz_spec_file):
    assert run_command(["region", "--state", str(tmp_path / "nope.spec"),
                        "--out", str(tmp_path / "x.json")]) == 2
    bad = tmp_path / "bad.spec"
    bad.write_text("{family: ghz, labels: [A1, A2, R], dims: [2, 0, 2], "
                   "reference: R}\n")
    assert run_command(["region", "--state", str(bad),
                        "--out", str(tmp_path / "x.json")]) == 2
    # bad flags via argparse
    assert run_command(["region"]) == 2
    assert run_command(["greedy", "--state", str(ghz_spec_file),
                        "--out", str(tmp_path / "g.json"),
                        "--costs", "1,-1"]) == 2
    assert run_command(["classify", "--state", str(ghz_spec_file),
                        "--out", str(tmp_path / "c.json"),
                        "--point", "0.1"]) == 2


def test_report_vertices_pass_membership(tmp_path, ghz_spec_file):
    out = tmp_path / "r.json"
    run_command(["region", "--state", str(ghz_spec_file),
                 "--out", str(out)])
    report = json.loads(out.read_text())
    rc = qr.region_constants(ghz_state(), "R")
    for v in report["vertices"]:
        rates = tuple(v["rates"][lab] for lab in rc.senders)
        verdict = qr.membership(rc, qr.RatePoint(rc.senders, rates)).verdict
        assert verdict in ("boundary", "inside")


def test_region_command_names_the_first_vertex_outside(
        tmp_path, ghz_spec_file, monkeypatch, capsys):
    real = qr.region.corner_set

    def with_bad_vertices(rc):
        vr = real(rc)
        bad = [qr.RatePoint(rc.senders, (0.25, 0.5)),
               qr.RatePoint(rc.senders, (0.125, 0.5))]
        return qr.VRegion(rc.senders, vr.vertices[:1] + tuple(bad)
                          + vr.vertices[1:])

    monkeypatch.setattr(qr.region, "corner_set", with_bad_vertices)
    code = run_command(["region", "--state", str(ghz_spec_file),
                        "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "vertex (0.25, 0.5) fails membership" in err
    assert "0.125" not in err


def _mixture_text(spec) -> str:
    branches = [{"weight": br.weight,
                 "kets": [[[float(a.real), float(a.imag)] for a in ket]
                          for ket in br.kets]}
                for br in spec.branches]
    return json.dumps({"family": "mixture", "labels": list(spec.labels),
                       "dims": list(spec.dims),
                       "reference": spec.reference,
                       "branches": branches}) + "\n"


@pytest.mark.filterwarnings("ignore:input state is not pure")
def test_esq_command_uses_mixture_provenance(tmp_path):
    spec = random_mixture_spec(np.random.default_rng(5), ("A1", "A2", "R"),
                               (2, 2, 2), branches=3)
    path = tmp_path / "mix.spec"
    path.write_text(_mixture_text(spec))
    out = tmp_path / "mix.json"
    assert run_command(["esq", "--state", str(path), "--out", str(out),
                        "--seed", "4"]) == 0
    est = json.loads(out.read_text())["esq_estimates"]["A1+A2"]
    assert est["best_kind"] == "classical_flag"
    assert est["value"] == 0


def _family_text(family, m, d_ref=2, **fields) -> str:
    labels = [f"A{i + 1}" for i in range(m)] + ["R"]
    return json.dumps({"family": family, "labels": labels,
                       "dims": [2] * m + [d_ref], "reference": "R",
                       **fields}) + "\n"


#: specs whose every subset the coherent-information floor pins: a GHZ
#: state, a product state, and a Bell pair between A1 and A2 with the
#: reference trivial or a spectator in |0>
EXACT_FAMILIES = {
    "ghz": lambda m: _family_text("ghz", m),
    "product": lambda m: _family_text("product", m,
                                      basis=[k % 2 for k in range(m + 1)]),
    "bell-senders": lambda m: _family_text("bell", m, d_ref=1,
                                           pair=["A1", "A2"]),
    "bell-spectators": lambda m: _family_text("bell", m, pair=["A1", "A2"]),
}


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_esq_is_exact_on_every_subset_of_structured_specs(tmp_path, family,
                                                         m):
    path = tmp_path / "s.spec"
    path.write_text(EXACT_FAMILIES[family](m))
    out = tmp_path / "esq.json"
    assert run_command(["esq", "--state", str(path), "--out", str(out)]) == 0
    estimates = json.loads(out.read_text())["esq_estimates"]
    assert len(estimates) == 2 ** m - m - 1
    for subset, est in estimates.items():
        assert est["exact"] is True, subset
        assert abs(est["value"] - est["lower"]) <= qr.region.FEAS_TOL
        # a pair of A1 and A2 is one ebit, whatever else the subset holds
        pair = family.startswith("bell") and {"A1", "A2"} <= set(
            subset.split("+"))
        assert est["lower"] == pytest.approx(1.0 if pair else 0.0, abs=1e-9)


#: specs on which the stop must leave every reported value's bytes
STOP_SPECS = {
    **{f"ghz{m}": _family_text("ghz", m) for m in (3, 4, 5, 6)},
    "w3": _family_text("w", 3),
    **{f"random{m}": _family_text("random_pure", m, seed=5)
       for m in (3, 4)},
    "mixture": _mixture_text(random_mixture_spec(
        np.random.default_rng(9), ("A1", "A2", "A3", "R"), (2, 2, 2, 1),
        branches=3)),
}


@pytest.mark.filterwarnings("ignore:input state is not pure")
@pytest.mark.parametrize("name", STOP_SPECS)
def test_esq_values_equal_the_search_without_a_stop(tmp_path, name):
    path = tmp_path / "s.spec"
    path.write_text(STOP_SPECS[name])
    out = tmp_path / "esq.json"
    assert run_command(["esq", "--state", str(path), "--out", str(out),
                        "--seed", "3"]) == 0
    report = json.loads(out.read_text())
    state = qr.build_state(qr.parse_state_spec(STOP_SPECS[name]))
    for subset, est in report["esq_estimates"].items():
        labels = subset.split("+")
        marginal = qr.reduced_state(state, labels)
        value, _, _ = esq_search_reference(
            marginal, [{lab} for lab in labels], qr.EsqBudget(seed=3))
        assert json.loads(_emit(value)) == est["value"], subset


def test_linalg_failure_is_internal_error(tmp_path, ghz_spec_file,
                                          monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert run_command(["region", "--state", str(ghz_spec_file),
                        "--out", str(tmp_path / "r.json")]) == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["region", "corners"])
def test_corner_commands_refuse_eight_senders(tmp_path, capsys, command):
    labels = [f"A{i + 1}" for i in range(8)] + ["R"]
    path = tmp_path / "eight.spec"
    path.write_text(json.dumps({"family": "bell", "labels": labels,
                                "dims": [2, 2] + [1] * 7,
                                "pair": ["A1", "A2"], "reference": "R"}))
    assert run_command([command, "--state", str(path),
                        "--out", str(tmp_path / "r.json")]) == 2
    assert "this region has 8" in capsys.readouterr().err


@pytest.mark.parametrize("costs", ["nan,1", "inf,1"])
def test_greedy_rejects_non_finite_costs(tmp_path, capsys, ghz_spec_file,
                                         costs):
    out = tmp_path / "g.json"
    assert run_command(["greedy", "--state", str(ghz_spec_file),
                        "--out", str(out), "--costs", costs]) == 2
    assert "costs must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_greedy_refuses_an_objective_that_overflows(tmp_path, capsys):
    spec = tmp_path / "ghz3.spec"
    spec.write_text("{family: ghz, labels: [A1, A2, A3, R], "
                    "dims: [2, 2, 2, 2], reference: R}\n")
    out = tmp_path / "g.json"
    assert run_command(["greedy", "--state", str(spec), "--out", str(out),
                        "--costs", "1e308,1e308,1e308"]) == 2
    err = capsys.readouterr().err
    assert "error: the objective at costs [1e+308, 1e+308, 1e+308] is not " \
        "finite" in err
    assert "Warning" not in err
    assert not out.exists()


def test_classify_compares_huge_rates_without_a_warning(tmp_path, capsys,
                                                        ghz_spec_file):
    out = tmp_path / "c.json"
    assert run_command(["classify", "--state", str(ghz_spec_file), "--out",
                        str(out), "--point", "1e308,1e308", "--d-e-max", "1",
                        "--restarts", "1", "--iterations", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "achievable"
    assert captured.err == ""
    report = json.loads(out.read_text())
    assert report["verdict"] == "achievable"
    assert report["inner_membership"] == "inside"


def test_esq_names_the_subset_with_no_room_for_an_extension(tmp_path, capsys):
    spec = tmp_path / "big.spec"
    spec.write_text("{family: random_pure, labels: [A1, A2, R], "
                    "dims: [32, 64, 2], seed: 3, reference: R}\n")
    out = tmp_path / "esq.json"
    assert run_command(["esq", "--state", str(spec), "--out", str(out)]) == 2
    assert "error: A1+A2: marginal dimension 2048 leaves no room for any " \
        "extension within the cap 1024" in capsys.readouterr().err
    assert not out.exists()


def _three_label_spec(tmp_path):
    path = tmp_path / "w.spec"
    path.write_text("{family: random_pure, labels: [A1, A2, R], "
                    "dims: [2, 2, 2], seed: 6, reference: R}\n")
    return path


def test_simulate_sender_flag_picks_the_sender(tmp_path):
    spec = _three_label_spec(tmp_path)
    out = tmp_path / "curve.csv"
    assert run_command(["simulate", "--state", str(spec), "--out", str(out),
                        "--seed", "4", "--copies", "2", "--grid", "0,0.5,1",
                        "--trials", "5", "--sender", "A2"]) == 0
    state = qr.build_state(qr.parse_state_spec(spec.read_text()))
    want = qr.decoupling_curve(state, "A2", "R", 2, [0.0, 0.5, 1.0], 5, 4)
    assert out.read_text() == want.to_csv()


def test_simulate_takes_seventy_dimension_one_spectators(tmp_path):
    # 72 labels: one numpy axis per label would pass the 64-axis limit
    def curve(name, labels, dims):
        spec = tmp_path / f"{name}.spec"
        spec.write_text(json.dumps({
            "family": "product", "labels": labels, "dims": dims,
            "basis": [0] * len(labels), "reference": "R"}))
        out = tmp_path / f"{name}.csv"
        assert run_command(["simulate", "--state", str(spec), "--out",
                            str(out), "--seed", "3", "--copies", "2",
                            "--grid", "0,0.5,1", "--trials", "5",
                            "--sender", "A1"]) == 0
        return out.read_text()

    spectators = [f"S{i}" for i in range(1, 71)]
    assert curve("s70", spectators + ["A1", "R"], [1] * 70 + [2, 2]) \
        == curve("s2", ["A1", "R"], [2, 2])


@pytest.mark.parametrize("sender, message", [
    ("R", "sender and reference must differ"),
    ("Z", "unknown label 'Z'"),
], ids=["reference", "unknown"])
def test_simulate_sender_flag_refusals(tmp_path, capsys, sender, message):
    out = tmp_path / "curve.csv"
    assert run_command(["simulate", "--state", str(_three_label_spec(
        tmp_path)), "--out", str(out), "--copies", "1", "--grid", "0",
        "--trials", "2", "--sender", sender]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_nan_grid(tmp_path, capsys, ghz_spec_file):
    assert run_command(["simulate", "--state", str(ghz_spec_file),
                        "--out", str(tmp_path / "c.csv"), "--copies", "2",
                        "--grid", "0,nan", "--trials", "2"]) == 2
    assert "grid value nan outside" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--copies", "0"], "need n >= 1 copies"),
    (["--copies", "-1"], "need n >= 1 copies"),
    (["--copies", "2", "--delta", "nan"], "delta must be finite"),
    (["--copies", "2", "--trials", "0"], "need at least one trial"),
    (["--copies", "5"], "n-copy state exceeds the dimension cap"),
    (["--copies", "2", "--grid", "2"], "outside [0, 1]"),
], ids=["zero-copies", "negative-copies", "nan-delta", "zero-trials",
        "copies-past-cap", "rate-past-one-copy"])
def test_simulate_rejects_bad_copies_and_delta(tmp_path, capsys,
                                                ghz_spec_file, flags,
                                                message):
    out = tmp_path / "c.csv"
    assert run_command(["simulate", "--state", str(ghz_spec_file),
                        "--out", str(out), "--grid", "0",
                        "--trials", "2"] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_an_empty_typical_subspace(tmp_path, capsys):
    spec = tmp_path / "r2.spec"
    # a marginal with two unequal eigenvalues: no string is 0-typical
    spec.write_text("{family: random_pure, labels: [A, R], dims: [2, 2], "
                    "seed: 1, reference: R}\n")
    out = tmp_path / "c.csv"
    assert run_command(["simulate", "--state", str(spec), "--out", str(out),
                        "--grid", "0", "--copies", "1", "--delta", "0"]) == 2
    assert capsys.readouterr().err \
        == "error: typical subspace is empty; increase delta or n\n"
    assert not out.exists()


def test_region_report_bytes_independent_of_hash_seed(tmp_path):
    # string hashing, and with it frozenset iteration order, changes
    # with PYTHONHASHSEED; the constants must not
    spec = tmp_path / "bell4.spec"
    spec.write_text("{family: bell, labels: [A1, A2, A3, R], "
                    "dims: [2, 2, 2, 2], pair: [A1, R], reference: R}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    texts = []
    for hash_seed in ("0", "2"):
        out = tmp_path / f"region-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "qregion", "region",
                        "--state", str(spec), "--out", str(out)],
                       env=env, check=True, capture_output=True,
                       timeout=120)
        texts.append(_strip_timestamp(out.read_text()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command, flags, field", [
    ("esq", ["--restarts", "-1"], "restarts"),
    ("esq", ["--iterations", "-3"], "iterations"),
    ("classify", ["--point", "1,1", "--restarts", "-2"], "restarts"),
], ids=["esq-restarts", "esq-iterations", "classify-restarts"])
def test_esq_commands_reject_negative_budget(tmp_path, capsys, ghz_spec_file,
                                             command, flags, field):
    out = tmp_path / "r.json"
    assert run_command([command, "--state", str(ghz_spec_file),
                        "--out", str(out)] + flags) == 2
    assert f"budget {field} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_an_oversized_joint_operator(tmp_path, capsys):
    spec = tmp_path / "bell.spec"
    spec.write_text("{family: bell, labels: [A, R], dims: [2, 2], "
                    "pair: [A, R], reference: R}\n")
    out = tmp_path / "c.csv"
    assert run_command(["simulate", "--state", str(spec), "--out", str(out),
                        "--copies", "6", "--grid", "0", "--trials", "2"]) == 2
    assert "joint operator of dimension 4096" in capsys.readouterr().err
    assert not out.exists()


def test_esq_sweep_stops_at_the_dimension_cap(tmp_path, ghz_spec_file):
    def too_slow(signum, frame):
        pytest.fail("esq walked the --d-e-max range")

    out = tmp_path / "esq.json"
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(30)
    try:
        code = run_command(["esq", "--state", str(ghz_spec_file), "--out",
                            str(out), "--d-e-max", "1000000000000",
                            "--restarts", "1", "--iterations", "0"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    # the A1A2 marginal has dimension 4: 4 * 16**2 = ESQ_DIM_CAP
    est = json.loads(out.read_text())["esq_estimates"]["A1+A2"]
    assert est["d_e_values"] == list(range(1, 17))


def test_esq_cuts_its_sweep_as_the_library_does(tmp_path):
    # the A1A2 marginal has dimension 64: --d-e-max 9 cuts to 1..4 in the
    # CLI and in esq_upper_bound alike
    text = ("{family: random_pure, labels: [A1, A2, R], dims: [8, 8, 2], "
            "seed: 2, reference: R}\n")
    spec = tmp_path / "r882.spec"
    spec.write_text(text)
    out = tmp_path / "esq.json"
    assert run_command(["esq", "--state", str(spec), "--out", str(out),
                        "--d-e-max", "9", "--seed", "7"]) == 0
    est = json.loads(out.read_text())["esq_estimates"]["A1+A2"]
    assert est["d_e_values"] == [1, 2, 3, 4]
    state = qr.build_state(qr.parse_state_spec(text))
    lib = qr.esq_upper_bound(state, [{"A1"}, {"A2"}],
                             qr.EsqBudget(d_e_max=9, seed=7))
    assert json.loads(_emit(lib.value)) == est["value"]
    assert lib.value == 2.2213772992049794


def test_esq_squashes_near_separable_pairs_within_ten_seconds(tmp_path):
    # steepest descent stalled at 0.0048664 (A1+A2) and 0.0173816 (A1+A3)
    def too_slow(signum, frame):
        pytest.fail("esq took more than 10 s")

    spec = tmp_path / "r102.spec"
    spec.write_text("{family: random_pure, labels: [A1, A2, A3, R], "
                    "dims: [2, 2, 2, 4], seed: 102, reference: R}\n")
    out = tmp_path / "esq.json"
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        code = run_command(["esq", "--state", str(spec), "--out", str(out),
                            "--seed", "7"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    est = json.loads(out.read_text())["esq_estimates"]
    assert est["A1+A2"]["value"] <= 1e-4
    assert est["A1+A3"]["value"] <= 2e-3


@pytest.mark.parametrize("command, flags, message", [
    ("esq", ["--restarts", "1001", "--iterations", "0"],
     "budget restarts 1001 exceeds the cap 1000"),
    ("classify", ["--point", "1,1", "--restarts", "1001"],
     "budget restarts 1001 exceeds the cap 1000"),
    ("simulate", ["--copies", "1", "--grid", "0", "--trials", "10001"],
     "trials 10001 exceeds the cap 10000"),
], ids=["esq-restarts", "classify-restarts", "simulate-trials"])
def test_work_caps_reject_before_any_search(tmp_path, capsys, command, flags,
                                            message):
    spec = tmp_path / "bell.spec"
    spec.write_text("{family: bell, labels: [A1, A2, R], dims: [2, 2, 2], "
                    "pair: [A1, R], reference: R}\n")
    out = tmp_path / "r.out"
    assert run_command([command, "--state", str(spec), "--out", str(out)]
                       + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("esq", []), ("classify", ["--point", ",".join(["1"] * 8)]),
], ids=["esq", "classify"])
def test_esq_work_guard_refuses_eight_senders_before_any_search(
        tmp_path, capsys, monkeypatch, command, flags):
    def unreachable(*args):
        raise AssertionError("an E_sq search started")

    monkeypatch.setattr(qr.esq, "esq_upper_bound", unreachable)
    monkeypatch.setattr(qr.qstate, "reduced_state", unreachable)
    labels = [f"A{i + 1}" for i in range(8)] + ["R"]
    spec = tmp_path / "r8.spec"
    spec.write_text(json.dumps({"family": "random_pure", "labels": labels,
                                "dims": [2] * 9, "seed": 8,
                                "reference": "R"}))
    out = tmp_path / "r.json"
    # the default budget: 970 d_E values over 247 subsets, 8 restarts and
    # 4 iterations each
    assert run_command([command, "--state", str(spec), "--out", str(out)]
                       + flags) == 2
    err = capsys.readouterr().err
    assert "search work of 31040 descent passes" in err
    assert f"exceeds the cap {qr.esq.MAX_SEARCH_PASSES}" in err
    assert "--restarts" in err and "--iterations" in err
    assert not out.exists()


@pytest.mark.parametrize("dims", [[128, 64], [2 ** 32, 2 ** 32, 1]],
                         ids=["8192", "int64-overflow"])
def test_oversized_spec_is_refused_at_the_spec(tmp_path, capsys, dims):
    labels = ["A", "B", "R"][-len(dims):]
    spec = tmp_path / "big.spec"
    spec.write_text(json.dumps({"family": "random_pure", "labels": labels,
                                "dims": dims, "seed": 1, "reference": "R"}))
    out = tmp_path / "r.json"
    assert run_command(["region", "--state", str(spec),
                        "--out", str(out)]) == 2
    assert "error: dims: total dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("region", []), ("corners", []), ("greedy", ["--costs", "1,1"]),
    ("esq", []), ("classify", ["--point", "1,1"]),
    ("simulate", ["--copies", "1", "--grid", "0"]),
], ids=["region", "corners", "greedy", "esq", "classify", "simulate"])
def test_negative_seed_is_refused_by_the_parser(tmp_path, capsys,
                                                ghz_spec_file, command,
                                                flags):
    out = tmp_path / "r.out"
    assert run_command([command, "--state", str(ghz_spec_file), "--out",
                        str(out), "--seed", "-1"] + flags) == 2
    assert "argument --seed: must be a nonnegative integer" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("region", []), ("greedy", ["--costs", "1"]), ("esq", []),
    ("simulate", ["--copies", "1", "--grid", "0"]),
], ids=["region", "greedy", "esq", "simulate"])
def test_a_spec_with_no_sender_is_refused(tmp_path, capsys, command, flags):
    spec = tmp_path / "ref.spec"
    spec.write_text("{family: product, labels: [R], dims: [2], basis: '0', "
                    "reference: R}\n")
    out = tmp_path / "r.out"
    assert run_command([command, "--state", str(spec), "--out", str(out)]
                       + flags) == 2
    assert "need at least one sender besides the reference" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("esq", ["--d-e-max", "0"]),
    ("classify", ["--point", "1,1", "--d-e-max", "-3"]),
], ids=["esq-zero", "classify-negative"])
def test_d_e_max_below_one_is_refused(tmp_path, capsys, ghz_spec_file,
                                      command, flags):
    out = tmp_path / "r.json"
    assert run_command([command, "--state", str(ghz_spec_file),
                        "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert "--d-e-max must be >= 1" in err
    assert "leaves no room" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, text, flags", [
    ("greedy", "--costs", "1,abc", []),
    ("greedy", "--costs", "1,,2", []),
    ("classify", "--point", "a,b", []),
    ("simulate", "--grid", "x", ["--copies", "1"]),
    ("simulate", "--grid", "", ["--copies", "1"]),
], ids=["costs-word", "costs-empty-entry", "point", "grid-word",
        "grid-empty"])
def test_number_lists_name_their_flag(tmp_path, capsys, ghz_spec_file,
                                      command, flag, text, flags):
    out = tmp_path / "r.out"
    assert run_command([command, "--state", str(ghz_spec_file), "--out",
                        str(out), flag, text] + flags) == 2
    assert f"argument {flag}: must be comma-separated numbers" \
        in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_first_grid_value_is_a_value_not_a_flag(tmp_path):
    spec = tmp_path / "bell.spec"
    spec.write_text("{family: bell, labels: [A, R], dims: [2, 2], "
                    "pair: [A, R], reference: R}\n")
    csv = {}
    for name, grid in (("spaced", ["--grid", "-5e-10,1"]),
                       ("joined", ["--grid=-5e-10,1"])):
        out = tmp_path / f"{name}.csv"
        assert run_command(["simulate", "--state", str(spec), "--out",
                            str(out), "--copies", "4", "--trials", "3"]
                           + grid) == 0
        csv[name] = out.read_text()
    assert csv["spaced"] == csv["joined"]
    assert csv["spaced"].splitlines()[1].startswith("-5e-10,")


GHZ3_TEXT = ("{family: ghz, labels: [A1, A2, A3, R], dims: [2, 2, 2, 2], "
             "reference: R}\n")


@pytest.mark.parametrize("command, text, flags, message", [
    ("greedy", GHZ_TEXT, ["--costs", "-1,2"],
     "costs must be positive and finite"),
    ("classify", GHZ3_TEXT, ["--point", "-0.5,1"],
     "--point needs 3 comma-separated rates"),
    ("simulate", GHZ_TEXT, ["--copies", "1", "--grid", "--trials", "3"],
     "argument --grid: expected one argument"),
], ids=["costs", "point", "grid-before-a-flag"])
def test_negative_first_list_values_reach_their_checks(tmp_path, capsys,
                                                        command, text, flags,
                                                        message):
    spec, out = tmp_path / "s.spec", tmp_path / "r.out"
    spec.write_text(text)
    assert run_command([command, "--state", str(spec), "--out", str(out)]
                       + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


EIGHT_SENDERS = json.dumps({"family": "bell",
                            "labels": [f"A{i + 1}" for i in range(8)] + ["R"],
                            "dims": [2, 2] + [1] * 7, "pair": ["A1", "A2"],
                            "reference": "R"})


@pytest.mark.parametrize("command, flags, bad_text, bad_flags", [
    ("region", [], EIGHT_SENDERS, []),
    ("corners", [], EIGHT_SENDERS, []),
    ("greedy", ["--costs", "1,2"], GHZ_TEXT, ["--costs", "1,-1"]),
    ("esq", ["--restarts", "1", "--iterations", "0"], GHZ_TEXT,
     ["--iterations", "-1"]),
    ("classify", ["--point", "1,1", "--restarts", "1", "--iterations", "0"],
     GHZ_TEXT, ["--point", "0.1"]),
], ids=["region", "corners", "greedy", "esq", "classify"])
def test_reports_share_one_header_and_write_only_on_success(
        tmp_path, ghz_spec_file, command, flags, bad_text, bad_flags):
    out = tmp_path / "r.json"
    assert run_command([command, "--state", str(ghz_spec_file),
                        "--out", str(out)] + flags) == 0
    report = json.loads(out.read_text())
    assert list(report)[:8] == ["tool", "version", "command", "generated_at",
                                "spec_sha256", "seed", "state", "senders"]
    assert report["command"] == command
    assert report["senders"] == ["A1", "A2"]

    bad = tmp_path / "bad.spec"
    bad.write_text(bad_text)
    bad_out = tmp_path / "bad.json"
    assert run_command([command, "--state", str(bad), "--out",
                        str(bad_out)] + bad_flags) == 2
    assert not bad_out.exists()


# The report emitter against the recursive isinstance-chain reference.

_KEYS = st.text(max_size=6) | st.sampled_from(
    ["naïve", "Ψ", "😀", 'say "hi"', "back\\slash", "tab\t", ""])
_LEAF_VALUES = (
    st.text(max_size=8) | st.sampled_from(['"quoted"', "ünïcode", "\x00"])
    | st.floats() | st.sampled_from([3.0, -0.0, 1e-300, 1e16, 2.5e-7])
    | st.booleans() | st.integers() | st.none()
    | st.floats().map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(
        np.int64) | st.booleans().map(np.bool_))
_REPORT_VALUES = st.recursive(
    _LEAF_VALUES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_REPORT_VALUES)
def test_emit_matches_the_reference_emitter(value):
    assert _emit(value) == emit_reference(value)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(["region", "corners", "greedy"]), st.integers(2, 5),
       st.integers(0, 2 ** 32 - 1), st.sampled_from((2, 4)))
def test_inner_reports_are_byte_identical_across_runs(command, m, seed,
                                                      d_ref):
    labels = [f"A{i + 1}" for i in range(m)] + ["R"]
    spec = json.dumps({"family": "random_pure", "labels": labels,
                       "dims": [2] * m + [d_ref], "seed": seed,
                       "reference": "R"})
    flags = ["--costs", ",".join(str(1 + i) for i in range(m))] \
        if command == "greedy" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.spec"
        path.write_text(spec + "\n")
        texts = []
        for run in ("a", "b"):
            out = Path(tmp) / f"{run}.json"
            assert run_command([command, "--state", str(path), "--out",
                                str(out), "--seed", "3"] + flags) == 0
            texts.append(_strip_timestamp(out.read_text()))
    assert texts[0] == texts[1]
