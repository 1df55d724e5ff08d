import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qregion as qr
from qregion.cli import run_command
from qregion.hrep import export_h_representation, parse_h_representation
from qregion.region import RegionConstants, nonempty_subsets

from helpers import ghz_state, random_mixture_spec

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


def test_simulate_rejects_nan_grid(tmp_path, capsys, ghz_spec_file):
    assert run_command(["simulate", "--state", str(ghz_spec_file),
                        "--out", str(tmp_path / "c.csv"), "--copies", "2",
                        "--grid", "0,nan", "--trials", "2"]) == 2
    assert "grid value nan outside" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--copies", "0"], "need n >= 1 copies"),
    (["--copies", "-1"], "need n >= 1 copies"),
    (["--copies", "2", "--delta", "nan"], "delta must be finite"),
], ids=["zero-copies", "negative-copies", "nan-delta"])
def test_simulate_rejects_bad_copies_and_delta(tmp_path, capsys,
                                                ghz_spec_file, flags,
                                                message):
    out = tmp_path / "c.csv"
    assert run_command(["simulate", "--state", str(ghz_spec_file),
                        "--out", str(out), "--grid", "0",
                        "--trials", "2"] + flags) == 2
    assert message in capsys.readouterr().err
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
