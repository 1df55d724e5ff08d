import pytest

import qregion as qr
from qregion.cli import run_command
from qregion.statespec import SpecError, parse_state_spec


def test_parse_ghz_example():
    spec = parse_state_spec(
        "{family: ghz, labels: [A1, A2, R], dims: [2, 2, 2], reference: R}")
    assert spec.family == "ghz"
    assert spec.labels == ("A1", "A2", "R")
    assert spec.dims == (2, 2, 2)
    assert spec.reference == "R"
    state = qr.build_state(spec)
    assert state.dim == 8


def test_parse_rejects_zero_dimension():
    with pytest.raises(SpecError, match="dimension must be"):
        parse_state_spec("{family: ghz, labels: [A1, A2, R], "
                         "dims: [2, 0, 2], reference: R}")


def test_parse_rejects_bad_weights():
    text = """
family: mixture
labels: [X1, X2]
dims: [2, 2]
reference: X2
branches:
  - {weight: 0.5, kets: [[1, 0], [1, 0]]}
  - {weight: 0.4, kets: [[0, 1], [0, 1]]}
"""
    with pytest.raises(SpecError, match="sum 0.9"):
        parse_state_spec(text)


def test_parse_rejects_unknown_family():
    with pytest.raises(SpecError, match="unknown family"):
        parse_state_spec("{family: ghx, labels: [A, R], dims: [2, 2], "
                         "reference: R}")


def test_parse_rejects_duplicate_labels():
    with pytest.raises(SpecError, match="distinct"):
        parse_state_spec("{family: ghz, labels: [A, A, R], dims: [2, 2, 2], "
                         "reference: R}")


def test_parse_rejects_missing_reference():
    with pytest.raises(SpecError, match="reference"):
        parse_state_spec("{family: ghz, labels: [A, B], dims: [2, 2]}")
    with pytest.raises(SpecError, match="not a label"):
        parse_state_spec("{family: ghz, labels: [A, B], dims: [2, 2], "
                         "reference: C}")


def test_parse_rejects_unknown_field():
    with pytest.raises(SpecError, match="unknown field"):
        parse_state_spec("{family: ghz, labels: [A, B], dims: [2, 2], "
                         "reference: B, extra: 1}")


def test_parse_reports_line_on_yaml_error():
    err = None
    try:
        parse_state_spec("family: [unclosed\nlabels: [A]")
    except SpecError as exc:
        err = exc
    assert err is not None and "line" in str(err)


def test_parse_complex_amplitudes():
    text = """
family: mixture
labels: [X1, X2]
dims: [2, 2]
reference: X2
branches:
  - weight: 1.0
    kets:
      - [[0.7071067811865476, 0], [0, 0.7071067811865476]]
      - [1, 0]
"""
    spec = parse_state_spec(text)
    ket = spec.branches[0].kets[0]
    assert ket[1] == complex(0, 0.7071067811865476)
    qr.build_state(spec)


def test_parse_basis_string_and_bell_pair():
    spec = parse_state_spec("{family: product, labels: [A, B, R], "
                            "dims: [2, 2, 2], basis: '010', reference: R}")
    assert spec.basis == (0, 1, 0)
    bell = parse_state_spec("{family: bell, labels: [A1, A2, R], "
                            "dims: [2, 2, 1], pair: [A1, A2], reference: R}")
    st = qr.build_state(bell)
    assert qr.entropy(st, {"A1"}) == pytest.approx(1.0, abs=1e-9)


def test_parse_unquoted_basis_digits():
    text = ("{family: product, labels: [A, B, R], dims: [2, 2, 2], "
            "basis: 010, reference: R}")
    with pytest.raises(SpecError, match="quote the digits") as err:
        parse_state_spec(text)  # YAML reads 010 as octal 8
    assert err.value.field == "basis"
    assert parse_state_spec(text.replace("010", "101")).basis == (1, 0, 1)


def test_parse_random_pure_needs_seed():
    with pytest.raises(SpecError, match="seed"):
        parse_state_spec("{family: random_pure, labels: [A, R], "
                         "dims: [2, 2], reference: R}")


def test_parse_rejects_unnormalized_ket():
    text = ("{family: mixture, labels: [X1, X2], dims: [2, 2], "
            "reference: X2, branches: [{weight: 1.0, "
            "kets: [[1, 1], [1, 0]]}]}")
    with pytest.raises(SpecError, match="not normalized"):
        parse_state_spec(text)


@pytest.mark.parametrize("field, text", [
    ("dims", "{family: ghz, labels: [A1, A2, R], dims: [true, 2, 2], "
             "reference: R}"),
    ("seed", "{family: random_pure, labels: [A, R], dims: [2, 2], "
             "reference: R, seed: true}"),
    ("basis", "{family: product, labels: [A, R], dims: [2, 2], "
              "basis: [true, 0], reference: R}"),
    ("branches[0].weight", "{family: mixture, labels: [X1, X2], "
                           "dims: [2, 2], reference: X2, branches: "
                           "[{weight: NaN, kets: [[1, 0], [1, 0]]}]}"),
    ("branches[0].kets", "{family: mixture, labels: [X1, X2], "
                         "dims: [2, 2], reference: X2, branches: "
                         "[{weight: 1.0, kets: [[.inf, 0], [1, 0]]}]}"),
    ("branches[0].kets", "{family: mixture, labels: [X1, X2], "
                         "dims: [2, 2], reference: X2, branches: "
                         "[{weight: 1.0, kets: [[1" + "0" * 400
                         + ", 0], [1, 0]]}]}"),
])
def test_spec_rejects_bool_and_non_finite(tmp_path, capsys, field, text):
    with pytest.raises(SpecError) as err:
        parse_state_spec(text)
    assert err.value.field == field
    path = tmp_path / "bad.spec"
    path.write_text(text + "\n")
    assert run_command(["region", "--state", str(path),
                        "--out", str(tmp_path / "r.json")]) == 2
    assert f"error: {field}" in capsys.readouterr().err
