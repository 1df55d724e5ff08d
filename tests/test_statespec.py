import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import qregion as qr
from qregion import statespec
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


@pytest.mark.parametrize("family", [
    "random_pure, labels: [A, R], dims: [2, 2]",
    "ghz, labels: [A1, A2, R], dims: [2, 2, 2]",
], ids=["random_pure", "ghz"])
def test_parse_rejects_negative_seed(tmp_path, capsys, family):
    text = f"{{family: {family}, reference: R, seed: -3}}"
    with pytest.raises(SpecError, match="must be a nonnegative integer") \
            as err:
        parse_state_spec(text)
    assert err.value.field == "seed"
    path = tmp_path / "neg.spec"
    path.write_text(text + "\n")
    assert run_command(["region", "--state", str(path),
                        "--out", str(tmp_path / "r.json")]) == 2
    assert "error: seed: must be a nonnegative integer" \
        in capsys.readouterr().err


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


# libyaml loading: the same specs as the pure-Python loader, and that
# loader's diagnostics for a document neither can parse.

FAMILY_SPECS = {
    "product": {"family": "product", "labels": ["A", "B", "R"],
                "dims": [2, 3, 2], "basis": "010", "reference": "R"},
    "product-list": {"family": "product", "labels": ["A", "B", "R"],
                     "dims": [2, 3, 2], "basis": [1, 2, 0],
                     "reference": "R"},
    "ghz": {"family": "ghz", "labels": ["A1", "A2", "A3", "R"],
            "dims": [3, 3, 1, 3], "reference": "R"},
    "w": {"family": "w", "labels": ["A1", "A2", "R"], "dims": [2, 2, 2],
          "reference": "R"},
    "bell": {"family": "bell", "labels": ["A1", "A2", "R"],
             "dims": [4, 2, 4], "pair": ["A1", "R"], "reference": "R"},
    "random_pure": {"family": "random_pure", "labels": ["Alice", "Bob", "R"],
                    "dims": [2, 2, 8], "seed": 4294967296,
                    "reference": "R"},
    "mixture": {"family": "mixture", "labels": ["X1", "X2"], "dims": [2, 2],
                "reference": "X2", "branches": [
                    {"weight": 0.25, "kets": [
                        [[0.6, 0.0], [0.0, -0.8]], [1, 0]]},
                    {"weight": 0.75, "kets": [
                        [0.7071067811865476, 0.7071067811865476],
                        [[0, 1], 0]]}]},
}


def test_specs_load_through_libyaml_when_pyyaml_has_it():
    if yaml.__with_libyaml__:
        assert statespec._LOADER is yaml.CSafeLoader
    else:
        assert statespec._LOADER is yaml.SafeLoader


@pytest.mark.parametrize("style", ["json-flow", "block"])
@pytest.mark.parametrize("name", list(FAMILY_SPECS))
def test_every_family_parses_alike_under_both_loaders(monkeypatch, name,
                                                      style):
    raw = FAMILY_SPECS[name]
    text = (json.dumps(raw) if style == "json-flow"
            else yaml.safe_dump(raw, default_flow_style=False,
                                sort_keys=False))
    got = parse_state_spec(text)
    monkeypatch.setattr(statespec, "_LOADER", yaml.SafeLoader)
    assert parse_state_spec(text) == got
    qr.build_state(got)


@pytest.mark.parametrize("text, diagnostic", [
    ("family: ghz\nlabels: [A1, A2, R\ndims: [2, 2, 2]\nreference: R\n",
     "error: document (line 3): not parseable: while parsing a flow "
     "sequence\n"
     '  in "<unicode string>", line 2, column 9:\n'
     "    labels: [A1, A2, R\n"
     "            ^\n"
     "expected ',' or ']', but got ':'\n"
     '  in "<unicode string>", line 3, column 5:\n'
     "    dims: [2, 2, 2]\n"
     "        ^\n"),
    ("family: ghz\nlabels: [A1, A2, R]\n  dims: [2, 2, 2]\nreference: R\n",
     "error: document (line 3): not parseable: while parsing a block "
     "mapping\n"
     '  in "<unicode string>", line 1, column 1:\n'
     "    family: ghz\n"
     "    ^\n"
     "expected <block end>, but found '<block mapping start>'\n"
     '  in "<unicode string>", line 3, column 3:\n'
     "      dims: [2, 2, 2]\n"
     "      ^\n"),
], ids=["unclosed-flow-sequence", "bad-indent"])
def test_malformed_spec_diagnostic_names_its_line(tmp_path, capsys, text,
                                                  diagnostic):
    path = tmp_path / "bad.spec"
    path.write_text(text)
    assert run_command(["region", "--state", str(path),
                        "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == diagnostic
    assert not (tmp_path / "r.json").exists()


# Documents on which libyaml is more lenient than the pure-Python loader
# (a tab as a flow separator, `?` inside a flow scalar) or reads another
# value (an empty `!` tag) take that loader, as do non-ASCII documents.

TAB_IN_FLOW_MAPPING = ("{family: ghz,\tlabels: [A1, A2, R], dims: [2, 2, 2], "
                       "reference: R}\n")
QUERY_IN_FLOW_SEQUENCE = ("family: ghz\nlabels: [A1, A2? A3, R]\n"
                          "dims: [2, 2, 2, 2]\nreference: R\n")


@pytest.mark.parametrize("text, diagnostic", [
    (TAB_IN_FLOW_MAPPING,
     "error: document (line 1): not parseable: while scanning for the next "
     "token\n"
     "found character '\\t' that cannot start any token\n"
     '  in "<unicode string>", line 1, column 14:\n'
     "    {family: ghz,\tlabels: [A1, A2, R], dims: [2,  ... \n"
     "                 ^\n"),
    (QUERY_IN_FLOW_SEQUENCE,
     "error: document (line 2): not parseable: while parsing a flow "
     "sequence\n"
     '  in "<unicode string>", line 2, column 9:\n'
     "    labels: [A1, A2? A3, R]\n"
     "            ^\n"
     "expected ',' or ']', but got '?'\n"
     '  in "<unicode string>", line 2, column 16:\n'
     "    labels: [A1, A2? A3, R]\n"
     "                   ^\n"),
], ids=["tab-in-flow-mapping", "query-in-flow-sequence"])
def test_spec_libyaml_would_accept_still_exits_2(tmp_path, capsys, text,
                                                 diagnostic):
    if yaml.__with_libyaml__:
        yaml.load(text, Loader=yaml.CSafeLoader)  # the leniency avoided
    path = tmp_path / "bad.spec"
    path.write_text(text)
    assert run_command(["region", "--state", str(path),
                        "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == diagnostic
    assert not (tmp_path / "r.json").exists()


def test_empty_tag_reads_as_null_like_the_pure_python_loader():
    text = "dims:\n- !\n- 2\n"
    assert statespec._load(text) == {"dims": [None, 2]}
    if yaml.__with_libyaml__:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == {"dims": ["", 2]}


def test_lone_surrogate_is_a_spec_error():
    with pytest.raises(SpecError, match="document: not parseable"):
        parse_state_spec("family: ghz\nlabels: [A1, \ud800]\n")


_SPEC_TEXTS = [text for raw in FAMILY_SPECS.values() for text in (
    json.dumps(raw),
    yaml.safe_dump(raw, default_flow_style=False, sort_keys=False),
    yaml.safe_dump(raw, default_flow_style=None, sort_keys=False))]
_EDIT_TEXT = st.sampled_from(
    list(" \t\n\r:,[]{}#-?&*!|>'\"%@`\\.0aeZ+_\x85\xa0\ufeff\x0b\x00Ψ")
    + ["---", "...", "- ", ": ", "\n  ", "\n- ", "\r\n"])


def _pure_python_outcome(text):
    try:
        return "value", yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as err:
        return "error", str(err)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(_SPEC_TEXTS),
       st.lists(st.tuples(st.floats(0, 1), st.sampled_from("ids"),
                          _EDIT_TEXT), min_size=1, max_size=6))
def test_load_agrees_with_the_pure_python_loader(text, edits):
    for where, op, piece in edits:
        k = int(where * len(text))
        text = {"i": text[:k] + piece + text[k:],
                "d": text[:k] + text[k + 1:],
                "s": text[:k] + piece + text[k + 1:]}[op]
    kind, value = _pure_python_outcome(text)
    if kind == "value":  # repr, so that a NaN equals itself
        assert repr(statespec._load(text)) == repr(value)
    else:
        with pytest.raises(SpecError) as err:
            statespec._load(text)
        assert str(err.value).endswith(f"not parseable: {value}")
