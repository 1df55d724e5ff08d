"""Text specification of multiparty states.

A state spec names a construction family (product, ghz, w, bell,
random_pure, mixture), the subsystem labels and dimensions, and which
label plays the reference role.  Specs are written as YAML/JSON-style
mappings, e.g.::

    {family: ghz, labels: [A1, A2, R], dims: [2, 2, 2], reference: R}
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import yaml

#: each family and the one optional field it reads (ghz and w read none)
FAMILIES = {"product": "basis", "ghz": None, "w": None, "bell": "pair",
            "random_pure": "seed", "mixture": "branches"}

#: input entries within this of an exact value are taken as exact
INPUT_TOL = 1e-9


class SpecError(ValueError):
    """Raised for malformed state specs; message names the offending field."""

    def __init__(self, field: str, message: str, line: int | None = None):
        self.field = field
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{field}{where}: {message}")


@dataclass(frozen=True)
class MixtureBranch:
    """One branch of an explicit separable decomposition: a weight and
    one local pure ket (a sequence of amplitudes) per label."""

    weight: float
    kets: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class StateSpec:
    family: str
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    reference: str
    basis: tuple[int, ...] | None = None
    pair: tuple[str, str] | None = None
    seed: int | None = None
    branches: tuple[MixtureBranch, ...] | None = None

    def __post_init__(self):
        # the entries' types first, whichever family reads them
        for b in self.basis or ():
            if not _is_int(b):
                raise SpecError("basis", f"entries must be integers, "
                                f"got {b!r}")
        if not (self.seed is None or _is_int(self.seed) and self.seed >= 0):
            raise SpecError("seed", "must be a nonnegative integer")
        if self.family not in FAMILIES:
            raise SpecError("family", f"unknown family {self.family!r}; "
                            f"expected one of {', '.join(FAMILIES)}")
        if len(self.labels) == 0:
            raise SpecError("labels", "at least one label required")
        for lab in self.labels:
            # reports name a subset by joining its labels with "+", and
            # the H-representation splits its senders line on whitespace
            if not lab or "+" in lab or any(map(str.isspace, lab)):
                raise SpecError("labels", f"label {lab!r} must be nonempty "
                                "with no whitespace and no '+'")
        if len(set(self.labels)) != len(self.labels):
            raise SpecError("labels", "labels must be distinct")
        if len(self.dims) != len(self.labels):
            raise SpecError("dims", f"{len(self.dims)} dims for "
                            f"{len(self.labels)} labels")
        for d in self.dims:
            if not _is_int(d) or d < 1:
                raise SpecError("dims", f"dimension must be an integer "
                                f"≥ 1, got {d!r}")
        if self.reference not in self.labels:
            raise SpecError("reference", f"{self.reference!r} is not a label")
        for name in ("basis", "pair", "seed", "branches"):
            if getattr(self, name) is not None \
                    and name != FAMILIES[self.family]:
                raise SpecError(name, f"not read by the {self.family} family")
        getattr(self, f"_check_{self.family}")()

    def dim(self, label: str) -> int:
        return self.dims[self.labels.index(label)]

    # per-family validation

    def _check_product(self):
        if self.basis is None:
            raise SpecError("basis", "product family requires a basis string")
        if len(self.basis) != len(self.labels):
            raise SpecError("basis", "one basis index per label required")
        for b, d, lab in zip(self.basis, self.dims, self.labels):
            if not 0 <= b < d:
                raise SpecError("basis", f"index {b} out of range for "
                                f"{lab} (dim {d})")

    def _check_ghz(self):
        live = [d for d in self.dims if d > 1]
        if len(live) < 2 or len(set(live)) != 1:
            raise SpecError("dims", "ghz requires ≥ 2 labels of one "
                            "common dimension ≥ 2")

    def _check_w(self):
        if any(d != 2 for d in self.dims):
            raise SpecError("dims", "w family requires qubit labels")

    def _check_bell(self):
        if self.pair is None or len(self.pair) != 2:
            raise SpecError("pair", "bell family requires a pair of labels")
        a, b = self.pair
        if a == b or a not in self.labels or b not in self.labels:
            raise SpecError("pair", "pair must name two distinct labels")
        if self.dim(a) != self.dim(b) or self.dim(a) < 2:
            raise SpecError("pair", "pair labels need equal dimension ≥ 2")

    def _check_random_pure(self):
        if self.seed is None:
            raise SpecError("seed", "random_pure requires a seed")

    def _check_mixture(self):
        if not self.branches:
            raise SpecError("branches", "mixture requires branches")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > INPUT_TOL:
            raise SpecError("weights", f"weights sum {total:g} ≠ 1")
        for i, br in enumerate(self.branches):
            if br.weight < 0:
                raise SpecError("weights", f"branch {i} weight negative")
            if len(br.kets) != len(self.labels):
                raise SpecError("branches", f"branch {i}: one ket per label")
            for ket, d, lab in zip(br.kets, self.dims, self.labels):
                if len(ket) != d:
                    raise SpecError("branches", f"branch {i}: ket length "
                                    f"{len(ket)} ≠ dim {d} of {lab}")
                norm = sum(abs(a) ** 2 for a in ket)
                if abs(norm - 1.0) > INPUT_TOL:
                    raise SpecError("branches", f"branch {i}: ket for {lab} "
                                    f"not normalized (|ket|² = {norm:g})")


def _is_int(x) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_amplitude(entry, field: str) -> complex:
    if _is_real(entry):
        re, im = entry, 0
    elif isinstance(entry, (list, tuple)) and len(entry) == 2 and \
            all(_is_real(x) for x in entry):
        re, im = entry
    else:
        raise SpecError(field, f"amplitude must be a number or [re, im] "
                        f"pair, got {entry!r}")
    try:
        amp = complex(re, im)
    except OverflowError:  # an integer beyond the float range
        amp = complex(math.inf)
    if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
        raise SpecError(field, f"amplitude must be finite, got {entry!r}")
    return amp


def _as_weight(entry, field: str) -> float:
    if isinstance(entry, bool):
        raise SpecError(field, f"weight must be a number, got {entry!r}")
    try:
        weight = float(entry)
    except OverflowError:  # an integer beyond the float range
        weight = math.inf
    except (TypeError, ValueError):
        raise SpecError(field, f"weight must be a number, got {entry!r}") \
            from None
    if not math.isfinite(weight):
        raise SpecError(field, f"weight must be finite, got {entry!r}")
    return weight


def _as_ket(entry, field: str) -> tuple[complex, ...]:
    if not isinstance(entry, (list, tuple)):
        raise SpecError(field, "ket must be a list of amplitudes")
    return tuple(_as_amplitude(a, field) for a in entry)


#: libyaml's loader where PyYAML was built with it, with the resolver and
#: constructor of ``yaml.SafeLoader``
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: documents ``_LOADER`` may parse: ASCII without tab, CR, tag (``!``),
#: anchor or alias (``&``, ``*``), explicit key (``?``), block scalar
#: (``|``, ``>``), directive (``%``) or escape (``\``).  libyaml accepts
#: some tabs, ``?`` and ``!`` that the pure-Python scanner rejects or
#: reads otherwise; on this alphabet the two agree or libyaml rejects.
_LIBYAML_SAFE = re.compile(r"[A-Za-z0-9 \n,:\[\]{}\"'._+#-]*")


def _load(text: str):
    """The document's value as ``yaml.SafeLoader`` reads it.  A document
    that fails to parse is diagnosed by that loader, whose messages
    (unlike libyaml's) the exit-2 errors quote."""
    if _LIBYAML_SAFE.fullmatch(text):
        try:
            return yaml.load(text, Loader=_LOADER)
        except yaml.YAMLError:
            pass
    try:
        return yaml.load(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as err:
        line = None
        mark = getattr(err, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise SpecError("document", f"not parseable: {err}", line=line)


def _as_label(entry, field: str) -> str:
    """A label as written: YAML reads an unquoted 010, 0x1F, 1.50 or yes
    as a number or bool, whose ``str`` would rename the sender."""
    if not isinstance(entry, str):
        raise SpecError(field, f"read as the {type(entry).__name__} "
                        f"{entry!r}; quote each label as written, e.g. "
                        f"'010' not 010")
    return entry


def parse_state_spec(text: str) -> StateSpec:
    """Parse a UTF-8 state-spec document into a validated StateSpec."""
    raw = _load(text)
    if not isinstance(raw, dict):
        raise SpecError("document", "top level must be a mapping")

    known = {"family", "labels", "dims", "reference", "basis", "pair",
             "seed", "branches"}
    for key in raw:
        if key not in known:
            raise SpecError(str(key), "unknown field")

    def need(key):
        if key not in raw:
            raise SpecError(key, "required field missing")
        return raw[key]

    labels = need("labels")
    if not isinstance(labels, list):
        raise SpecError("labels", "must be a list")
    labels = tuple(_as_label(x, "labels") for x in labels)

    dims = need("dims")
    if not isinstance(dims, list):
        raise SpecError("dims", "must be a list")

    basis = raw.get("basis")
    if basis is not None:
        if isinstance(basis, bool):
            raise SpecError("basis", "must be a digit string or int list")
        if isinstance(basis, str):
            if not basis.isdigit():
                raise SpecError("basis", "basis string must be digits")
            basis = tuple(int(ch) for ch in basis)
        elif isinstance(basis, int):
            # YAML reads unquoted digits as a number (010 is octal 8)
            if basis < 0 or len(str(basis)) != len(labels):
                raise SpecError("basis", f"read as the integer {basis}; "
                                "quote the digits, e.g. basis: '010'")
            basis = tuple(int(ch) for ch in str(basis))
        elif isinstance(basis, list):
            basis = tuple(basis)
        else:
            raise SpecError("basis", "must be a digit string or int list")

    pair = raw.get("pair")
    if pair is not None:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError("pair", "must be a list of two labels")
        pair = (_as_label(pair[0], "pair"), _as_label(pair[1], "pair"))

    branches = raw.get("branches")
    if branches is not None:
        if not isinstance(branches, list):
            raise SpecError("branches", "must be a list")
        parsed = []
        for i, br in enumerate(branches):
            if not isinstance(br, dict) or "weight" not in br \
                    or "kets" not in br:
                raise SpecError("branches", f"branch {i} needs weight and kets")
            kets = br["kets"]
            if not isinstance(kets, list):
                raise SpecError("branches", f"branch {i}: kets must be a list")
            parsed.append(MixtureBranch(
                weight=_as_weight(br["weight"], f"branches[{i}].weight"),
                kets=tuple(_as_ket(k, f"branches[{i}].kets") for k in kets),
            ))
        branches = tuple(parsed)

    return StateSpec(
        family=str(need("family")),
        labels=labels,
        dims=tuple(dims),
        reference=_as_label(need("reference"), "reference"),
        basis=basis,
        pair=pair,
        seed=raw.get("seed"),
        branches=branches,
    )
