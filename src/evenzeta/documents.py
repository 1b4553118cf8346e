"""Loss-free JSON documents and text/LaTeX rendering for generated identities,
and the table of identity kinds (``_KINDS``) with its one weight check and
its one checker: ``verify_identity``, the grid core ``_sides`` at one k.

The JSON layout (schema 1) is flat and fully exact: every polynomial
coefficient is a "numerator/denominator" string, terms are listed by the
index l of the basis element zeta(2l)*zeta(2k-2l) (or B_{2k-2l}/(2k-2l)! for
the Bernoulli kind), and the weight is either an exponent list ``mvec`` or
parseable polynomial text ``poly``.  Every kind is one record, a
``WeightedSumIdentity``: the renderers take it, ``from_json`` returns it, and
``from_json(to_json(identity)) == identity``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import __version__
from ._records import Record
from .bernoulli_sums import WeightedSumIdentity, _bernoulli_lhs_grid, _validated_mvec, bernoulli_identity
from .checks import CheckResult
from .mzv_identities import _mzv_lhs_grid, mzsv_identity, mzv_identity
from .polynomials import MultiPoly, ParseError, UniPoly, parse_poly
from .zeta_identities import _zeta_lhs_grid, zeta_identity_monomial, zeta_identity_poly

__all__ = [
    "SCHEMA_VERSION",
    "from_json",
    "poly_latex",
    "poly_text",
    "to_json",
    "to_latex",
    "to_text",
    "verify_bernoulli",
    "verify_identity",
    "verify_mzv",
    "verify_zeta",
]

SCHEMA_VERSION = 1

#: Admission limits of every weight check, so of ``identity`` and
#: ``from_json`` alike.  The derivative tables behind every kind reach depth
#: deg(F) + n - 1 (sum(m) + n - 1 for a monomial weight); the assembly of a
#: kind with a symmetric weight (mzv, mzsv) walks every block shape of n.
#: Larger inputs are refused before any table is built or any polynomial is
#: expanded, and ``parse_poly`` caps the degree of ``poly`` itself (see
#: ``max_parse_degree``).
MAX_TABLE_DEPTH = 48
MAX_MZV_DEPTH = 10

_Weight = tuple[int, ...] | MultiPoly

_TOOL = f"evenzeta {__version__}"


class _Kind(Record):
    """One identity kind.  A builder is None when the kind does not take
    that weight form; ``lhs``, the left sides of a weight at n and each k of
    a sequence from code no builder uses, takes the poly form if the kind
    has one.  Each basis pair is (l = 0, l > 0), the second a template
    formatted with j = 2l."""

    __slots__ = ("section", "lhs_text", "lhs", "monomial", "poly", "symmetric", "basis_text", "basis_latex")

    def __init__(
        self,
        section: int,
        lhs_text: str,
        lhs: Callable[[_Weight, int, Sequence[int]], list[Fraction]],
        monomial: Callable[[tuple[int, ...]], WeightedSumIdentity] | None = None,
        poly: Callable[[MultiPoly, int], WeightedSumIdentity] | None = None,
        symmetric: bool = False,
        basis_text: tuple[str, str] = ("zeta(2k)", "zeta({j})*zeta(2k-{j})"),
        basis_latex: tuple[str, str] = (r"\zeta(2k)", r"\zeta({j})\zeta(2k-{j})"),
    ) -> None:
        self._assign(section, lhs_text, lhs, monomial, poly, symmetric, basis_text, basis_latex)

    def build(self, weight: _Weight, n: int) -> WeightedSumIdentity:
        """The identity of a weight returned by ``_check_weight``."""
        return self.poly(weight, n) if isinstance(weight, MultiPoly) else self.monomial(weight)


# The columns look their function up when called, so a rebound module
# global (a tracer's wrapper, a test's stub) is the one that runs.
_KINDS: dict[str, _Kind] = {
    "bernoulli": _Kind(
        section=2,
        lhs_text="k1^m1*...*kn^mn * B(2k1)/(2k1)! * ... * B(2kn)/(2kn)!",
        lhs=lambda mvec, n, ks: _bernoulli_lhs_grid(mvec, ks),
        monomial=lambda mvec: bernoulli_identity(mvec),
        basis_text=("B(2k)/(2k)!", "B(2k-{j})/(2k-{j})!"),
        basis_latex=(r"\frac{B_{2k}}{(2k)!}", r"\frac{{B_{{2k-{j}}}}}{{(2k-{j})!}}"),
    ),
    "zeta": _Kind(
        section=3,
        lhs_text="F(k1,...,kn) * zeta(2k1)*...*zeta(2kn)",
        lhs=lambda F, n, ks: _zeta_lhs_grid(F, n, ks),
        monomial=lambda mvec: zeta_identity_monomial(mvec),
        poly=lambda weight, n: zeta_identity_poly(weight, n),
    ),
    "mzv": _Kind(
        section=4,
        lhs_text="F(k1,...,kn) * zeta(2k1, ..., 2kn)",
        lhs=lambda F, n, ks: _mzv_lhs_grid(F, n, ks),
        poly=lambda weight, n: mzv_identity(weight, n),
        symmetric=True,
    ),
    "mzsv": _Kind(
        section=4,
        lhs_text="F(k1,...,kn) * zetastar(2k1, ..., 2kn)",
        lhs=lambda F, n, ks: _mzv_lhs_grid(F, n, ks, star=True),
        poly=lambda weight, n: mzsv_identity(weight, n),
        symmetric=True,
    ),
}


def _admit_table_depth(degree: int | float, n: int) -> None:
    degree = max(degree, 0)  # the zero weight has degree -inf
    if degree + n - 1 > MAX_TABLE_DEPTH:
        raise ValueError(
            f"weight degree {degree} at --n {n} needs table depth {degree + n - 1}, "
            f"above the limit {MAX_TABLE_DEPTH}"
        )


def _check_weight(
    kind: str, n: int, mvec: Sequence[int] | None, poly: str | None
) -> tuple[int, ...] | MultiPoly:
    """The weight of a ``kind`` identity at an admitted depth n: exactly one
    of n exponents >= 0 and text that ``parse_poly`` accepts, in the form
    the kind takes, symmetric where it must be, and within the table depth.
    The limits on n alone come first, so they refuse before ``poly`` is
    parsed.  Raises ValueError."""
    record = _KINDS[kind]
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    if record.symmetric and n > MAX_MZV_DEPTH:
        raise ValueError(f"--n {n} exceeds the limit {MAX_MZV_DEPTH} for {kind}")
    _admit_table_depth(0, n)
    if (mvec is None) == (poly is None):
        raise ValueError("provide exactly one of mvec (--m) and poly (--poly)")
    if mvec is not None:
        if record.monomial is None:
            raise ValueError(f"kind {kind} takes poly (--poly), not mvec (--m)")
        # type() rather than isinstance(): JSON true/false must not pass as 1/0.
        if not isinstance(mvec, (list, tuple)) or any(type(m) is not int or m < 0 for m in mvec):
            raise ValueError(f"mvec (--m) must list integers >= 0, got {mvec!r}")
        if len(mvec) != n:
            raise ValueError(f"mvec (--m) lists {len(mvec)} exponents but --n is {n}")
        _admit_table_depth(sum(mvec), n)
        return tuple(mvec)
    if record.poly is None:
        raise ValueError(f"kind {kind} takes mvec (--m), not poly (--poly)")
    if not isinstance(poly, str):
        raise ValueError(f"poly must be polynomial text, got {poly!r}")
    try:
        weight = parse_poly(poly, n)
    except ParseError as exc:
        raise ValueError(f"poly {poly!r} does not parse in x1..x{n}: {exc}") from exc
    if record.symmetric and not weight.is_symmetric():
        raise ValueError(f"kind {kind} needs a symmetric poly, got {poly!r}")
    _admit_table_depth(weight.degree(), n)
    return weight


def _weight(identity: WeightedSumIdentity) -> _Weight:
    """The weight an identity was built for, in the form its kind's ``lhs``
    takes: ``poly``, ``mvec``, or the monomial of ``mvec`` when the kind
    has a poly builder (its exponents were checked at the build).  A record
    that carries neither raises ValueError."""
    if identity.poly is not None:
        return identity.poly
    if identity.mvec is None:
        raise ValueError(f"the {identity.kind} identity carries no weight: neither mvec nor poly is set")
    if _KINDS[identity.kind].poly is None:
        return identity.mvec
    return MultiPoly._normalised({identity.mvec: 1}, 1, identity.n)


def _weight_text(weight: _Weight, n: int) -> str:
    return f"m={weight}" if isinstance(weight, tuple) else f"F={weight.render()} n={n}"


def _sides(identity: WeightedSumIdentity, ks: Sequence[int]) -> list[tuple[int, Fraction, Fraction]]:
    """(k, left, right) at each k of ``ks``: the independent left side of the
    identity's own weight, all k in one pass, and its collapsed side."""
    lefts = _KINDS[identity.kind].lhs(_weight(identity), identity.n, ks)
    return [(k, left, identity.rhs_value(k)) for k, left in zip(ks, lefts)]


def verify_identity(identity: WeightedSumIdentity, k: int) -> CheckResult:
    """Compare the independent left side of the identity's own weight with
    its collapsed side at one k (``_sides`` at (k,)).  Both are exact:
    coefficients of pi^(2k), or for the Bernoulli kind the values themselves."""
    ((k, left, right),) = _sides(identity, (k,))
    label = f"{identity.kind} weighted sum {_weight_text(_weight(identity), identity.n)} k={k}"
    return CheckResult(ok=left == right, label=label, lhs=str(left), rhs=str(right))


def _given(identity: WeightedSumIdentity, kind: str, n: int, weight: _Weight) -> WeightedSumIdentity:
    """``identity``, if it is the ``kind`` identity of ``weight`` at depth n;
    otherwise ValueError, since a mismatch is the caller's error and not a
    failed check."""
    if identity.kind != kind or identity.n != n:
        raise ValueError(f"identity is for {identity.kind} n={identity.n}, not {kind} n={n}")
    if (own := _weight(identity)) != weight:
        mismatch = f"{_weight_text(own, n)}, not {_weight_text(weight, n)}"
        raise ValueError(f"identity is for {kind} {mismatch}")
    return identity


def verify_bernoulli(
    mvec: Sequence[int], k: int, identity: WeightedSumIdentity | None = None
) -> CheckResult:
    """``verify_identity`` at one k on the Bernoulli identity of ``mvec``.
    A given ``identity`` of another kind, depth or weight raises
    ``ValueError`` before anything is evaluated."""
    mvec = _validated_mvec(mvec)
    if identity is None:
        return verify_identity(bernoulli_identity(mvec), k)
    return verify_identity(_given(identity, "bernoulli", len(mvec), mvec), k)


def verify_zeta(
    F: MultiPoly, n: int, k: int, identity: WeightedSumIdentity | None = None
) -> CheckResult:
    """``verify_identity`` at one k on the zeta identity of F at depth n.
    A given ``identity`` of another kind, depth or weight raises
    ``ValueError`` before anything is evaluated."""
    if identity is None:
        return verify_identity(zeta_identity_poly(F, n), k)
    return verify_identity(_given(identity, "zeta", n, F), k)


def verify_mzv(
    F: MultiPoly, n: int, k: int, star: bool = False, identity: WeightedSumIdentity | None = None
) -> CheckResult:
    """``verify_identity`` at one k on the mzv identity of the symmetric F
    at depth n, or the mzsv one when ``star``.  A given ``identity`` of
    another kind, depth or weight raises ``ValueError`` before anything is
    evaluated."""
    if identity is None:
        return verify_identity((mzsv_identity if star else mzv_identity)(F, n), k)
    return verify_identity(_given(identity, "mzsv" if star else "mzv", n, F), k)


_COEFF_PATTERN = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _coeff_strings(poly: UniPoly) -> list[str]:
    """Each coefficient as "numerator/denominator" in lowest terms."""
    strings = []
    for x in poly.nums:
        common = math.gcd(x, poly.den)
        strings.append(f"{x // common}/{poly.den // common}")
    return strings


def _json_list(items: Sequence[str], indent: str) -> str:
    """A JSON list of already encoded ``items`` as ``json.dumps`` writes it
    with ``indent=2`` at nesting ``indent``."""
    if not items:
        return "[]"
    inner = ",\n".join(f"{indent}  {item}" for item in items)
    return f"[\n{inner}\n{indent}]"


def to_json(identity: WeightedSumIdentity) -> str:
    """The schema-1 document, byte for byte what ``json.dumps(payload,
    indent=2)`` writes for it, written directly: the layout is fixed, and
    every value but ``kind``, ``poly`` and ``tool`` is an integer or a "p/q"
    string, which needs no escaping."""
    poly = identity.poly
    mvec = "null" if identity.mvec is None else _json_list([str(m) for m in identity.mvec], "  ")
    terms = []
    for l, p in enumerate(identity.terms):
        coeffs = _json_list([f'"{c}"' for c in _coeff_strings(p)], "      ")
        terms.append(f'{{\n      "l": {l},\n      "coeffs": {coeffs}\n    }}')
    lines = [
        "{",
        f'  "schema": {SCHEMA_VERSION},',
        f'  "kind": {json.dumps(identity.kind)},',
        f'  "n": {identity.n},',
        f'  "T": {identity.T},',
        f'  "mvec": {mvec},',
        f'  "poly": {"null" if poly is None else json.dumps(poly.render())},',
        f'  "terms": {_json_list(terms, "  ")},',
        f'  "tool": {json.dumps(_TOOL)}',
        "}",
    ]
    return "\n".join(lines)


def from_json(text: str) -> WeightedSumIdentity:
    """The identity a schema-1 document holds, its weight checked as
    ``identity`` checks ``--m``/``--poly``.  Any ``tool`` value is accepted;
    the weight polynomial is parsed, so ``to_json`` writes it back in
    canonical form.  Raises ValueError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("document nests too deeply to read") from None
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    # type() rather than isinstance() or ==: JSON true and 1.0 are not 1.
    schema = payload.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {schema!r}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    raw_terms = payload.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("terms must be a non-empty list")
    for index, entry in enumerate(raw_terms):
        if not isinstance(entry, dict) or type(entry.get("l")) is not int or entry["l"] != index:
            raise ValueError(f"terms must be listed with l = 0..T in order, bad entry {index}")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError(f"coeffs of term {index} must be a list of strings")
        for c in coeffs:
            # Only integer or p/q forms cross the wire, never decimals.
            if not _COEFF_PATTERN.fullmatch(c):
                raise ValueError(f"coefficient {c!r} is not an integer or p/q string")
    n, T = payload.get("n"), payload.get("T")
    if type(n) is not int:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if type(T) is not int or T != len(raw_terms) - 1:
        raise ValueError(f"T must be one less than the {len(raw_terms)} terms, got {T!r}")
    weight = _check_weight(kind, n, payload.get("mvec"), payload.get("poly"))
    terms = tuple(UniPoly([Fraction(c) for c in entry["coeffs"]]) for entry in raw_terms)
    if isinstance(weight, MultiPoly):
        return WeightedSumIdentity(kind=kind, n=n, T=T, terms=terms, poly=weight)
    return WeightedSumIdentity(kind=kind, n=n, T=T, terms=terms, mvec=weight)


def _int_body(coeffs: tuple[int, ...], var: str, power_format: str) -> str:
    """Render integer coefficients, highest power first; '' when zero."""
    parts: list[str] = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        if power == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c))
            body = head + (var if power == 1 else power_format.format(var=var, power=power))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_text(poly: UniPoly, var: str = "k") -> str:
    """Plain-text polynomial with cleared denominators, e.g. '(2k + 1)/2'."""
    if not poly.nums:
        return "0"
    body = _int_body(poly.nums, var, "{var}^{power}")
    if sum(1 for c in poly.nums if c) > 1:
        body = f"({body})"
    return body if poly.den == 1 else f"{body}/{poly.den}"


def poly_latex(poly: UniPoly, var: str = "k") -> str:
    r"""LaTeX polynomial with cleared denominators, e.g. '\frac{2k + 1}{2}'."""
    if not poly.nums:
        return "0"
    body = _int_body(poly.nums, var, "{var}^{{{power}}}")
    if poly.den != 1:
        return rf"\frac{{{body}}}{{{poly.den}}}"
    if sum(1 for c in poly.nums if c) > 1:
        return rf"\left({body}\right)"
    return body


def _signed_terms(
    identity: WeightedSumIdentity, basis: tuple[str, str]
) -> Iterator[tuple[bool, UniPoly, str]]:
    """(negative, |p_l|, basis element l) of each nonzero term, by l."""
    for l, poly in enumerate(identity.terms):
        if poly.is_zero():
            continue
        element = basis[0] if l == 0 else basis[1].format(j=2 * l)
        negative = poly.leading() < 0
        yield negative, (-poly if negative else poly), element


def to_text(identity: WeightedSumIdentity) -> str:
    record = _KINDS[identity.kind]
    lines = [f"kind   : {identity.kind}", f"n      : {identity.n}", f"T      : {identity.T}"]
    if identity.mvec is not None:
        lines.append(f"weight : m = {tuple(identity.mvec)}")
    if identity.poly is not None:
        lines.append(f"weight : F = {identity.poly.render()}")
    lines.append(f"lhs    : sum over k1+...+k{identity.n} = k (kj >= 1) of {record.lhs_text}")
    terms = list(_signed_terms(identity, record.basis_text))
    if not terms:
        lines.append("rhs    : 0")
    for i, (negative, poly, basis) in enumerate(terms):
        body = f"{poly_text(poly)} * {basis}"
        if i == 0:
            lines.append(f"rhs    = {'-' if negative else ''}{body}")
        else:
            lines.append(f"       {'-' if negative else '+'} {body}")
    lines.append(f"tool   : {_TOOL}")
    return "\n".join(lines)


def to_latex(identity: WeightedSumIdentity) -> str:
    pieces: list[str] = []
    for negative, poly, basis in _signed_terms(identity, _KINDS[identity.kind].basis_latex):
        rendered = poly_latex(poly)
        sign = "-" if negative else ("+" if pieces else "")
        pieces.append(f"{sign}{'' if rendered == '1' else rendered}{basis}")
    return "".join(pieces) if pieces else "0"
