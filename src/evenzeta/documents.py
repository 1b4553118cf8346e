"""Loss-free JSON documents and text/LaTeX rendering for generated identities,
and the table of identity kinds (``_KINDS``) with its one weight check.

The JSON layout (schema 1) is flat and fully exact: every polynomial
coefficient is a "numerator/denominator" string, terms are listed by the
index l of the basis element zeta(2l)*zeta(2k-2l) (or B_{2k-2l}/(2k-2l)! for
the Bernoulli kind), and the weight is either an exponent list ``mvec`` or
parseable polynomial text ``poly``.  ``from_json(to_json(doc)) == doc``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import __version__
from .bernoulli_sums import BernoulliIdentity, bernoulli_identity
from .mzv_identities import mzsv_identity, mzv_identity
from .polynomials import MultiPoly, ParseError, UniPoly, parse_poly
from .zeta_identities import WeightedSumIdentity, zeta_identity_monomial, zeta_identity_poly

__all__ = [
    "SCHEMA_VERSION",
    "IdentityDocument",
    "document_from_identity",
    "from_json",
    "poly_latex",
    "poly_text",
    "to_json",
    "to_latex",
    "to_text",
]

SCHEMA_VERSION = 1

_Identity = BernoulliIdentity | WeightedSumIdentity


@dataclass(frozen=True)
class _Kind:
    """One identity kind.  A builder is None when the kind does not take
    that weight form; each basis pair is (l = 0, l > 0), the second a
    template formatted with j = 2l."""

    section: int
    lhs_text: str
    monomial: Callable[[tuple[int, ...]], _Identity] | None = None
    poly: Callable[[MultiPoly, int], _Identity] | None = None
    symmetric: bool = False
    basis_text: tuple[str, str] = ("zeta(2k)", "zeta({j})*zeta(2k-{j})")
    basis_latex: tuple[str, str] = (r"\zeta(2k)", r"\zeta({j})\zeta(2k-{j})")

    def build(self, weight: tuple[int, ...] | MultiPoly, n: int) -> _Identity:
        """The identity of a weight returned by ``_check_weight``."""
        return self.poly(weight, n) if isinstance(weight, MultiPoly) else self.monomial(weight)


# The builders look their function up when called, so a rebound module
# global (a tracer's wrapper, a test's stub) is the one that runs.
_KINDS: dict[str, _Kind] = {
    "bernoulli": _Kind(
        section=2,
        lhs_text="k1^m1*...*kn^mn * B(2k1)/(2k1)! * ... * B(2kn)/(2kn)!",
        monomial=lambda mvec: bernoulli_identity(mvec),
        basis_text=("B(2k)/(2k)!", "B(2k-{j})/(2k-{j})!"),
        basis_latex=(r"\frac{B_{2k}}{(2k)!}", r"\frac{{B_{{2k-{j}}}}}{{(2k-{j})!}}"),
    ),
    "zeta": _Kind(
        section=3,
        lhs_text="F(k1,...,kn) * zeta(2k1)*...*zeta(2kn)",
        monomial=lambda mvec: zeta_identity_monomial(mvec),
        poly=lambda weight, n: zeta_identity_poly(weight, n),
    ),
    "mzv": _Kind(
        section=4,
        lhs_text="F(k1,...,kn) * zeta(2k1, ..., 2kn)",
        poly=lambda weight, n: mzv_identity(weight, n),
        symmetric=True,
    ),
    "mzsv": _Kind(
        section=4,
        lhs_text="F(k1,...,kn) * zetastar(2k1, ..., 2kn)",
        poly=lambda weight, n: mzsv_identity(weight, n),
        symmetric=True,
    ),
}


def _check_weight(
    kind: str, n: int, mvec: Sequence[int] | None, poly: str | None
) -> tuple[int, ...] | MultiPoly:
    """The weight of a ``kind`` identity at depth n: exactly one of n
    exponents >= 0 and text that ``parse_poly`` accepts, in the form the
    kind takes and symmetric where it must be.  Raises ValueError."""
    record = _KINDS[kind]
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
    return weight


_COEFF_PATTERN = re.compile(r"-?\d+(/[1-9]\d*)?")


@dataclass(frozen=True)
class IdentityDocument:
    """Serializable form of one identity.

    ``terms[l]`` is the coefficient polynomial of basis element l as a tuple
    of "numerator/denominator" strings, constant coefficient first; an empty
    tuple is the zero polynomial.
    """

    kind: str
    n: int
    T: int
    terms: tuple[tuple[str, ...], ...]
    mvec: tuple[int, ...] | None = None
    poly: str | None = None
    tool: str = f"evenzeta {__version__}"

    def term_polys(self) -> tuple[UniPoly, ...]:
        return tuple(
            UniPoly([Fraction(part) for part in coeffs]) for coeffs in self.terms
        )


def _coeff_strings(poly: UniPoly) -> tuple[str, ...]:
    return tuple(f"{c.numerator}/{c.denominator}" for c in poly.coeffs)


def document_from_identity(identity: _Identity) -> IdentityDocument:
    if isinstance(identity, BernoulliIdentity):
        terms, poly = identity.rhs, None
    elif isinstance(identity, WeightedSumIdentity):
        terms, poly = identity.terms, identity.poly
    else:
        raise TypeError(f"cannot document a {type(identity).__name__}")
    return IdentityDocument(
        kind=identity.kind,
        n=identity.n,
        T=identity.T,
        terms=tuple(_coeff_strings(p) for p in terms),
        mvec=identity.mvec,
        poly=poly.render() if poly is not None else None,
    )


def to_json(doc: IdentityDocument) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": doc.kind,
        "n": doc.n,
        "T": doc.T,
        "mvec": list(doc.mvec) if doc.mvec is not None else None,
        "poly": doc.poly,
        "terms": [{"l": l, "coeffs": list(coeffs)} for l, coeffs in enumerate(doc.terms)],
        "tool": doc.tool,
    }
    return json.dumps(payload, indent=2)


def from_json(text: str) -> IdentityDocument:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    raw_terms = payload.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("terms must be a non-empty list")
    terms: list[tuple[str, ...]] = []
    for index, entry in enumerate(raw_terms):
        if not isinstance(entry, dict) or entry.get("l") != index:
            raise ValueError(f"terms must be listed with l = 0..T in order, bad entry {index}")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError(f"coeffs of term {index} must be a list of strings")
        for c in coeffs:
            # Only integer or p/q forms cross the wire, never decimals.
            if not _COEFF_PATTERN.fullmatch(c):
                raise ValueError(f"coefficient {c!r} is not an integer or p/q string")
        terms.append(tuple(coeffs))
    n, T, mvec = payload.get("n"), payload.get("T"), payload.get("mvec")
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if type(T) is not int or T != len(terms) - 1:
        raise ValueError(f"T must be one less than the {len(terms)} terms, got {T!r}")
    poly = payload.get("poly")
    _check_weight(kind, n, mvec, poly)
    return IdentityDocument(
        kind=kind,
        n=n,
        T=T,
        terms=tuple(terms),
        mvec=tuple(mvec) if mvec is not None else None,
        poly=poly,
        tool=str(payload.get("tool", "")),
    )


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
    doc: IdentityDocument, basis: tuple[str, str]
) -> Iterator[tuple[bool, UniPoly, str]]:
    """(negative, |p_l|, basis element l) of each nonzero term, by l."""
    for l, poly in enumerate(doc.term_polys()):
        if poly.is_zero():
            continue
        element = basis[0] if l == 0 else basis[1].format(j=2 * l)
        negative = poly.leading() < 0
        yield negative, (-poly if negative else poly), element


def to_text(doc: IdentityDocument) -> str:
    lines = [f"kind   : {doc.kind}", f"n      : {doc.n}", f"T      : {doc.T}"]
    if doc.mvec is not None:
        lines.append(f"weight : m = {tuple(doc.mvec)}")
    if doc.poly is not None:
        lines.append(f"weight : F = {doc.poly}")
    lines.append(f"lhs    : sum over k1+...+k{doc.n} = k (kj >= 1) of {_KINDS[doc.kind].lhs_text}")
    terms = list(_signed_terms(doc, _KINDS[doc.kind].basis_text))
    if not terms:
        lines.append("rhs    : 0")
    for i, (negative, poly, basis) in enumerate(terms):
        body = f"{poly_text(poly)} * {basis}"
        if i == 0:
            lines.append(f"rhs    = {'-' if negative else ''}{body}")
        else:
            lines.append(f"       {'-' if negative else '+'} {body}")
    lines.append(f"tool   : {doc.tool}")
    return "\n".join(lines)


def to_latex(doc: IdentityDocument) -> str:
    pieces: list[str] = []
    for negative, poly, basis in _signed_terms(doc, _KINDS[doc.kind].basis_latex):
        rendered = poly_latex(poly)
        sign = "-" if negative else ("+" if pieces else "")
        pieces.append(f"{sign}{'' if rendered == '1' else rendered}{basis}")
    return "".join(pieces) if pieces else "0"
