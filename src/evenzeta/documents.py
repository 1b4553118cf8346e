"""Loss-free JSON documents and text/LaTeX rendering for generated identities.

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

from . import __version__
from .bernoulli_sums import BernoulliIdentity
from .polynomials import ParseError, UniPoly, parse_poly
from .zeta_identities import WeightedSumIdentity

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

_KINDS = ("bernoulli", "zeta", "mzv", "mzsv")

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


def document_from_identity(
    identity: BernoulliIdentity | WeightedSumIdentity,
) -> IdentityDocument:
    if isinstance(identity, BernoulliIdentity):
        return IdentityDocument(
            kind="bernoulli",
            n=identity.n,
            T=identity.T,
            terms=tuple(_coeff_strings(p) for p in identity.rhs),
            mvec=identity.mvec,
        )
    if isinstance(identity, WeightedSumIdentity):
        return IdentityDocument(
            kind=identity.kind,
            n=identity.n,
            T=identity.T,
            terms=tuple(_coeff_strings(p) for p in identity.terms),
            mvec=identity.mvec,
            poly=identity.poly.render() if identity.poly is not None else None,
        )
    raise TypeError(f"cannot document a {type(identity).__name__}")


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
    if (mvec is None) == (poly is None):
        raise ValueError("exactly one of mvec and poly must be set")
    if kind == "bernoulli" and mvec is None:
        raise ValueError("a bernoulli document needs mvec")
    if kind in ("mzv", "mzsv") and poly is None:
        raise ValueError(f"a {kind} document needs poly")
    if mvec is not None and not (
        type(mvec) is list and len(mvec) == n and all(type(m) is int and m >= 0 for m in mvec)
    ):
        raise ValueError(f"mvec must be a list of {n} integers >= 0, got {mvec!r}")
    if poly is not None:
        if not isinstance(poly, str):
            raise ValueError(f"poly must be polynomial text, got {poly!r}")
        try:
            weight = parse_poly(poly, n)
        except ParseError as exc:
            raise ValueError(f"poly {poly!r} does not parse in x1..x{n}: {exc}") from exc
        if kind in ("mzv", "mzsv") and not weight.is_symmetric():
            raise ValueError(f"a {kind} document needs a symmetric poly, got {poly!r}")
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


_LHS_TEXT = {
    "bernoulli": "k1^m1*...*kn^mn * B(2k1)/(2k1)! * ... * B(2kn)/(2kn)!",
    "zeta": "F(k1,...,kn) * zeta(2k1)*...*zeta(2kn)",
    "mzv": "F(k1,...,kn) * zeta(2k1, ..., 2kn)",
    "mzsv": "F(k1,...,kn) * zetastar(2k1, ..., 2kn)",
}


def _basis_text(kind: str, l: int) -> str:
    if kind == "bernoulli":
        if l == 0:
            return "B(2k)/(2k)!"
        return f"B(2k-{2 * l})/(2k-{2 * l})!"
    if l == 0:
        return "zeta(2k)"
    return f"zeta({2 * l})*zeta(2k-{2 * l})"


def _basis_latex(kind: str, l: int) -> str:
    if kind == "bernoulli":
        if l == 0:
            return r"\frac{B_{2k}}{(2k)!}"
        return rf"\frac{{B_{{2k-{2 * l}}}}}{{(2k-{2 * l})!}}"
    if l == 0:
        return r"\zeta(2k)"
    return rf"\zeta({2 * l})\zeta(2k-{2 * l})"


def to_text(doc: IdentityDocument) -> str:
    lines = [f"kind   : {doc.kind}", f"n      : {doc.n}", f"T      : {doc.T}"]
    if doc.mvec is not None:
        lines.append(f"weight : m = {tuple(doc.mvec)}")
    if doc.poly is not None:
        lines.append(f"weight : F = {doc.poly}")
    lines.append(f"lhs    : sum over k1+...+k{doc.n} = k (kj >= 1) of {_LHS_TEXT[doc.kind]}")
    polys = doc.term_polys()
    if all(p.is_zero() for p in polys):
        lines.append("rhs    : 0")
    else:
        first = True
        for l, poly in enumerate(polys):
            if poly.is_zero():
                continue
            negative = poly.leading() < 0
            if negative:
                poly = -poly
            body = f"{poly_text(poly)} * {_basis_text(doc.kind, l)}"
            if first:
                lines.append(f"rhs    = {'-' if negative else ''}{body}")
                first = False
            else:
                lines.append(f"       {'-' if negative else '+'} {body}")
    lines.append(f"tool   : {doc.tool}")
    return "\n".join(lines)


def to_latex(doc: IdentityDocument) -> str:
    polys = doc.term_polys()
    pieces: list[str] = []
    for l, poly in enumerate(polys):
        if poly.is_zero():
            continue
        sign = ""
        if poly.leading() < 0:
            poly = -poly
            sign = "-"
        rendered = poly_latex(poly)
        if rendered == "1":
            rendered = ""
        body = f"{sign}{rendered}{_basis_latex(doc.kind, l)}"
        if pieces and not body.startswith("-"):
            pieces.append(f"+{body}")
        else:
            pieces.append(body)
    return "".join(pieces) if pieces else "0"
