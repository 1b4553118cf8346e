"""Built-in gallery of weighted sum identities with independently recorded
closed forms, used by the ``examples`` command and the acceptance tests.

Sections: 2 = Bernoulli-number sums, 3 = products of single zeta values,
4 = multiple zeta and zeta-star values; the kind table of ``documents``
gives each kind's section and builds each entry.  Every expected coefficient
polynomial is entered in the factored form in which these identities are
classically displayed, and expanded here by exact arithmetic on the first
call of ``gallery``, not at import; nothing is copied from pipeline output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._records import Record
from .checks import CheckResult
from .documents import _KINDS, _check_weight, poly_text
from .polynomials import UniPoly

__all__ = ["GalleryIdentity", "check_gallery_identity", "gallery", "sections"]


class GalleryIdentity(Record):
    """One displayed identity: its weight and the expected nonzero terms."""

    __slots__ = ("label", "kind", "n", "mvec", "poly_text", "expected")

    def __init__(
        self,
        label: str,
        kind: str,
        n: int,
        mvec: tuple[int, ...] | None,
        poly_text: str | None,
        expected: tuple[tuple[int, UniPoly], ...],
    ) -> None:
        self._assign(label, kind, n, mvec, poly_text, expected)


@lru_cache(maxsize=1)
def _gallery() -> tuple[GalleryIdentity, ...]:
    """Every gallery entry, expanded on the first call."""
    K = UniPoly.x()
    C = UniPoly.constant
    return (
        # -- section 2: Bernoulli-number sums, depth 4 ----------------------
        GalleryIdentity(
            label="bernoulli n=4 m=(0,0,0,0)",
            kind="bernoulli",
            n=4,
            mvec=(0, 0, 0, 0),
            poly_text=None,
            expected=(
                (0, -(K + 1) * (2 * K + 1) * (2 * K + 3) / 3),
                (1, -2 * K / 3),
            ),
        ),
        GalleryIdentity(
            label="bernoulli n=4 m=(2,0,0,0)",
            kind="bernoulli",
            n=4,
            mvec=(2, 0, 0, 0),
            poly_text=None,
            expected=(
                (0, -K * (K + 1) * (2 * K + 1) * (2 * K + 3) * (4 * K + 3) / 120),
                (1, -K * (4 * K**2 - 6 * K + 3) / 24),
                (2, -(2 * K - 5) / 160),
            ),
        ),
        GalleryIdentity(
            label="bernoulli n=4 m=(3,0,0,0)",
            kind="bernoulli",
            n=4,
            mvec=(3, 0, 0, 0),
            poly_text=None,
            expected=(
                (0, -K * (K + 1) * (2 * K + 1) * (2 * K + 3) * (4 * K**2 + 6 * K + 1) / 240),
                (1, -K * (12 * K**3 - 12 * K**2 - 11 * K + 9) / 96),
                (2, -(2 * K - 5) * (13 * K - 9) / 960),
            ),
        ),
        # -- section 3: products of single zeta values, depth 4 -------------
        GalleryIdentity(
            label="zeta n=4 m=(0,0,0,0)",
            kind="zeta",
            n=4,
            mvec=(0, 0, 0, 0),
            poly_text=None,
            expected=(
                (0, (K + 1) * (2 * K + 1) * (2 * K + 3) / 24),
                (1, -2 * K),
            ),
        ),
        GalleryIdentity(
            label="zeta n=4 m=(2,0,0,0)",
            kind="zeta",
            n=4,
            mvec=(2, 0, 0, 0),
            poly_text=None,
            expected=(
                (0, K * (K + 1) * (2 * K + 1) * (2 * K + 3) * (4 * K + 3) / 960),
                (1, -K * (4 * K**2 - 6 * K + 3) / 8),
                (2, 9 * (2 * K - 5) / 8),
            ),
        ),
        GalleryIdentity(
            label="zeta n=4 m=(3,0,0,0)",
            kind="zeta",
            n=4,
            mvec=(3, 0, 0, 0),
            poly_text=None,
            expected=(
                (0, K * (K + 1) * (2 * K + 1) * (2 * K + 3) * (4 * K**2 + 6 * K + 1) / 1920),
                (1, -K * (12 * K**3 - 12 * K**2 - 11 * K + 9) / 32),
                (2, 3 * (2 * K - 5) * (13 * K - 9) / 16),
            ),
        ),
        # -- section 4: multiple zeta and zeta-star values, depth 4 ---------
        GalleryIdentity(
            label="mzv n=4 F=1",
            kind="mzv",
            n=4,
            mvec=None,
            poly_text="1",
            expected=(
                (0, C(Fraction(35, 64))),
                (1, C(Fraction(-5, 16))),
            ),
        ),
        GalleryIdentity(
            label="mzv n=4 F=sum of squares",
            kind="mzv",
            n=4,
            mvec=None,
            poly_text="x1^2 + x2^2 + x3^2 + x4^2",
            expected=(
                (0, 7 * K * (10 * K - 3) / 128),
                (1, -(10 * K**2 + 9 * K - 30) / 32),
                (2, 3 * (2 * K - 5) / 16),
            ),
        ),
        GalleryIdentity(
            label="mzv n=4 F=sum of cubes",
            kind="mzv",
            n=4,
            mvec=None,
            poly_text="x1^3 + x2^3 + x3^3 + x4^3",
            expected=(
                (0, 7 * K * (40 * K**2 - 18 * K + 3) / 512),
                (1, -(40 * K**3 + 54 * K**2 - 174 * K + 15) / 128),
                (2, 3 * (2 * K - 5) * (3 * K + 2) / 32),
            ),
        ),
        GalleryIdentity(
            label="mzsv n=4 F=1",
            kind="mzsv",
            n=4,
            mvec=None,
            poly_text="1",
            expected=(
                (0, (4 * K - 5) * (8 * K**2 - 20 * K + 3) / 192),
                (1, -(4 * K - 7) / 16),
            ),
        ),
        GalleryIdentity(
            label="mzsv n=4 F=sum of squares",
            kind="mzsv",
            n=4,
            mvec=None,
            poly_text="x1^2 + x2^2 + x3^2 + x4^2",
            expected=(
                (0, K * (128 * K**4 - 600 * K**3 + 920 * K**2 - 600 * K + 227) / 1920),
                (1, -(2 * K - 3) * (16 * K**2 - 63 * K + 68) / 96),
                (2, -(2 * K - 5) / 16),
            ),
        ),
        GalleryIdentity(
            label="mzsv n=4 F=sum of cubes",
            kind="mzsv",
            n=4,
            mvec=None,
            poly_text="x1^3 + x2^3 + x3^3 + x4^3",
            expected=(
                (0, K * (256 * K**5 - 1440 * K**4 + 2760 * K**3 - 2400 * K**2 + 1664 * K - 435) / 7680),
                (1, -(32 * K**4 - 184 * K**3 + 318 * K**2 - 136 * K - 51) / 128),
                (2, 15 * (K - 4) * (2 * K - 5) / 32),
            ),
        ),
    )


def sections() -> tuple[int, ...]:
    return tuple(sorted({kind.section for kind in _KINDS.values()}))


def gallery(section: int) -> tuple[GalleryIdentity, ...]:
    """The gallery entries of one section (2, 3, or 4)."""
    entries = tuple(entry for entry in _gallery() if _KINDS[entry.kind].section == section)
    if not entries:
        raise ValueError(f"unknown section {section}; choose one of {sections()}")
    return entries


def _pipeline_terms(entry: GalleryIdentity) -> tuple[UniPoly, ...]:
    weight = _check_weight(entry.kind, entry.n, entry.mvec, entry.poly_text)
    return _KINDS[entry.kind].build(weight, entry.n).terms


def check_gallery_identity(entry: GalleryIdentity) -> CheckResult:
    """Regenerate one gallery identity and compare every coefficient.

    Indices absent from the expected list must come out zero.
    """
    produced = _pipeline_terms(entry)
    expected = dict(entry.expected)
    mismatches = []
    for l, poly in enumerate(produced):
        want = expected.pop(l, UniPoly.zero())
        if poly != want:
            mismatches.append(f"l={l}: produced {poly_text(poly)}, expected {poly_text(want)}")
    for l, want in sorted(expected.items()):
        if not want.is_zero():
            mismatches.append(f"l={l}: produced 0, expected {poly_text(want)}")
    return CheckResult(
        ok=not mismatches,
        label=entry.label,
        lhs="; ".join(mismatches) if mismatches else "all terms equal",
        rhs="recorded closed forms",
    )
