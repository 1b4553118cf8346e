"""Byte identity of identity documents for weights with rational
coefficients.

The benchmark pools and the golden argvs draw integer coefficients almost
everywhere, so these argvs send denominators through the parser, the
per-shape collapse, the orbit sum and the series left sides.  Each is pinned
to the sha256 of its stdout, recorded while ``MultiPoly`` still held a
``Fraction`` per term; the integer form must reproduce them exactly.
"""

import hashlib

import pytest

from evenzeta.cli import main
from evenzeta.documents import from_json, to_json

_WEIGHTS = [
    ("4", "1/2*x1^2+1/2*x2^2+1/2*x3^2+1/2*x4^2-2/3"),
    ("3", "1/3*(x1+x2+x3)^3 - 5/7*x1*x2*x3 + 1/6"),
    (
        "5",
        "3/4*(x1*x2+x1*x3+x1*x4+x1*x5+x2*x3+x2*x4+x2*x5+x3*x4+x3*x5+x4*x5)"
        " - 1/5*(x1+x2+x3+x4+x5)^2 + 7/11",
    ),
]

_KINDS = ("mzv", "mzsv", "zeta")

_DIGESTS = [
    "71845278d179f8051a0c6dd2e2819020e54cee833082ae815488a8153aaa88e8",
    "f30c7df98ebb1f8e6ef00f7409146c5d9d4f0142ab87113ced02a44bc1e2d482",
    "fe443b6cd1911de96943d833e7cfc41ac2c7fe30a4d4fd066c661c22a356528d",
    "ec08d9a30015fd3f2a745246a1e9ee610b052987278a0d0565cc2da3db4ccdf0",
    "7d1ec332e35090fc451b3b08afb6d23264a22615b0a0fba40e11f7479e609bf7",
    "467e09d9ae7107ad9e79251f26ca63e8e0ae5b985393707097cbd28934e9a0ce",
    "051664ace2d54b8902ebf1e4c4a9223f0802f1b40daaa29ed409302a51f83be2",
    "6f7b62904c5c9469162ada0415118c599bc80a19e0591bef40acf541657f6b8d",
    "0e295dc01b9ebbb72d12d42ee4c1765150f99e7740b2d708c2896b48d538c221",
]

GOLDEN = list(
    zip(
        (
            ("identity", "--kind", kind, "--n", n, "--poly", poly, "--format", "json")
            for n, poly in _WEIGHTS
            for kind in _KINDS
        ),
        _DIGESTS,
    )
)


def test_every_digest_is_paired():
    assert len(_DIGESTS) == len(_KINDS) * len(_WEIGHTS)


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[f"{a[2]} n={a[4]}" for a, _ in GOLDEN])
def test_document_is_byte_identical(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    # The document reads back under the schema and writes out unchanged.
    doc = from_json(out)
    assert (doc.kind, doc.n) == (argv[2], int(argv[4]))
    assert to_json(doc) + "\n" == out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
