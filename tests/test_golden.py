"""Byte identity of CLI output.

Each argv below is pinned to the sha256 of its stdout, so any change to a
rendered or serialised identity, to the derivative tables, to the gallery
report or to the counts of the verification suites shows up here.  The
identity digests were recorded before polynomials moved to integer
numerators over one denominator, the ``verify`` digests before the suites
checked each identity's k-grid in one pass, and a refactor must keep them.
"""

import hashlib

import pytest

from evenzeta.cli import main

_IDENTITIES = [
    ("bernoulli", "--n", "2", "--m", "40,0"),
    ("bernoulli", "--n", "3", "--m", "2,0,1"),
    ("zeta", "--n", "3", "--m", "3,1,0"),
    ("zeta", "--n", "3", "--poly", "1/3*x1^2*x2 - 5/7*x3"),
    ("mzv", "--n", "5", "--poly", "x1^2+x2^2+x3^2+x4^2+x5^2"),
    ("mzsv", "--n", "4", "--poly", "(x1+x2+x3+x4)^3 + x1*x2*x3*x4"),
    ("mzv", "--n", "6", "--poly", "(x1+x2+x3+x4+x5+x6)^3"),
    ("mzsv", "--n", "7", "--poly", "(x1+x2+x3+x4+x5+x6+x7)^2-3"),
]

_IDENTITY_DIGESTS = [
    "16d2d1842c55cbfdbeee2c3b62ca0d35f1b0a86902e242f78c0a4fcf248f239d",
    "dd186796ecad35fa4da3e5bc33aacba2e008ced84ee7d5eb9452efa7ced5569c",
    "a7631119c22468743e21dae6a799710b0415bf9572661bea3140595423c93f74",
    "572b91eb8d92d053660f03a836e4bddd4ecb9655b94415ffbe74073e2a1321b0",
    "e3cb6a19226743dea8ef7b9a178fef5dbac3d3391db61af61627067a9a65cbb5",
    "b519f0453e0348500a66915efb238b5eeaa3d23800ec4e448403032924775ada",
    "a33424e82a27a93f8c67a074913d55f00905645946541624dc4a0a05aad68bbf",
    "5bda00b727ad2224522d02747649dcade9d053b981d98a5aaaa119e82c162f8d",
    "04d4c38389fc74fce951bf1d244ad3a55b5d6700331ffaadf004b576ba385298",
    "aaadd2de3afc2e3015f82080cb1b73b61989e3b155d016f0ebc505aeb9f0223e",
    "6d399aabb1bc4749f979119dd8a7ea5487e3f4f95db1634f8846e5efde3abee7",
    "118f5136160ddbcf7421a4e868f66f6e9d7d933ca35509fa9914d33a5443cb43",
    "9358ef428c7d49972e8677a83fcc107f19c6178d45dec129a0a1b56cc02f6e65",
    "bb9fab25e2a53ef1270bba4a66184ed65ee9ca3128d9ba4369ff7fc1e3f13665",
    "acca9dc4a7ef24e64f0128d2908ee4d7acfa7df7b8e1255e270bcdc9144f1cb4",
    "a33b76c05ac82b4fea53709c30ac9350643921e32bdd83b34e4ce52693ae3580",
    "60408c1cbba980f26218364c0f5cdadfe4530a69dd8dd246351e7f34e93a9f8a",
    "e09697bf3575ae3c5bcf39420de80f161b90e68993f048233f97edc44b3dc3cb",
    "1f700a17b00e08f4939da76087d02d46b2a6d6473148d6ed61bd9e024e46137e",
    "83c34da97597b09f7b44870e327a9384b7198bbda7aeb489e6ea45408e4103b3",
    "9507bf0de5ae51bbe6ecee91aa295e8f10ecacd3feef1a48bd24a0554b8f4877",
    "0c735e31e01136206ed7ce141e32939aec8cc50b146302242cf585aaa229c508",
    "907211336ba9888c1d8e577fc57935202d79b8827f360fea3a1fad1a20396b43",
    "81086eb1397eb9ada073a9b242e1bd66353f9460bfab7e8e251872dd0229df2f",
]

GOLDEN = [
    *zip(
        (
            ("identity", "--kind", *spec, "--format", fmt)
            for spec in _IDENTITIES
            for fmt in ("json", "text", "latex")
        ),
        _IDENTITY_DIGESTS,
    ),
    (
        ("tables", "--depth", "16", "--format", "text"),
        "de64b3a7dce226542be604813b10246be432cef96b25798fa03ae772c9948e06",
    ),
    (
        ("tables", "--depth", "16", "--format", "json"),
        "cb9844e5f4c66928e91ad91330e39247cb593c6098886305cd82ff14d87cc483",
    ),
    (
        ("tables", "--depth", "16", "--format", "latex"),
        "e5880922bf9c2b8fc1851bca3043c5079c7529eaf580e084b155e782bdeb46f7",
    ),
    (("examples", "--section", "2"), "e7e6ed26c0241ad81e524ff8a98b7a0048f003ad6e054612af43dfe15eb40d33"),
    (("examples", "--section", "3"), "ee0646545c3915ce5e0ec8c9ef74c90d2d378b3b870708868805b6b538f38236"),
    (("examples", "--section", "4"), "a4a78d3fa8322bfa1487810923d57959c3cb3958e1ceb0c1065b19e59f4111cd"),
    (("verify", "--suite", "all"), "e17f63fdbc0a28e93916313885c31e2950ff3cbd80eb9da403afca5f2bc0cf86"),
    (
        ("verify", "--suite", "all", "--format", "json"),
        "050e0475bb2bd8d25e308300fe98208076d81ce8fdd9358789ab991c64a43ff1",
    ),
    (
        ("verify", "--suite", "all", "--max-n", "5", "--max-k", "16", "--format", "json"),
        "4a19bbe0b839bbce29a974129027ad2e45d1f68e4f87e3634136d900b5663b62",
    ),
]


def test_every_identity_digest_is_paired():
    assert len(_IDENTITY_DIGESTS) == 3 * len(_IDENTITIES)


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_stdout_is_byte_identical(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
