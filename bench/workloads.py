"""The four benchmark workloads: seeded inputs, how each operation runs, and
how its output is checked.

An input is a list of operations.  Each operation is a JSON-ready list whose
first entry names its type and whose second names its stratum; the seed only
changes the values inside a stratum, never how many operations it holds, so
every seed asks for the same amount of work.  ``execute`` turns an operation
into an output string and ``check`` decides whether that string is right,
using code that shares nothing with the pipeline that produced it: recorded
digests, brute-force evaluators, recorded suite counts, and pi.

The package is imported lazily and reached through module attributes at call
time, so the tracer can rebind functions after this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from decimal import Decimal, localcontext
from fractions import Fraction

WORKLOADS = ("build-deep", "build-wide", "verify-grid", "spot-checks")

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# build-deep: (sum(m), number of indices) per rung.  Every rung has its own
# table depth sum(m) + n - 1, so the per-depth table caches miss on each.
DEEP_LADDER = ((8, 3), (12, 2), (16, 3), (20, 2), (24, 3), (28, 2))
DEEP_POOL_SIZE = 8

# build-wide: partitions lambda naming the monomial symmetric functions m_lambda
# that make up the weights at each depth n; the seed draws their coefficients.
WIDE_TERMS = {
    4: ((), (1,), (2,), (1, 1), (3,), (2, 1)),
    5: ((), (1,), (2,), (3,)),
    6: ((), (1,), (2,)),
    7: ((), (2,)),
}
WIDE_POOL_SIZE = 8
WIDE_PER_DEPTH = 2

# verify-grid: the CLI suites at their default bounds, then seeded extra
# checks at depth 5, one per (kind, k) stratum.
VERIFY_SUITES = ("bernoulli", "zeta", "mzv")
EXTRA_DEPTH = 5
EXTRA_K = {"bernoulli": (10, 12, 14, 16), "zeta": (10, 12, 14, 16), "mzv": (12, 14, 16)}

# spot-checks: acceptance criterion 10, seeded quasi-shuffle products of
# admissible words checked through truncated nested sums, and two suites.
NUMERIC_CASES = (((2, 2), 10**4), ((4,), 10**3))
STUFFLE_SHAPES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))
STUFFLE_BOUND = 300
SPOT_SUITES = (("words", "--max-n", "5"), ("tables",))

# pi to 50 digits, independent of the package.
PI = Decimal("3.14159265358979323846264338327950288419716939937510")


# -- input generation -----------------------------------------------------


def _pool_rng(*key: object) -> random.Random:
    """Generator for the fixed input pools; its seed never changes, so the
    recorded reference digests cover every pool entry."""
    return random.Random("pool:" + ":".join(map(str, key)))


def _monomial_symmetric(lam: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    padded = tuple(lam) + (0,) * (n - len(lam))
    return sorted(set(itertools.permutations(padded)))


def _poly_text(terms: list[tuple[int, tuple[int, ...]]]) -> str:
    pieces = []
    for coeff, expts in terms:
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(expts, 1) if e]
        pieces.append("*".join([str(coeff), *factors]))
    return " + ".join(pieces).replace("+ -", "- ")


def symmetric_weight(coeffs: dict[tuple[int, ...], int], n: int) -> str:
    """Text of sum_lambda c_lambda * m_lambda(x1..xn)."""
    terms = []
    for lam, coeff in coeffs.items():
        terms.extend((coeff, expts) for expts in _monomial_symmetric(lam, n))
    return _poly_text(terms)


def deep_pool(total: int, n: int) -> list[tuple[int, ...]]:
    """Fixed candidate splits of ``total`` over ``n`` indices, each >= 1."""
    rng = _pool_rng("deep", total, n)
    pool: list[tuple[int, ...]] = []
    while len(pool) < DEEP_POOL_SIZE:
        cuts = sorted(rng.sample(range(1, total), n - 1))
        split = tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
        if split not in pool:
            pool.append(split)
    return pool


def wide_pool(n: int) -> list[str]:
    """Fixed candidate weights at depth ``n``: every m_lambda of WIDE_TERMS[n]
    with a nonzero coefficient in -3..3, so each weight has the same terms."""
    rng = _pool_rng("wide", n)
    pool: list[str] = []
    while len(pool) < WIDE_POOL_SIZE:
        weight = symmetric_weight({lam: rng.choice((-3, -2, -1, 1, 2, 3)) for lam in WIDE_TERMS[n]}, n)
        if weight not in pool:
            pool.append(weight)
    return pool


def identity_argv(kind: str, n: int, mvec: tuple[int, ...] | None = None, poly: str | None = None) -> list[str]:
    argv = ["identity", "--kind", kind, "--n", str(n), "--format", "json"]
    if mvec is not None:
        return argv + ["--m", ",".join(map(str, mvec))]
    return argv + ["--poly", poly]


def make_inputs(workload: str, seed: int) -> list[list]:
    """The operations of one repetition of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[list] = []
    if workload == "build-deep":
        for total, n in DEEP_LADDER:
            pool = deep_pool(total, n)
            for kind in ("bernoulli", "zeta"):
                ops.append(["cli", f"{kind}/s{total}/n{n}", identity_argv(kind, n, rng.choice(pool))])
    elif workload == "build-wide":
        for n in sorted(WIDE_TERMS):
            for poly in rng.sample(wide_pool(n), WIDE_PER_DEPTH):
                for kind in ("mzv", "mzsv"):
                    ops.append(["cli", f"{kind}/n{n}", identity_argv(kind, n, poly=poly)])
    elif workload == "verify-grid":
        for suite in VERIFY_SUITES:
            ops.append(["cli", f"suite/{suite}", ["verify", "--suite", suite, "--format", "json"]])
        for k in EXTRA_K["bernoulli"]:
            mvec = _weak_split(rng, 3, EXTRA_DEPTH)
            ops.append(["verify_bernoulli", f"bernoulli/k{k}", list(mvec), k])
        for k in EXTRA_K["zeta"]:
            mvec = _weak_split(rng, 3, EXTRA_DEPTH)
            ops.append(["verify_zeta", f"zeta/k{k}", _poly_text([(1, mvec)]), EXTRA_DEPTH, k])
        # one identity checked at every k, as a user verifying one build would
        coeffs = {lam: rng.choice((-2, -1, 1, 2)) for lam in ((), (2,))}
        star = rng.random() < 0.5
        weight = symmetric_weight(coeffs, EXTRA_DEPTH)
        ops.append(["verify_mzv", "mzv", weight, EXTRA_DEPTH, list(EXTRA_K["mzv"]), star])
    elif workload == "spot-checks":
        for kvec, bound in NUMERIC_CASES:
            ops.append(["numeric", f"numeric/{len(kvec)}", list(kvec), bound])
        for left, right in STUFFLE_SHAPES:
            u, v = _admissible_word(rng, left), _admissible_word(rng, right)
            ops.append(["stuffle", f"stuffle/{left}x{right}", u, v, STUFFLE_BOUND])
        for suite, *bounds in SPOT_SUITES:
            argv = ["verify", "--suite", suite, *bounds, "--format", "json"]
            ops.append(["cli", f"suite/{suite}", argv])
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops


def _weak_split(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _admissible_word(rng: random.Random, length: int) -> list[int]:
    return [rng.randint(2, 4)] + [rng.randint(1, 3) for _ in range(length - 1)]


# -- execution ------------------------------------------------------------


def execute(op: list) -> str:
    """Run one operation through the package's public API; returns its output."""
    import evenzeta as ez
    from evenzeta import cli

    kind = op[0]
    if kind == "cli":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op[2])
        return json.dumps({"exit": code, "stdout": buffer.getvalue()})
    if kind == "verify_bernoulli":
        result = ez.verify_bernoulli(tuple(op[2]), op[3])
    elif kind == "verify_zeta":
        result = ez.verify_zeta(ez.parse_poly(op[2], op[3]), op[3], op[4])
    elif kind == "verify_mzv":
        weight, n, star = ez.parse_poly(op[2], op[3]), op[3], op[5]
        identity = (ez.mzsv_identity if star else ez.mzv_identity)(weight, n)
        results = [ez.verify_mzv(weight, n, k, star=star, identity=identity) for k in op[4]]
        return json.dumps([[r.ok, r.lhs, r.rhs] for r in results])
    elif kind == "numeric":
        value, tail = ez.mzv_numeric(tuple(op[2]), op[3])
        return json.dumps([str(value), str(tail)])
    elif kind == "stuffle":
        u, v, bound = tuple(op[2]), tuple(op[3]), op[4]
        product = ez.star(u, v)
        terms = [
            [list(word), str(coeff), str(ez.mzv_numeric(word, bound)[0])]
            for word, coeff in product.items()
        ]
        factors = [str(ez.mzv_numeric(word, bound)[0]) for word in (u, v)]
        return json.dumps({"factors": factors, "terms": terms})
    else:
        raise ValueError(f"unknown operation {kind!r}")
    return json.dumps([result.ok, result.lhs, result.rhs])


# -- checking -------------------------------------------------------------


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(op: list) -> str:
    return " ".join(op[2])


def passes(op: list, output: str, references: dict) -> bool:
    """``check``, with an output that cannot even be read counted as wrong."""
    try:
        return check(op, output, references)
    except (ValueError, LookupError, TypeError, ArithmeticError):
        return False


def suite_checks(ops: list, outputs: list[str]) -> int:
    """Checks run by the suites (passed + failed + skipped) in these outputs."""
    total = 0
    for op, output in zip(ops, outputs):
        if op[0] == "cli" and op[2][0] == "verify" and not output.startswith("error"):
            for suite in json.loads(json.loads(output)["stdout"])["suites"]:
                total += suite["passed"] + suite["failed"] + suite["skipped"]
    return total


def check(op: list, output: str, references: dict) -> bool:
    """True when ``output`` is the right output of ``op``."""
    kind = op[0]
    if kind == "cli":
        return _check_cli(op, json.loads(output), references)
    if kind == "verify_mzv":
        results = json.loads(output)
        return len(results) == len(op[4]) and all(ok is True and lhs == rhs for ok, lhs, rhs in results)
    if kind.startswith("verify_"):
        ok, lhs, rhs = json.loads(output)
        return ok is True and lhs == rhs
    if kind == "numeric":
        return _check_numeric(tuple(op[2]), *map(Decimal, json.loads(output)))
    if kind == "stuffle":
        return _check_stuffle(json.loads(output))
    return False


def _check_cli(op: list, result: dict, references: dict) -> bool:
    if result["exit"] != 0:
        return False
    argv, text = op[2], result["stdout"]
    if argv[0] == "verify":
        counts = {s["suite"]: [s["passed"], s["failed"], s["skipped"]] for s in json.loads(text)["suites"]}
        return counts == references["suites"][reference_key(op)]
    if digest(text) != references["documents"].get(reference_key(op)):
        return False
    return _brute_force_agrees(json.loads(text))


def _brute_force_agrees(doc: dict) -> bool:
    """Evaluate the document's collapsed side at two k >= n, where every term
    enters, against the composition sums evaluated term by term."""
    import evenzeta as ez

    n, depth = doc["n"], doc["T"]
    polys = tuple(ez.UniPoly([Fraction(c) for c in term["coeffs"]]) for term in doc["terms"])
    first = max(n, depth)
    for k in (first, first + 1):
        if doc["kind"] == "bernoulli":
            identity = ez.BernoulliIdentity(mvec=tuple(doc["mvec"]), T=depth, rhs=polys)
            ok = ez.bernoulli_lhs(identity.mvec, k) == identity.rhs_value(k)
        else:
            identity = ez.WeightedSumIdentity(kind=doc["kind"], n=n, T=depth, terms=polys)
            if doc["kind"] == "zeta":
                left = ez.eval_zeta_lhs(ez.MultiPoly.monomial(doc["mvec"]), n, k)
            else:
                weight = ez.parse_poly(doc["poly"], n)
                left = ez.mzv_lhs_exact(weight, n, k, star=doc["kind"] == "mzsv")
            ok = left == ez.eval_identity_rhs(identity, k)
        if not ok:
            return False
    return True


def _check_numeric(kvec: tuple[int, ...], value: Decimal, tail: Decimal) -> bool:
    """Known values: zeta(2,2) = pi^4/120 and zeta(4) = pi^4/90."""
    with localcontext() as ctx:
        ctx.prec = 50
        pi4 = PI**4
        exact = {(2, 2): pi4 / 120, (4,): pi4 / 90}[kvec]
        return 0 < exact - value < tail


def _check_stuffle(result: dict) -> bool:
    """Truncated nested sums multiply by the quasi-shuffle product exactly:
    zeta_N(u) * zeta_N(v) = sum_w c_w zeta_N(w) over the words w of u * v.
    The sums are rounded to 40 digits, so equality is checked to 30."""
    if any(word[0] < 2 for word, _, _ in result["terms"]):
        return False
    with localcontext() as ctx:
        ctx.prec = 60
        left = Decimal(result["factors"][0]) * Decimal(result["factors"][1])
        right = Decimal(0)
        for _, coeff, value in result["terms"]:
            ratio = Fraction(coeff)
            right += Decimal(ratio.numerator) / Decimal(ratio.denominator) * Decimal(value)
        return abs(left - right) <= left * Decimal("1e-30")
