"""Grammar fuzz of the command line and of ``from_json``.

Drawn ``identity`` argv, and refused ``verify``, ``tables`` and ``examples``
bounds, run through ``cli.main`` in process: no exception but argparse's
``SystemExit(2)`` may escape, the exit code is 0 or 2, and exit 2 prints
nothing on stdout.  Weight texts follow the parser's grammar, with nesting,
powers, ``a/b``, signs, non-ASCII digits and 5,000-digit integers.  Mutated
schema-1 documents go to ``from_json``, which returns an identity or raises
``ValueError``.

Every value goes in as ``--flag=value``, so a text that starts with ``-`` is
a value, not an option.  Exponents above 4 apply to atoms only and ``--m``
entries stay below 8, so an admitted weight builds in milliseconds: what
admitted weights cost is not what this fuzz tests (a dense weight at n = 2,
or nested powers of a constant, can take seconds or longer).  Admitted
``verify`` bounds run the suites, up to 1 s, so only refused ones are drawn,
and ``--out`` is never drawn.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evenzeta import SUITE_NAMES, bernoulli_identity, cli, from_json, mzsv_identity, mzv_identity
from evenzeta import parse_poly, sections, to_json, zeta_identity_monomial, zeta_identity_poly
from evenzeta.documents import _KINDS

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = tuple(_KINDS)
#: Arabic-Indic 3, fullwidth 1, Bengali 2 and Devanagari 1: digits to
#: ``str.isdigit`` and ``int``, but not the ASCII digits the grammar reads.
NON_ASCII_DIGITS = "٣１২१"
LONG_INTEGER = "7" * 5000

integer_texts = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "00", "1" + "0" * 40, LONG_INTEGER]),
    st.text(alphabet="0123456789" + NON_ASCII_DIGITS, min_size=1, max_size=3),
)
numbers = st.one_of(integer_texts, st.tuples(integer_texts, integer_texts).map("/".join))
junk_atoms = st.sampled_from(
    ["x0", "x01", "x13", "x", "y1", "x1x2", "_", "é", "x" + NON_ASCII_DIGITS[0], "", "1.5", "2x1",
     "x1^-1", "x1^", "^2", "1/0", "()", "x1 x2", "#"]
)
small_integer_texts = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", " 3 ", "+2", "-0", "2.0", "0x2", "1_0", NON_ASCII_DIGITS[0]]),
    st.just(LONG_INTEGER),
)


@lru_cache(maxsize=None)
def poly_texts(n):
    """Texts of the grammar over x1..xn, with a few tokens it refuses."""
    variables = st.integers(1, max(n, 1)).map(lambda i: f"x{i}")
    atoms = st.one_of(
        numbers,
        variables,
        st.tuples(numbers, st.integers(0, 70)).map(lambda p: f"{p[0]}^{p[1]}"),
        st.tuples(variables, st.sampled_from([0, 1, 2, 3, 9, 16, 17, 43, 44, 64, 65])).map(
            lambda p: f"{p[0]}^{p[1]}"
        ),
        junk_atoms,
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", "/", "^"]), inner).map(
                "".join
            ),
            st.tuples(inner, st.integers(0, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
            st.tuples(st.integers(1, 70), inner).map(lambda p: "(" * p[0] + p[1] + ")" * p[0]),
            inner.map(lambda text: "-" + text),
            inner.map(lambda text: "(" + text),
        ),
        max_leaves=6,
    )


@lru_cache(maxsize=None)
def symmetric_texts(n):
    """Symmetric weights in x1..xn: sums of scaled powers of power sums, of
    degree at most 2 beyond depth 5."""
    power_sums = st.integers(0, 2).map(lambda j: " + ".join(f"x{i}^{j}" for i in range(1, n + 1)))
    powers = st.tuples(power_sums, st.integers(0, 3 if n <= 5 else 1))
    terms = st.tuples(numbers, powers).map(lambda p: f"{p[0]}*({p[1][0]})^{p[1][1]}")
    return st.lists(terms, min_size=1, max_size=2).map(" - ".join)


@st.composite
def identity_argv(draw):
    """An admitted ``identity`` argv, with one flag changed, dropped or
    added in most draws."""
    kind, n = draw(st.sampled_from(KINDS)), draw(st.integers(1, 12))
    if kind == "bernoulli" or (kind == "zeta" and draw(st.booleans())):
        exponents = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        weight = "--m=" + ",".join(map(str, exponents))
    else:
        weight = f"--poly={draw(poly_texts(n) if kind == 'zeta' else symmetric_texts(n))}"
    form = draw(st.sampled_from(["text", "json", "latex"]))
    argv = ["identity", f"--kind={kind}", f"--n={n}", weight, f"--format={form}"]
    changes = {
        1: st.sampled_from(KINDS + ("shuffle", "")).map("--kind=".__add__),
        2: small_integer_texts.map("--n=".__add__),
        3: st.one_of(
            st.lists(st.one_of(st.integers(-1, 7).map(str), small_integer_texts), max_size=13).map(
                lambda parts: "--m=" + ",".join(parts)
            ),
            st.one_of(poly_texts(n), symmetric_texts(n)).map("--poly=".__add__),
        ),
        4: st.sampled_from(["text", "json", "latex", "xml"]).map("--format=".__add__),
    }
    slot = draw(st.sampled_from([None, 1, 2, 3, 3, 4]))
    action = draw(st.sampled_from(["change", "change", "drop", "add"]))
    if slot is None:
        return argv
    if action == "drop":
        del argv[slot]
    elif action == "add":
        argv.insert(slot, draw(changes[slot]))
    else:
        argv[slot] = draw(changes[slot])
    return argv


def refused(low, high):
    """Integer texts outside low..high, and texts that are no integer."""
    return st.one_of(
        st.integers(max_value=low - 1).map(str),
        st.integers(min_value=high + 1).map(str),
        st.sampled_from(["", " ", "2.0", "x", "0x2", "1_0", NON_ASCII_DIGITS[0], LONG_INTEGER]),
    )


@st.composite
def refused_argv(draw):
    command = draw(st.sampled_from(["verify", "tables", "examples"]))
    if command == "tables":
        return ["tables", f"--depth={draw(refused(0, cli.MAX_DUMP_DEPTH))}"]
    if command == "examples":
        return ["examples", f"--section={draw(refused(min(sections()), max(sections())))}"]
    suite = draw(st.sampled_from(SUITE_NAMES + ("all", "none")))
    flags = [f"--max-n={draw(refused(1, 5))}", f"--max-k={draw(refused(1, 16))}"]
    admitted = [f"--max-n={draw(st.integers(1, 5))}", f"--max-k={draw(st.integers(1, 16))}"]
    # One bound is refused; the other is refused, admitted or absent.
    other = draw(st.sampled_from([0, 1]))
    flags[other] = draw(st.sampled_from([flags[other], admitted[other], None]))
    return ["verify", f"--suite={suite}", *filter(None, flags)]


def run(argv):
    """(exit code, stdout) of ``cli.main``, or of argparse's SystemExit."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = 2
    return code, out.getvalue()


class TestCommandLine:
    @FUZZ
    @given(identity_argv())
    def test_identity_exits_0_or_2(self, argv):
        code, out = run(argv)
        assert code in (0, 2), argv
        assert (out == "") == (code == 2), argv

    @FUZZ
    @given(refused_argv())
    def test_refused_bounds_exit_2(self, argv):
        assert run(argv) == (2, ""), argv


#: One small document of each kind and weight form, as (key, value) pairs.
DOCUMENTS = [
    list(json.loads(to_json(identity)).items())
    for identity in (
        bernoulli_identity((1, 0)),
        zeta_identity_monomial((1, 0)),
        zeta_identity_poly(parse_poly("x1*x2 - 1/3", 2), 2),
        mzv_identity(parse_poly("x1 + x2", 2), 2),
        mzsv_identity(parse_poly("x1^2 + x2^2 + x3^2", 3), 3),
    )
]
KEYS = ["schema", "kind", "n", "T", "mvec", "poly", "terms", "tool", "extra"]
scalars = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([None, True, False, 1.0, -0.5, 1e300, "", "1", "1/2", "0.5", "x1 + x2", "x1^"]),
    st.sampled_from(KINDS),
)
json_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.sampled_from(KEYS + ["l", "coeffs"]), scalars, max_size=3),
)
mutations = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(KEYS)),
    st.tuples(st.just("add"), st.sampled_from(KEYS), json_values),
    st.tuples(st.just("set"), st.sampled_from(KEYS[:7]), json_values),
    st.tuples(st.just("set"), st.sampled_from(["schema", "n", "T"]), st.booleans()),
    st.tuples(st.just("set"), st.just("mvec"), st.lists(st.booleans(), min_size=2, max_size=2)),
    st.tuples(st.just("term"), st.integers(0, 3), st.sampled_from(["l", "coeffs"]), json_values),
)


def mutated(pairs, changes):
    """The text of the document ``pairs`` after ``changes``.  "add" writes
    its key once more (``json.loads`` keeps the last), "set" replaces the
    value of a key present and adds one absent, "term" sets a field of one
    entry of ``terms``."""
    pairs = json.loads(json.dumps(pairs))  # a deep copy
    for action, key, *rest in changes:
        if action == "drop":
            pairs = [[k, v] for k, v in pairs if k != key]
        elif action == "term":
            terms = dict(pairs).get("terms")
            if isinstance(terms, list) and key < len(terms) and isinstance(terms[key], dict):
                terms[key][rest[0]] = rest[1]
        elif action == "set" and key in dict(pairs):
            pairs = [[k, rest[0] if k == key else v] for k, v in pairs]
        else:
            pairs.append([key, rest[0]])
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


def loaded(pairs, changes):
    """(text, identity) of a mutated document, or None when it is refused."""
    text = mutated(pairs, changes)
    try:
        return text, from_json(text)
    except ValueError:
        return None


class TestFromJson:
    @FUZZ
    @given(st.sampled_from(DOCUMENTS), st.lists(mutations, min_size=1, max_size=3))
    def test_returns_an_identity_or_raises_value_error(self, pairs, changes):
        if result := loaded(pairs, changes):
            assert from_json(to_json(result[1])) == result[1]

    @FUZZ
    @given(st.sampled_from(DOCUMENTS), st.lists(mutations, min_size=1, max_size=3))
    def test_loaded_header_is_written_back(self, pairs, changes):
        # A document means what it says: its header and term indices are
        # written back as they were read, not as 1 for JSON true or 1.0.
        if result := loaded(pairs, changes):
            payload, written = json.loads(result[0]), json.loads(to_json(result[1]))
            for key in ("schema", "kind", "n", "T", "mvec"):
                assert json.dumps(written[key]) == json.dumps(payload.get(key)), key
            indices = [json.dumps(term["l"]) for term in payload["terms"]]
            assert [json.dumps(term["l"]) for term in written["terms"]] == indices
