"""Serialization of identity documents: JSON round-trip, text, LaTeX."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta import (
    MultiPoly,
    documents,
    __version__,
    UniPoly,
    bernoulli_identity,
    bernoulli_lhs,
    eval_identity_rhs,
    eval_zeta_lhs,
    from_json,
    mzsv_identity,
    mzv_identity,
    mzv_lhs_exact,
    parse_poly,
    poly_latex,
    poly_text,
    to_json,
    to_latex,
    to_text,
    verify_bernoulli,
    verify_identity,
    verify_mzv,
    verify_zeta,
    zeta_identity_monomial,
    zeta_identity_poly,
)

K = UniPoly.x()


def sample_documents():
    F4 = parse_poly("1", 4)
    sq = parse_poly("x1^2 + x2^2 + x3^2 + x4^2", 4)
    return [
        bernoulli_identity((0, 0, 0, 0)),
        bernoulli_identity((2, 0)),
        zeta_identity_monomial((3, 0, 0, 0)),
        mzv_identity(F4, 4),
        mzsv_identity(sq, 4),
    ]


#: One small identity of each kind and weight form.
PER_KIND = pytest.mark.parametrize(
    "identity",
    [
        bernoulli_identity((2, 0, 1)),
        zeta_identity_monomial((2, 0, 1)),
        zeta_identity_poly(parse_poly("x1^2*x2 - 1/3", 2), 2),
        mzv_identity(parse_poly("x1*x2 + x1 + x2", 2), 2),
        mzsv_identity(parse_poly("x1^2 + x2^2 + x3^2", 3), 3),
    ],
    ids=["bernoulli", "zeta-mvec", "zeta-poly", "mzv", "mzsv"],
)


class TestJsonRoundTrip:
    def test_all_kinds(self):
        for doc in sample_documents():
            assert from_json(to_json(doc)) == doc

    def test_payload_shape(self):
        doc = mzv_identity(parse_poly("1", 4), 4)
        payload = json.loads(to_json(doc))
        assert payload["schema"] == 1
        assert payload["kind"] == "mzv"
        assert payload["n"] == 4
        assert payload["T"] == 1
        assert payload["poly"] == "1"
        assert payload["mvec"] is None
        assert payload["terms"][0] == {"l": 0, "coeffs": ["35/64"]}
        assert payload["terms"][1] == {"l": 1, "coeffs": ["-5/16"]}

    def test_coefficients_never_floats(self):
        for doc in sample_documents():
            payload = json.loads(to_json(doc))
            for term in payload["terms"]:
                for coeff in term["coeffs"]:
                    assert isinstance(coeff, str)
                    Fraction(coeff)  # parses exactly

    def test_deterministic(self):
        doc = bernoulli_identity((1, 0))
        assert to_json(doc) == to_json(doc)

    @PER_KIND
    def test_round_trip_per_kind(self, identity):
        assert from_json(to_json(identity)) == identity
        assert to_json(from_json(to_json(identity))) == to_json(identity)


def schema_one_payload(identity):
    """The schema-1 payload of ``identity``, every coefficient written from
    its ``Fraction``: ``json.dumps(payload, indent=2)`` is the layout that
    ``to_json`` writes directly."""
    poly = getattr(identity, "poly", None)
    terms = identity.rhs if identity.kind == "bernoulli" else identity.terms
    return {
        "schema": 1,
        "kind": identity.kind,
        "n": identity.n,
        "T": identity.T,
        "mvec": list(identity.mvec) if identity.mvec is not None else None,
        "poly": poly.render() if poly is not None else None,
        "terms": [
            {"l": l, "coeffs": [f"{c.numerator}/{c.denominator}" for c in p.coeffs]}
            for l, p in enumerate(terms)
        ],
        "tool": f"evenzeta {__version__}",
    }


#: Each kind in each weight form it takes: a rational weight, the zero
#: weight (every term without coefficients), a zero term between nonzero
#: ones (T = 2, terms[2] = 0), and the weight whose top degree cancels.
WRITER_CASES = [
    bernoulli_identity((2, 0, 1)),
    bernoulli_identity((0,)),
    zeta_identity_monomial((3, 0, 0, 0)),
    zeta_identity_poly(parse_poly("x1^2*x2 - 1/3", 2), 2),
    mzv_identity(parse_poly("1/2*x1^2 + 1/2*x2^2 - 2/3", 2), 2),
    mzv_identity(parse_poly("0", 3), 3),
    mzsv_identity(parse_poly("0", 2), 2),
    mzsv_identity(parse_poly("(x1+x2+x3)^3", 3), 3),
    mzv_identity(parse_poly("x1^2+x2^2-4*x1*x2", 2), 2),
    mzsv_identity(parse_poly("x1^2+x2^2-4*x1*x2", 2), 2),
]


class TestWriter:
    """``to_json`` writes the schema-1 layout itself; it must stay byte for
    byte what ``json.dumps(payload, indent=2)`` writes."""

    def test_cases_cover_every_kind_form_and_an_empty_term(self):
        forms = {(identity.kind, identity.mvec is None) for identity in WRITER_CASES}
        assert forms == {("bernoulli", False), ("zeta", False), ("zeta", True), ("mzv", True), ("mzsv", True)}
        assert '"coeffs": []' in to_json(WRITER_CASES[5])
        assert WRITER_CASES[7].terms[2].is_zero() and not WRITER_CASES[7].terms[1].is_zero()

    @pytest.mark.parametrize("identity", WRITER_CASES)
    def test_matches_json_dumps(self, identity):
        assert to_json(identity) == json.dumps(schema_one_payload(identity), indent=2)
        assert from_json(to_json(identity)) == identity

    def test_quotes_only_the_strings(self, monkeypatch):
        original, encoded = json.dumps, []

        def dumps(value, **options):
            assert not options
            encoded.append(value)
            return original(value)

        monkeypatch.setattr(json, "dumps", dumps)
        identity = WRITER_CASES[4]
        to_json(identity)
        assert encoded == ["mzv", identity.poly.render(), f"evenzeta {__version__}"]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(-(10**12), 10**12, max_denominator=10**9)),
            max_size=10,
        )
    )
    def test_coeff_strings_match_fractions(self, coeffs):
        poly = UniPoly(coeffs)
        expected = [f"{c.numerator}/{c.denominator}" for c in poly.coeffs]
        assert documents._coeff_strings(poly) == expected

    def test_coeff_strings_of_zero_and_negative_entries(self):
        poly = UniPoly([Fraction(-3, 6), 0, Fraction(4, 2), Fraction(-5, 3)])
        assert documents._coeff_strings(poly) == ["-1/2", "0/1", "2/1", "-5/3"]


class TestLoadedIdentity:
    """``from_json`` returns the identity itself: it renders and evaluates
    as the built one does."""

    @PER_KIND
    def test_same_type_and_renderings(self, identity):
        loaded = from_json(to_json(identity))
        assert type(loaded) is type(identity)
        assert to_text(loaded) == to_text(identity)
        assert to_latex(loaded) == to_latex(identity)

    @PER_KIND
    def test_passes_its_oracle(self, identity):
        # The check CI runs on every document it builds, at small sizes.
        loaded = from_json(to_json(identity))
        for k in (loaded.n, loaded.n + 1, loaded.n + 2):
            if loaded.kind == "bernoulli":
                assert loaded.rhs_value(k) == bernoulli_lhs(loaded.mvec, k)
                continue
            if loaded.kind == "zeta":
                weight = MultiPoly.monomial(loaded.mvec) if loaded.mvec is not None else loaded.poly
                left = eval_zeta_lhs(weight, loaded.n, k)
            else:
                left = mzv_lhs_exact(loaded.poly, loaded.n, k, star=loaded.kind == "mzsv")
            assert eval_identity_rhs(loaded, k) == left

    def test_poly_and_tool_written_back_in_canonical_form(self):
        payload = json.loads(to_json(mzv_identity(parse_poly("x1 + x2", 2), 2)))
        payload.update(poly="x2 + 1*x1", tool="another tool")
        loaded = from_json(json.dumps(payload))
        assert loaded.poly == parse_poly("x1 + x2", 2)
        assert json.loads(to_json(loaded)) == {**payload, "poly": "x1 + x2", "tool": f"evenzeta {__version__}"}


def corrupted(identity):
    """``identity`` with 1 added to its deepest nonzero term, which enters
    the collapsed side at every k >= n here."""
    field = "rhs" if identity.kind == "bernoulli" else "terms"
    terms = list(getattr(identity, field))
    deepest = max(l for l, term in enumerate(terms) if not term.is_zero())
    assert deepest <= identity.n
    terms[deepest] = terms[deepest] + 1
    return identity.replace(**{field: tuple(terms)})


def weight_of(identity):
    """The weight a zeta, mzv or mzsv identity was built for."""
    return identity.poly if identity.poly is not None else MultiPoly.monomial(identity.mvec)


def kind_checker(identity, k):
    """The public checker of the identity's kind, given the identity."""
    if identity.kind == "bernoulli":
        return verify_bernoulli(identity.mvec, k, identity=identity)
    if identity.kind == "zeta":
        return verify_zeta(weight_of(identity), identity.n, k, identity=identity)
    star = identity.kind == "mzsv"
    return verify_mzv(weight_of(identity), identity.n, k, star=star, identity=identity)


class TestCheckers:
    """``verify_identity`` is the one checker, and each kind's checker
    returns its result: the kind's label and both sides as exact strings."""

    @PER_KIND
    def test_kind_checkers_agree_with_verify_identity(self, identity):
        n = identity.n
        for checked, ok in ((identity, True), (corrupted(identity), False)):
            for k in (n, n + 1, n + 2):
                if checked.kind == "bernoulli":
                    label = f"bernoulli weighted sum m={checked.mvec} k={k}"
                    left, right = bernoulli_lhs(checked.mvec, k), checked.rhs_value(k)
                else:
                    weight = weight_of(checked)
                    label = f"{checked.kind} weighted sum F={weight.render()} n={n} k={k}"
                    if checked.kind == "zeta":
                        left = eval_zeta_lhs(weight, n, k)
                    else:
                        left = mzv_lhs_exact(weight, n, k, star=checked.kind == "mzsv")
                    right = eval_identity_rhs(checked, k)
                result = verify_identity(checked, k)
                assert result == kind_checker(checked, k)
                assert (result.ok, result.label) == (ok, label)
                assert (result.lhs, result.rhs) == (str(left), str(right))

    @pytest.mark.parametrize(
        "check, other",
        [
            (lambda F, identity: verify_zeta(F, 2, 4, identity=identity), zeta_identity_poly),
            (lambda F, identity: verify_mzv(F, 2, 4, identity=identity), mzv_identity),
            (lambda F, identity: verify_mzv(F, 2, 4, star=True, identity=identity), mzsv_identity),
        ],
        ids=["zeta", "mzv", "mzsv"],
    )
    def test_identity_of_another_weight_rejected(self, check, other):
        # Right kind and depth, another weight: the caller's error, not a
        # failed check.
        identity = other(parse_poly("x1*x2", 2), 2)
        with pytest.raises(ValueError, match=r"F=x1\*x2 n=2, not F=x1 \+ x2 n=2"):
            check(parse_poly("x1 + x2", 2), identity)


class TestFromJsonValidation:
    def good_payload(self):
        doc = bernoulli_identity((1, 0))
        return json.loads(to_json(doc))

    def test_wrong_schema(self):
        payload = self.good_payload()
        payload["schema"] = 99
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    def test_unknown_kind(self):
        payload = self.good_payload()
        payload["kind"] = "shuffle"
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    def test_bad_coefficient_string(self):
        payload = self.good_payload()
        payload["terms"][0]["coeffs"] = ["0.5"]
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("coeff", ["\u0663/4", "3/1\u0664", "\uff11", "-\u09e8"])
    def test_non_ascii_digits_rejected(self, coeff):
        # Arabic-Indic, fullwidth and Bengali digits are \d in Python's re
        # and parse as ints, but a coefficient is an ASCII p/q string.
        payload = self.good_payload()
        payload["terms"][0]["coeffs"] = [coeff]
        with pytest.raises(ValueError, match="not an integer or p/q string"):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "change",
        [
            {"n": None},
            {"n": 0},
            {"n": "2"},
            {"T": None},
            {"T": 5},
            {"mvec": [1]},
            {"mvec": [1, 0, 0]},
            {"mvec": "1,0"},
            {"mvec": [-1, 0]},
            {"terms": [], "T": -1},
        ],
        ids=[
            "n-null",
            "n-zero",
            "n-string",
            "T-null",
            "T-too-large",
            "mvec-short",
            "mvec-long",
            "mvec-string",
            "mvec-negative",
            "no-terms",
        ],
    )
    def test_header_fields_validated(self, change):
        payload = self.good_payload()
        payload.update(change)
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "change",
        [{"kind": ["bernoulli"]}, {"kind": {"bernoulli": 1}}, {"schema": True}, {"schema": 1.0}],
        ids=["kind-list", "kind-object", "schema-true", "schema-float"],
    )
    def test_mistyped_schema_or_kind_rejected(self, change):
        payload = self.good_payload()
        payload.update(change)
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    def test_boolean_term_index_rejected(self):
        payload = self.good_payload()
        payload["terms"][0]["l"] = False
        with pytest.raises(ValueError, match="bad entry 0"):
            from_json(json.dumps(payload))

    def test_deeply_nested_json_rejected(self):
        # json.loads recurses once per open bracket.
        with pytest.raises(ValueError, match="nests too deeply"):
            from_json("[" * 100000)

    def test_deeply_nested_poly_rejected(self):
        payload = json.loads(to_json(mzv_identity(parse_poly("x1 + x2", 2), 2)))
        payload["poly"] = "(" * 300 + "x1 + x2" + ")" * 300
        with pytest.raises(ValueError, match="nest deeper"):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("field", ["n", "T"])
    def test_missing_field_rejected(self, field):
        payload = self.good_payload()
        del payload[field]
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "kind, change",
        [
            ("bernoulli", {"poly": 5}),
            ("bernoulli", {"poly": "x1 + x2"}),
            ("zeta", {"mvec": None, "poly": None}),
            ("bernoulli", {"mvec": None, "poly": "x1 + x2"}),
            ("mzv", {"mvec": [0, 0], "poly": None}),
            ("mzsv", {"mvec": [0, 0], "poly": None}),
            ("mzv", {"poly": 5}),
            ("mzv", {"poly": ["x1"]}),
            ("mzv", {"poly": "x1 +"}),
            ("mzv", {"poly": "x3"}),
            ("mzv", {"poly": ""}),
            ("mzv", {"poly": "x1"}),
            ("mzsv", {"poly": "x1^2*x2"}),
        ],
        ids=[
            "both-set",
            "both-set-text",
            "neither-set",
            "bernoulli-without-mvec",
            "mzv-without-poly",
            "mzsv-without-poly",
            "poly-number",
            "poly-list",
            "poly-malformed",
            "poly-beyond-arity",
            "poly-empty",
            "mzv-poly-not-symmetric",
            "mzsv-poly-not-symmetric",
        ],
    )
    def test_weight_fields_validated(self, kind, change):
        if kind == "bernoulli":
            payload = self.good_payload()
        else:
            weight = parse_poly("1", 2)
            build = {"zeta": zeta_identity_poly, "mzv": mzv_identity, "mzsv": mzsv_identity}[kind]
            payload = json.loads(to_json(build(weight, 2)))
        from_json(json.dumps(payload))  # the unchanged payload loads
        payload.update(change)
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("n", [11, 100_000])
    def test_deep_mzv_refused_before_the_weight_is_parsed(self, monkeypatch, n):
        # The symmetry test costs O(n^2), minutes at n = 100,000: the depth
        # limit that the CLI applies must refuse first.
        payload = json.loads(to_json(mzv_identity(parse_poly("1", 2), 2)))
        payload["n"] = n
        monkeypatch.setattr(documents, "parse_poly", None)  # calling it would raise TypeError
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"--n {n} exceeds the limit 10 for mzv"):
            from_json(json.dumps(payload))
        assert time.perf_counter() - start < 0.5

    def test_term_order_enforced(self):
        payload = self.good_payload()
        payload["terms"] = list(reversed(payload["terms"]))
        if len(payload["terms"]) > 1:
            with pytest.raises(ValueError):
                from_json(json.dumps(payload))


class TestPolyText:
    def test_cleared_denominator_form(self):
        assert poly_text((4 * K**3 + 12 * K**2 + 11 * K + 3) / 24) == (
            "(4k^3 + 12k^2 + 11k + 3)/24"
        )
        assert poly_text(-2 * K / 3) == "-2k/3"
        assert poly_text(UniPoly.constant(Fraction(35, 64))) == "35/64"
        assert poly_text(UniPoly.zero()) == "0"
        assert poly_text(K) == "k"

    def test_latex_fraction_form(self):
        assert poly_latex(UniPoly.constant(Fraction(35, 64))) == "\\frac{35}{64}"
        assert poly_latex(2 * K) == "2k"


class TestTextRendering:
    def test_header_and_signs(self):
        doc = mzv_identity(parse_poly("1", 4), 4)
        text = to_text(doc)
        assert "kind   : mzv" in text
        assert "rhs    = 35/64 * zeta(2k)" in text
        assert "- 5/16 * zeta(2)*zeta(2k-2)" in text

    def test_bernoulli_basis_labels(self):
        doc = bernoulli_identity((0, 0, 0, 0))
        text = to_text(doc)
        assert "B(2k)/(2k)!" in text
        assert "B(2k-2)/(2k-2)!" in text


class TestLatexRendering:
    def test_printed_display(self):
        doc = mzv_identity(parse_poly("1", 4), 4)
        latex = to_latex(doc)
        assert "\\frac{35}{64}\\zeta(2k)" in latex
        assert "-\\frac{5}{16}\\zeta(2)\\zeta(2k-2)" in latex

    def test_unit_coefficient_suppressed(self):
        # zeta kind, n = 1, m = 0: single term with coefficient 1.
        doc = zeta_identity_monomial((0,))
        latex = to_latex(doc)
        assert "1\\zeta" not in latex

    def test_deterministic(self):
        for doc in sample_documents():
            assert to_latex(doc) == to_latex(doc)
            assert to_text(doc) == to_text(doc)
