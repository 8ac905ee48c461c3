"""Tensor products written down from the factors' normal forms.

Four things are pinned here.  The direct build gives the same rows,
basis, normal-form table, kernel tables, signature and hash as
echelonizing the tensor's presentation.  Moving coefficients by basis
position gives what the monomial-keyed loops gave, bit for bit in real
mode, and builds no element per key.  Ring operations on flat rows give
what one coefficient object per key gave.  And the tensor helpers refuse
a tensor of other factors.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from weilkit import algebras
from weilkit.algebras import (
    PRESETS,
    RATIONAL,
    REAL,
    WeilMorphism,
    WeilPresentation,
    _built,
    _exact,
    _real,
    identity_morphism,
    jet_algebra,
    mk_weil_algebra,
    preset_algebra,
    real_line_algebra,
    tensor,
    tensor_inclusions,
    tensor_morphism,
    tensor_pair,
)
from weilkit.errors import AlgebraMismatch, WeilkitError
from weilkit.funcalg import (
    CurriedValue,
    CurryIso,
    Domain,
    WeilPoly,
    block_monomials,
    random_weil_poly,
)
from weilkit.lifting import AssociativityIso, NestedElement, random_nested
from weilkit.polynomials import Monomial, monomials_up_to_degree
from weilkit.samplers import random_morphism, random_weil_algebra

JET = {k: jet_algebra(k) for k in range(1, 7)}
LINE = real_line_algebra()
PRESET = {name: preset_algebra(name) for name in sorted(PRESETS)}
# normal forms of several terms and degrees: NF(x^2) = y^3 + y^4 and
# NF(u^2) = v^3 + v^5, so the product's terms are not in graded-lex order
# when read factor by factor (degrees 6, 8, 7, 9)
SPREAD = (
    mk_weil_algebra(WeilPresentation(("x", "y"), ("x^2 - y^3 - y^4",), 5)),
    mk_weil_algebra(WeilPresentation(("u", "v"), ("u^2 - 2*v^3 - 1/3*v^5",), 6)),
)


def _sampled_pairs(count, seed=2024):
    rng = random.Random(seed)
    return [(random_weil_algebra(rng), random_weil_algebra(rng)) for _ in range(count)]


SAMPLED = _sampled_pairs(150)


def _pairs():
    yield from product(PRESET.values(), repeat=2)
    yield from product(JET.values(), repeat=2)
    yield from ((LINE, JET[3]), (JET[3], LINE), (LINE, LINE), (LINE, PRESET["d2"]))
    yield from (SPREAD, SPREAD[::-1])
    yield from SAMPLED


def _built_directly(pairs, monkeypatch):
    """The tensors of the pairs, built with the intern table empty and the
    echelon switched off, together with the tensors of the triples
    (a, b, c) formed from consecutive pairs, nested both ways."""
    _built.cache_clear()
    with monkeypatch.context() as patch:

        def refuse(*args):
            raise AssertionError("the tensor product echelonized")

        patch.setattr(algebras, "build_reduction_basis", refuse)
        built = [tensor(w1, w2) for w1, w2 in pairs]
        for (a, b), (c, _) in zip(pairs[:24], pairs[1:25]):
            built.append(tensor(tensor(a, b), c))
            built.append(tensor(a, tensor(b, c)))
    return built


def test_direct_build_equals_the_echelon(monkeypatch):
    pairs = list(_pairs())
    assert len(SAMPLED) >= 150
    for t in _built_directly(pairs, monkeypatch):
        reduction, basis, index, table, kernel, sig, sig_hash = _built.__wrapped__(
            t.names, tuple(t.relations), t.order
        )[:7]
        assert t.reduction.rows == reduction.rows, t
        assert t.basis == basis and t.basis_index == index
        assert t._mul_table == table
        assert t._kernel == kernel
        assert t._sig == sig and hash(t) == sig_hash


def test_tensor_of_built_factors_never_echelonizes(monkeypatch):
    w1, w2 = JET[4], PRESET["d2"]
    _built.cache_clear()

    def refuse(*args):
        raise AssertionError("the tensor product echelonized")

    monkeypatch.setattr(algebras, "build_reduction_basis", refuse)
    t = tensor(w1, w2)
    assert t.dimension == w1.dimension * w2.dimension
    assert tensor(t, w1).dimension == t.dimension * w1.dimension


def test_plain_presentation_of_a_tensor_hits_its_entry():
    t = tensor(JET[5], PRESET["d2"])
    again = algebras.WeilAlgebra(t.names, list(t.relations), t.order)
    assert again.reduction is t.reduction and again._mul_table is t._mul_table
    assert repr(again) == repr(t)


def test_repeated_tensor_reuses_embedded_generators():
    w1, w2 = PRESET["d2"], JET[3]
    first, second = tensor(w1, w2), tensor(w1, w2)
    assert all(a is b for a, b in zip(first.relations, second.relations))
    assert first.ideal_generators() == second.ideal_generators()


def test_tensor_checks_the_monomial_cap_before_building(monkeypatch):
    d2 = PRESET["d2"]
    w = tensor(tensor(d2, d2), d2)  # 6 variables at order 4
    calls = []
    monkeypatch.setattr(type(w), "_embedded_generators", lambda *args: calls.append(args))
    # 7 variables at order 10 span comb(16, 7) = 11440 monomials
    with pytest.raises(algebras.ParseError, match="11440 monomials"):
        tensor(w, JET[6])
    assert calls == []


# ---------------------------------------------------------------------------
# the helpers refuse a tensor of other factors


@pytest.mark.parametrize(
    "wrong", [lambda: tensor(JET[3], JET[2]), lambda: jet_algebra(4)], ids=["swapped", "jet4"]
)
def test_tensor_pair_refuses_another_tensor(wrong):
    a, b = JET[2].one(), JET[3].one()
    with pytest.raises(AlgebraMismatch):
        tensor_pair(JET[2], JET[3], a, b, t=wrong())


@pytest.mark.parametrize(
    "wrong", [lambda: tensor(JET[2], JET[2]), lambda: jet_algebra(4)], ids=["other", "jet4"]
)
def test_tensor_inclusions_refuse_another_tensor(wrong):
    with pytest.raises(AlgebraMismatch):
        tensor_inclusions(JET[2], JET[3], t=wrong())


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize(
    "wrong", [lambda: tensor(JET[3], JET[3]), lambda: jet_algebra(4)], ids=["other", "jet4"]
)
def test_tensor_morphism_refuses_another_tensor(side, wrong):
    psi1, psi2 = identity_morphism(JET[2]), identity_morphism(JET[3])
    with pytest.raises(AlgebraMismatch) as raised:
        tensor_morphism(psi1, psi2, **{side: wrong()})
    assert isinstance(raised.value, WeilkitError)


def test_associativity_iso_refuses_another_tensor():
    with pytest.raises(AlgebraMismatch):
        AssociativityIso(JET[2], JET[3], tensor(JET[3], JET[2]))


def test_helpers_accept_the_right_tensor():
    t = tensor(JET[2], JET[3])
    left, right = tensor_inclusions(JET[2], JET[3], t)
    assert isinstance(left, WeilMorphism) and left.target is t
    a, b = JET[2].var_element(0), JET[3].var_element(0)
    assert tensor_pair(JET[2], JET[3], a, b, t) == left.apply(a).mul(right.apply(b))
    psi = tensor_morphism(identity_morphism(JET[2]), identity_morphism(JET[3]), t, t)
    assert psi.acts_same(identity_morphism(t))


def test_tensor_morphism_images_match_substituting_its_psibar():
    # the images written down from the factors' basis images are the ones
    # substituting the tensor's psibar gives, for sampled pairs and for
    # the id_V (x) psi that cross_action builds under a prolongation by V
    rng = random.Random(2022)
    for _ in range(200):
        s1, s2, t1, t2 = (
            random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=6) for _ in range(4)
        )
        psi1, psi2 = random_morphism(rng, s1, t1), random_morphism(rng, s2, t2)
        for factors in ((psi1, psi2), (identity_morphism(s1), psi2)):
            built = tensor_morphism(*factors)
            substituted = WeilMorphism(built.source, built.target, built.psibar)
            assert built._basis_images == substituted._basis_images
            assert built == substituted and hash(built) == hash(substituted)
            assert repr(built) == repr(substituted)


# ---------------------------------------------------------------------------
# coordinates move by position exactly as the monomial-keyed loops moved them


def old_tensor_pair(w1, w2, a, b, t):
    index = t.basis_index
    vec = [0.0 if a.mode == REAL else 0] * t.dimension
    for m1, c1 in zip(w1.basis, a._v):
        if not c1:
            continue
        for m2, c2 in zip(w2.basis, b._v):
            if c2:
                vec[index[Monomial(m1.exponents + m2.exponents)]] = c1 * c2
    if a.mode == REAL:
        return _real(t, vec)
    return _exact(t, vec, a._den * b._den)


def old_assoc_forward(iso, element):
    coords = {}
    for m, inner in element.terms.items():
        for n, c in inner.coords.items():
            coords[Monomial(m.exponents + n.exponents)] = c
    return iso.tensor_algebra.element(coords, element.mode)


def old_assoc_backward(iso, element):
    split = iso.w1.nvars
    grouped = {}
    for mono, c in element.coords.items():
        left = Monomial(mono.exponents[:split])
        right = Monomial(mono.exponents[split:])
        grouped.setdefault(left, {})[right] = c
    coords = {m: iso.w2.element(inner, element.mode) for m, inner in grouped.items()}
    return NestedElement(iso.w1, iso.w2, coords, element.mode)


def old_curry_forward(iso, wp):
    n, ell = iso.inner_nvars, iso.inner_algebra.nvars
    slots = {}
    for mono, coeff in wp.terms.items():
        mu = Monomial(mono.exponents[:n])
        kappa = Monomial(mono.exponents[n:])
        for tau, c in coeff.coords.items():
            nu = Monomial(tau.exponents[:ell])
            xi = Monomial(tau.exponents[ell:])
            slots.setdefault((mu, nu), {}).setdefault(kappa, {})[xi] = c
    built = {
        key: WeilPoly(
            iso.outer_nvars,
            iso.outer_algebra,
            {kappa: iso.outer_algebra.element(coords) for kappa, coords in polys.items()},
        )
        for key, polys in slots.items()
    }
    return CurriedValue(
        iso.inner_nvars, iso.inner_algebra, iso.outer_nvars, iso.outer_algebra, built
    )


def old_curry_backward(iso, value):
    dom = iso.coproduct
    terms = {}
    for (mu, nu), wp in value.terms.items():
        for kappa, element in wp.terms.items():
            mono = Monomial(mu.exponents + kappa.exponents)
            for xi, c in element.coords.items():
                terms.setdefault(mono, {})[Monomial(nu.exponents + xi.exponents)] = c
    return WeilPoly(
        dom.base_arity,
        dom.weil,
        {mono: dom.weil.element(coords) for mono, coords in terms.items()},
    )


def random_vector(rng, algebra, mode):
    """A dense-ish element; real ones include signed zeros and values
    whose products underflow."""
    coords = {}
    for m in algebra.basis:
        if rng.random() < 0.35:
            continue
        if mode == REAL:
            coords[m] = rng.choice((-0.0, rng.uniform(-3, 3), rng.uniform(-1, 1) * 1e-200))
        else:
            coords[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return algebra.element(coords, mode)


def same_element(x, y):
    assert x == y and hash(x) == hash(y)
    assert x.algebra._sig == y.algebra._sig and x.mode == y.mode and x._den == y._den
    if x.mode == REAL:  # == holds across signed zeros; the bits must match too
        assert list(map(float.hex, x._v)) == list(map(float.hex, y._v))
    else:
        assert x._v == y._v


def same_nested(x, y):
    assert x == y and hash(x) == hash(y)
    assert list(x.terms) == list(y.terms)
    for k in x.terms:
        same_element(x.terms[k], y.terms[k])


def rebuilt(value):
    """The value again through its public constructor, which checks,
    from its terms in reverse order, which it must sort."""
    terms = dict(reversed(value.terms.items()))
    if isinstance(value, WeilPoly):
        return WeilPoly(value.nvars, value.algebra, terms)
    if isinstance(value, CurriedValue):
        return CurriedValue(
            value.inner_nvars,
            value.inner_algebra,
            value.outer_nvars,
            value.outer_algebra,
            {key: rebuilt(wp) for key, wp in terms.items()},
        )
    return NestedElement(value.outer, value.scalars, terms, value.mode)


def same_as_rebuilt(value):
    """A value the kernel built without the constructor's checks is the
    one the constructor gives: equal, with the same hash, key order and
    printed text."""
    again = rebuilt(value)
    assert value == again and hash(value) == hash(again)
    assert list(value.terms) == list(again.terms)
    if isinstance(value, CurriedValue):
        for key, wp in value.terms.items():
            assert wp.format() == again.terms[key].format()
            assert list(wp.terms) == list(again.terms[key].terms)
    else:
        assert value.format() == again.format()


REINDEX_PAIRS = [
    SPREAD,
    (JET[2], JET[3]),
    (JET[3], PRESET["d2"]),
    (PRESET["d2"], PRESET["dual"]),
    (LINE, JET[4]),
    (JET[4], LINE),
    *SAMPLED[:18],
]


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
def test_tensor_pair_matches_the_monomial_loop(mode):
    rng = random.Random(31)
    assert len(REINDEX_PAIRS) >= 20
    for w1, w2 in REINDEX_PAIRS:
        t = tensor(w1, w2)
        for _ in range(6):
            a, b = random_vector(rng, w1, mode), random_vector(rng, w2, mode)
            same_element(tensor_pair(w1, w2, a, b, t), old_tensor_pair(w1, w2, a, b, t))


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
def test_associativity_iso_matches_the_monomial_loops(mode):
    rng = random.Random(32)
    for w1, w2 in REINDEX_PAIRS:
        iso = AssociativityIso(w1, w2, tensor(w1, w2))
        for _ in range(6):
            nested = NestedElement(
                w1,
                w2,
                {m: random_vector(rng, w2, mode) for m in w1.basis if rng.random() < 0.6},
                mode,
            )
            flat = iso.forward(nested)
            same_element(flat, old_assoc_forward(iso, nested))
            element = random_vector(rng, iso.tensor_algebra, mode)
            same_nested(iso.backward(element), old_assoc_backward(iso, element))
            same_nested(iso.backward(flat), old_assoc_backward(iso, flat))
            same_as_rebuilt(iso.backward(element))
            same_as_rebuilt(iso.backward(flat))


CURRY_CASES = [(1, w1, 1, w2) for w1, w2 in REINDEX_PAIRS[:16]] + [
    (0, LINE, 1, JET[3]),
    (1, JET[2], 0, LINE),
    (2, PRESET["dual"], 1, JET[2]),
    (1, LINE, 2, PRESET["d2"]),
]


@pytest.mark.parametrize("case", range(len(CURRY_CASES)))
def test_curry_iso_matches_the_monomial_loops(case):
    inner_nvars, inner, outer_nvars, outer = CURRY_CASES[case]
    rng = random.Random(33 + case)
    iso = CurryIso(inner_nvars, inner, outer_nvars, outer)
    dom = iso.coproduct
    monos = list(block_monomials(dom.blocks, 1))
    for _ in range(4):
        wp = WeilPoly(
            dom.base_arity,
            dom.weil,
            {m: random_vector(rng, dom.weil, RATIONAL) for m in monos if rng.random() < 0.7},
        )
        curried = iso.forward(wp)
        expected = old_curry_forward(iso, wp)
        assert curried == expected and hash(curried) == hash(expected)
        assert iso.backward(curried) == old_curry_backward(iso, curried) == wp
        same_as_rebuilt(curried)
        same_as_rebuilt(iso.backward(curried))
        value = CurriedValue(
            inner_nvars,
            inner,
            outer_nvars,
            outer,
            {
                (mu, nu): WeilPoly(
                    outer_nvars,
                    outer,
                    {
                        kappa: random_vector(rng, outer, RATIONAL)
                        for kappa in monomials_up_to_degree(outer_nvars, 1)
                    },
                )
                for mu in monomials_up_to_degree(inner_nvars, 1)
                for nu in inner.basis
                if rng.random() < 0.5
            },
        )
        back = iso.backward(value)
        expected_back = old_curry_backward(iso, value)
        assert back == expected_back and hash(back) == hash(expected_back)
        for mono, coeff in back.terms.items():
            same_element(coeff, expected_back.terms[mono])
        same_as_rebuilt(back)


SKEW_CURRY = CurryIso(1, SPREAD[0], 1, JET[2])
RING_SAMPLERS = {
    WeilPoly: lambda rng: random_weil_poly(rng, Domain(2, SPREAD[0]), 2),
    CurriedValue: lambda rng: SKEW_CURRY.forward(random_weil_poly(rng, SKEW_CURRY.coproduct, 1)),
    NestedElement: lambda rng: random_nested(rng, SPREAD[0], JET[2], RATIONAL),
}


@pytest.mark.parametrize("cls", list(RING_SAMPLERS), ids=lambda cls: cls.__name__)
def test_ring_operation_results_match_the_public_constructor(cls):
    rng = random.Random(34)
    for _ in range(8):
        a, b = RING_SAMPLERS[cls](rng), RING_SAMPLERS[cls](rng)
        assert type(a) is cls
        results = [
            a.add(b),
            a.sub(b),
            a.sub(a),  # every coefficient cancels
            a.neg(),
            a.scale(Fraction(-5, 3)),
            a.scale(0),
            a.mul(b),
        ]
        for result in results:
            same_as_rebuilt(result)
        assert results[2].is_zero() and results[5].is_zero()


# ---------------------------------------------------------------------------
# flat rows against one coefficient object per key


def old_key_product(value, k1, k2):
    if isinstance(value, WeilPoly):
        return ((k1.mul(k2), 1),)
    if isinstance(value, CurriedValue):
        mu = k1[0].mul(k2[0])
        return [((mu, nu), c) for nu, c in value.inner_algebra.basis_product(k1[1], k2[1])]
    return value.outer.basis_product(k1, k2)


def with_terms(like, terms):
    """The value of ``like``'s type and shape with these terms, through
    its public constructor."""
    if isinstance(like, WeilPoly):
        return WeilPoly(like.nvars, like.algebra, terms)
    if isinstance(like, CurriedValue):
        return CurriedValue(
            like.inner_nvars, like.inner_algebra, like.outer_nvars, like.outer_algebra, terms
        )
    return NestedElement(like.outer, like.scalars, terms, like.mode)


# the ring operations as they were written on one coefficient per key: an
# element, or for a curried value the carrier polynomial of a slot, which
# these same loops multiply
def old_add(a, b):
    acc = dict(a.terms)
    for key, c in b.terms.items():
        cur = acc.get(key)
        acc[key] = c if cur is None else coeff_op("add", cur, c)
    return with_terms(a, acc)


def old_scale(a, factor):
    return with_terms(a, {key: coeff_op("scale", c, factor) for key, c in a.terms.items()})


def old_mul(a, b):
    acc = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            prod = coeff_op("mul", c1, c2)
            if prod.is_zero():
                continue
            for key, f in old_key_product(a, k1, k2):
                term = prod if f == 1 else coeff_op("scale", prod, f)
                cur = acc.get(key)
                acc[key] = term if cur is None else coeff_op("add", cur, term)
    return with_terms(a, acc)


def coeff_op(name, c, other):
    if isinstance(c, WeilPoly):
        return {"add": old_add, "scale": old_scale, "mul": old_mul}[name](c, other)
    return getattr(c, name)(other)


def same_flat(x, y):
    """Equal, with the same hash and key order, and coefficient by
    coefficient the same coordinates; float ones bit for bit."""
    assert x == y and hash(x) == hash(y)
    assert list(x.terms) == list(y.terms)
    for key, c in x.terms.items():
        if isinstance(c, WeilPoly):
            same_flat(c, y.terms[key])
        else:
            same_element(c, y.terms[key])


def flat_operands(rng):
    """Pairs of values of each type: carrier polynomials over the
    coproduct of each curry case, their curried images, and nested
    elements in both modes over each reindexing pair."""
    def sparse(keys, algebra, mode):
        return {k: random_vector(rng, algebra, mode) for k in keys if rng.random() < 0.6}

    for inner_nvars, inner, outer_nvars, outer in CURRY_CASES:
        iso = CurryIso(inner_nvars, inner, outer_nvars, outer)
        dom = iso.coproduct
        monos = block_monomials(dom.blocks, 1)
        for _ in range(2):
            n, w = dom.base_arity, dom.weil
            a, b = (WeilPoly(n, w, sparse(monos, w, RATIONAL)) for _ in "ab")
            yield a, b
            yield iso.forward(a), iso.forward(b)
    for w1, w2 in REINDEX_PAIRS:
        for mode in (RATIONAL, REAL):
            yield tuple(NestedElement(w1, w2, sparse(w1.basis, w2, mode), mode) for _ in "ab")


def test_flat_ring_operations_match_one_coefficient_per_key():
    rng = random.Random(36)
    kinds = set()
    for a, b in flat_operands(rng):
        kinds.add((type(a), a.mode))
        same_flat(a.add(b), old_add(a, b))
        same_flat(a.sub(a), old_add(a, old_scale(a, -1)))
        same_flat(a.scale(Fraction(-5, 3)), old_scale(a, Fraction(-5, 3)))
        same_flat(a.scale(0), old_scale(a, 0))
        same_flat(a.mul(b), old_mul(a, b))
    assert len(kinds) == 4


def sparse_mul(a, b):
    """A coefficient product pair by pair in basis order through the
    algebra's ``basis_product``, as the element kernel's sparse reference
    takes it: no kernel table and no row loop."""
    w, acc = a.algebra, {}
    for m1, c1 in a.coords.items():
        for m2, c2 in b.coords.items():
            for m, f in w.basis_product(m1, m2):
                acc[m] = acc.get(m, 0) + c1 * c2 * f
    return w.element(acc, a.mode)


def test_flat_products_match_the_sparse_reference(monkeypatch):
    # the test above multiplies its coefficients by WeilElement.mul, which
    # runs the same row loop as RingCoords.mul; here they multiply apart
    pairs = list(flat_operands(random.Random(38)))
    products = [a.mul(b) for a, b in pairs]
    monkeypatch.setattr(algebras.WeilElement, "mul", sparse_mul)
    for (a, b), product in zip(pairs, products):
        same_flat(product, old_mul(a, b))


@pytest.mark.parametrize("case", range(len(CURRY_CASES)))
def test_regroupings_build_no_element_per_key(case, monkeypatch):
    inner_nvars, inner, outer_nvars, outer = CURRY_CASES[case]
    rng = random.Random(37 + case)
    iso = CurryIso(inner_nvars, inner, outer_nvars, outer)
    dom = iso.coproduct
    assoc = AssociativityIso(inner, outer, tensor(inner, outer))
    wp = WeilPoly(
        dom.base_arity,
        dom.weil,
        {m: random_vector(rng, dom.weil, RATIONAL) for m in block_monomials(dom.blocks, 1)},
    )
    curried = iso.forward(wp)
    nested = [
        NestedElement(inner, outer, {m: random_vector(rng, outer, mode) for m in inner.basis}, mode)
        for mode in (RATIONAL, REAL)
    ]
    flat = [assoc.forward(x) for x in nested]
    built = []
    init = algebras.WeilElement.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(algebras.WeilElement, "__init__", counted)
    assert iso.backward(iso.forward(wp)) == wp
    assert iso.forward(iso.backward(curried)) == curried
    for x, y in zip(nested, flat):
        assert assoc.backward(y) == x
    assert built == []
    # the tensor side is an element: forward builds that one and no other
    for x, y in zip(nested, flat):
        assert assoc.forward(x) == y and len(built) == 1
        built.clear()
