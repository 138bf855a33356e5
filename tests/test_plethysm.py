import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethykit.errors import ConsistencyError, LengthExceedsDimension
from plethykit.plethysm import (
    PlethysmInstance,
    SLInstance,
    gl_isomorphic,
    sl_isomorphic,
)

from .reference import character_data, dual, normalize, p_of
from .test_partition import partitions


@st.composite
def sl_examples(draw, max_weight=8, max_d=5):
    d = draw(st.integers(0, max_d))
    lam = draw(partitions(max_weight=max_weight, max_parts=d + 1))
    return SLInstance(lam, d)


@st.composite
def plethysm_instances(draw, max_weight=8, max_delta=6):
    d2 = draw(st.integers(0, max_delta))
    d1 = draw(st.integers(d2, max_delta + d2))
    lam = draw(partitions(max_weight=max_weight, max_parts=d1 - d2 + 1))
    return PlethysmInstance(lam, (d1, d2))


@st.composite
def instance_pairs(draw):
    """Pairs biased toward interesting (isomorphic) cases."""
    kind = draw(st.sampled_from(["random", "same", "hermite", "dual"]))
    if kind == "hermite":
        p = draw(st.integers(1, 5))
        q = draw(st.integers(1, 5))
        return PlethysmInstance((p,), (q, 0)), PlethysmInstance((q,), (p, 0))
    a = draw(plethysm_instances(max_weight=6, max_delta=4))
    if kind == "same":
        return a, a
    if kind == "dual":
        comp = dual(a.sl)
        return a, PlethysmInstance(comp.lam, a.delta)
    return a, draw(plethysm_instances(max_weight=6, max_delta=4))


def test_instance_canonicalization_and_validation():
    assert SLInstance([2, 1, 0], 2).lam == (2, 1)
    assert PlethysmInstance((3, 0), (2, 1)).lam == (3,)
    assert PlethysmInstance((2,), (4, 1)).sl.d == 3
    with pytest.raises(LengthExceedsDimension):
        SLInstance((1, 1), 0)
    with pytest.raises(LengthExceedsDimension):
        PlethysmInstance((1, 1, 1), (3, 2))
    with pytest.raises(ValueError):
        SLInstance((2,), -1)
    with pytest.raises(ValueError):
        PlethysmInstance((2,), (1, 2))
    with pytest.raises(ValueError):
        PlethysmInstance((2,), (1, -1))


def test_instances_reject_coercible_values():
    for d in (True, 1.5, "1"):
        with pytest.raises(ValueError):
            SLInstance((1,), d)
    for delta in ((2.5, 0), (True, 0), (3, 0, 0), "30"):
        with pytest.raises(ValueError):
            PlethysmInstance((1,), delta)
    for obj in ([], {"lambda": [1]}, {"lambda": [1], "d": 1, "delta": [1, 0]}):
        with pytest.raises(ValueError):
            SLInstance.from_json(obj)
    with pytest.raises(ValueError):
        PlethysmInstance.from_json({"lambda": [1], "d": 1})


def test_instance_json_round_trip():
    a = SLInstance((3, 1), 4)
    assert a.to_json() == {"lambda": [3, 1], "d": 4}
    assert SLInstance.from_json(a.to_json()) == a
    b = PlethysmInstance((2, 2), (5, 2))
    assert PlethysmInstance.from_json({"lambda": [2, 2], "delta": [5, 2]}) == b
    assert b.sl == SLInstance((2, 2), 3)


def test_hermite_reciprocity():
    # S_p(S_q(C^2)) and S_q(S_p(C^2)) agree as GL(2)-modules.
    for p in range(1, 6):
        for q in range(1, 6):
            a = PlethysmInstance((p,), (q, 0))
            b = PlethysmInstance((q,), (p, 0))
            assert sl_isomorphic(a.sl, b.sl)
            assert gl_isomorphic(a, b)


def test_sl_but_not_gl():
    # Equal P polynomials but different total weights.
    a = PlethysmInstance((2,), (2, 0))
    b = PlethysmInstance((1, 1), (3, 0))
    assert sl_isomorphic(a.sl, b.sl)
    assert not gl_isomorphic(a, b)


def test_gl_needs_matching_p_not_just_weight():
    a = PlethysmInstance((2,), (3, 1))  # weight product 8, d = 2
    b = PlethysmInstance((2,), (4, 0))  # weight product 8, d = 4
    assert sum(a.delta) * 2 == sum(b.delta) * 2
    assert not gl_isomorphic(a, b)


@given(sl_examples())
def test_sl_isomorphism_is_reflexive(a):
    assert sl_isomorphic(a, a)


@given(sl_examples(), sl_examples())
def test_sl_isomorphism_is_symmetric(a, b):
    assert sl_isomorphic(a, b) == sl_isomorphic(b, a)


@given(sl_examples(), sl_examples(), sl_examples())
@settings(max_examples=60)
def test_sl_isomorphism_is_transitive(a, b, c):
    if sl_isomorphic(a, b) and sl_isomorphic(b, c):
        assert sl_isomorphic(a, c)


def test_normalize_known_values():
    assert normalize(SLInstance((3, 3, 1), 2)) == SLInstance((2, 2), 2)
    assert normalize(SLInstance((2, 2), 1)) == SLInstance((), 1)
    assert normalize(SLInstance((3, 1), 3)) == SLInstance((3, 1), 3)


def test_dual_known_values():
    assert dual(SLInstance((2,), 2)) == SLInstance((2, 2), 2)
    assert dual(SLInstance((3, 1), 2)) == SLInstance((3, 2), 2)
    assert dual(SLInstance((), 4)) == SLInstance((), 4)


@given(sl_examples())
def test_normalize_and_dual_preserve_sl_type(a):
    n = normalize(a)
    assert len(n.lam) <= a.d
    assert sl_isomorphic(a, n)
    assert sl_isomorphic(a, dual(a))
    assert normalize(normalize(a)) == normalize(a)


@given(sl_examples())
def test_dual_is_a_guarded_involution(a):
    if len(a.lam) <= a.d:
        assert dual(dual(a)) == a


def test_character_monomials_known_value():
    cd = character_data(PlethysmInstance((2,), (2, 0)))
    assert cd.weight_exponents == (4, 0)
    assert cd.b_shift == 0
    assert cd.p == p_of((2,), 2)
    # x^4 + x^3 y + 2 x^2 y^2 + x y^3 + y^4
    assert cd.monomials() == {(4, 0): 1, (3, 1): 1, (2, 2): 2, (1, 3): 1, (0, 4): 1}


def test_character_monomials_track_delta2():
    # S_(2) of S_(2,1)(C^2): the square of weights {(2,1), (1,2)}.
    cd = character_data(PlethysmInstance((2,), (2, 1)))
    assert cd.weight_exponents == (4, 2)
    assert cd.b_shift == 0
    assert cd.monomials() == {(4, 2): 1, (3, 3): 1, (2, 4): 1}
    # the exterior square collapses to the single weight (3, 3)
    cd2 = character_data(PlethysmInstance((1, 1), (2, 1)))
    assert cd2.b_shift == 1
    assert cd2.monomials() == {(3, 3): 1}


@given(instance_pairs())
@settings(max_examples=200, deadline=None)
def test_gl_isomorphism_equals_character_equality(pair):
    a, b = pair
    chars_equal = character_data(a).monomials() == character_data(b).monomials()
    assert gl_isomorphic(a, b) == chars_equal


def test_equal_keys_with_odd_weight_degree_gap_are_a_consistency_error():
    # Equal P forces |lam_a|*d_a - |lam_b|*d_b to be even, so only a
    # forged key reaches the check: 1*1 - 1*2 is odd.
    a, b = SLInstance((1,), 1), SLInstance((1,), 2)
    object.__setattr__(a, "key", b.key)
    with pytest.raises(ConsistencyError) as raised:
        sl_isomorphic(a, b)
    assert str(a) in str(raised.value) and str(b) in str(raised.value)


def test_instances_are_frozen_values():
    # == and hash read (lam, d) and (lam, delta) only: the key and sl are
    # derived, so an instance built unchecked, even with a forged key,
    # equals the parse of its fields.
    a = SLInstance([2, 1, 0], 3)
    b = SLInstance._of((2, 1), 3, a.key)
    assert repr(a) == repr(b) == "SLInstance(lam=(2, 1), d=3)"
    assert a == b and hash(a) == hash(b) == hash(((2, 1), 3))
    forged = SLInstance._of((2, 1), 3, 0)
    assert forged == a and hash(forged) == hash(a)
    assert a != SLInstance((2, 1), 4) and a != SLInstance((2,), 3)
    assert a != ((2, 1), 3) and a.__eq__(((2, 1), 3)) is NotImplemented
    p = PlethysmInstance([2, 1, 0], [4, 1])
    assert repr(p) == "PlethysmInstance(lam=(2, 1), delta=(4, 1))"
    assert p == PlethysmInstance((2, 1), (4, 1)) and hash(p) == hash(((2, 1), (4, 1)))
    assert p.sl == a and p != a
    assert p != PlethysmInstance((2, 1), (5, 2))  # the same sl, another delta
    for inst, name in ((a, "lam"), (a, "d"), (a, "key"), (a, "other"), (p, "lam"), (p, "delta"), (p, "sl")):
        with pytest.raises(AttributeError):
            setattr(inst, name, ())
        with pytest.raises(AttributeError):
            delattr(inst, name)
    assert (a.lam, a.d, a.key, p.delta, p.sl) == ((2, 1), 3, b.key, (4, 1), a)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_instances_survive_pickle_and_copy(protocol):
    # One key of each form: the int below hookcontent._SPAN, the tuple above.
    for inst in (SLInstance((2, 1), 3), SLInstance((300,), 1), PlethysmInstance((2, 1), (4, 1))):
        for twin in (pickle.loads(pickle.dumps(inst, protocol)), copy.deepcopy(inst), copy.copy(inst)):
            assert type(twin) is type(inst) and twin == inst and repr(twin) == repr(inst)
            sl, twin_sl = getattr(inst, "sl", inst), getattr(twin, "sl", twin)
            assert twin_sl == sl and twin_sl.key == sl.key
