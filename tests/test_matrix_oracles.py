"""Covers and entourages are stored as bool matrices; these properties pit
every matrix operation against the set-based version it replaced, on seeded
random carriers of 1 to 8 points, with duplicate cover elements allowed."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit.algebra_comm import FunctionFamily, family_ball_cover
from scalekit.entourages import (Entourage, compose, entourage_of_scale,
                                 invert, scale_of_entourage, slice_at)
from scalekit.metric import ball_cover
from scalekit.model import InstanceError, Space, builder_line
from scalekit.scales import Cover, refines, star_family

SEEDED = settings(deadline=None, derandomize=True, max_examples=60)


# -- set-based oracles: the representations the matrices replaced -------------

def oracle_cover(n, elements):
    """Point-by-point validation of the old tuple-of-frozensets cover."""
    elts = []
    for k, e in enumerate(elements):
        e = frozenset(int(i) for i in e)
        if not e:
            raise InstanceError("cover element %d is empty" % k)
        if not all(0 <= i < n for i in e):
            raise InstanceError("cover element %d has out-of-range points" % k)
        elts.append(e)
    if not elts:
        raise InstanceError("a cover needs at least one element")
    return tuple(elts)


def oracle_compose(e, f):
    by_first = {}
    for (y, z) in f:
        by_first.setdefault(y, []).append(z)
    return {(x, z) for (x, y) in e for z in by_first.get(y, ())}


def oracle_slice(pairs, x):
    return frozenset(y for (y, x2) in pairs if x2 == x)


def oracle_entourage_of_scale(elements):
    return {(a, b) for el in elements for a in el for b in el}


def oracle_scale_of_entourage(n, pairs):
    return tuple(oracle_slice(pairs, x) for x in range(n))


def oracle_star(subset, elements):
    out = set(subset)
    for e in elements:
        if e & subset:
            out |= e
    return frozenset(out)


def oracle_refines(u, v):
    return all(any(a <= b for b in v) for a in u)


def oracle_balls(d, r):
    seen, elements = set(), []
    for x in range(d.shape[0]):
        ball = frozenset(np.flatnonzero(d[x] < r).tolist())
        if ball not in seen:
            seen.add(ball)
            elements.append(ball)
    return tuple(elements)


# -- strategies ----------------------------------------------------------------

sizes = st.integers(min_value=1, max_value=8)


@st.composite
def relations(draw):
    n = draw(sizes)
    pairs = st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * n)
    return builder_line(n - 1, 1.0), draw(pairs), draw(pairs)


def element_lists(n, lo=0, hi=None, min_points=1):
    hi = n - 1 if hi is None else hi
    els = st.lists(st.frozensets(st.integers(lo, hi), min_size=min_points,
                                 max_size=n), min_size=1, max_size=6)
    # repeat a drawn element now and then, as star families do
    return els.flatmap(lambda xs: st.sampled_from([xs, xs + xs[:1]]))


@st.composite
def cover_pairs(draw):
    n = draw(sizes)
    space = builder_line(n - 1, 1.0)
    return space, draw(element_lists(n)), draw(element_lists(n))


# -- covers --------------------------------------------------------------------

@SEEDED
@given(sizes.flatmap(lambda n: st.tuples(
    st.just(n), element_lists(n, lo=-1, hi=n, min_points=0))))
def test_cover_validation_matches_oracle(case):
    n, elements = case
    space = builder_line(n - 1, 1.0)
    try:
        want = oracle_cover(n, elements)
    except InstanceError as exc:
        with pytest.raises(InstanceError) as got:
            Cover(space, elements)
        assert str(got.value) == str(exc)
        return
    cov = Cover(space, elements)
    assert cov.elements == want
    assert len(cov) == len(want)
    assert Cover(space, cov.matrix).elements == want


def test_cover_rejects_no_elements():
    with pytest.raises(InstanceError, match="at least one element"):
        Cover(builder_line(0, 1.0), [])


@SEEDED
@given(cover_pairs())
def test_star_family_and_refines_match_oracle(case):
    space, a, b = case
    u, v = Cover(space, a), Cover(space, b)
    eu, ev = oracle_cover(space.n, a), oracle_cover(space.n, b)
    assert star_family(u, v).elements == tuple(oracle_star(e, ev) for e in eu)
    assert refines(u, v) == oracle_refines(eu, ev)
    assert refines(v, u) == oracle_refines(ev, eu)


@SEEDED
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8),
       st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5, 10.0]))
def test_ball_cover_dedupe_matches_oracle(coords, r):
    # repeated coordinates give zero distances and so repeated balls
    x = np.asarray(coords, dtype=float)
    d = np.abs(np.subtract.outer(x, x))
    space = Space(["p%d" % i for i in range(len(coords))], metric=d)
    assert ball_cover(space, r).elements == oracle_balls(d, r)
    fam = FunctionFamily(space, ("x",), x.reshape(1, -1))
    assert family_ball_cover(fam, r).elements == oracle_balls(d, r)


# -- entourages ------------------------------------------------------------------

@SEEDED
@given(relations())
def test_relation_calculus_matches_oracle(case):
    space, a, b = case
    e, f = Entourage(space, a), Entourage(space, b)
    assert e.pairs == a and len(e) == len(a)
    assert all(isinstance(x, int) and isinstance(y, int) for x, y in e.pairs)
    assert compose(e, f).pairs == oracle_compose(a, b)
    assert invert(e).pairs == {(y, x) for (x, y) in a}
    assert e.issubset(f) == (a <= b)
    assert e.intersection(f).pairs == a & b
    assert e.is_symmetric() == all((y, x) in a for (x, y) in a)
    assert e.sorted_pairs() == sorted(a)
    for x in range(space.n):
        assert slice_at(e, x) == oracle_slice(a, x)


@SEEDED
@given(relations())
def test_scale_of_entourage_matches_oracle(case):
    space, a, _ = case
    e = Entourage(space, a)
    if not e.contains_diagonal():
        with pytest.raises(InstanceError):
            scale_of_entourage(e)
        e = Entourage(space, a | {(x, x) for x in range(space.n)})
    assert scale_of_entourage(e).elements == \
        oracle_scale_of_entourage(space.n, e.pairs)


@SEEDED
@given(cover_pairs())
def test_entourage_of_scale_matches_oracle(case):
    space, a, _ = case
    u = Cover(space, a)
    assert entourage_of_scale(u).pairs == oracle_entourage_of_scale(u.elements)
