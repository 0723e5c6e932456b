import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalekit.entourages import (Entourage, check_coarse_axioms,
                                 check_uniform_axioms, compose, diagonal,
                                 entourage_of_scale, invert, metric_entourage,
                                 scale_of_entourage, slice_at)
from scalekit.metric import ball_cover
from scalekit.model import InstanceError, builder_grid, builder_line
from scalekit.scales import Cover, refines

LINE = builder_line(12, 1.0)
GRID = builder_grid(4)


def oracle_compose(e, f):
    # all (x, z) joined through some shared middle point
    out = set()
    for (x, y1) in e.pairs:
        for (y2, z) in f.pairs:
            if y1 == y2:
                out.add((x, z))
    return out


def test_pairs_validated():
    with pytest.raises(InstanceError):
        Entourage(LINE, {(0, 99)})


def test_diagonal():
    d = diagonal(LINE)
    assert len(d) == LINE.n
    assert d.contains_diagonal()
    assert d.is_symmetric()


def test_invert_swaps():
    e = Entourage(LINE, {(0, 1), (2, 5)})
    assert invert(e).pairs == frozenset({(1, 0), (5, 2)})
    assert invert(invert(e)) == e


def test_compose_matches_oracle():
    e = Entourage(LINE, {(0, 1), (1, 2), (3, 4)})
    f = Entourage(LINE, {(1, 7), (2, 2), (4, 0)})
    assert compose(e, f).pairs == frozenset(oracle_compose(e, f))


def test_compose_with_diagonal_is_identity():
    e = metric_entourage(LINE, 2.0)
    assert compose(e, diagonal(LINE)) == e
    assert compose(diagonal(LINE), e) == e


def test_metric_entourage_closed_and_open():
    e = metric_entourage(LINE, 1.0)
    assert (0, 1) in e
    assert (0, 2) not in e
    o = metric_entourage(LINE, 1.0, closed=False)
    assert (0, 1) not in o
    assert (3, 3) in o


def test_additivity_bound():
    # composing r- and s-controlled pairs stays (r+s)-controlled
    for r, s in [(1.0, 1.0), (2.0, 3.0)]:
        er = metric_entourage(LINE, r)
        es = metric_entourage(LINE, s)
        assert compose(er, es).issubset(metric_entourage(LINE, r + s))


def test_additivity_bound_tight_on_line():
    er = metric_entourage(LINE, 1.0)
    assert (0, 2) in compose(er, er)


def test_slice_at():
    e = metric_entourage(LINE, 2.0)
    assert slice_at(e, 0) == frozenset({0, 1, 2})
    assert slice_at(e, 6) == frozenset({4, 5, 6, 7, 8})


def test_scale_entourage_round_trip_balls():
    u = ball_cover(LINE, 1.5)
    e = entourage_of_scale(u)
    # pairs connected by the scale are exactly the pairs inside one element
    for (x, y) in e.pairs:
        assert any(x in el and y in el for el in u.elements)
    v = scale_of_entourage(e)
    # slices of the induced entourage recover stars, so u refines v
    assert refines(u, v)


def test_scale_of_entourage_elements_are_slices():
    e = metric_entourage(LINE, 1.0)
    u = scale_of_entourage(e)
    assert u.is_scale()
    assert frozenset({0, 1}) in u.element_set() or \
        frozenset({0, 1, 2}) in u.element_set()


def test_uniform_axioms_pass_and_witnesses():
    base = [metric_entourage(LINE, r) for r in (2.0, 1.0, 0.5)]
    rep = check_uniform_axioms(base)
    assert rep.status
    assert [w["pair"] for w in rep.witnesses] == [[0, 0], [0, 1], [0, 2],
                                                   [1, 1], [1, 2], [2, 2]]
    for w in rep.witnesses:
        h = base[w["half_step"]]
        i, j = w["pair"]
        assert compose(h, h).issubset(base[i]) and compose(h, h).issubset(base[j])


def test_uniform_axioms_square_each_member_once(monkeypatch):
    import scalekit.entourages as ent
    calls = []
    monkeypatch.setattr(ent, "compose", lambda e, f: calls.append(1) or compose(e, f))
    base = [metric_entourage(LINE, r) for r in (4.0, 2.0, 1.0, 0.5)]
    assert check_uniform_axioms(base).status
    assert len(calls) <= len(base)


@pytest.mark.parametrize("other", [builder_line(12, 2.0), builder_line(5, 1.0)],
                         ids=["same-size", "other-size"])
def test_relations_on_different_spaces_are_an_instance_error(other):
    e, f = metric_entourage(LINE, 1.0), metric_entourage(other, 1.0)
    for op in (Entourage.issubset, Entourage.intersection, compose):
        with pytest.raises(InstanceError, match="entourages live on different spaces"):
            op(e, f)


def test_uniform_axioms_fail_no_half():
    base = [metric_entourage(LINE, 1.0)]
    rep = check_uniform_axioms(base)
    assert not rep.status


def test_coarse_axioms_pass():
    base = [metric_entourage(GRID, r) for r in (1.0, 2.0, 4.0)]
    rep = check_coarse_axioms(base)
    assert rep.status


def test_coarse_axioms_fail_composition_escapes():
    base = [metric_entourage(LINE, r) for r in (1.0, 2.0, 4.0)]
    rep = check_coarse_axioms(base)
    assert not rep.status
    assert rep.counterexample["reason"] == "composition not absorbed"
    i, j = rep.counterexample["pair"]
    comp = compose(base[i], base[j])
    assert not any(comp.issubset(m) for m in base)


@settings(deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12),
       st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
def test_compose_oracle_property(pa, pb):
    space = builder_line(9, 1.0)
    e = Entourage(space, pa)
    f = Entourage(space, pb)
    assert compose(e, f).pairs == frozenset(oracle_compose(e, f))


@settings(deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
def test_invert_is_involution(pairs):
    space = builder_line(9, 1.0)
    e = Entourage(space, pairs)
    assert invert(invert(e)) == e
