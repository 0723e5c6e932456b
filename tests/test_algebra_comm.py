import numpy as np
import pytest

from scalekit.algebra_comm import (FunctionFamily, family_ball_cover,
                                   induced_bounded, is_ss_continuous,
                                   separation_blocks, ss_base_from_family,
                                   stone_weierstrass_desk_test)
from scalekit.model import InstanceError, builder_line

LINE8 = builder_line(8, 1.0)


def with_conjugates(fam):
    """The family with its missing conjugates and the constant one
    adjoined, so that the generated algebra is a *-algebra."""
    names, rows = list(fam.names), list(fam.values)
    for name, row in [("one", np.ones(fam.space.n, dtype=complex))] + [
            ("conj(%s)" % nm, np.conj(row)) for nm, row in zip(fam.names, fam.values)]:
        if not any(np.array_equal(row, r) for r in rows):
            names.append(name)
            rows.append(row)
    return FunctionFamily(fam.space, names, np.vstack(rows),
                          constant_at_infinity=fam.constant_at_infinity)


def parity_family(space=LINE8):
    vals = space.values()
    rows = np.stack([np.ones(space.n, dtype=complex),
                     (vals % 2).astype(complex)])
    return FunctionFamily(space, ("one", "parity"), rows)


def test_pseudometric_matches_brute_force():
    fam = parity_family()
    d = fam.pseudometric()
    for x in range(LINE8.n):
        for y in range(LINE8.n):
            want = max(abs(row[x] - row[y]) for row in fam.values)
            assert np.isclose(d[x, y], want)


def test_pseudometric_triangle():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    fam = FunctionFamily(builder_line(7, 1.0), ("a", "b", "c"), rows)
    d = fam.pseudometric()
    n = d.shape[0]
    for k in range(n):
        assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)


def test_separation_blocks_parity():
    fam = parity_family()
    blocks = separation_blocks(fam)
    evens = frozenset(range(0, 9, 2))
    odds = frozenset(range(1, 9, 2))
    assert set(blocks) == {evens, odds}


def test_family_ball_cover_dedup():
    fam = parity_family()
    u = family_ball_cover(fam, 0.5)
    # parity separates only two classes, so two distinct balls
    assert len(u) == 2
    assert u.is_scale()


def test_is_unital_and_conjugation():
    fam = parity_family()
    assert fam.is_unital
    assert fam.conjugation_closed
    rows = np.stack([np.ones(9, dtype=complex),
                     1j * np.arange(9, dtype=complex)])
    im = FunctionFamily(LINE8, ("one", "imag_ramp"), rows)
    assert not im.conjugation_closed
    closed = with_conjugates(im)
    assert closed.conjugation_closed
    assert "conj(imag_ramp)" in closed.names


def test_with_conjugates_adjoins_unit():
    vals = LINE8.values()
    rows = (vals / 8.0).astype(complex)[None, :]
    fam = FunctionFamily(LINE8, ("ramp",), rows)
    assert not fam.is_unital
    grown = with_conjugates(fam)
    assert grown.is_unital
    assert "one" in grown.names


def brute_block_route(fam, probe):
    # accepted iff the probe is constant on every zero-distance class
    for block in separation_blocks(fam):
        vals = [probe[x] for x in sorted(block)]
        if any(abs(v - vals[0]) > 0 for v in vals):
            return False
    return True


@pytest.mark.parametrize("probe_name,expect", [
    ("copy_parity", True),
    ("shifted_parity", True),
    ("identity", False),
])
def test_stone_weierstrass_matches_block_oracle(probe_name, expect):
    fam = parity_family()
    vals = LINE8.values()
    probes = {
        "copy_parity": (vals % 2).astype(complex),
        "shifted_parity": (3.0 - 2.0 * (vals % 2)).astype(complex),
        "identity": vals.astype(complex),
    }
    probe = probes[probe_name]
    rep = stone_weierstrass_desk_test(fam, probe, name=probe_name)
    assert rep.status == expect
    assert brute_block_route(fam, probe) == expect
    if not expect:
        x, y = rep.counterexample["pair"]
        assert rep.counterexample["d_F"] == 0.0
        ix = list(LINE8.points).index(x)
        iy = list(LINE8.points).index(y)
        assert abs(probe[ix] - probe[iy]) > 0


def test_stone_weierstrass_refuses_filtered_carriers():
    from scalekit.catalogues import trunc_nat
    tn = trunc_nat()
    rows = np.ones((1, tn.n), dtype=complex)
    fam = FunctionFamily(tn, ("one",), rows)
    with pytest.raises(InstanceError):
        stone_weierstrass_desk_test(fam, rows[0])


def test_ss_base_from_family_descends():
    fam = parity_family()
    base = ss_base_from_family(fam, (1.0, 0.5, 0.25))
    assert len(base.covers) == 3
    sizes = [len(u) for u in base.covers]
    assert sizes == sorted(sizes)


def test_ss_base_single_radius_warns():
    fam = parity_family()
    base = ss_base_from_family(fam, (1.0,))
    assert any("single radius" in w for w in base.warnings)


def test_is_ss_continuous():
    fam = parity_family()
    base = ss_base_from_family(fam, (1.0, 0.5, 0.25))
    # parity itself is flat on every d_F ball
    rep = is_ss_continuous(fam.member("parity"), base, (1.0, 0.5, 0.25))
    assert rep.status
    vals = LINE8.values().astype(complex)
    rep2 = is_ss_continuous(vals, base, (0.5,))
    assert not rep2.status


def test_induced_bounded_needs_filtration():
    from scalekit.catalogues import trunc_nat
    b = induced_bounded(trunc_nat())
    assert len(b.generators) == 10
    with pytest.raises(InstanceError):
        induced_bounded(LINE8)


def test_family_shape_validation():
    with pytest.raises(InstanceError):
        FunctionFamily(LINE8, ("a",), np.ones((1, 3), dtype=complex))
    with pytest.raises(InstanceError):
        FunctionFamily(LINE8, ("a", "b"), np.ones((1, 9), dtype=complex))
    bad = np.ones((1, 9), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(InstanceError):
        FunctionFamily(LINE8, ("a",), bad)
