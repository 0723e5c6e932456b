import numpy as np
import pytest

from scalekit.algebra_noncomm import (OperatorMatrix, StarFamily,
                                      chain_cover_operator,
                                      column_pseudometric,
                                      cstar_ss_membership, f_bounded,
                                      ls_from_algebra, operator_norm,
                                      orientation_check, pou_improve,
                                      pou_to_operator, roe_comparison_tests,
                                      ss_from_algebra, ssp_witness_check,
                                      support_entourage)
from scalekit.entourages import compose, metric_entourage
from scalekit.metric import ball_cover, metric_ss_base
from scalekit.model import InstanceError, builder_line
from scalekit.scales import Cover, PartitionOfUnity

LINE = builder_line(7, 1.0)


def shift(space=LINE):
    return OperatorMatrix(space, {(x, x + 1): 1.0 for x in range(space.n - 1)},
                          name="shift")


def interval(space, lo, hi):
    vals = space.values()
    return frozenset(np.flatnonzero((vals >= lo) & (vals <= hi)).tolist())


def test_entries_drop_zeros_and_validate():
    a = OperatorMatrix(LINE, {(0, 1): 0.0, (1, 2): 2.0})
    assert (0, 1) not in a.entries
    with pytest.raises(InstanceError):
        OperatorMatrix(LINE, {(0, 99): 1.0})
    with pytest.raises(InstanceError):
        OperatorMatrix(LINE, {(0, 1): float("nan")})


@pytest.mark.parametrize("entries", [
    pytest.param({(0.5, 1): 1}, id="fractional-position"),
    pytest.param({(1.0, 1): 1}, id="float-position"),
    pytest.param({(True, 1): 1}, id="bool-position"),
    pytest.param({(0, 1, 2): 1}, id="triple-key"),
    pytest.param({(0, 2 ** 70): 1}, id="huge-position"),
    pytest.param({(0, 1): "x"}, id="text-value"),
    pytest.param({(0, 1): "1"}, id="numeric-text-value"),
    pytest.param({(0, 1): True}, id="bool-value"),
    pytest.param({(0, 1): 10 ** 400}, id="huge-value"),
])
def test_entries_must_be_integer_positions_and_numbers(entries):
    with pytest.raises(InstanceError):
        OperatorMatrix(LINE, entries)


@pytest.mark.parametrize("rows", [
    [[1.7, 0, 1, 0]], [[1, 0.5, 1, 0]], [[True, 0, 1, 0]], [[1, 0, "1", 0]],
    [[1, 0, 1, False]], [[1, 0, 1j, 0]], [[1, 0, 1]], [5],
])
def test_triplet_rows_must_be_integers_and_real_numbers(rows):
    with pytest.raises(InstanceError, match="triplet rows"):
        OperatorMatrix.from_triplets(LINE, rows)


def test_from_triplets_accumulates():
    a = OperatorMatrix.from_triplets(LINE, [[1, 0, 1.0, 0.0], [1, 0, 0.5, 0.5]])
    assert a.entry(0, 1) == 1.5 + 0.5j


def test_dense_layout_matches_apply():
    a = shift()
    m = a.dense()
    vec = np.arange(LINE.n, dtype=complex)
    assert np.allclose(m @ vec, a.apply(vec))
    # the shift moves the basis vector at 0 to the basis vector at 1
    e0 = np.zeros(LINE.n, dtype=complex)
    e0[0] = 1.0
    out = a.apply(e0)
    assert out[1] == 1.0 and np.count_nonzero(out) == 1


def test_adjoint_is_conjugate_transpose():
    rng = np.random.default_rng(11)
    entries = {(int(x), int(y)): complex(rng.normal(), rng.normal())
               for x, y in rng.integers(0, LINE.n, size=(12, 2))}
    a = OperatorMatrix(LINE, entries)
    assert np.allclose(a.adjoint().dense(), a.dense().conj().T)
    assert a.adjoint().adjoint().same_entries(a)


def test_product_matches_dense_oracle():
    rng = np.random.default_rng(12)
    ea = {(int(x), int(y)): complex(rng.normal(), rng.normal())
          for x, y in rng.integers(0, LINE.n, size=(10, 2))}
    eb = {(int(x), int(y)): complex(rng.normal(), rng.normal())
          for x, y in rng.integers(0, LINE.n, size=(10, 2))}
    a = OperatorMatrix(LINE, ea)
    b = OperatorMatrix(LINE, eb)
    assert np.allclose((a @ b).dense(), a.dense() @ b.dense())


def test_product_adjoint_reverses():
    a = shift()
    b = OperatorMatrix(LINE, {(x, x): float(x + 1) for x in range(LINE.n)})
    lhs = (a @ b).adjoint().dense()
    rhs = (b.adjoint() @ a.adjoint()).dense()
    assert np.allclose(lhs, rhs)


def test_operator_norm_against_svd():
    rng = np.random.default_rng(13)
    entries = {(int(x), int(y)): complex(rng.normal(), rng.normal())
               for x, y in rng.integers(0, LINE.n, size=(15, 2))}
    a = OperatorMatrix(LINE, entries)
    want = np.linalg.svd(a.dense(), compute_uv=False)[0]
    assert abs(operator_norm(a) - want) < 1e-4


def test_support_entourage_band():
    a = shift()
    e = support_entourage(a)
    assert e.issubset(metric_entourage(LINE, 1.0))
    assert len(e) == LINE.n + (LINE.n - 1)  # diagonal plus one off band


def test_support_entourage_tau_threshold():
    a = OperatorMatrix(LINE, {(0, 1): 0.2, (2, 3): 0.9})
    e = support_entourage(a, tau=0.5)
    assert (2, 3) in e and (0, 1) not in e


def test_orientation_of_products():
    a = shift()
    b = shift()
    assert orientation_check(a, b)
    sq = a @ b
    comp = compose(support_entourage(b), support_entourage(a))
    assert support_entourage(sq).issubset(comp)


def test_star_family_adjoints():
    fam = StarFamily(LINE, ("shift",), (shift(),))
    assert not fam.adjoint_closed
    grown = fam.with_adjoints()
    assert grown.adjoint_closed
    assert "shift*" in grown.names
    assert grown.with_adjoints() is grown or len(grown.with_adjoints().ops) == len(grown.ops)


@pytest.mark.parametrize("members", [
    ("shift",), ("shift", "sym"), ("sym",), ("shift", "shift*"), ("shift", "sym", "diag")])
def test_with_adjoints_states_what_a_recount_finds(members):
    ops = {"shift": shift(), "shift*": shift().adjoint(),
           "sym": OperatorMatrix(LINE, {(0, 1): 2j, (1, 0): -2j, (3, 3): 1.0}, name="sym"),
           "diag": OperatorMatrix(LINE, {(2, 2): 1.0}, name="diag")}
    fam = StarFamily(LINE, members, [ops[m] for m in members])
    grown = fam.with_adjoints()
    # the stated value, set without working it out, and a fresh count
    assert grown.__dict__["adjoint_closed"] is True
    assert StarFamily.adjoint_closed.func(grown) is True
    assert StarFamily(LINE, grown.names, grown.ops).adjoint_closed
    assert fam.adjoint_closed == (len(grown.ops) == len(fam.ops))


def test_f_bounded_takes_no_adjoint_of_a_family_with_adjoints(monkeypatch):
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    monkeypatch.setattr(OperatorMatrix, "adjoint", None)
    assert f_bounded(ball_cover(LINE, 2.0), fam, 3).notes == ()


@pytest.mark.parametrize("budget", [float("nan"), 2.5, True, "3", None, 0, -1])
def test_chain_budgets_and_degree_caps_are_parsed(budget):
    u = Cover(LINE, tuple(interval(LINE, k, k + 1) for k in range(LINE.n - 1)))
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    with pytest.raises(InstanceError, match="chain budget"):
        f_bounded(u, fam, budget)
    with pytest.raises(InstanceError, match="chain budget"):
        ls_from_algebra(u, fam, degree=1, n_max=budget)
    with pytest.raises(InstanceError, match="chain budget"):
        roe_comparison_tests(u, r=1.0, n_max=budget)
    if budget not in (0, -1):
        with pytest.raises(InstanceError, match="degree cap"):
            ls_from_algebra(u, fam, degree=budget, n_max=3)


def test_a_numpy_budget_is_a_plain_int_in_the_witness():
    u = Cover(LINE, tuple(interval(LINE, k, k + 1) for k in range(LINE.n - 1)))
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    rep = f_bounded(u, fam, np.int64(3))
    assert type(rep.witnesses[0]["budget"]) is int
    assert rep.to_payload() == f_bounded(u, fam, 3).to_payload()
    low = f_bounded(u, fam, np.int64(1))
    assert type(low.counterexample["budget"]) is int
    assert ls_from_algebra(u, fam, degree=np.int64(2), n_max=np.int64(3)).witnesses[0][
        "degree_cap"] == 2


def test_adjoint_closure_is_worked_out_once(monkeypatch):
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    cover = ball_cover(LINE, 2.0)
    first = f_bounded(cover, fam, 3)
    calls = []
    real = OperatorMatrix.adjoint

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(OperatorMatrix, "adjoint", counted)
    again = f_bounded(cover, fam, 3)
    assert not calls
    assert again.to_payload() == first.to_payload()


def test_f_bounded_pairs_need_two_points():
    u = Cover(LINE, (interval(LINE, 0, 1), interval(LINE, 2, 4),
                     interval(LINE, 5, 7)))
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    rep = f_bounded(u, fam, 2)
    # the width-3 block needs a 3-point chain, budget 2 fails
    assert not rep.status
    assert rep.counterexample["n"] == 3
    ok = f_bounded(u, fam, 3)
    assert ok.status
    assert ok.witnesses[0]["n"] == 3


def test_f_bounded_all_pairs_cover():
    u = Cover(LINE, tuple(interval(LINE, k, k + 1) for k in range(LINE.n - 1)))
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    rep = f_bounded(u, fam, 2)
    assert rep.status
    assert rep.witnesses[0]["n"] == 2


def test_f_bounded_weak_entries_disconnect():
    weak = OperatorMatrix(LINE, {(x, x + 1): 0.9 for x in range(LINE.n - 1)})
    u = Cover(LINE, (interval(LINE, 0, 1),) +
              tuple(frozenset({k}) for k in range(2, LINE.n)))
    fam = StarFamily(LINE, ("weak",), (weak,)).with_adjoints()
    rep = f_bounded(u, fam, 4)
    # entries below one make no chain steps, the pair cannot be joined
    assert not rep.status
    assert rep.counterexample["reason"] == "no chain inside the element"


def test_f_bounded_one_way_note():
    u = Cover(LINE, tuple(interval(LINE, k, k + 1) for k in range(LINE.n - 1)))
    fam = StarFamily(LINE, ("shift",), (shift(),))
    rep = f_bounded(u, fam, 3)
    assert any("one-way" in n for n in rep.notes)


def test_ls_from_algebra_degree_cap():
    u = Cover(LINE, tuple(interval(LINE, k, k + 1) for k in range(LINE.n - 1)))
    fam = StarFamily(LINE, ("shift",), (shift(),)).with_adjoints()
    rep = ls_from_algebra(u, fam, degree=1, n_max=2)
    assert rep.status
    assert rep.witnesses[0]["degree_cap"] == 1
    assert any("degree cap" in n for n in rep.notes)


def test_column_pseudometric_zero_iff_equal_columns():
    # delta_0 and delta_1 both land on e_0, delta_2 onward land on zero
    a = OperatorMatrix(LINE, {(0, 0): 1.0, (1, 0): 1.0})
    d = column_pseudometric(a)
    assert d[0, 1] == 0
    assert d[2, 3] == 0
    assert d[0, 2] == 1.0
    assert np.allclose(d, d.T) and np.all(np.diag(d) == 0)


def test_ss_from_algebra_and_membership():
    a = shift()
    base = ss_from_algebra(a, (2.0, 1.0, 0.5))
    assert len(base.covers) == 3
    singles = Cover(LINE, tuple(frozenset({k}) for k in range(LINE.n)))
    rep = cstar_ss_membership(singles, StarFamily(LINE, ("shift",), (a,)),
                              (2.0, 1.0, 0.5))
    assert rep.status
    assert rep.witnesses[0]["operator"] == "shift"


def test_cstar_ss_miss_is_family_relative():
    halves = Cover(LINE, (interval(LINE, 0, 3), interval(LINE, 3, 6)))
    rep = cstar_ss_membership(halves, StarFamily(LINE, ("shift",), (shift(),)),
                              (0.5,))
    assert not rep.status
    assert any("relative to the family" in n for n in rep.notes)


def test_pou_to_operator_sends_deltas_to_weight_rows():
    w = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
    phi = PartitionOfUnity(builder_line(3, 1.0), w, index=(0, 2))
    dense = pou_to_operator(phi).dense()
    for x in range(4):
        for j, p in enumerate(phi.index):
            assert dense[p, x] == w[x, j]
    assert np.allclose(dense.sum(axis=0), 1.0)


def test_pou_to_operator_rejects_foreign_labels():
    w = np.array([[1.0], [1.0]])
    phi = PartitionOfUnity(builder_line(1, 1.0), w, index=("a",))
    with pytest.raises(InstanceError):
        pou_to_operator(phi)


@pytest.mark.parametrize("label", [True, 1.0, 2])
def test_pou_to_operator_rejects_labels_that_are_not_point_indices(label):
    w = np.array([[1.0], [1.0]])
    phi = PartitionOfUnity(builder_line(1, 1.0), w, index=(label,))
    with pytest.raises(InstanceError):
        pou_to_operator(phi)


def test_pou_improve_merges_columns():
    space = builder_line(5, 1.0)
    w = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.25, 0.75, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0],
    ])
    phi = PartitionOfUnity(space, w, index=(0, 2, 5))
    psi, rep = pou_improve(phi, [0, 3, 5])
    assert rep.status
    assert psi.index == (0, 3, 5)
    merged, rep2 = pou_improve(phi, [2, 2, 5])
    assert rep2.status
    assert merged.index == (2, 5)
    assert rep2.witnesses[0]["merged"] == 2
    assert np.allclose(merged.weights.sum(axis=1), 1.0)
    with pytest.raises(InstanceError):
        pou_improve(phi, [5, 2, 5])  # 5 is outside the first support


def test_chain_cover_operator_tallies_elements():
    space = builder_line(5, 1.0)
    u = Cover(space, (interval(space, 0, 1), interval(space, 1, 3),
                      interval(space, 3, 5)))
    t = chain_cover_operator(u)
    e1 = np.zeros(space.n, dtype=complex)
    e1[1] = 1.0
    out = t.apply(e1)
    # point 1 sits in two elements, centered at 0 and 1
    assert out[0] == 1.0 and out[1] == 1.0 and out.sum() == 2.0
    with pytest.raises(InstanceError):
        chain_cover_operator(u, centers=[0, 0, 3])


def test_roe_comparison_norm_and_multiplicity():
    space = builder_line(5, 1.0)
    u = Cover(space, (interval(space, 0, 1), interval(space, 2, 3),
                      interval(space, 4, 5)))
    rep = roe_comparison_tests(u, r=1.0, n_max=2)
    assert rep.status
    w = rep.witnesses[0]
    assert w["n"] == 2
    assert abs(float(w["norm"]) - np.sqrt(2.0)) < 1e-4
    assert w["multiplicity"] == 1
    assert w["bound"] == "1"


def test_roe_comparison_rejects_wide_elements():
    space = builder_line(7, 1.0)
    u = Cover(space, (interval(space, 0, 4), interval(space, 4, 7)))
    with pytest.raises(InstanceError):
        roe_comparison_tests(u, r=1.0)


def test_ssp_witness_check():
    space = builder_line(5, 1.0)
    w = np.array([
        [1.0, 0.0],
        [0.75, 0.25],
        [0.5, 0.5],
        [0.25, 0.75],
        [0.0, 1.0],
        [0.0, 1.0],
    ])
    phi = PartitionOfUnity(space, w, index=(0, 4))
    base = metric_ss_base(space, (3.0, 1.0))
    wide = ball_cover(space, 4.0)
    rep = ssp_witness_check(phi, base, wide, (1.0, 0.5))
    assert rep.status
