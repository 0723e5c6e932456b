"""End-to-end acceptance battery.

Thirteen criteria, one test and one printed verdict line each.  Everything
is seeded; the whole battery is meant to stay under a minute, with the
random-space axiom sweep alone under five seconds.
"""

import time

import numpy as np

from scalekit.algebra_comm import FunctionFamily, stone_weierstrass_desk_test
from scalekit.algebra_noncomm import (OperatorMatrix, StarFamily, f_bounded,
                                      ls_from_algebra, roe_comparison_tests)
from scalekit.catalogues import (constant_at_infinity_family, halfline,
                                 halfline_structure, membership_catalogue,
                                 oscillation_family, shrink_cover,
                                 t75_catalogue, trunc_nat,
                                 trunc_nat_structure, unit_cover, value_index,
                                 wide_pairs_cover)
from scalekit.duality import (LSQuery, ls_membership, reflectivity_oracle,
                              theorem75_agreement, wright_c0_check)
from scalekit.entourages import entourage_of_scale, scale_of_entourage
from scalekit.instances import bundled
from scalekit.metric import ball_cover, lebesgue_number, mesh, metric_ls_base, metric_ss_base
from scalekit.model import Space, builder_grid, builder_line
from scalekit.oscillation import (SOQuery, build_bump_refuter,
                                  build_scaled_refuter, equivalence_test,
                                  is_slowly_oscillating)
from scalekit.scales import (Cover, PartitionOfUnity, check_ls_base,
                             check_ss_base, refines, star_family, star_set)
from scalekit.algebra_noncomm import pou_improve
from test_matrix_oracles import distance_candidates

SEED = 20240117


def verdict(num, label, ok, detail=""):
    tail = " [%s]" % detail if detail else ""
    print("criterion %02d (%s): %s%s" % (num, label, "PASS" if ok else "FAIL",
                                         tail))
    assert ok


def interval(space, lo, hi):
    vals = space.values()
    return frozenset(np.flatnonzero((vals >= lo) & (vals <= hi)).tolist())


# ---------------------------------------------------------------- criteria 1+2

def floyd_warshall(d):
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


_SPACES = None


def random_spaces():
    """Fifty seeded metric carriers, n <= 40: graph metrics and integer
    chessboard point sets.  Graph diameters are folded under 27 so the
    radius ladder 1,3,9,27 can close at the top."""
    global _SPACES
    if _SPACES is not None:
        return _SPACES
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(50):
        if i % 2 == 0:
            n = int(rng.integers(8, 41))
            d = np.full((n, n), np.inf)
            np.fill_diagonal(d, 0.0)
            for v in range(1, n):
                p = int(rng.integers(0, v))
                d[v, p] = d[p, v] = 1.0
            for _ in range(n // 2):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    d[a, b] = d[b, a] = 1.0
            d = floyd_warshall(d)
            while d.max() >= 27.0:
                a, b = np.unravel_index(int(d.argmax()), d.shape)
                d[a, b] = d[b, a] = 1.0
                d = floyd_warshall(d)
            space = Space(["v%d" % k for k in range(n)], metric=d,
                          metric_kind="graph")
        else:
            m = int(rng.integers(8, 41))
            pts = np.unique(rng.integers(0, 21, size=(m, 2)), axis=0)
            d = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
            space = Space(["p%d,%d" % (x, y) for x, y in pts],
                          metric=d.astype(float), metric_kind="chessboard",
                          coords=[tuple(p) for p in pts])
        out.append(space)
    _SPACES = out
    return out


def test_criterion_01_metric_bases_pass_on_random_spaces():
    t0 = time.perf_counter()
    hits = 0
    for space in random_spaces():
        ls = check_ls_base(metric_ls_base(space, (1.0, 3.0, 9.0, 27.0)))
        ss = check_ss_base(metric_ss_base(space, (3.0, 1.0, 1.0 / 3.0)))
        hits += int(ls.status and ss.status)
    dt = time.perf_counter() - t0
    verdict(1, "metric base axioms on 50 random spaces",
            hits == 50 and dt < 5.0, "%d/50 in %.2fs" % (hits, dt))


def test_criterion_02_ball_star_absorbed_by_triple_radius():
    hits = total = 0
    for space in random_spaces():
        for r in (1.0, 3.0, 9.0):
            b = ball_cover(space, r)
            total += 1
            hits += int(refines(star_family(b, b), ball_cover(space, 3 * r)))
    verdict(2, "st(B_r,B_r) refines B_3r", hits == total,
            "%d/%d" % (hits, total))


# ------------------------------------------------------------------ criterion 3

def oracle_lebesgue(cover):
    space = cover.space
    cands = distance_candidates(space)

    def passes(lam):
        b = ball_cover(space, lam)
        return refines(star_family(b, b), cover)

    if not cands or passes(cands[-1] * 2.0 + 1.0):
        return float("inf")
    passing = [lam for lam in cands if passes(lam)]
    return max(passing) if passing else 0.0


def oracle_mesh(cover):
    space = cover.space
    stars = star_family(cover, cover)
    cands = distance_candidates(space)

    def passes(m):
        return refines(stars, ball_cover(space, m))

    if not cands:
        return 0.0
    if not passes(cands[-1] * 2.0 + 1.0):
        return float("inf")
    failing = [m for m in cands if not passes(m)]
    return max(failing) if failing else 0.0


def test_criterion_03_lebesgue_and_mesh_match_scan_oracle():
    line = builder_line(20, 1.0)
    grid = builder_grid(5)

    def row(i):
        return frozenset(k for k in range(25) if k // 5 == i)

    def col(j):
        return frozenset(k for k in range(25) if k % 5 == j)

    covers = [
        Cover(line, (interval(line, 0, 10), interval(line, 5, 15),
                     interval(line, 10, 20))),
        Cover(line, (interval(line, 0, 20),)),
        Cover(line, tuple(frozenset({k}) for k in range(21))),
        Cover(line, tuple(interval(line, 5 * k, 5 * k + 5) for k in range(4))),
        Cover(line, tuple(interval(line, 7 * k, 7 * k + 9) for k in range(3))),
        Cover(grid, tuple(row(i) for i in range(5))),
        Cover(grid, tuple(col(j) for j in range(5))),
        Cover(grid, (frozenset(range(25)),)),
        Cover(grid, tuple(frozenset({k}) for k in range(25))),
        Cover(grid, tuple(frozenset({k, (k + 1) % 25, (k + 5) % 25})
                          for k in range(25))),
    ]
    exact = 0
    for cov in covers:
        exact += int(lebesgue_number(cov) == oracle_lebesgue(cov)
                     and mesh(cov) == oracle_mesh(cov))
    verdict(3, "lebesgue and mesh equal the candidate-scan oracle",
            exact == len(covers), "%d/%d covers" % (exact, len(covers)))


# ------------------------------------------------------------------ criterion 4

def test_criterion_04_vanishing_cover_acceptance_and_bump_rejection():
    space = halfline()
    b = halfline_structure()
    cat = membership_catalogue()
    shrink, unit = shrink_cover(), unit_cover()
    ok = wright_c0_check(shrink, space).status
    ok = ok and not wright_c0_check(unit, space).status
    ok = ok and ls_membership(LSQuery(shrink, b, cat, (1.0, 0.5, 0.25))).status
    ok = ok and not ls_membership(LSQuery(unit, b, cat, (1.0, 0.5, 0.25))).status
    centers = [value_index(space, v) for v in (10.0, 30.0, 105.0)]
    bump = build_bump_refuter(space, centers, 1.0)
    fam = FunctionFamily(space, ("one", "tent"),
                         np.vstack([np.ones(space.n, dtype=complex),
                                    bump.astype(complex)]))
    rep = ls_membership(LSQuery(unit, b, fam, (1.0, 0.5)))
    ok = ok and not rep.status
    ok = ok and rep.counterexample["function"] == "tent"
    ok = ok and rep.counterexample["eps"] == 0.5
    verdict(4, "vanishing cover in, unit cover out via a half-height bump",
            ok, "refuter bites at eps 0.5")


# ------------------------------------------------------------------ criterion 5

def test_criterion_05_windowed_agreement_on_cover_catalogue():
    cat = t75_catalogue()
    rep = theorem75_agreement([(nm, cov) for nm, cov, _ in cat],
                              trunc_nat_structure(),
                              constant_at_infinity_family(),
                              (1.0, 0.5, 0.25))
    frozen = all(w["induced"] == exp for w, (_, _, exp) in
                 zip(rep.witnesses, cat))
    verdict(5, "induced and controlled verdicts agree on 10 covers",
            rep.status and frozen, "%d covers" % len(rep.witnesses))


# ------------------------------------------------------------------ criterion 6

def test_criterion_06_wide_pair_cover_refuted_ball_cover_kept():
    space = trunc_nat()
    b = trunc_nat_structure()
    base = metric_ls_base(space, (1.0, 3.0))
    fam = constant_at_infinity_family()
    rep = reflectivity_oracle(wide_pairs_cover(), b, base, fam,
                              (1.0, 0.5, 0.25))
    ok = not rep.status and rep.witnesses[0]["route"] == "tent refuter"
    ok = ok and rep.counterexample["membership_confirms"]
    idx = {p: k for k, p in enumerate(space.points)}
    picks = rep.witnesses[0]["picks"]
    tents = build_scaled_refuter(space,
                                 [idx[p["pair"][0]] for p in picks],
                                 [p["radius"] for p in picks])
    exact = all(tents[idx[p["pair"][0]]] - tents[idx[p["pair"][1]]] == 1.0
                for p in picks)
    kept = reflectivity_oracle(ball_cover(space, 2.0), b, base, fam,
                               (1.0, 0.5, 0.25))
    ok = ok and exact and kept.status
    ok = ok and kept.witnesses[0]["verdict"] == "MEMBER-CONSISTENT"
    verdict(6, "wide pair cover refuted with unit witness gaps", ok,
            "%d tents, gap exactly 1" % len(picks))


# ------------------------------------------------------------------ criterion 7

def test_criterion_07_strict_and_relaxed_oscillation_agree():
    space = halfline()
    b = halfline_structure()
    base = (ball_cover(space, 1.0), ball_cover(space, 3.0))
    fam = oscillation_family()
    hits = 0
    for nm in fam.names:
        q = SOQuery(fam.member(nm), base, (1.0, 0.5, 0.25), b, name=nm)
        strict = is_slowly_oscillating(q, form="strict").status
        relaxed = is_slowly_oscillating(q, form="relaxed").status
        hits += int(strict == relaxed and equivalence_test(q).status)
    verdict(7, "strict and relaxed slow oscillation agree",
            hits == len(fam.names), "%d/%d functions" % (hits, len(fam.names)))


# ------------------------------------------------------------------ criterion 8

def test_criterion_08_partition_merge_coarsens_and_star_refines():
    rng = np.random.default_rng(SEED)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        k = int(rng.integers(2, 7))
        w = np.zeros((n, k))
        for x in range(n):
            w[x, int(rng.integers(0, k))] = 1.0
            for _ in range(int(rng.integers(0, 3))):
                w[x, int(rng.integers(0, k))] += rng.random()
        w /= w.sum(axis=1, keepdims=True)
        phi = PartitionOfUnity(builder_line(n - 1, 1.0), w).prune()
        sel = [int(rng.choice(sorted(s))) for s in phi.supports()]
        _, rep = pou_improve(phi, sel)
        wit = rep.witnesses[0]
        hits += int(rep.status and wit["coarsens"] and wit["refines_star"])
    verdict(8, "merged partitions coarsen and refine the star", hits == 100,
            "%d/100" % hits)


# ------------------------------------------------------------------ criterion 9

def test_criterion_09_domino_covers_certified_in_two_points():
    _, cat = bundled("grid6")
    hits = 0
    for cov in cat.covers.values():
        rep = roe_comparison_tests(cov, r=1.0, n_max=2)
        hits += int(rep.status and rep.witnesses[0]["n"] == 2)
    verdict(9, "grid domino covers chained in two points",
            hits == len(cat.covers) and hits > 0,
            "%d covers" % len(cat.covers))


# ----------------------------------------------------------------- criterion 10

def test_criterion_10_certified_covers_obey_mesh_bound():
    rng = np.random.default_rng(SEED)
    certified = bounded_ok = 0
    for i in range(50):
        r = 1 + i % 2
        length = int(rng.integers(10, 21))
        space = builder_line(length, 1.0)
        entries = {}
        for x in range(space.n):
            for step in range(1, r + 1):
                if x + step < space.n and rng.random() < 0.85:
                    entries[(x, x + step)] = float(rng.uniform(1.0, 2.0))
        fam = StarFamily(space, ("a",),
                         (OperatorMatrix(space, entries, name="a"),))
        fam = fam.with_adjoints()
        elements, x = [], 0
        while x < space.n:
            size = int(rng.integers(1, 3 * r + 1))
            elements.append(frozenset(range(x, min(x + size, space.n))))
            x += size
        cover = Cover(space, tuple(elements))
        rep = f_bounded(cover, fam, 8)
        if rep.status:
            certified += 1
            n = rep.witnesses[0]["n"]
            scan_step = 0.5  # candidate grid on a unit line is half-integer
            bounded_ok += int(mesh(cover) <= (n - 1) * r + scan_step + 1e-9)
    verdict(10, "certified covers fit the (n-1)r mesh bound",
            certified >= 20 and bounded_ok == certified,
            "%d certified, all bounded" % certified)


# ----------------------------------------------------------------- criterion 11

def test_criterion_11_membership_stable_under_half_perturbation():
    space, cat = bundled("line20")
    shift = cat.operators["shift"]
    cover = cat.covers["fives"]
    rng = np.random.default_rng(SEED)

    def verdicts(op):
        fam = StarFamily(space, (op.name,), (op,)).with_adjoints()
        return (ls_from_algebra(cover, fam, degree=1, n_max=5).status,
                ls_from_algebra(cover, fam, degree=1, n_max=3).status)

    before = verdicts(shift)
    hits = 0
    for _ in range(20):
        bumped = {k: 2.0 * (v + rng.uniform(-0.49, 0.49))
                  for k, v in shift.entries.items()}
        after = verdicts(OperatorMatrix(space, bumped, name="shift"))
        hits += int(after == before)
    verdict(11, "half-size entry noise plus rescale keeps verdicts",
            before == (True, False) and hits == 20, "20/20 draws")


# ----------------------------------------------------------------- criterion 12

def test_criterion_12_algebra_membership_matches_block_oracle():
    rng = np.random.default_rng(SEED)
    pool = np.array([0.0, 1.0, 2.0, 0.5j], dtype=complex)
    agree = members = 0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        space = builder_line(n - 1, 1.0)
        k = int(rng.integers(1, 4))
        vals = pool[rng.integers(0, len(pool), size=(k, space.n))]
        fam = FunctionFamily(space, tuple("f%d" % j for j in range(k)), vals)
        blocks = {}
        for x in range(space.n):
            blocks.setdefault(tuple(vals[:, x]), []).append(x)
        if rng.random() < 0.5:
            probe = np.empty(space.n, dtype=complex)
            for xs in blocks.values():
                probe[xs] = pool[int(rng.integers(0, len(pool)))]
        else:
            probe = pool[rng.integers(0, len(pool), size=space.n)]
        want = all(len({probe[x] for x in xs}) == 1 for xs in blocks.values())
        got = stone_weierstrass_desk_test(fam, probe).status
        agree += int(got == want)
        members += int(want)
    verdict(12, "algebra membership equals block constancy",
            agree == 200 and 0 < members < 200,
            "200/200, %d members" % members)


# ----------------------------------------------------------------- criterion 13

def test_criterion_13_scale_entourage_round_trip():
    rng = np.random.default_rng(SEED)
    hits = 0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        space = builder_line(n - 1, 1.0)
        k = int(rng.integers(2, 7))
        elements = [set() for _ in range(k)]
        for x in range(space.n):
            elements[int(rng.integers(0, k))].add(x)
            if rng.random() < 0.5:
                elements[int(rng.integers(0, k))].add(x)
        u = Cover(space, tuple(frozenset(e) for e in elements if e))
        back = scale_of_entourage(entourage_of_scale(u))
        want = {star_set(frozenset({x}), u) for x in range(space.n)}
        hits += int(set(back.elements) == want)
    verdict(13, "entourage round trip returns the singleton stars",
            hits == 50, "50/50")
