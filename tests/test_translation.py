import tracemalloc

import numpy as np
import pytest

from scalekit.metric import ball_cover
from scalekit.model import InstanceError, builder_group_window
from scalekit.translation import (GroupWindow, check_translation_ls, translation_scale,
                                  window_group, z_window)


def cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return builder_group_window(table)


S3_TABLE = [
    # permutations of 3 letters listed as e, (12), (13), (23), (123), (132)
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
]


def test_group_window_identity_and_inverse():
    g = GroupWindow(cyclic(4))
    assert g.mul(1, 3) == 0
    assert g.inv(3) == 1
    assert g.identity == 0
    assert g.values is None


def test_translation_scale_z4_frozen():
    g = GroupWindow(cyclic(4))
    u, clipped = translation_scale(g, frozenset({0, 1}))
    assert clipped == 0
    got = sorted(sorted(e) for e in u.elements)
    assert got == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_translation_scale_adjoins_identity_before_translating():
    g = GroupWindow(cyclic(5))
    u, _ = translation_scale(g, frozenset({2}))
    # F gains the identity, so every a lies in its own translate aF
    assert len(u) == 5
    assert u.is_scale()
    for a, el in enumerate(u.elements):
        assert a in el
    assert sorted(sorted(e) for e in u.elements) == \
        [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]


def test_translation_left_invariance():
    # g(hF) is again a translate, so the element set is translation stable
    g = GroupWindow(cyclic(6))
    u, _ = translation_scale(g, frozenset({0, 1, 2}))
    els = u.element_set()
    for a in range(6):
        for el in els:
            moved = frozenset(g.mul(a, x) for x in el)
            assert moved in els


def test_translation_s3_cosets_repeat():
    g = GroupWindow(builder_group_window(S3_TABLE))
    h = frozenset({0, 1})  # the subgroup {e, (12)}
    u, clipped = translation_scale(g, h)
    assert clipped == 0
    assert len(u) == 6  # one translate per group element, duplicates kept
    assert len(u.element_set()) == 3  # but only three distinct left cosets


def test_z_window_clips():
    sp = z_window(10)
    g = window_group(sp)
    assert g.values is not None
    hi = list(sp.points).index("10")
    assert g.mul(hi, hi) is None


def test_z_window_translates_match_balls():
    sp = z_window(10)
    g = window_group(sp)
    u, clipped = translation_scale(g, sp.subset(["-1", "0", "1"]))
    assert clipped == 2  # the two extreme translates fall off the window
    assert u.element_set() == ball_cover(sp, 1.5).element_set()


def test_check_translation_ls_group_passes():
    g = GroupWindow(builder_group_window(S3_TABLE))
    rep = check_translation_ls(g, [frozenset({0, 1}), frozenset({0, 4, 5})])
    assert rep.status
    assert not rep.notes  # no clipping on a genuine group
    # each recorded absorber must coarsen the star it certifies
    from scalekit.scales import refines, star_family
    from scalekit.translation import _closure_candidates
    f_list = [[0, 1], [0, 4, 5]]
    covers = [translation_scale(g, f)[0] for f in f_list]
    named = {name: translation_scale(g, s)[0]
             for name, s, _ in _closure_candidates(g, f_list)}
    assert len(rep.witnesses) == len(covers) ** 2
    for w in rep.witnesses:
        i, j = w["pair"]
        assert refines(star_family(covers[i], covers[j]), named[w["absorber"]])


def test_window_group_refuses_a_space_with_a_group_table():
    # its own product is GroupWindow(space); a window would clip it
    from scalekit.model import Space
    space = Space(["0", "1", "2"], group_table=[[(i + j) % 3 for j in range(3)]
                                                 for i in range(3)])
    assert GroupWindow(space).mul(1, 2) == 0
    with pytest.raises(InstanceError, match=r"GroupWindow\(space\)"):
        window_group(space)


def test_check_translation_ls_window_notes_clipping():
    sp = z_window(10)
    g = window_group(sp)
    rep = check_translation_ls(g, [sp.subset(["-1", "0", "1"])])
    assert rep.status
    assert any("clipped" in note for note in rep.notes)


def test_window_group_requires_integer_labels():
    from scalekit.model import builder_line
    with pytest.raises(InstanceError):
        window_group(builder_line(4, 0.5))


@pytest.mark.parametrize("labels", [["1", "01", "0"], ["0", "-0"]])
def test_window_values_must_be_distinct(labels):
    from scalekit.model import Space
    with pytest.raises(InstanceError, match="distinct"):
        window_group(Space(labels))


@pytest.mark.parametrize("labels", [["0", "99999999999999999999"],
                                    ["0", str(2 ** 62), str(-2 ** 63)]])
def test_window_values_keep_sums_in_int64(labels):
    # 2**62 + 2**62 wraps to -2**63 in int64, so the table would name that
    # label as the sum
    from scalekit.model import Space
    with pytest.raises(InstanceError, match="within"):
        window_group(Space(labels))


def test_window_values_at_the_bound_add_exactly():
    from scalekit.model import Space
    g = window_group(Space(["0", str(2 ** 62), str(-2 ** 62)]))
    assert g.mul(1, 2) == 0 and g.mul(1, 1) is None and g.mul(2, 2) is None


@pytest.mark.parametrize("step", [0, -2, 10])
def test_z_window_level_step_must_leave_a_window(step):
    with pytest.raises(InstanceError, match="no interior window"):
        z_window(10, level_step=step)


def test_check_translation_ls_reads_its_subsets_once():
    g = window_group(z_window(3))
    want = check_translation_ls(g, [[1, 2]]).to_payload()
    assert check_translation_ls(g, (f for f in [[1, 2]])).to_payload() == want
    assert check_translation_ls(g, [iter([1, 2])]).to_payload() == want
    with pytest.raises(InstanceError, match="translate subsets are lists of point indices"):
        check_translation_ls(g, 5)


def test_a_space_without_a_table_or_values_has_no_group():
    with pytest.raises(InstanceError, match="need a multiplication table or window values"):
        GroupWindow(z_window(2))


def test_a_large_window_builds_no_table_of_sums():
    space = z_window(1000)
    tracemalloc.start()
    try:
        g = window_group(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table of the 2001**2 sums alone would take 32 MB
    assert peak < 4 * 2 ** 20
    assert [int(space.points[g.inv(i)]) for i in range(space.n)] == \
        [-int(p) for p in space.points]
