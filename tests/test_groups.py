import hashlib
import itertools
import json
import random

import pytest

from iterant_lab import groups, verify
from iterant_lab.groups import (
    Group,
    cycle_string,
    cyclic,
    from_cycles,
    g_table,
    g_table_names,
    klein4,
    matrix_to_perm,
    natural_action,
    perm_matrix,
    regular_action,
    symmetric,
)
from iterant_lab.iterants import period_two_algebra, regular_algebra
from iterant_lab.matrix import SquareMatrix

BUILTINS = ["c2", "c3", "c4", "c6", "c7", "c8", "klein4", "s3"]


def compose(p, q):
    """p first, then q, on image tuples."""
    return tuple(q[i] for i in p)


def test_cyclic_3():
    g = cyclic(3)
    assert g.names == ("1", "S", "S^2")
    s = g.index_of("S")
    assert g.mul(s, g.mul(s, s)) == g.identity


def test_klein4_relations():
    g = klein4()
    a, b, c = g.index_of("A"), g.index_of("B"), g.index_of("C")
    assert g.mul(a, a) == g.identity
    assert g.mul(b, b) == g.identity
    assert g.mul(c, c) == g.identity
    assert g.mul(a, b) == c
    assert g.mul(b, a) == c


def test_s3_relations():
    g = symmetric(3)
    r, f = g.index_of("R"), g.index_of("F")
    assert g.order == 6
    assert g.mul(r, g.mul(r, r)) == g.identity
    assert g.mul(f, f) == g.identity
    # FR = R^2 F (equivalently RF = F R^2), as the multiplication table shows
    r2f = g.index_of("R^2F")
    assert g.mul(f, r) == r2f
    rf = g.index_of("RF")
    assert g.mul(g.mul(f, r), r) == rf


@pytest.mark.parametrize("name", [*(f"c{n}" for n in range(1, 9)), "klein4",
                                  *(f"s{n}" for n in range(1, 5)), "period-two"])
def test_builtin_tables_are_closed_and_associative(name):
    group = period_two_algebra().group if name == "period-two" else groups.builtin_group(name)
    ids = range(group.order)
    assert all(0 <= v < group.order for row in group.table for v in row)
    assert all(group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
               for a, b, c in itertools.product(ids, repeat=3))


@pytest.mark.parametrize("k, names, label", [
    (1, ("1", "e"), "s2"),
    (2, ("1", "A", "B", "C"), "klein4"),
    (3, ("000", "001", "010", "011", "100", "101", "110", "111"), "z2^3"),
    (4, tuple(format(g, "04b") for g in range(16)), "z2^4"),
])
def test_each_xor_group_passes_the_c04_group_and_action_rows(k, names, label):
    # C04 covers Z2 (its period-two rows) and Z2^2 (klein4); the ladders of 5
    # to 8 generators run on Z2^3 and Z2^4, which no C04 row names
    group = groups.xor_group(k)
    assert (group.names, group.label, group is groups.xor_group(k)) == (names, label, True)
    rows = [*verify._group_axioms(label, group),
            *verify._action_law(label, regular_algebra(group).action)]
    results = [verify._evaluate("groups", 0, row) for row in rows]
    assert [(r.check_id, r.passed) for r in results] == [
        (f"C04.{label}-identity-inverses", True), (f"C04.{label}-associativity", True),
        (f"C04.{label}-action", True)]


def test_explicit_valid_table():
    g = Group(("1", "x"), ((0, 1), (1, 0)))
    assert g.order == 2
    assert g.inv(1) == 1


def test_g_table_diagonal_is_identity():
    for name in BUILTINS:
        g = groups.builtin_group(name)
        table = g_table(g)
        assert all(table[i][i] == g.identity for i in range(g.order))


def test_g_table_latin_square():
    for name in BUILTINS:
        g = groups.builtin_group(name)
        table = g_table(g)
        full = set(range(g.order))
        for row in table:
            assert set(row) == full
        for col in zip(*table):
            assert set(col) == full


def test_c6_g_table_row():
    assert g_table_names(cyclic(6))[1] == ["S^5", "1", "S", "S^2", "S^3", "S^4"]


def test_s3_g_table_row():
    assert g_table_names(symmetric(3))[1] == ["R^2", "1", "R", "R^2F", "F", "RF"]


def test_perm_matrix_identity():
    assert perm_matrix((0, 1, 2, 3)) == SquareMatrix.identity(4)


def test_perm_matrix_double_transposition():
    p = from_cycles(4, "(12)(34)")
    expected = SquareMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert perm_matrix(p) == expected


def test_perm_matrix_three_cycle():
    p = from_cycles(3, "(123)")
    expected = SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert perm_matrix(p) == expected


def test_perm_matrix_multiplicative():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 6)
        images = list(range(n))
        rng.shuffle(images)
        p = tuple(images)
        rng.shuffle(images)
        q = tuple(images)
        assert perm_matrix(compose(p, q)) == perm_matrix(p) * perm_matrix(q)


def test_matrix_to_perm_identity():
    assert matrix_to_perm(SquareMatrix.identity(5)) == (0, 1, 2, 3, 4)


def test_matrix_to_perm_klein_b():
    mats = groups.element_matrices_from_g_table(klein4())
    assert cycle_string(matrix_to_perm(mats["B"])) == "(13)(24)"


def test_matrix_to_perm_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        images = list(range(n))
        rng.shuffle(images)
        p = tuple(images)
        assert matrix_to_perm(perm_matrix(p)) == p


def test_matrix_to_perm_rejects_bad_rows():
    bad = SquareMatrix.from_rows([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="row 0"):
        matrix_to_perm(bad)
    with pytest.raises(ValueError):
        matrix_to_perm(SquareMatrix.from_rows([[2, 0], [0, 1]]))


def test_regular_action_cyclic_generator():
    g = cyclic(3)
    action = regular_action(g)
    assert cycle_string(action.point_maps[g.index_of("S")]) == "(123)"


def test_regular_action_identity_element():
    for name in BUILTINS:
        g = groups.builtin_group(name)
        action = regular_action(g)
        assert action.point_maps[g.identity] == tuple(range(g.order))


def test_regular_action_s3_flip_matches_table_matrix():
    g = symmetric(3)
    action = regular_action(g)
    mats = groups.element_matrices_from_g_table(g)
    f = g.index_of("F")
    assert matrix_to_perm(mats["F"]) == action.point_maps[f] == (3, 4, 5, 0, 1, 2)


def test_table_placement_equals_regular_matrices():
    for name in BUILTINS:
        g = groups.builtin_group(name)
        action = regular_action(g)
        mats = groups.element_matrices_from_g_table(g)
        for gid in range(g.order):
            assert mats[g.names[gid]] == action.matrix_of(gid)


def test_regular_action_is_homomorphism():
    for name in BUILTINS:
        g = groups.builtin_group(name)
        maps = regular_action(g).point_maps
        for a, b in itertools.product(range(g.order), repeat=2):
            assert compose(maps[a], maps[b]) == maps[g.mul(a, b)]


def test_cycle_string_roundtrip():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 7)
        images = list(range(n))
        rng.shuffle(images)
        p = tuple(images)
        assert from_cycles(n, cycle_string(p)) == p


@pytest.mark.parametrize("n", range(1, groups.MAX_SYMMETRIC_DEGREE + 1))
def test_from_cycles_reads_back_every_natural_element(n):
    for p in natural_action(n).point_maps:
        assert from_cycles(n, cycle_string(p)) == p


def test_from_cycles_reads_back_the_24_point_regular_action_of_s4():
    maps = regular_action(symmetric(4)).point_maps
    texts = [cycle_string(p) for p in maps]
    assert [from_cycles(24, text) for text in texts] == list(maps)
    # past nine points a comma separates the points: 9 -> 11 is "(9,11)", not "(911)"
    assert texts[1].startswith("(1,2)(3,5)(4,6)(7,8)(9,11)")


def test_cycle_string_writes_no_separator_up_to_nine_points():
    nine_cycle = tuple(range(1, 9)) + (0,)
    assert cycle_string(nine_cycle) == "(123456789)"
    assert from_cycles(9, "(123456789)") == nine_cycle
    ten_cycle = tuple(range(1, 10)) + (0,)
    assert cycle_string(ten_cycle) == "(1,2,3,4,5,6,7,8,9,10)"
    assert from_cycles(10, cycle_string(ten_cycle)) == ten_cycle


@pytest.mark.parametrize("text, message", [
    ("(12)", "out of range"),
    ("(1,2,)", "malformed"),
    ("(,1)", "malformed"),
    ("(9,11,9)", "repeated point"),
    ("(9,10)(10,11)", "share a point"),
])
def test_from_cycles_refuses_separated_text_it_cannot_read(text, message):
    with pytest.raises(ValueError, match=message):
        from_cycles(11, text)


@pytest.mark.parametrize("text, message", [
    ("", "malformed"),
    ("id", "malformed"),
    ("e", "malformed"),
    ("(1,2)", "malformed"),
    ("(1 2)", "malformed"),
    ("(12", "malformed"),
    ("(12)()", "malformed"),
    ("(12)x(3)", "malformed"),
    ("(14)", "out of range"),
    ("(01)", "out of range"),
    ("(121)", "repeated point"),
    ("(12)(23)", "share a point"),
])
def test_from_cycles_refuses_what_cycle_string_never_writes(text, message):
    with pytest.raises(ValueError, match=message):
        from_cycles(3, text)


def test_permutation_composition_is_left_to_right():
    p = from_cycles(3, "(12)")
    q = from_cycles(3, "(23)")
    # point 1 under p then q: 1 -> 2 -> 3
    assert compose(p, q)[0] == 2
    action = natural_action(3)
    a, b = action.point_maps.index(p), action.point_maps.index(q)
    assert action.point_maps[action.group.mul(a, b)] == compose(p, q)


def test_builtin_group_lookup():
    assert groups.builtin_group("C6").order == 6
    assert groups.builtin_group("s4").order == 24
    with pytest.raises(KeyError):
        groups.builtin_group("dihedral5")


def test_symmetric_degree_cap():
    assert groups.symmetric(groups.MAX_SYMMETRIC_DEGREE).order == 720
    with pytest.raises(ValueError, match="exceeds the cap"):
        groups.symmetric(groups.MAX_SYMMETRIC_DEGREE + 1)
    with pytest.raises(ValueError, match="exceeds the cap"):
        groups.natural_action(groups.MAX_SYMMETRIC_DEGREE + 1)


def test_natural_action_is_built_once_per_degree():
    assert groups.natural_action(4) is groups.natural_action(4)


# sha256 of json.dumps(symmetric(6).table), taken when each cell of the
# table was the product of two permutation objects
S6_TABLE_SHA256 = "00f35c0a4e6fc8eca78ad08fd9977d03c2111fac283b32a79b7868be6f95844c"


def test_symmetric_six_table_is_pinned():
    table = symmetric(6).table
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == S6_TABLE_SHA256


def test_identity_is_listed_first_and_inverses_are_read_off_the_table():
    for name in [*BUILTINS, "s4"]:
        g = groups.builtin_group(name)
        assert g.identity == 0 and g.names[0] in ("1", "()")
        assert all(g.mul(a, g.inv(a)) == 0 == g.mul(g.inv(a), a) for a in range(g.order))


def test_cyclic_order_cap_is_the_symmetric_cap():
    assert groups.MAX_GROUP_ORDER == groups.symmetric(groups.MAX_SYMMETRIC_DEGREE).order
    with pytest.raises(ValueError, match="exceeds the cap"):
        cyclic(groups.MAX_GROUP_ORDER + 1)


# sha256 of json.dumps of [names, point_maps] of natural_action(n) for
# n = 1..6, and of the point_maps of the regular actions of REGULAR_PINNED,
# both taken while a permutation was a class wrapping its image tuple
NATURAL_LISTINGS_SHA256 = "d10afa5131cc618ce5e79651ad32e394e6c6784779c20ef1f1ec49196f0dbb5a"
REGULAR_MAPS_SHA256 = "14d41c3ea9fa5be85dd549a42b74d177092b416896b5e63c918de1603bb27078"
REGULAR_PINNED = [*(f"c{n}" for n in range(1, 9)), "klein4", "s3", "s4"]


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_natural_listings_are_pinned():
    listings = [[natural_action(n).group.names, natural_action(n).point_maps]
                for n in range(1, groups.MAX_SYMMETRIC_DEGREE + 1)]
    assert _sha256(listings) == NATURAL_LISTINGS_SHA256


def test_regular_point_maps_are_pinned():
    maps = [regular_action(groups.builtin_group(name)).point_maps for name in REGULAR_PINNED]
    assert _sha256(maps) == REGULAR_MAPS_SHA256


def test_action_degree_is_the_length_of_a_point_map():
    assert natural_action(4).degree == 4
    assert regular_action(symmetric(3)).degree == 6
