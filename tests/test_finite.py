import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from tessella.errors import (
    ConditionFails,
    InvalidAlpha,
    InvalidDomain,
    InvalidInput,
    NotFree,
    TooLarge,
)
from tessella.finite import (
    ActionPair,
    Equidecomposition,
    FiniteAction,
    FiniteGroup,
    FiniteMeasureSpace,
    SemidirectSpec,
    brute_force_common_fd_exists,
    check_condition,
    construct_common_fd,
    construct_k_epsilon,
    construct_packing_fds,
    dye_equivalent,
    find_fundamental_domain,
    joint_invariant_partition,
    semidirect_common_fd,
    semidirect_product,
    verify_fundamental_domain,
    verify_packing,
)

import oracles


def shift_perms(n, step, order):
    return [tuple((a + i * step) % n for a in range(n)) for i in range(order)]


def cyclic_pair(n, left_step, left_order, right_step, right_order, weights=None):
    space = FiniteMeasureSpace(weights if weights is not None else [1] * n)
    left = FiniteAction(FiniteGroup.cyclic(left_order), space,
                        shift_perms(n, left_step, left_order), side="left")
    right = FiniteAction(FiniteGroup.cyclic(right_order), space,
                         shift_perms(n, right_step, right_order), side="right")
    return ActionPair(left, right)


def z6_pair():
    # order-2 shift by 3 against order-3 shift by 2 on six atoms
    return cyclic_pair(6, 3, 2, 2, 3)


# ------------------------------------------------------------ verification


def test_half_shift_domain_tiles():
    pair = z6_pair()
    assert verify_fundamental_domain(pair.left, {0, 1, 2}).ok


def test_trivial_group_needs_all_atoms():
    space = FiniteMeasureSpace([1, 2])
    action = FiniteAction(FiniteGroup.trivial(), space, [(0, 1)])
    assert verify_fundamental_domain(action, {0, 1}).ok
    assert not verify_fundamental_domain(action, {0}).ok


def test_overlapping_translates_report_witness():
    pair = z6_pair()
    res = verify_fundamental_domain(pair.left, {0, 3})
    assert not res.ok
    assert res.witness == {"atom": 0, "count": 2}


def test_packing_of_disjoint_singletons():
    pair = z6_pair()
    assert verify_packing(pair.left, [{0}, {1}]).ok


def test_packing_rejects_repeated_set():
    pair = z6_pair()
    assert not verify_packing(pair.left, [{0}, {0}]).ok


def test_packing_rejects_self_overlap():
    pair = z6_pair()
    assert not verify_packing(pair.right, [{0, 2}]).ok


def test_lowest_transversal_is_domain():
    pair = z6_pair()
    assert find_fundamental_domain(pair.left) == {0, 1, 2}
    space = FiniteMeasureSpace([1, 1])
    trivial = FiniteAction(FiniteGroup.trivial(), space, [(0, 1)])
    assert find_fundamental_domain(trivial) == {0, 1}


def test_fixed_point_has_no_domain():
    space = FiniteMeasureSpace([1, 1])
    stuck = FiniteAction(FiniteGroup.cyclic(2), space, [(0, 1), (0, 1)])
    with pytest.raises(NotFree):
        find_fundamental_domain(stuck)


def test_joint_blocks_merge_coprime_shifts():
    assert joint_invariant_partition(z6_pair()) == [(0, 1, 2, 3, 4, 5)]


def test_joint_blocks_trivial_actions_are_singletons():
    pair = cyclic_pair(3, 0, 1, 0, 1)
    assert joint_invariant_partition(pair) == [(0,), (1,), (2,)]


def test_joint_blocks_stay_in_components():
    # shift by 1 inside each pair of atoms, second action trivial
    space = FiniteMeasureSpace([1, 1, 1, 1])
    left = FiniteAction(FiniteGroup.cyclic(2), space,
                        [(0, 1, 2, 3), (1, 0, 3, 2)], side="left")
    right = FiniteAction(FiniteGroup.trivial(), space, [(0, 1, 2, 3)],
                         side="right")
    assert joint_invariant_partition(ActionPair(left, right)) == [(0, 1), (2, 3)]


# -------------------------------------------------------- condition check


def test_condition_holds_at_one_plus_half():
    rep = check_condition(z6_pair(), {0, 1, 2}, {0, 1}, k=1, eps=Fraction(1, 2))
    assert rep.ok
    assert len(rep.blocks) == 1
    assert rep.blocks[0].x_measure == 3
    assert rep.blocks[0].y_measure == 2


def test_condition_trivially_holds_on_equal_domains():
    pair = cyclic_pair(6, 3, 2, 3, 2)
    assert check_condition(pair, {0, 1, 2}, {0, 1, 2}, k=1, eps=0).ok


def test_condition_fails_for_large_k():
    rep = check_condition(z6_pair(), {0, 1, 2}, {0, 1}, k=2, eps=0, mode="geq")
    assert not rep.ok


def test_condition_rejects_invalid_domain():
    with pytest.raises(InvalidDomain):
        check_condition(z6_pair(), {0, 3}, {0, 1}, k=1, eps=0)


# ------------------------------------------------------------ construction


def test_packing_domains_lowest_solution():
    fs = construct_packing_fds(z6_pair(), {0, 1, 2}, {0, 1}, k=1)
    assert fs == [frozenset({0, 1})]


def test_packing_domains_trivial_left():
    space = FiniteMeasureSpace([1] * 6)
    left = FiniteAction(FiniteGroup.trivial(), space, [tuple(range(6))],
                        side="left")
    right = FiniteAction(FiniteGroup.cyclic(3), space, shift_perms(6, 2, 3),
                         side="right")
    pair = ActionPair(left, right)
    fs = construct_packing_fds(pair, set(range(6)), {0, 1}, k=1)
    assert fs == [frozenset({0, 1})]
    assert verify_fundamental_domain(pair.right, fs[0]).ok


def test_packing_domains_condition_failure():
    with pytest.raises(ConditionFails):
        construct_packing_fds(z6_pair(), {0, 1, 2}, {0, 1}, k=2)


def test_k_epsilon_splits_remainder():
    fs, feps = construct_k_epsilon(z6_pair(), {0, 1, 2}, {0, 1},
                                   k=1, eps=Fraction(1, 2))
    assert fs == [frozenset({0, 1})]
    assert feps == frozenset({2})
    union = fs[0] | feps
    assert verify_fundamental_domain(z6_pair().left, union).ok


def test_k_epsilon_zero_eps_matches_packing():
    pair = cyclic_pair(6, 3, 2, 3, 2)
    fs, feps = construct_k_epsilon(pair, {0, 1, 2}, {0, 1, 2}, k=1, eps=0)
    assert feps == frozenset()
    assert fs == construct_packing_fds(pair, {0, 1, 2}, {0, 1, 2}, k=1)


def test_k_epsilon_frozen_on_two_blocks():
    # shifts by 6 and by 4 on twelve atoms: the joint blocks are the even
    # and the odd atoms; |Lambda| / |Gamma| = 3/2, so k = 1, eps = 1/2
    pair = cyclic_pair(12, 6, 2, 4, 3, weights=[1, 2] * 6)
    assert len(joint_invariant_partition(pair)) == 2
    fs, feps = construct_k_epsilon(pair, range(6), range(4),
                                   k=1, eps=Fraction(1, 2))
    assert fs == [frozenset({0, 1, 2, 3})]
    assert feps == frozenset({4, 5})
    assert construct_packing_fds(pair, range(6), range(4), k=1) == fs


def test_k_epsilon_two_singleton_domains():
    pair = cyclic_pair(4, 2, 2, 1, 4)
    fs, feps = construct_k_epsilon(pair, {0, 1}, {0}, k=2, eps=0)
    assert feps == frozenset()
    assert sorted(map(sorted, fs)) == [[0], [1]]
    for f in fs:
        assert verify_fundamental_domain(pair.right, f).ok


def test_common_domain_identical_actions():
    pair = cyclic_pair(6, 3, 2, 3, 2)
    assert construct_common_fd(pair, {0, 1, 2}, {0, 1, 2}) == {0, 1, 2}


def test_common_domain_crossed_involutions():
    # +3 against the involution (0 2)(1 4)(3 5); they commute
    space = FiniteMeasureSpace([1] * 6)
    left = FiniteAction(FiniteGroup.cyclic(2), space, shift_perms(6, 3, 2),
                        side="left")
    right = FiniteAction(FiniteGroup.cyclic(2), space,
                         [(0, 1, 2, 3, 4, 5), (2, 4, 0, 5, 1, 3)],
                         side="right")
    pair = ActionPair(left, right)
    D = construct_common_fd(pair, {0, 1, 2}, {0, 1, 3})
    assert verify_fundamental_domain(pair.left, D).ok
    assert verify_fundamental_domain(pair.right, D).ok


def test_common_domain_obstructed_pair():
    with pytest.raises(ConditionFails):
        construct_common_fd(z6_pair(), {0, 1, 2}, {0, 1})


# ---------------------------------------------------------------- transport


def test_transport_identity_plan():
    pair = z6_pair()
    plan = dye_equivalent(pair.left, {0, 1}, {0, 1})
    assert plan is not None
    assert plan.pieces == ((frozenset({0, 1}), 0),)


def test_transport_single_move():
    pair = z6_pair()
    plan = dye_equivalent(pair.left, {0}, {3})
    assert plan is not None
    assert plan.pieces == ((frozenset({0}), 1),)


def test_transport_absent_across_orbits():
    pair = z6_pair()
    assert dye_equivalent(pair.left, {0}, {1}) is None


def test_transport_characterizes_domains():
    # a set is a fundamental domain exactly when it transports onto one
    pair = z6_pair()
    X = find_fundamental_domain(pair.left)
    rng = random.Random(5)
    for _ in range(40):
        F = {a for a in range(6) if rng.random() < 0.5}
        plan = dye_equivalent(pair.left, F, X)
        assert (plan is not None) == verify_fundamental_domain(pair.left, F).ok


def test_transport_plan_validation_catches_tampering():
    pair = z6_pair()
    plan = dye_equivalent(pair.left, {0}, {3})
    bad = Equidecomposition(plan.pieces, frozenset({0, 1}), plan.target)
    with pytest.raises(InvalidInput):
        bad.validate(pair.left)


# -------------------------------------------------------- group validation

# An order-5 loop: identity 0, every element its own inverse, and
# (1*2)*2 = 3*2 = 4 while 1*(2*2) = 1*0 = 1.
NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

S3 = list(permutations(range(3)))
BASE_TABLES = [FiniteGroup.cyclic(n).table for n in range(1, 7)] + [
    [[a ^ b for b in range(4)] for a in range(4)],
    [[S3.index(tuple(p[q[i]] for i in range(3))) for q in S3] for p in S3],
]


def relabel(table, sigma):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


@st.composite
def near_group_tables(draw):
    """A relabelled group table with up to two pairs of entries swapped in
    a row. A swap away from the identity's row, column and entries keeps
    identity and inverses, so then only associativity can fail."""
    base = draw(st.sampled_from(BASE_TABLES))
    n = len(base)
    sigma = draw(st.permutations(range(n)))
    table = relabel(base, sigma)
    others = [x for x in range(n) if x != sigma[0]]
    for _ in range(draw(st.integers(0, 2))):
        if others and draw(st.booleans()):
            r = draw(st.sampled_from(others))
            cols = [c for c in others if table[r][c] != sigma[0]]
            if len(cols) < 2:
                continue
            c1, c2 = draw(st.permutations(cols))[:2]
        else:
            r, c1, c2 = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
    return table


def test_non_associative_loop_is_rejected():
    assert oracles.brute_group_error(NON_ASSOCIATIVE_LOOP) == \
        "multiplication table is not associative"
    with pytest.raises(InvalidInput, match="^multiplication table is not associative$"):
        FiniteGroup(NON_ASSOCIATIVE_LOOP)


def test_associativity_is_tested_on_every_generator():
    # greedy generators (1, 2); (a*1)*c = a*(1*c) holds for all a, c, and
    # the generator 2 exposes (1*2)*4 = 4*4 = 2 against 1*(2*4) = 1*5 = 3.
    table = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
             [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 2, 3], [5, 4, 2, 3, 1, 0]]
    assert all(table[table[a][1]][c] == table[a][table[1][c]]
               for a in range(6) for c in range(6))
    assert oracles.brute_group_error(table) == "multiplication table is not associative"
    with pytest.raises(InvalidInput, match="^multiplication table is not associative$"):
        FiniteGroup(table)


def test_action_law_is_checked_on_every_generator():
    # Klein four-group, generators (1, 2): perm(1) = P and perm(2) = Q are
    # involutions and perm(3) = Q o P, so the law holds for s = 1; it fails
    # for s = 2 because P and Q do not commute.
    klein = [[a ^ b for b in range(4)] for a in range(4)]
    assert FiniteGroup(klein).generators == (1, 2)
    P, Q = (1, 0, 2), (0, 2, 1)
    perms = [(0, 1, 2), P, Q, tuple(Q[P[a]] for a in range(3))]
    assert oracles.brute_action_error(klein, perms, "left") == \
        "perm map is not a homomorphism"
    with pytest.raises(InvalidInput, match="^perm map is not a homomorphism$"):
        FiniteAction(FiniteGroup(klein), FiniteMeasureSpace([1] * 3), perms)


def test_trivial_group_needs_the_identity_permutation():
    perms = [(1, 0)]
    for side, kind in (("left", "homomorphism"), ("right", "anti-homomorphism")):
        assert oracles.brute_action_error([[0]], perms, side) == \
            f"perm map is not a {kind}"
        with pytest.raises(InvalidInput, match=f"^perm map is not a {kind}$"):
            FiniteAction(FiniteGroup.trivial(), FiniteMeasureSpace([1, 1]), perms,
                         side=side)


def test_generators_reach_every_element():
    for table in BASE_TABLES:
        g = FiniteGroup(table)
        reached = {g.identity}
        frontier = [g.identity]
        while frontier:
            a = frontier.pop()
            for s in g.generators:
                if g.mul(a, s) not in reached:
                    reached.add(g.mul(a, s))
                    frontier.append(g.mul(a, s))
        assert reached == set(range(len(g)))
    assert FiniteGroup.cyclic(6).generators == (1,)
    assert FiniteGroup.trivial().generators == ()


@given(near_group_tables())
def test_group_validation_matches_brute_force(table):
    expected = oracles.brute_group_error(table)
    try:
        FiniteGroup(table)
    except InvalidInput as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@st.composite
def regular_actions(draw):
    """The left or right regular action of a small group, relabelled by a
    random atom permutation, with up to two extra fixed atoms and perhaps
    one permutation replaced by any permutation of all the atoms."""
    table = draw(st.sampled_from(BASE_TABLES))
    n = len(table)
    side = draw(st.sampled_from(["left", "right"]))
    tau = draw(st.permutations(range(n)))
    if side == "left":
        perms = [[table[g][a] for a in range(n)] for g in range(n)]
    else:
        perms = [[table[a][g] for a in range(n)] for g in range(n)]
    fixed = tuple(range(n, n + draw(st.integers(0, 2))))
    perms = [tuple(tau[p[a]] for a in tau_inverse(tau)) + fixed for p in perms]
    if draw(st.booleans()):
        perms[draw(st.integers(0, n - 1))] = tuple(
            draw(st.permutations(range(n + len(fixed)))))
    return table, perms, side


def tau_inverse(tau):
    inv = [0] * len(tau)
    for a, b in enumerate(tau):
        inv[b] = a
    return inv


@given(regular_actions())
def test_action_validation_matches_brute_force(case):
    table, perms, side = case
    expected = oracles.brute_action_error(table, perms, side)
    space = FiniteMeasureSpace([1] * len(perms[0]))
    try:
        FiniteAction(FiniteGroup(table), space, perms, side=side)
    except InvalidInput as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@given(st.sampled_from(BASE_TABLES), st.data())
def test_commutation_check_matches_brute_force(table, data):
    n = len(table)
    group = FiniteGroup(table)
    space = FiniteMeasureSpace([1] * n)
    left = FiniteAction(group, space, [[table[g][a] for a in range(n)]
                                       for g in range(n)])
    tau = data.draw(st.permutations(range(n)))
    right_perms = [tuple(tau[table[a][g]] for a in tau_inverse(tau)) for g in range(n)]
    right = FiniteAction(group, space, right_perms, side="right")
    if oracles.brute_commute(left.perms, right.perms):
        ActionPair(left, right)
    else:
        with pytest.raises(InvalidInput, match="^the two actions do not commute$"):
            ActionPair(left, right)


# ---------------------------------------------------------------- semidirect


def inversion_alpha(n):
    """Order-2 automorphism action of a cyclic group on cyclic(n)."""
    ident = tuple(range(n))
    inv = tuple((-x) % n for x in range(n))
    return ident, inv


def test_semidirect_trivial_alpha_is_direct_product():
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    spec = SemidirectSpec(z2, z3, [tuple(range(3))] * 2)
    g = semidirect_product(spec)
    for l1 in range(2):
        for g1 in range(3):
            for l2 in range(2):
                for g2 in range(3):
                    got = g.mul(g.pair_index(l1, g1), g.pair_index(l2, g2))
                    assert g.parts(got) == ((l1 + l2) % 2, (g1 + g2) % 3)


def test_semidirect_inversion_gives_dihedral():
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    spec = SemidirectSpec(z2, z3, inversion_alpha(3))
    g = semidirect_product(spec)
    assert len(g) == 6
    r = g.pair_index(0, 1)
    s = g.pair_index(1, 0)
    assert g.mul(s, g.mul(r, s)) == g.inv(r)
    assert g.mul(r, s) != g.mul(s, r)


def test_semidirect_trivial_lambda_is_gamma():
    z1, z4 = FiniteGroup.cyclic(1), FiniteGroup.cyclic(4)
    spec = SemidirectSpec(z1, z4, [tuple(range(4))])
    assert semidirect_product(spec).table == z4.table


def test_alpha_must_be_automorphism():
    z2, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    squash = tuple((2 * x) % 4 for x in range(4))
    with pytest.raises(InvalidAlpha):
        SemidirectSpec(z2, z4, [tuple(range(4)), squash])


def regular_action(group):
    space = FiniteMeasureSpace([1] * len(group))
    perms = [tuple(group.mul(g, a) for a in range(len(group)))
             for g in range(len(group))]
    return FiniteAction(group, space, perms, side="left")


def test_semidirect_domain_trivial_alpha_matches_commuting_route():
    z2 = FiniteGroup.cyclic(2)
    spec = SemidirectSpec(z2, z2, [tuple(range(2))] * 2)
    g = semidirect_product(spec)
    action = regular_action(g)
    X = frozenset({g.pair_index(0, 0), g.pair_index(1, 0)})
    Y = frozenset({g.pair_index(0, 0), g.pair_index(0, 1)})
    D = semidirect_common_fd(action, X, Y)
    gamma = FiniteAction(
        spec.gamma_group, action.space,
        [action.perms[g.pair_index(0, x)] for x in range(2)], side="left")
    lam = FiniteAction(
        spec.lambda_group, action.space,
        [action.perms[g.pair_index(l, 0)] for l in range(2)], side="left")
    pair = ActionPair(gamma, lam)
    assert D == construct_common_fd(pair, X, Y)


def test_semidirect_domain_regular_dihedral_is_obstructed():
    # the two restrictions have domains of different measure, so the
    # equal-measure condition fails on the (invariant) whole space
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    g = semidirect_product(SemidirectSpec(z2, z3, inversion_alpha(3)))
    action = regular_action(g)
    X = frozenset({g.pair_index(0, 0), g.pair_index(1, 0)})
    Y = frozenset({g.pair_index(0, x) for x in range(3)})
    with pytest.raises(ConditionFails):
        semidirect_common_fd(action, X, Y)


def test_semidirect_domain_nontrivial_alpha():
    # order-4 on order-4, alpha(l) = inversion^l; equal restriction orders
    z4 = FiniteGroup.cyclic(4)
    ident, inv = inversion_alpha(4)
    spec = SemidirectSpec(z4, z4, [ident, inv, ident, inv])
    g = semidirect_product(spec)
    action = regular_action(g)
    X = frozenset(g.pair_index(l, 0) for l in range(4))
    Y = frozenset(g.pair_index(0, x) for x in range(4))
    D = semidirect_common_fd(action, X, Y)
    gamma = FiniteAction(
        spec.gamma_group, action.space,
        [action.perms[g.pair_index(0, x)] for x in range(4)], side="left")
    lam = FiniteAction(
        spec.lambda_group, action.space,
        [action.perms[g.pair_index(l, 0)] for l in range(4)], side="left")
    assert verify_fundamental_domain(gamma, D).ok
    assert verify_fundamental_domain(lam, D).ok


# ------------------------------------------------------------------ oracle


def test_brute_oracle_agrees_with_subset_scan():
    pair = z6_pair()
    got = brute_force_common_fd_exists(pair)
    ref = oracles.brute_common_fd(
        pair.left.perms, pair.right.perms, pair.space.weights)
    assert got == (ref is not None)
    assert got is False


def test_brute_oracle_trivial_pair():
    pair = cyclic_pair(2, 0, 1, 0, 1)
    assert brute_force_common_fd_exists(pair) is True


def test_brute_oracle_size_guard():
    pair = cyclic_pair(18, 9, 2, 6, 3)
    with pytest.raises(TooLarge):
        brute_force_common_fd_exists(pair, bound=16)


# --------------------------------------------------- randomized equivalences


def random_commuting_instance(rng):
    """Free commuting shift actions on a disjoint union of cycles, atom
    weights constant on joint orbits, at most 12 atoms."""
    p = rng.choice([1, 2, 3, 4])
    q = rng.choice([1, 2, 3, 4])
    base = p * q // gcd(p, q)
    tiles = []
    total = 0
    while True:
        room = (12 - total) // base
        if room < 1 or (tiles and rng.random() < 0.5):
            break
        m = base * rng.randint(1, min(room, 3))
        tiles.append(m)
        total += m
    weights = []
    perms_left = [[] for _ in range(p)]
    perms_right = [[] for _ in range(q)]
    offset = 0
    for m in tiles:
        d = gcd(m // p, m // q)
        tile_w = [rng.choice([1, 2, Fraction(1, 2), Fraction(1, 3)])
                  for _ in range(d)]
        weights += [tile_w[a % d] for a in range(m)]
        for i in range(p):
            perms_left[i] += [offset + (a + i * (m // p)) % m for a in range(m)]
        for j in range(q):
            perms_right[j] += [offset + (a + j * (m // q)) % m for a in range(m)]
        offset += m
    space = FiniteMeasureSpace(weights)
    left = FiniteAction(FiniteGroup.cyclic(p), space,
                        [tuple(pm) for pm in perms_left], side="left")
    right = FiniteAction(FiniteGroup.cyclic(q), space,
                         [tuple(pm) for pm in perms_right], side="right")
    pair = ActionPair(left, right)
    X = frozenset(rng.choice(orbit) for orbit in left.orbits())
    Y = frozenset(rng.choice(orbit) for orbit in right.orbits())
    return pair, X, Y


def test_packing_construction_matches_condition():
    rng = random.Random(11)
    for _ in range(120):
        pair, X, Y = random_commuting_instance(rng)
        k = rng.randint(1, 3)
        ok = check_condition(pair, X, Y, k=k, eps=0, mode="geq").ok
        try:
            fs = construct_packing_fds(pair, X, Y, k=k)
        except ConditionFails:
            assert not ok
        else:
            assert ok
            assert len(fs) == k
            assert verify_packing(pair.left, fs).ok
            for f in fs:
                assert verify_fundamental_domain(pair.right, f).ok


def test_k_epsilon_construction_matches_condition():
    rng = random.Random(13)
    built = 0
    for _ in range(150):
        pair, X, Y = random_commuting_instance(rng)
        blocks = joint_invariant_partition(pair)
        ratios = {
            pair.space.measure(set(b) & X) / pair.space.measure(set(b) & Y)
            for b in blocks
        }
        if len(ratios) == 1 and min(ratios) >= 1:
            r = ratios.pop()
            k, eps = divmod(r, 1)
            fs, feps = construct_k_epsilon(pair, X, Y, k=int(k), eps=eps)
            y_measure = pair.space.measure(Y)
            for f in fs:
                assert pair.space.measure(f) == y_measure
            assert pair.space.measure(feps) == eps * y_measure
            assert verify_packing(pair.right, [feps]).ok
            built += 1
        else:
            with pytest.raises(ConditionFails):
                construct_k_epsilon(pair, X, Y, k=1,
                                    eps=rng.choice([0, Fraction(1, 2)]))
    assert built > 10


def test_common_domain_matches_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        pair, X, Y = random_commuting_instance(rng)
        exists = brute_force_common_fd_exists(pair)
        try:
            D = construct_common_fd(pair, X, Y)
        except ConditionFails:
            assert not exists
        else:
            assert exists
            assert verify_fundamental_domain(pair.left, D).ok
            assert verify_fundamental_domain(pair.right, D).ok


# ------------------------------------------------------- integer entries


def test_float_table_entries_are_refused_not_truncated():
    # int(0.5) == 0 would make this the trivial group, and the float
    # table below would pass for Z/2
    for table in ([[0.5]], [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(InvalidInput,
                           match="^multiplication table entries must be integers$"):
            FiniteGroup(table)


def test_boolean_table_entries_are_refused():
    with pytest.raises(InvalidInput,
                       match="^multiplication table entries must be integers$"):
        FiniteGroup([[False, True], [True, False]])


def test_float_permutation_entries_are_refused():
    space = FiniteMeasureSpace([1, 1])
    with pytest.raises(InvalidInput, match="^permutation entries must be integers$"):
        FiniteAction(FiniteGroup.cyclic(2), space, [(0, 1), (1.0, 0)])
    # the entry check comes before every other check, the side included
    with pytest.raises(InvalidInput, match="^permutation entries must be integers$"):
        FiniteAction(FiniteGroup.trivial(), space, [(0.0, 1)], side="up")


def test_float_alpha_entries_are_refused():
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    with pytest.raises(InvalidInput, match="^alpha entries must be integers$"):
        SemidirectSpec(z2, z3, [(0, 1, 2), (0, 2.0, 1)])
