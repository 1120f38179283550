"""Commuting finite group actions on finite weighted spaces.

Atoms are indices 0..n-1 with strictly positive rational weights. A
fundamental domain of an action is a set whose translates under every
group element partition the atoms; since the partition is indexed by
group elements, one exists exactly when the action is free. The
construction operations realize the packing / common-domain existence
theorems by `flows.select_and_deal` on the bipartite multigraph whose
edges are atoms and whose nodes are the orbits of the two actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from .errors import (
    ConditionFails,
    InvalidAlpha,
    InvalidDomain,
    InvalidInput,
    NotFree,
    TooLarge,
)
from .flows import select_and_deal
from .linalg import frac

AtomSet = frozenset


def atom_set(xs: Iterable[int]) -> AtomSet:
    return frozenset(int(x) for x in xs)


class FiniteMeasureSpace:
    """Finite atomic measure space: atom i has weight weights[i] > 0."""

    def __init__(self, weights: Sequence):
        self.weights = tuple(frac(w) for w in weights)
        if not self.weights:
            raise InvalidInput("a measure space needs at least one atom")
        if any(w <= 0 for w in self.weights):
            raise InvalidInput("atom weights must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.weights)

    def measure(self, atoms: Iterable[int]) -> Fraction:
        return sum((self.weights[a] for a in atoms), Fraction(0))

    @property
    def total(self) -> Fraction:
        return self.measure(range(self.n))


class FiniteGroup:
    """Finite group given by its multiplication table.

    table[a][b] is the index of the product a*b. The table is checked to
    be a group law (closure, identity, inverses, associativity) at
    construction time.
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(self.table)
        if n == 0:
            raise InvalidInput("a group needs at least the identity")
        if any(len(row) != n for row in self.table):
            raise InvalidInput("multiplication table is not square")
        if any(x < 0 or x >= n for row in self.table for x in row):
            raise InvalidInput("multiplication table entry out of range")
        self.names = tuple(names) if names is not None else tuple(f"g{i}" for i in range(n))
        if len(self.names) != n:
            raise InvalidInput("one name per element required")
        ident = [e for e in range(n)
                 if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n))]
        if len(ident) != 1:
            raise InvalidInput("table has no identity element")
        self.identity = ident[0]
        self._inv = [None] * n
        for a in range(n):
            invs = [b for b in range(n) if self.table[a][b] == self.identity
                    and self.table[b][a] == self.identity]
            if len(invs) != 1:
                raise InvalidInput(f"element {a} has no two-sided inverse")
            self._inv[a] = invs[0]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise InvalidInput("multiplication table is not associative")

    def __len__(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls([[(a + b) % n for b in range(n)] for a in range(n)],
                   names=[f"+{a}" for a in range(n)])

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls.cyclic(1)


class FiniteAction:
    """Group action by weight-preserving permutations of the atoms.

    side "left": perms is a homomorphism, perm(g*h) = perm(g) o perm(h).
    side "right": an anti-homomorphism, perm(g*h) = perm(h) o perm(g).
    perm(g) is stored as a tuple p with p[a] = g.a.
    """

    def __init__(self, group: FiniteGroup, space: FiniteMeasureSpace,
                 perms: Sequence[Sequence[int]], side: str = "left"):
        if side not in ("left", "right"):
            raise InvalidInput("side must be 'left' or 'right'")
        self.group = group
        self.space = space
        self.side = side
        self.perms = tuple(tuple(int(x) for x in p) for p in perms)
        n = space.n
        if len(self.perms) != len(group):
            raise InvalidInput("one permutation per group element required")
        for p in self.perms:
            if sorted(p) != list(range(n)):
                raise InvalidInput("not a permutation of the atoms")
            if any(space.weights[p[a]] != space.weights[a] for a in range(n)):
                raise InvalidInput("permutation does not preserve atom weights")
        for g in range(len(group)):
            for h in range(len(group)):
                gh = self.perms[group.mul(g, h)]
                if side == "left":
                    comp = tuple(self.perms[g][self.perms[h][a]] for a in range(n))
                else:
                    comp = tuple(self.perms[h][self.perms[g][a]] for a in range(n))
                if gh != comp:
                    kind = "homomorphism" if side == "left" else "anti-homomorphism"
                    raise InvalidInput(f"perm map is not a {kind}")
        self._orbits: Optional[list[tuple[int, ...]]] = None

    def translate(self, g: int, atoms: Iterable[int]) -> AtomSet:
        p = self.perms[g]
        return frozenset(p[a] for a in atoms)

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbit partition, each orbit sorted, ordered by least atom."""
        if self._orbits is None:
            self._orbits = _orbit_partition(self.space.n, self.perms)
        return self._orbits

    def is_free(self) -> bool:
        e = self.group.identity
        return all(
            self.perms[g][a] != a
            for g in range(len(self.group)) if g != e
            for a in range(self.space.n)
        )


def _orbit_partition(n: int, perms: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        queue = [start]
        seen[start] = True
        while queue:
            a = queue.pop()
            for p in perms:
                b = p[a]
                if not seen[b]:
                    seen[b] = True
                    orbit.add(b)
                    queue.append(b)
        out.append(tuple(sorted(orbit)))
    return out


class ActionPair:
    """Two commuting actions on the same space.

    The first slot plays the Gamma role (its fundamental domain is X),
    the second the Lambda role (fundamental domain Y).
    """

    def __init__(self, left: FiniteAction, right: FiniteAction):
        if left.space is not right.space and left.space.weights != right.space.weights:
            raise InvalidInput("the two actions must share the space")
        self.left = left
        self.right = right
        self.space = left.space
        n = self.space.n
        for pg in left.perms:
            for ph in right.perms:
                if any(pg[ph[a]] != ph[pg[a]] for a in range(n)):
                    raise InvalidInput("the two actions do not commute")
        self._blocks: Optional[list[tuple[int, ...]]] = None


@dataclass(frozen=True)
class VerifyResult:
    """Boolean verdict plus, on failure, a witness payload."""
    ok: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_fundamental_domain(action: FiniteAction, X: Iterable[int]) -> VerifyResult:
    """True iff the |G| translates of X partition the atoms.

    On failure the witness is an atom covered zero or at least two times,
    the lowest such index.
    """
    X = atom_set(X)
    counts = [0] * action.space.n
    for g in range(len(action.group)):
        for a in X:
            counts[action.perms[g][a]] += 1
    for a, c in enumerate(counts):
        if c != 1:
            return VerifyResult(False, {"atom": a, "count": c})
    return VerifyResult(True)


def verify_packing(action: FiniteAction, family: Sequence[Iterable[int]]) -> VerifyResult:
    """True iff all translates g.F_i over all (g, i) are pairwise disjoint."""
    counts = [0] * action.space.n
    for F in family:
        F = atom_set(F)
        for g in range(len(action.group)):
            for a in F:
                counts[action.perms[g][a]] += 1
    for a, c in enumerate(counts):
        if c > 1:
            return VerifyResult(False, {"atom": a, "count": c})
    return VerifyResult(True)


def find_fundamental_domain(action: FiniteAction) -> AtomSet:
    """Lowest-index transversal of the orbits; NotFree if an orbit is
    shorter than the group (then no fundamental domain exists)."""
    for orbit in action.orbits():
        if len(orbit) != len(action.group):
            raise NotFree(
                f"orbit {orbit} has size {len(orbit)} < |G| = {len(action.group)}"
            )
    return frozenset(orbit[0] for orbit in action.orbits())


def joint_invariant_partition(pair: ActionPair) -> list[tuple[int, ...]]:
    """Orbits of the group generated by both actions; every set invariant
    under both actions is a union of these blocks."""
    if pair._blocks is None:
        pair._blocks = _orbit_partition(pair.space.n, pair.left.perms + pair.right.perms)
    return pair._blocks


@dataclass(frozen=True)
class BlockReport:
    atoms: tuple[int, ...]
    x_measure: Fraction
    y_measure: Fraction
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    k: int
    eps: Fraction
    mode: str
    blocks: tuple[BlockReport, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_condition(pair: ActionPair, X: Iterable[int], Y: Iterable[int],
                    k: int = 1, eps=0, mode: str = "eq") -> ConditionReport:
    """Evaluate the measure condition per joint-invariant block.

    mode "eq":  m(A & X) == (k + eps) * m(A & Y) on every block
    mode "geq": m(A & X) >=  k       * m(A & Y) on every block (eps = 0)

    Checking on the blocks suffices: any jointly invariant set is a union
    of blocks and both sides are additive. X and Y must verify as
    fundamental domains of the first / second action (InvalidDomain).
    """
    X, Y = atom_set(X), atom_set(Y)
    eps = frac(eps)
    if not isinstance(k, int) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    if not (0 <= eps < 1):
        raise InvalidInput("eps must lie in [0, 1)")
    if mode not in ("eq", "geq"):
        raise InvalidInput("mode must be 'eq' or 'geq'")
    if mode == "geq" and eps != 0:
        raise InvalidInput("inequality mode is stated with eps = 0")
    vx = verify_fundamental_domain(pair.left, X)
    if not vx:
        raise InvalidDomain(f"X is not a fundamental domain of the first action: {vx.witness}")
    vy = verify_fundamental_domain(pair.right, Y)
    if not vy:
        raise InvalidDomain(f"Y is not a fundamental domain of the second action: {vy.witness}")
    blocks = []
    for O in joint_invariant_partition(pair):
        mx = pair.space.measure(set(O) & X)
        my = pair.space.measure(set(O) & Y)
        ok = mx == (k + eps) * my if mode == "eq" else mx >= k * my
        blocks.append(BlockReport(O, mx, my, ok))
    return ConditionReport(all(b.ok for b in blocks), k, eps, mode, tuple(blocks))


def _select_and_deal(pair: ActionPair, k: int, eps, exact_left: bool):
    """`select_and_deal` over the atoms, each labelled by its orbit under
    the first (left) and the second (right) action; the components of
    that labelling are the joint-invariant blocks."""
    n = pair.space.n
    left_of, right_of = [0] * n, [0] * n
    for labels, action in ((left_of, pair.left), (right_of, pair.right)):
        for i, orbit in enumerate(action.orbits()):
            for a in orbit:
                labels[a] = i
    fs, feps = select_and_deal(left_of, right_of, k, eps, exact_left)
    return [frozenset(f) for f in fs], frozenset(feps)


def construct_packing_fds(pair: ActionPair, X: Iterable[int], Y: Iterable[int],
                          k: int) -> list[AtomSet]:
    """k fundamental domains of the second action whose family packs under
    the first action; exists iff the inequality condition holds."""
    report = check_condition(pair, X, Y, k=k, eps=0, mode="geq")
    if not report.ok:
        raise ConditionFails(_condition_message(report))
    fs, feps = _select_and_deal(pair, k, 0, exact_left=False)
    assert not feps
    for f in fs:
        assert verify_fundamental_domain(pair.right, f).ok
    assert verify_packing(pair.left, fs).ok
    return fs


def construct_k_epsilon(pair: ActionPair, X: Iterable[int], Y: Iterable[int],
                        k: int, eps) -> tuple[list[AtomSet], AtomSet]:
    """k fundamental domains of the second action plus a packing remainder
    F_eps with m(F_eps) = eps * m(Y); the whole family partitions a
    fundamental domain of the first action. Exists iff the equality
    condition holds."""
    eps = frac(eps)
    report = check_condition(pair, X, Y, k=k, eps=eps, mode="eq")
    if not report.ok:
        raise ConditionFails(_condition_message(report))
    fs, feps = _select_and_deal(pair, k, eps, exact_left=True)
    y_measure = pair.space.measure(atom_set(Y))
    for f in fs:
        assert verify_fundamental_domain(pair.right, f).ok
        assert pair.space.measure(f) == y_measure
    assert verify_packing(pair.right, [feps]).ok
    assert pair.space.measure(feps) == eps * y_measure
    union = feps.union(*fs)
    assert verify_fundamental_domain(pair.left, union).ok
    assert verify_packing(pair.left, list(fs) + [feps]).ok
    return fs, feps


def construct_common_fd(pair: ActionPair, X: Iterable[int], Y: Iterable[int]) -> AtomSet:
    """A set that is a fundamental domain for both actions; exists iff the
    equality condition holds with k = 1, eps = 0."""
    fs, _ = construct_k_epsilon(pair, X, Y, k=1, eps=0)
    common = fs[0]
    assert verify_fundamental_domain(pair.left, common).ok
    assert verify_fundamental_domain(pair.right, common).ok
    return common


def _condition_message(report: ConditionReport) -> str:
    bad = next(b for b in report.blocks if not b.ok)
    rel = "==" if report.mode == "eq" else ">="
    return (
        f"on block {bad.atoms}: m(A&X) = {bad.x_measure} fails "
        f"{rel} ({report.k}+{report.eps}) * m(A&Y) with m(A&Y) = {bad.y_measure}"
    )


@dataclass(frozen=True)
class Equidecomposition:
    """Transport plan: pieces of the source move by group elements onto a
    partition of the target."""
    pieces: tuple[tuple[AtomSet, int], ...]
    source: AtomSet
    target: AtomSet

    def validate(self, action: FiniteAction) -> None:
        covered: set[int] = set()
        image: set[int] = set()
        for piece, g in self.pieces:
            if piece & covered:
                raise InvalidInput("transport pieces overlap in the source")
            covered |= piece
            moved = action.translate(g, piece)
            if moved & image:
                raise InvalidInput("transported pieces overlap in the target")
            image |= moved
        if covered != self.source:
            raise InvalidInput("pieces do not partition the source")
        if image != self.target:
            raise InvalidInput("transported pieces do not partition the target")


def dye_equivalent(action: FiniteAction, E: Iterable[int],
                   F: Iterable[int]) -> Optional[Equidecomposition]:
    """Transport plan from E to F along group moves, or None.

    One exists exactly when E and F meet every orbit in the same number
    of atoms. Atoms are paired in sorted order per orbit; each pair uses
    the identity when possible, otherwise the lowest-index element.
    """
    E, F = atom_set(E), atom_set(F)
    ident = action.group.identity
    assignment: dict[int, list[int]] = {}
    for orbit in action.orbits():
        es = sorted(set(orbit) & E)
        fs = sorted(set(orbit) & F)
        if len(es) != len(fs):
            return None
        for e, f in zip(es, fs):
            if e == f:
                g = ident
            else:
                g = next(g for g in range(len(action.group))
                         if action.perms[g][e] == f)
            assignment.setdefault(g, []).append(e)
    pieces = tuple(
        (frozenset(assignment[g]), g) for g in sorted(assignment)
    )
    plan = Equidecomposition(pieces, E, F)
    plan.validate(action)
    return plan


class SemidirectSpec:
    """Data for Lambda acting on Gamma by automorphisms.

    alpha[l] is the permutation of Gamma's element indices implementing
    the automorphism attached to Lambda element l.
    """

    def __init__(self, lambda_group: FiniteGroup, gamma_group: FiniteGroup,
                 alpha: Sequence[Sequence[int]]):
        self.lambda_group = lambda_group
        self.gamma_group = gamma_group
        self.alpha = tuple(tuple(int(x) for x in a) for a in alpha)
        nl, ng = len(lambda_group), len(gamma_group)
        if len(self.alpha) != nl:
            raise InvalidAlpha("one automorphism per Lambda element required")
        for a in self.alpha:
            if sorted(a) != list(range(ng)):
                raise InvalidAlpha("alpha value is not a permutation of Gamma")
            for x in range(ng):
                for y in range(ng):
                    if a[gamma_group.mul(x, y)] != gamma_group.mul(a[x], a[y]):
                        raise InvalidAlpha("alpha value is not an automorphism")
        for l1 in range(nl):
            for l2 in range(nl):
                comp = tuple(self.alpha[l1][self.alpha[l2][x]] for x in range(ng))
                if self.alpha[lambda_group.mul(l1, l2)] != comp:
                    raise InvalidAlpha("alpha is not a homomorphism into Aut(Gamma)")


class SemidirectGroup(FiniteGroup):
    """Group on pairs (l, g) with (l1,g1)(l2,g2) = (l1 l2, g1 alpha(l1)(g2)).

    Element index of (l, g) is l * |Gamma| + g.
    """

    def __init__(self, spec: SemidirectSpec):
        lam, gam, alpha = spec.lambda_group, spec.gamma_group, spec.alpha
        nl, ng = len(lam), len(gam)
        table = [[0] * (nl * ng) for _ in range(nl * ng)]
        for l1, g1 in product(range(nl), range(ng)):
            for l2, g2 in product(range(nl), range(ng)):
                l3 = lam.mul(l1, l2)
                g3 = gam.mul(g1, alpha[l1][g2])
                table[l1 * ng + g1][l2 * ng + g2] = l3 * ng + g3
        names = [f"({lam.names[l]},{gam.names[g]})"
                 for l in range(nl) for g in range(ng)]
        super().__init__(table, names)
        self.spec = spec

    def pair_index(self, l: int, g: int) -> int:
        return l * len(self.spec.gamma_group) + g

    def parts(self, e: int) -> tuple[int, int]:
        ng = len(self.spec.gamma_group)
        return divmod(e, ng)


def semidirect_product(spec: SemidirectSpec) -> SemidirectGroup:
    """The semidirect product group; InvalidAlpha comes from the spec's
    own validation, group axioms from the FiniteGroup constructor."""
    return SemidirectGroup(spec)


def _left_view(action: FiniteAction, g: int) -> tuple[int, ...]:
    """Permutation of g in the left-action view; for side 'right' the
    stored map is an anti-homomorphism, so g is replaced by its inverse.
    Translate sets are unchanged by the substitution."""
    if action.side == "left":
        return action.perms[g]
    return action.perms[action.group.inv(g)]


def semidirect_common_fd(action: FiniteAction, X: Iterable[int],
                         Y: Iterable[int]) -> AtomSet:
    """Common fundamental domain for the two canonical subgroups of a
    semidirect product action.

    X must be a fundamental domain for the 1 x Gamma restriction, Y for
    the Lambda x 1 restriction. On each orbit block of the full group,
    the sorted atoms of X and Y are paired by group elements (l, g); the
    output collects sigma((l^-1, e)) . y over the pairs, which is a
    fundamental domain for both restrictions. Exists iff
    m(A & X) = m(A & Y) on every block.
    """
    X, Y = atom_set(X), atom_set(Y)
    group = action.group
    if not isinstance(group, SemidirectGroup):
        raise InvalidInput("action group must be a SemidirectGroup")
    spec = group.spec
    lam, gam = spec.lambda_group, spec.gamma_group
    le, ge = lam.identity, gam.identity
    gamma_restriction = FiniteAction(
        gam, action.space,
        [action.perms[group.pair_index(le, g)] for g in range(len(gam))],
        side=action.side)
    lambda_restriction = FiniteAction(
        lam, action.space,
        [action.perms[group.pair_index(l, ge)] for l in range(len(lam))],
        side=action.side)
    vx = verify_fundamental_domain(gamma_restriction, X)
    if not vx:
        raise InvalidDomain(f"X fails for the 1 x Gamma restriction: {vx.witness}")
    vy = verify_fundamental_domain(lambda_restriction, Y)
    if not vy:
        raise InvalidDomain(f"Y fails for the Lambda x 1 restriction: {vy.witness}")

    blocks = _orbit_partition(action.space.n, action.perms)
    domain: set[int] = set()
    for O in blocks:
        xs = sorted(set(O) & X)
        ys = sorted(set(O) & Y)
        if action.space.measure(xs) != action.space.measure(ys):
            raise ConditionFails(
                f"on block {O}: m(A&X) = {action.space.measure(xs)} "
                f"!= m(A&Y) = {action.space.measure(ys)}")
        for x, y in zip(xs, ys):
            if x == y:
                g = group.identity
            else:
                g = next(g for g in range(len(group))
                         if _left_view(action, g)[x] == y)
            l, _ = group.parts(g)
            shift = group.pair_index(lam.inv(l), ge)
            domain.add(_left_view(action, shift)[y])
    result = frozenset(domain)
    assert verify_fundamental_domain(gamma_restriction, result).ok
    assert verify_fundamental_domain(lambda_restriction, result).ok
    return result


def brute_force_common_fd_exists(pair: ActionPair, bound: int = 16) -> bool:
    """Ground-truth oracle: does any common fundamental domain exist?

    Any common fundamental domain is a transversal of the first action's
    orbits (and needs both actions free), so the enumeration runs over
    those transversals only; that set is exhaustive.
    """
    if pair.space.n > bound:
        raise TooLarge(f"{pair.space.n} atoms exceeds the bound {bound}")
    if not pair.left.is_free() or not pair.right.is_free():
        return False
    orbits = pair.left.orbits()
    for choice in product(*orbits):
        if verify_fundamental_domain(pair.right, choice).ok:
            return True
    return False
