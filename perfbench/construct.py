"""`construct` workload: large constructions, where the flow kernel works.

Every request builds its objects from plain data (so input validation is
timed) and asks for a construction whose existence the generator built
in: finite k+eps splits, common domains and packings on one joint block
of 24-150 atoms; common domains of lattice pairs in dimensions 2 and 3
with 16-1024 cells of the sum lattice modulo the intersection; and
lattice k+eps splits with 20-1275 refined cells. The large selections set
the p90 latency, where the super-linear growth of the kernel shows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import gen

# One round, in order: (kind, size). A run repeats whole rounds, so the
# mix of sizes is the same for every seed; the seed picks the bases,
# frames, domains and weights. Finite sizes are (a, b) or (a, b, k) for an
# a x b grid or an (a*b)-cycle; lattice sizes fix the cell count. The two
# largest requests are 1/45 of a round each and the next five (576-656
# cells, similar cost) 1/9 together, so p90 falls inside that group of
# large selections rather than on the edge between two sizes.
ROUND = [
    ("finite.common_fd", (5, 5)),
    ("finite.common_fd", (6, 6)),
    ("finite.common_fd", (8, 8)),
    ("finite.common_fd", (10, 10)),
    ("finite.common_fd", (12, 12)),
    ("finite.k_epsilon", (3, 8)),
    ("finite.k_epsilon", (4, 10)),
    ("finite.k_epsilon", (4, 15)),
    ("finite.k_epsilon", (5, 17)),
    ("finite.k_epsilon", (5, 23)),
    ("finite.packing", (5, 12, 2)),
    ("finite.packing", (7, 11, 1)),
    ("finite.packing", (4, 13, 3)),
    ("finite.packing", (6, 19, 2)),
    ("finite.packing", (6, 25, 4)),
    ("lattice.common_fd", (2, 4)),
    ("lattice.common_fd", (2, 6)),
    ("lattice.common_fd", (2, 8)),
    ("lattice.common_fd", (2, 10)),
    ("lattice.common_fd", (2, 12)),
    ("lattice.common_fd", (2, 14)),
    ("lattice.common_fd", (3, (2, 2))),
    ("lattice.common_fd", (3, (2, 3))),
    ("lattice.common_fd", (3, (2, 4))),
    ("lattice.common_fd", (3, (3, 3))),
    ("lattice.common_fd", (3, (2, 5))),
    ("lattice.common_fd", (3, (3, 4))),
    ("lattice.k_epsilon", (5, 2)),
    ("lattice.k_epsilon", (7, 3)),
    ("lattice.k_epsilon", (11, 3)),
    ("lattice.k_epsilon", (13, 4)),
    ("lattice.k_epsilon", (17, 4)),
    ("lattice.k_epsilon", (19, 3)),
    ("lattice.k_epsilon", (21, 4)),
    ("lattice.k_epsilon", (29, 3)),
    ("lattice.common_fd", (2, 16)),
    ("lattice.common_fd", (2, 20)),
    ("lattice.common_fd", (2, 24)),
    ("lattice.common_fd", (2, 24)),
    ("lattice.common_fd", (2, 24)),
    ("lattice.common_fd", (2, 24)),
    ("lattice.k_epsilon", (41, 4)),
    ("lattice.k_epsilon", (51, 5)),
    ("lattice.common_fd", (2, 32)),
]


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _finite_pair(rng, a: int, b: int):
    """Commuting free actions of Z_a (left) and Z_b (right) with one joint
    block: shifts along the two axes of an a x b grid, or, when a and b
    are coprime, shifts by b and by a on a cycle of a*b atoms. Equal
    orders use a diagonal right shift half of the time."""
    n = a * b
    if gcd(a, b) == 1 and rng.random() < 0.5:
        left = [[(x + s * b) % n for x in range(n)] for s in range(a)]
        right = [[(x + s * a) % n for x in range(n)] for s in range(b)]
    else:
        diagonal = a == b and rng.random() < 0.5

        def cell(i, j):
            return (i % a) * b + j % b

        left = [[cell(i + s, j) for i in range(a) for j in range(b)] for s in range(a)]
        right = [[cell(i + (s if diagonal else 0), j + s) for i in range(a) for j in range(b)]
                 for s in range(b)]
    weight = rng.choice((1, 2, Fraction(1, 3), Fraction(5, 2)))

    def transversal(perms):
        seen, out = set(), []
        for x in range(n):
            if x not in seen:
                orbit = sorted({p[x] for p in perms})
                seen.update(orbit)
                out.append(rng.choice(orbit))
        return sorted(out)

    return {
        "weights": [gen.q(weight)] * n,
        "left": {"table": _cyclic_table(a), "perms": left},
        "right": {"table": _cyclic_table(b), "perms": right},
        "x": transversal(left),
        "y": transversal(right),
    }


def _lattice_pair(rng, dim: int, size, ratio=Fraction(1)):
    """Bases M D U1 and M U2, so the pair's cell structure is fixed by the
    diagonal D while the frame M and the unimodular U1, U2 vary."""
    if dim == 2 and ratio == 1:
        d = [Fraction(1, size), size]
    elif dim == 2:
        d = [ratio, 1]
    else:
        a, b = size
        d = [Fraction(1, a), Fraction(1, b), a * b]
    m = gen.random_frame(rng, dim)
    l1 = gen.mat_mul(gen.mat_mul(m, gen.diag(d)), gen.unimodular(rng, dim))
    l2 = gen.mat_mul(m, gen.unimodular(rng, dim))
    return gen.qmat(l1), gen.qmat(l2)


def generate(rng, workdir):
    """One round of requests: (kind, data, expected) triples."""
    del workdir
    out = []
    for kind, size in ROUND:
        if kind.startswith("finite."):
            a, b = size[:2]
            data = _finite_pair(rng, a, b)
            ratio = Fraction(b, a)
            if kind == "finite.common_fd":
                data.update(k=1, eps="0")
            elif kind == "finite.k_epsilon":
                data.update(k=int(ratio), eps=gen.q(ratio - int(ratio)))
            else:
                data.update(k=size[2], eps="0")
            out.append((kind, data, {"k": data["k"], "eps": data["eps"]}))
        elif kind == "lattice.common_fd":
            dim, s = size
            l1, l2 = _lattice_pair(rng, dim, s)
            out.append((kind, {"l1": l1, "l2": l2}, {}))
        else:
            ratio = Fraction(*size)
            l1, l2 = _lattice_pair(rng, 2, None, ratio)
            k = int(ratio)
            out.append((kind, {"l1": l1, "l2": l2}, {"k": k, "eps": gen.q(ratio - k)}))
    return out


def handlers():
    """kind -> (execute, check). Imports happen here, after the set-up
    has (re)imported the package, and calls go through module attributes
    so that the traced run sees them."""
    import tessella.finite as fin
    import tessella.lattices as lat

    def pair_of(data):
        space = fin.FiniteMeasureSpace(data["weights"])
        left = fin.FiniteAction(fin.FiniteGroup(data["left"]["table"]), space,
                                data["left"]["perms"], side="left")
        right = fin.FiniteAction(fin.FiniteGroup(data["right"]["table"]), space,
                                 data["right"]["perms"], side="right")
        return fin.ActionPair(left, right)

    def run_common(data):
        return fin.construct_common_fd(pair_of(data), data["x"], data["y"])

    def run_k_eps(data):
        return fin.construct_k_epsilon(pair_of(data), data["x"], data["y"],
                                       k=data["k"], eps=data["eps"])

    def run_packing(data):
        return fin.construct_packing_fds(pair_of(data), data["x"], data["y"], k=data["k"])

    def run_lattice_common(data):
        return lat.common_fd_commensurable(lat.EucLattice(data["l1"]),
                                           lat.EucLattice(data["l2"]))

    def run_lattice_k_eps(data):
        return lat.construct_k_epsilon_lattices(lat.EucLattice(data["l1"]),
                                                lat.EucLattice(data["l2"]))

    return {
        "finite.common_fd": (run_common, check_finite_common),
        "finite.k_epsilon": (run_k_eps, check_finite_k_eps),
        "finite.packing": (run_packing, check_finite_packing),
        "lattice.common_fd": (run_lattice_common, check_lattice_common),
        "lattice.k_epsilon": (run_lattice_k_eps, check_lattice_k_eps),
    }


# ------------------------------------------------------------ verdict checks
# Each check re-derives the answer from the plain request data and returns
# (ok, canonical verdict string); the strings feed the run's digest.


def check_finite_common(data, result, expected):
    n = len(data["weights"])
    ok = (gen.is_domain(data["left"]["perms"], result, n)
          and gen.is_domain(data["right"]["perms"], result, n))
    return ok, repr(sorted(result))


def check_finite_k_eps(data, result, expected):
    fs, feps = result
    n = len(data["weights"])
    w = Fraction(data["weights"][0])
    right, left = data["right"]["perms"], data["left"]["perms"]
    union = [x for f in fs for x in f] + list(feps)
    ok = (len(fs) == expected["k"]
          and all(gen.is_domain(right, f, n) for f in fs)
          and gen.packs(right, [feps], n)
          and len(feps) * w == Fraction(expected["eps"]) * len(data["y"]) * w
          and len(set(union)) == len(union)
          and gen.is_domain(left, union, n))
    return ok, repr([sorted(f) for f in fs] + [sorted(feps)])


def check_finite_packing(data, result, expected):
    n = len(data["weights"])
    ok = (len(result) == expected["k"]
          and all(gen.is_domain(data["right"]["perms"], f, n) for f in result)
          and gen.packs(data["left"]["perms"], result, n))
    return ok, repr([sorted(f) for f in result])


def _region_key(region) -> str:
    return repr((gen.qmat(region.frame), [[gen.q(x) for iv in b for x in iv] for b in region.boxes]))


def check_lattice_common(data, result, expected):
    ok = (gen.unit_cells_tile(result.frame, result.boxes, data["l1"])
          and gen.unit_cells_tile(result.frame, result.boxes, data["l2"]))
    return ok, _region_key(result)


def check_lattice_k_eps(data, result, expected):
    fs, feps = result
    l1, l2 = gen.fmat(data["l1"]), gen.fmat(data["l2"])
    eps = Fraction(expected["eps"])
    frame = feps.frame
    union = [b for f in fs for b in f.boxes] + list(feps.boxes)
    ok = (len(fs) == expected["k"]
          and all(f.frame == frame and gen.unit_cells_tile(frame, f.boxes, l2) for f in fs)
          and gen.unit_cells_pack(frame, feps.boxes, l2)
          and len(feps.boxes) * abs(gen.det(frame)) == eps * abs(gen.det(l2))
          and gen.unit_cells_tile(frame, union, l1))
    return ok, repr([_region_key(f) for f in fs] + [_region_key(feps)])
