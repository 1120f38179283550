"""`verify` workload: exact-arithmetic verification, no flow kernel.

Monte Carlo tiling histograms on Malcev cells (both sides) and on the
psi cell, batches of unique cell reductions, exact tiling and packing
verdicts and boundary counts on regions made of many boxes, and Dirichlet
cells in dimensions 2 and 3. The Heisenberg, box, linear-algebra,
Dirichlet and sampling layers do the work; the flow kernel does none, so
a change to it must leave this workload unchanged.
"""

from __future__ import annotations

from fractions import Fraction

import gen

# One round, in order: (kind, size). Sizes: (Monte Carlo samples, shear
# 0 or 1) of a Malcev cell, samples on the psi cell, points per reduction
# batch, (dim, boxes per axis) of a tiling region, (squares, boxes per
# axis) of a boundary series, and the Dirichlet dimension. The three
# heaviest requests (the larger regions and the 3-D cell) make up a
# quarter of a round, so p90 falls inside that group.
ROUND = [
    ("heis.mc_cell", (60, 0)),
    ("heis.mc_cell", (60, 1)),
    ("heis.mc_psi", 60),
    ("heis.reduce", 100),
    ("heis.reduce", 100),
    ("boxes.tiling", (2, 8)),
    ("lattices.boundary", (4, 4)),
    ("dirichlet", 2),
    ("dirichlet", 2),
    ("boxes.tiling", (2, 16)),
    ("boxes.tiling", (3, 6)),
    ("dirichlet", 3),
]


def _reduce_batch(rng, count):
    a = gen.heis_lattice(rng, rng.randint(0, 1))
    side = rng.choice(("left", "right"))
    points, answers = [], []
    for _ in range(count):
        g, n, omega = gen.heis_reduction(rng, a, side)
        points.append(g)
        answers.append([n, omega])
    return {"A": gen.qmat(a), "side": side, "points": points}, {"answers": answers}


def _boundary_series(rng, squares, parts):
    """Squares [0, n + 1/2)^2 of the lattice frame, each cut into parts^2
    boxes; the unit cells meet n^2 of them inside and 2n + 1 on the edge."""
    basis = gen.random_frame(rng, 2)
    first = rng.randint(3, 6)
    regions, answers = [], []
    for n in range(first, first + squares):
        side = Fraction(2 * n + 1, 2)
        step = side / parts
        regions.append([[[gen.q(i * step), gen.q((i + 1) * step)],
                         [gen.q(j * step), gen.q((j + 1) * step)]]
                        for i in range(parts) for j in range(parts)])
        answers.append([n * n, 2 * n + 1])
    return {"basis": gen.qmat(basis), "regions": regions}, {"answers": answers}


def _dirichlet_basis(rng, dim):
    """A small perturbation of a diagonal basis: generic, so the cell has
    the full facet count (6 in 2-D, 14 in 3-D) without long vectors."""
    basis = [[Fraction(1) if i == j else Fraction(rng.randint(-2, 2), 7) for j in range(dim)]
             for i in range(dim)]
    basis = gen.mat_mul(gen.diag([rng.choice((1, Fraction(5, 4), Fraction(4, 5)))
                                  for _ in range(dim)]), basis)
    return {"basis": gen.qmat(basis)}, {"volume": gen.q(abs(gen.det(basis)))}


def generate(rng, workdir):
    """One round of requests: (kind, data, expected) triples."""
    del workdir
    out = []
    for kind, size in ROUND:
        if kind == "heis.mc_cell":
            samples, shear = size
            data = {"A": gen.qmat(gen.heis_lattice(rng, shear)),
                    "side": rng.choice(("left", "right")),
                    "samples": samples, "seed": rng.getrandbits(32)}
            out.append((kind, data, {"histogram": {1: samples}}))
        elif kind == "heis.mc_psi":
            data = {"samples": size, "seed": rng.getrandbits(32)}
            out.append((kind, data, {"histogram": {1: size}}))
        elif kind == "heis.reduce":
            out.append((kind, *_reduce_batch(rng, size)))
        elif kind == "boxes.tiling":
            out.append((kind, *gen.tiling_region(rng, *size)))
        elif kind == "lattices.boundary":
            out.append((kind, *_boundary_series(rng, *size)))
        else:
            out.append((kind, *_dirichlet_basis(rng, size)))
    return out


def handlers():
    """kind -> (execute, check), bound to the freshly imported package."""
    import tessella.boxes as bx
    import tessella.dirichlet as dr
    import tessella.heis as hs
    import tessella.lattices as lat

    def run_mc_cell(data):
        L = hs.HeisLattice(data["A"])
        cand = hs.malcev_cell(L)
        return hs.mc_verify_tiling(cand, hs.HeisAction(data["side"], L), cand.bbox,
                                   samples=data["samples"], seed=data["seed"])

    def run_mc_psi(data):
        cand = hs.psi_cell()
        return hs.mc_verify_tiling(cand, hs.HeisAction("right", hs.HeisLattice.standard()),
                                   cand.bbox, samples=data["samples"], seed=data["seed"])

    def run_reduce(data):
        L = hs.HeisLattice(data["A"])
        reduce = hs.reduce_left if data["side"] == "left" else hs.reduce_right
        return [reduce(hs.HeisPoint(*p), L) for p in data["points"]]

    def run_tiling(data):
        region = bx.FrameRegion(data["frame"], tuple(
            tuple(tuple(iv) for iv in b) for b in data["boxes"]))
        L = lat.EucLattice(data["basis"])
        return lat.verify_tiling_exact(region, L), lat.verify_packing_exact(region, L)

    def run_boundary(data):
        L = lat.EucLattice(data["basis"])
        regions = [bx.FrameRegion(data["basis"], tuple(
            tuple(tuple(iv) for iv in b) for b in boxes)) for boxes in data["regions"]]
        return lat.boundary_series(L, regions)

    def run_dirichlet(data):
        return dr.dirichlet_domain(lat.EucLattice(data["basis"]))

    return {
        "heis.mc_cell": (run_mc_cell, check_histogram),
        "heis.mc_psi": (run_mc_psi, check_histogram),
        "heis.reduce": (run_reduce, check_reduce),
        "boxes.tiling": (run_tiling, check_tiling),
        "lattices.boundary": (run_boundary, check_boundary),
        "dirichlet": (run_dirichlet, check_dirichlet),
    }


# ------------------------------------------------------------ verdict checks


def check_histogram(data, report, expected):
    ok = report.histogram == expected["histogram"] and report.samples == data["samples"]
    return ok, repr((sorted(report.histogram.items()), report.resampled))


def check_reduce(data, reductions, expected):
    got = [[list(r.exponents), [gen.q(x) for x in (r.omega.x1, r.omega.x2, r.omega.c)]]
           for r in reductions]
    return got == expected["answers"], repr(got)


def check_tiling(data, result, expected):
    tiling, packing = result
    multiplicity = None if tiling.ok else tiling.witness["multiplicity"]
    got = {"tiling": tiling.ok, "packing": packing.ok, "multiplicity": multiplicity}
    return got == expected, repr(sorted(got.items()))


def check_boundary(data, series, expected):
    got = [[e.interior, e.boundary] for e in series]
    return got == expected["answers"], repr(got)


def check_dirichlet(data, cell, expected):
    vertices = set(cell.vertices)
    symmetric = {tuple(-x for x in v) for v in vertices} == vertices
    ok = cell.volume == Fraction(expected["volume"]) and symmetric
    return ok, repr((gen.q(cell.volume), sorted(tuple(gen.q(x) for x in v) for v in vertices)))
