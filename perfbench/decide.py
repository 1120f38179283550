"""`decide` workload: many small requests through the command-line front end.

Each request is one `tessella` command run in-process through
`tessella.cli.main` on a JSON instance file written at set-up, with its
report captured from stdout. Finite instances have at most 16 atoms and
about half of them are obstructed; lattice instances are small and 2-D,
with covolume mismatches and failing tilings; Heisenberg requests are
products, reductions, covolumes, 50-sample Monte Carlo checks and ball
growth up to radius 10. Exit codes mix 0, 2 and 3. Per-request overhead
(argument parsing, JSON in and out, group-table validation) dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from math import gcd

import gen

# One round, in order: (kind, variant). The variant fixes whether the
# request is obstructed (False) or not, the Monte Carlo candidate and the
# growth radius, so every round has the same mix; the seed picks the rest.
ROUND = [
    ("finite.check", True), ("finite.check", True),
    ("finite.check", False), ("finite.check", False),
    ("finite.construct", True), ("finite.construct", True), ("finite.construct", False),
    ("finite.oracle", None), ("finite.oracle", None),
    ("finite.common_fd", True), ("finite.common_fd", False),
    ("euclid.common_fd", True), ("euclid.common_fd", True), ("euclid.common_fd", True),
    ("euclid.common_fd", False),
    ("euclid.verify", None), ("euclid.verify", None), ("euclid.verify", None),
    ("euclid.verify", None),
    ("euclid.check", None), ("euclid.check", None),
    ("ts.check", None),
    ("heis.mul", None), ("heis.mul", None), ("heis.reduce", None), ("heis.reduce", None),
    ("heis.covol", None), ("heis.mc_verify", "cell"), ("heis.mc_verify", "psi"),
    ("growth", 8), ("growth", 10),
]

MAX_ATOMS = 16
ORDERS = (1, 2, 3, 4)
MC_SAMPLES = 50


def _orders(rng, holds):
    """Group orders (p, q), with q >= p when the condition must hold."""
    p, q = rng.choice(ORDERS), rng.choice(ORDERS)
    return (min(p, q), max(p, q)) if holds else (p, q)


def _finite_instance(rng, p, q):
    """Free commuting shifts of Z_p (left) and Z_q (right) on a disjoint
    union of cycles, weights constant on joint blocks, at most 16 atoms.
    For free actions every joint block has m(A & X) / m(A & Y) = q / p,
    which is what every verdict below is derived from."""
    base = p * q // gcd(p, q)
    tiles, total = [], 0
    while True:
        room = (MAX_ATOMS - total) // base
        if room < 1 or (tiles and rng.random() < 0.4):
            break
        m = base * rng.randint(1, min(room, 3))
        tiles.append(m)
        total += m
    weights = []
    left = [[] for _ in range(p)]
    right = [[] for _ in range(q)]
    offset = 0
    for m in tiles:
        d = gcd(m // p, m // q)  # joint blocks of this cycle: residues mod d
        block_w = [rng.choice((1, 2, Fraction(1, 2), Fraction(1, 3))) for _ in range(d)]
        weights += [gen.q(block_w[a % d]) for a in range(m)]
        for i in range(p):
            left[i] += [offset + (a + i * (m // p)) % m for a in range(m)]
        for j in range(q):
            right[j] += [offset + (a + j * (m // q)) % m for a in range(m)]
        offset += m

    def action(side, order, perms):
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        return {"side": side, "elements": [str(e) for e in range(order)],
                "table": table, "perms": perms}

    def transversal(perms):
        seen, out = set(), []
        for x in range(total):
            if x not in seen:
                orbit = sorted({pm[x] for pm in perms})
                seen.update(orbit)
                out.append(rng.choice(orbit))
        return sorted(out)

    doc = {"schema": "tessella-finite/1", "weights": weights,
           "left_action": action("left", p, left), "right_action": action("right", q, right),
           "x": transversal(left), "y": transversal(right)}
    return doc, Fraction(q, p)


def _condition(rng, doc, ratio, holds):
    """Pick (mode, k, eps) that holds (needs ratio >= 1) or fails."""
    if holds:
        if rng.random() < 0.5:
            k = int(ratio)
            doc.update(mode="eq", k=k, eps=gen.q(ratio - k))
        else:
            doc.update(mode="geq", k=rng.randint(1, int(ratio)), eps="0")
        return
    if rng.random() < 0.5:
        k = int(ratio) + 1
        doc.update(mode="geq", k=k, eps="0")
    else:
        k, eps = rng.choice([(k, e) for k in (1, 2) for e in (Fraction(0), Fraction(1, 2))
                             if k + e != ratio])
        doc.update(mode="eq", k=k, eps=gen.q(eps))


def _lattice(basis):
    return {"dim": len(basis), "basis": gen.qmat(basis)}


def _region(frame, boxes):
    return {"frame": gen.qmat(frame),
            "boxes": [{"lo": [gen.q(lo) for lo, _ in b], "hi": [gen.q(hi) for _, hi in b]}
                      for b in boxes]}


def _euclid_pair(rng, ratio):
    m = gen.random_frame(rng, 2)
    if ratio == 1:
        s = rng.randint(2, 4)
        d = [Fraction(1, s), s]
    else:
        d = [ratio, 1]
    l1 = gen.mat_mul(gen.mat_mul(m, gen.diag(d)), gen.unimodular(rng, 2))
    l2 = gen.mat_mul(m, gen.unimodular(rng, 2))
    return l1, l2


def _request(rng, kind, variant, path):
    """(argv, instance document or None, expected) for one request."""
    if kind == "finite.common_fd":
        p = rng.choice(ORDERS)
        q = p if variant else rng.choice([o for o in ORDERS if o != p])
        doc, _ = _finite_instance(rng, p, q)
        return ["common-fd", path], doc, {"exit": 0 if variant else 3}
    if kind.startswith("finite."):
        doc, ratio = _finite_instance(rng, *_orders(rng, variant))
        holds = bool(variant)
        _condition(rng, doc, ratio, holds)
        sub = kind.split(".")[1]
        if sub == "check":
            return ["finite", "check", path], doc, {"exit": 0 if holds else 3,
                                                   "verdict": "PASS" if holds else "FAIL"}
        if sub == "construct":
            return ["finite", "construct", path], doc, {"exit": 0 if holds else 3}
        return ["finite", "oracle", path], doc, {"exit": 0, "exists": ratio == 1}
    if kind == "euclid.common_fd":
        ratio = Fraction(1) if variant else rng.choice((Fraction(2), Fraction(1, 2)))
        l1, l2 = _euclid_pair(rng, ratio)
        doc = {"schema": "tessella-euclidean/1", "lattice": _lattice(l1), "lattice2": _lattice(l2)}
        return ["common-fd", path], doc, {"exit": 0 if ratio == 1 else 3}
    if kind == "euclid.verify":
        data, verdicts = gen.tiling_region(rng, 2, 3)
        mode = rng.choice(("tiling", "packing"))
        boxes = [{"lo": [lo for lo, _ in b], "hi": [hi for _, hi in b]} for b in data["boxes"]]
        doc = {"schema": "tessella-euclidean/1", "mode": mode,
               "lattice": {"dim": 2, "basis": data["basis"]},
               "region": {"frame": data["frame"], "boxes": boxes}}
        ok = verdicts[mode]
        return ["verify", path], doc, {"exit": 0 if ok else 2, "verdict": "PASS" if ok else "FAIL"}
    if kind == "euclid.check":
        ratio = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
                            Fraction(5, 2)))
        l1, l2 = _euclid_pair(rng, ratio)
        doc = {"schema": "tessella-euclidean/1", "lattice": _lattice(l1), "lattice2": _lattice(l2)}
        return ["check", path], doc, {"exit": 0 if ratio >= 1 else 3, "ratio": gen.q(ratio)}
    if kind == "ts.check":
        comps, ratios = [], []
        for _ in range(2):
            ratio = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
            g, lam = _euclid_pair(rng, ratio)
            unit = [[(Fraction(0), Fraction(1))] * 2]
            comps.append({"dim": 2, "gamma": gen.qmat(g), "lambda": gen.qmat(lam),
                          "x": _region(g, unit), "y": _region(lam, unit)})
            ratios.append(gen.q(ratio))
        doc = {"schema": "tessella-translation-system/1", "rank": 2, "components": comps}
        same = ratios[0] == ratios[1]
        return ["check", path], doc, {"exit": 0 if same else 3, "ratios": ratios}
    if kind == "heis.mul":
        points = [[Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(3)]
                  for _ in range(rng.randint(2, 4))]
        product = points[0]
        for pt in points[1:]:
            product = gen.heis_product(product, pt)
        doc = {"schema": "tessella-heisenberg/1",
               "points": [dict(zip(("x1", "x2", "c"), map(gen.q, pt))) for pt in points]}
        return ["heis", "mul", path], doc, {"exit": 0, "product": [gen.q(x) for x in product]}
    if kind == "heis.reduce":
        a = gen.heis_lattice(rng, rng.randint(0, 1))
        side = rng.choice(("left", "right"))
        g, n, omega = gen.heis_reduction(rng, a, side)
        doc = {"schema": "tessella-heisenberg/1", "lattice": {"A": gen.qmat(a)},
               "point": dict(zip(("x1", "x2", "c"), g)), "side": side}
        return ["heis", "reduce", path], doc, {"exit": 0, "exponents": n, "omega": omega}
    if kind == "heis.covol":
        a = gen.heis_lattice(rng, rng.randint(0, 1))
        doc = {"schema": "tessella-heisenberg/1", "lattice": {"A": gen.qmat(a)}}
        return ["heis", "covol", path], doc, {"exit": 0, "covolume": gen.q(abs(gen.det(a)))}
    if kind == "heis.mc_verify":
        seed = rng.getrandbits(31)
        if variant == "cell":
            doc = {"schema": "tessella-heisenberg/1",
                   "lattice": {"A": gen.qmat(gen.heis_lattice(rng, 0))},
                   "side": rng.choice(("left", "right")), "candidate": "cell"}
        else:
            doc = {"schema": "tessella-heisenberg/1", "lattice": {"A": [["1", "0"], ["0", "1"]]},
                   "side": "right", "candidate": "psi"}
        argv = ["heis", "mc-verify", path, "--samples", str(MC_SAMPLES), "--seed", str(seed)]
        return argv, doc, {"exit": 0, "histogram": {"1": MC_SAMPLES}}
    return ["growth", str(variant)], None, {"exit": 0, "radius": variant}


def generate(rng, workdir):
    """One round of requests; instance files are written under workdir."""
    os.makedirs(workdir, exist_ok=True)
    sizes = gen.ball_sizes(max(v for k, v in ROUND if k == "growth"))
    out = []
    for i, (kind, variant) in enumerate(ROUND):
        path = os.path.join(workdir, f"{i:03d}-{kind}.json")
        argv, doc, expected = _request(rng, kind, variant, path)
        if doc is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        if kind == "growth":
            expected["sizes"] = sizes[:expected["radius"] + 1]
        out.append((kind, {"argv": argv, "doc": doc}, expected))
    return out


def handlers():
    """Every kind runs the same way: one in-process command-line call."""
    import tessella.cli as cli

    def run(data):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(data["argv"])
        return code, out.getvalue()

    return {kind: (run, check) for kind, _ in ROUND}


# ------------------------------------------------------------ verdict check


def check(data, result, expected):
    code, text = result
    if code != expected["exit"]:
        return False, f"exit {code}, expected {expected['exit']}: {text[:120]}"
    report = json.loads(text)
    return _report_ok(data, report, expected), f"{code}:{text}"


def _report_ok(data, report, expected) -> bool:
    doc = data["doc"]
    command = report.get("command")
    if expected["exit"] == 3 and command is None:
        return report["verdict"] == "obstruction"
    if "verdict" in expected and report["verdict"] != expected["verdict"]:
        return False
    if command == "finite construct":
        return _construct_ok(doc, report)
    if command == "finite oracle":
        return report["common_fd_exists"] == expected["exists"]
    if command == "common-fd" and report["kind"] == "finite":
        n = len(doc["weights"])
        atoms = report["domain_atoms"]
        return (gen.is_domain(doc["left_action"]["perms"], atoms, n)
                and gen.is_domain(doc["right_action"]["perms"], atoms, n))
    if command == "common-fd":
        region = report["domain"]
        boxes = [list(zip(map(Fraction, b["lo"]), map(Fraction, b["hi"]))) for b in region["boxes"]]
        frame = gen.fmat(region["frame"])
        return all(gen.unit_cells_tile(frame, boxes, doc[key]["basis"])
                   for key in ("lattice", "lattice2"))
    if command == "check" and "ratio" in expected:
        return report["ratio"] == expected["ratio"]
    if command == "check" and "ratios" in expected:
        return report["ratios"] == expected["ratios"]
    if command == "heis mul":
        return [report["product"][k] for k in ("x1", "x2", "c")] == expected["product"]
    if command == "heis reduce":
        omega = [report["omega"][k] for k in ("x1", "x2", "c")]
        return report["exponents"] == expected["exponents"] and omega == expected["omega"]
    if command == "heis covol":
        return report["covolume"] == expected["covolume"]
    if command == "heis mc-verify":
        return report["histogram"] == expected["histogram"]
    if command == "growth":
        return report["sizes"] == expected["sizes"]
    return command in ("check", "verify")


def _construct_ok(doc, report) -> bool:
    n = len(doc["weights"])
    left, right = doc["left_action"]["perms"], doc["right_action"]["perms"]
    fs = report["fs"]
    if len(fs) != doc["k"] or not all(gen.is_domain(right, f, n) for f in fs):
        return False
    if doc["mode"] == "geq":
        return gen.packs(left, fs, n)
    f_eps = report["f_eps"]
    weights = [Fraction(w) for w in doc["weights"]]
    m_y = sum(weights[a] for a in doc["y"])
    return (gen.packs(right, [f_eps], n)
            and sum(weights[a] for a in f_eps) == Fraction(doc["eps"]) * m_y
            and gen.is_domain(left, [a for f in fs + [f_eps] for a in f], n))
