"""Command-line front end.

Subcommands parse a JSON instance file, dispatch to an engine, and emit a
JSON report (stdout, plus --out for a file copy). Exit codes separate the
four outcomes: 0 success, 2 a verification failed, 3 the mathematics
rules the request out, 4 the input is malformed. Every constructed object
is re-verified in-process before it is written. Reports are byte-stable:
rationals as "p/q" strings, sorted keys, and timing null unless --timing
is passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import jsonio
from .boxes import FrameRegion
from .errors import (
    ConditionFails,
    CovolumeMismatch,
    Incommensurable,
    InvalidDomain,
    NotFree,
    InvalidInput,
    TessellaError,
)
from .finite import (
    brute_force_common_fd_exists,
    check_condition,
    construct_common_fd,
    construct_k_epsilon,
    construct_packing_fds,
    verify_fundamental_domain,
    verify_packing,
)
from .heis import (
    HeisAction,
    HeisLattice,
    discrete_ball_growth,
    growth_exponent_estimate,
    heis_exp,
    heis_mul,
    lattice_covolume,
    malcev_cell,
    mc_verify_tiling,
    psi_cell,
    reduce_left,
    reduce_right,
)
from .lattices import (
    boundary_series,
    common_fd_commensurable,
    covolume,
    translation_system_check,
    translation_system_common_fd,
    verify_packing_exact,
    verify_tiling_exact,
)
from .linalg import floor_frac, identity
from .plots import csv_text, line_svg, regions_svg

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_OBSTRUCTION = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; route through the input-error code
    def error(self, message):
        raise InvalidInput(message)


def _emit(report: dict, args, code: int) -> int:
    started = getattr(args, "_started", None)
    if getattr(args, "timing", False) and started is not None:
        report["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    else:
        report["timing_ms"] = None
    report.setdefault("schema", "tessella-report/1")
    text = jsonio.dumps_report(report)
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def _plot_path(args, suffix: str) -> str:
    out = getattr(args, "out", None)
    if not out:
        raise InvalidInput(f"--{suffix} requires --out to name the file")
    return os.path.splitext(out)[0] + "." + suffix


def _write_plot(args, suffix: str, text: str) -> None:
    with open(_plot_path(args, suffix), "w", encoding="utf-8") as fh:
        fh.write(text)


def _fracs(values) -> list[str]:
    return [jsonio.fmt_frac(v) for v in values]


def _witness_json(witness: dict) -> dict:
    out = {}
    for key, val in witness.items():
        if isinstance(val, list):
            out[key] = _fracs(val)
        elif isinstance(val, Fraction):
            out[key] = jsonio.fmt_frac(val)
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------- covol


def cmd_covol(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    report = {"command": "covol", "kind": kind}
    if kind == "euclidean":
        L = jsonio.parse_lattice(jsonio._require(payload, "lattice", kind))
        report["covolume"] = jsonio.fmt_frac(covolume(L))
    elif kind == "heisenberg":
        L = jsonio.parse_heis_lattice(jsonio._require(payload, "lattice", kind))
        report["covolume"] = jsonio.fmt_frac(lattice_covolume(L))
    else:
        raise InvalidInput("covol expects a euclidean or heisenberg instance")
    return _emit(report, args, EXIT_OK)


# ------------------------------------------------------------- common-fd


def _common_fd_finite(payload, args) -> int:
    inst = jsonio.parse_finite(payload)
    if inst.x is None or inst.y is None:
        raise InvalidInput("finite common-fd needs x and y domains")
    domain = construct_common_fd(inst.pair, inst.x, inst.y)
    ok = (verify_fundamental_domain(inst.pair.left, domain).ok
          and verify_fundamental_domain(inst.pair.right, domain).ok)
    report = {
        "command": "common-fd",
        "kind": "finite",
        "verdict": "ok" if ok else "verification-failed",
        "domain_atoms": sorted(domain),
        "measure": jsonio.fmt_frac(inst.pair.left.space.measure(domain)),
    }
    return _emit(report, args, EXIT_OK if ok else EXIT_VERIFY)


def _common_fd_euclidean(payload, args) -> int:
    L1 = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
    L2 = jsonio.parse_lattice(jsonio._require(payload, "lattice2", "euclidean"))
    domain = common_fd_commensurable(L1, L2)
    ok = verify_tiling_exact(domain, L1).ok and verify_tiling_exact(domain, L2).ok
    report = {
        "command": "common-fd",
        "kind": "euclidean",
        "verdict": "ok" if ok else "verification-failed",
        "domain": jsonio.region_json(domain),
        "measure": jsonio.fmt_frac(domain.measure),
    }
    if args.svg:
        _write_plot(args, "svg", regions_svg([domain]))
    return _emit(report, args, EXIT_OK if ok else EXIT_VERIFY)


def _common_fd_translation(payload, args) -> int:
    ts, _, _ = jsonio.parse_translation_system(payload)
    domains = translation_system_common_fd(ts)
    ok = all(
        verify_tiling_exact(d, c.gamma_lattice()).ok
        and verify_tiling_exact(d, c.lambda_lattice()).ok
        for d, c in zip(domains, ts.components)
    )
    report = {
        "command": "common-fd",
        "kind": "translation-system",
        "verdict": "ok" if ok else "verification-failed",
        "domains": [jsonio.region_json(d) for d in domains],
        "measures": _fracs(d.measure for d in domains),
    }
    return _emit(report, args, EXIT_OK if ok else EXIT_VERIFY)


def cmd_common_fd(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind == "finite":
        return _common_fd_finite(payload, args)
    if kind == "euclidean":
        return _common_fd_euclidean(payload, args)
    if kind == "translation-system":
        return _common_fd_translation(payload, args)
    raise InvalidInput("common-fd expects a finite, euclidean, or "
                       "translation-system instance")


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind != "euclidean":
        raise InvalidInput("verify expects a euclidean instance")
    L = jsonio.parse_lattice(jsonio._require(payload, "lattice", kind))
    region = jsonio.parse_region(jsonio._require(payload, "region", kind))
    mode = payload.get("mode", "tiling")
    if mode == "tiling":
        result = verify_tiling_exact(region, L)
    elif mode == "packing":
        result = verify_packing_exact(region, L)
    else:
        raise InvalidInput("mode must be 'tiling' or 'packing'")
    report = {
        "command": "verify",
        "kind": kind,
        "mode": mode,
        "verdict": "PASS" if result.ok else "FAIL",
        "witness": None if result.ok else _witness_json(result.witness),
    }
    if args.svg:
        _write_plot(args, "svg", regions_svg([region]))
    return _emit(report, args, EXIT_OK if result.ok else EXIT_VERIFY)


# ----------------------------------------------------------------- check


def _check_finite(payload, args) -> int:
    inst = jsonio.parse_finite(payload)
    if inst.x is None or inst.y is None:
        raise InvalidInput("finite check needs x and y domains")
    rep = check_condition(inst.pair, inst.x, inst.y,
                          k=inst.k, eps=inst.eps, mode=inst.mode)
    report = {
        "command": "check",
        "kind": "finite",
        "verdict": "PASS" if rep.ok else "FAIL",
        "k": rep.k,
        "eps": jsonio.fmt_frac(rep.eps),
        "mode": rep.mode,
        "blocks": [
            {
                "atoms": list(b.atoms),
                "x_measure": jsonio.fmt_frac(b.x_measure),
                "y_measure": jsonio.fmt_frac(b.y_measure),
                "ok": b.ok,
            }
            for b in rep.blocks
        ],
    }
    return _emit(report, args, EXIT_OK if rep.ok else EXIT_OBSTRUCTION)


def _check_euclidean(payload, args) -> int:
    L1 = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
    L2 = jsonio.parse_lattice(jsonio._require(payload, "lattice2", "euclidean"))
    if L1.dim != L2.dim:
        raise Incommensurable("lattices of different dimension")
    ratio = covolume(L1) / covolume(L2)
    k = floor_frac(ratio)
    report = {
        "command": "check",
        "kind": "euclidean",
        "ratio": jsonio.fmt_frac(ratio),
        "k": k,
        "eps": jsonio.fmt_frac(ratio - k),
        "verdict": "PASS" if ratio >= 1 else "FAIL",
    }
    return _emit(report, args, EXIT_OK if ratio >= 1 else EXIT_OBSTRUCTION)


def _check_translation(payload, args) -> int:
    ts, X, Y = jsonio.parse_translation_system(payload)
    if X is None or Y is None:
        raise InvalidInput("translation-system check needs x and y regions "
                           "on every component")
    rep = translation_system_check(ts, X, Y)
    report = {
        "command": "check",
        "kind": "translation-system",
        "verdict": "PASS" if rep.ok else "FAIL",
        "ratios": _fracs(rep.ratios),
        "offending": list(rep.offending) if rep.offending else None,
    }
    return _emit(report, args, EXIT_OK if rep.ok else EXIT_OBSTRUCTION)


def cmd_check(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind == "finite":
        return _check_finite(payload, args)
    if kind == "euclidean":
        return _check_euclidean(payload, args)
    if kind == "translation-system":
        return _check_translation(payload, args)
    raise InvalidInput("check expects a finite, euclidean, or "
                       "translation-system instance")


# ---------------------------------------------------------------- growth


def cmd_growth(args) -> int:
    sizes = discrete_ball_growth(args.n_max)
    report = {
        "command": "growth",
        "n_max": args.n_max,
        "sizes": sizes,
        "exponent_estimate": growth_exponent_estimate(sizes),
    }
    if args.csv:
        rows = [(n, s) for n, s in enumerate(sizes)]
        _write_plot(args, "csv", csv_text(("n", "ball_size"), rows))
    if args.svg:
        _write_plot(args, "svg", line_svg(
            [float(n) for n in range(len(sizes))],
            [float(s) for s in sizes],
            "n", "|B_n|"))
    return _emit(report, args, EXIT_OK)


# -------------------------------------------------------------- boundary


def _cube_series(dim: int, count: int) -> list[FrameRegion]:
    regions = []
    for n in range(1, count + 1):
        hi = Fraction(2 * n + 1, 2)
        box = tuple((Fraction(0), hi) for _ in range(dim))
        regions.append(FrameRegion(identity(dim), (box,)))
    return regions


def cmd_boundary(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind != "euclidean":
        raise InvalidInput("boundary expects a euclidean instance")
    L = jsonio.parse_lattice(jsonio._require(payload, "lattice", kind))
    if "regions" in payload:
        regions = [jsonio.parse_region(r) for r in payload["regions"]]
    elif "cube_series" in payload:
        count = payload["cube_series"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise InvalidInput("cube_series must be a positive integer")
        regions = _cube_series(L.dim, count)
    elif "region" in payload:
        regions = [jsonio.parse_region(payload["region"])]
    else:
        raise InvalidInput("boundary needs region, regions, or cube_series")
    series = boundary_series(L, regions)
    report = {
        "command": "boundary",
        "kind": kind,
        "series": [
            {
                "interior": e.interior,
                "boundary": e.boundary,
                "measure": jsonio.fmt_frac(e.measure),
                "ratio": jsonio.fmt_frac(e.ratio),
                "inner_measure": jsonio.fmt_frac(e.inner_measure),
                "outer_measure": jsonio.fmt_frac(e.outer_measure),
            }
            for e in series
        ],
    }
    if args.csv:
        rows = [
            (i + 1, jsonio.fmt_frac(e.measure), e.interior, e.boundary,
             jsonio.fmt_frac(e.ratio), jsonio.fmt_frac(e.inner_measure),
             jsonio.fmt_frac(e.outer_measure))
            for i, e in enumerate(series)
        ]
        _write_plot(args, "csv", csv_text(
            ("index", "measure", "interior", "boundary", "ratio",
             "inner_measure", "outer_measure"), rows))
    if args.svg:
        if len(series) < 2:
            raise InvalidInput("--svg needs a series of at least two regions")
        _write_plot(args, "svg", line_svg(
            [float(i + 1) for i in range(len(series))],
            [float(e.ratio) for e in series],
            "index", "N_b / m(A)"))
    return _emit(report, args, EXIT_OK)


# ---------------------------------------------------------------- finite


def cmd_finite_check(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind != "finite":
        raise InvalidInput("finite subcommands expect a finite instance")
    return _check_finite(payload, args)


def cmd_finite_construct(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind != "finite":
        raise InvalidInput("finite subcommands expect a finite instance")
    inst = jsonio.parse_finite(payload)
    if inst.x is None or inst.y is None:
        raise InvalidInput("finite construct needs x and y domains")
    if inst.mode == "geq":
        fs = construct_packing_fds(inst.pair, inst.x, inst.y, k=inst.k)
        f_eps = None
    else:
        fs, f_eps = construct_k_epsilon(inst.pair, inst.x, inst.y,
                                        k=inst.k, eps=inst.eps)
    ok = all(verify_fundamental_domain(inst.pair.right, f).ok for f in fs)
    ok = ok and verify_packing(inst.pair.left, fs).ok
    if f_eps is not None:
        ok = ok and verify_packing(inst.pair.right, [f_eps]).ok
        union = frozenset().union(*fs, f_eps)
        ok = ok and verify_fundamental_domain(inst.pair.left, union).ok
    space = inst.pair.left.space
    report = {
        "command": "finite construct",
        "kind": "finite",
        "verdict": "ok" if ok else "verification-failed",
        "mode": inst.mode,
        "k": inst.k,
        "eps": jsonio.fmt_frac(inst.eps),
        "fs": [sorted(f) for f in fs],
        "f_eps": None if f_eps is None else sorted(f_eps),
        "f_eps_measure": None if f_eps is None
        else jsonio.fmt_frac(space.measure(f_eps)),
    }
    return _emit(report, args, EXIT_OK if ok else EXIT_VERIFY)


def cmd_finite_oracle(args) -> int:
    kind, payload = jsonio.load_instance(args.instance)
    if kind != "finite":
        raise InvalidInput("finite subcommands expect a finite instance")
    inst = jsonio.parse_finite(payload)
    exists = brute_force_common_fd_exists(inst.pair)
    report = {
        "command": "finite oracle",
        "kind": "finite",
        "common_fd_exists": exists,
    }
    return _emit(report, args, EXIT_OK)


# ------------------------------------------------------------------ heis


def _heis_payload(args):
    kind, payload = jsonio.load_instance(args.instance)
    if kind != "heisenberg":
        raise InvalidInput("heis subcommands expect a heisenberg instance")
    return payload


def cmd_heis_mul(args) -> int:
    payload = _heis_payload(args)
    points = jsonio._require(payload, "points", "heisenberg")
    if not isinstance(points, list) or len(points) < 2:
        raise InvalidInput("heis mul needs at least two points")
    acc = jsonio.parse_heis_point(points[0])
    for obj in points[1:]:
        acc = heis_mul(acc, jsonio.parse_heis_point(obj))
    report = {
        "command": "heis mul",
        "kind": "heisenberg",
        "product": jsonio.heis_point_json(acc),
    }
    return _emit(report, args, EXIT_OK)


def cmd_heis_exp(args) -> int:
    payload = _heis_payload(args)
    v = jsonio.parse_lie_vec(jsonio._require(payload, "vector", "heisenberg"))
    report = {
        "command": "heis exp",
        "kind": "heisenberg",
        "point": jsonio.heis_point_json(heis_exp(v)),
    }
    return _emit(report, args, EXIT_OK)


def cmd_heis_reduce(args) -> int:
    payload = _heis_payload(args)
    L = jsonio.parse_heis_lattice(jsonio._require(payload, "lattice", "heisenberg"))
    g = jsonio.parse_heis_point(jsonio._require(payload, "point", "heisenberg"))
    side = payload.get("side", "left")
    if side == "left":
        red = reduce_left(g, L)
    elif side == "right":
        red = reduce_right(g, L)
    else:
        raise InvalidInput("side must be 'left' or 'right'")
    report = {
        "command": "heis reduce",
        "kind": "heisenberg",
        "side": side,
        "gamma": jsonio.heis_point_json(red.gamma),
        "exponents": list(red.exponents),
        "omega": jsonio.heis_point_json(red.omega),
    }
    return _emit(report, args, EXIT_OK)


def cmd_heis_covol(args) -> int:
    payload = _heis_payload(args)
    L = jsonio.parse_heis_lattice(jsonio._require(payload, "lattice", "heisenberg"))
    report = {
        "command": "heis covol",
        "kind": "heisenberg",
        "covolume": jsonio.fmt_frac(lattice_covolume(L)),
    }
    return _emit(report, args, EXIT_OK)


def cmd_heis_mc_verify(args) -> int:
    payload = _heis_payload(args)
    L = jsonio.parse_heis_lattice(jsonio._require(payload, "lattice", "heisenberg"))
    side = payload.get("side", "left")
    which = payload.get("candidate", "cell")
    if which == "cell":
        cand = malcev_cell(L)
    elif which == "psi":
        cand = psi_cell()
    else:
        raise InvalidInput("candidate must be 'cell' or 'psi'")
    window = cand.bbox
    if "window" in payload:
        window = jsonio.parse_box(payload["window"])
        if len(window) != 3:
            raise InvalidInput("window must be a 3-dimensional box")
    rep = mc_verify_tiling(cand, HeisAction(side, L), window,
                           samples=args.samples, seed=args.seed)
    ok = rep.all_multiplicity_one()
    report = {
        "command": "heis mc-verify",
        "kind": "heisenberg",
        "side": side,
        "candidate": which,
        "verdict": "tiling-evidence" if ok else "fail",
        "histogram": {str(m): c for m, c in rep.histogram.items()},
        "samples": rep.samples,
        "seed": rep.seed,
        "resampled": rep.resampled,
    }
    return _emit(report, args, EXIT_OK if ok else EXIT_VERIFY)


# ------------------------------------------------------------ entry point


def _add_common(sub, instance: bool = True):
    if instance:
        sub.add_argument("instance", help="path to a JSON instance file")
    sub.add_argument("--out", help="write the JSON report to this path")
    sub.add_argument("--svg", action="store_true",
                     help="also write an SVG next to --out")
    sub.add_argument("--csv", action="store_true",
                     help="also write a CSV next to --out")
    sub.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the report")


def build_parser() -> _Parser:
    parser = _Parser(prog="tessella",
                     description="exact fundamental-domain toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("covol", help="covolume of a lattice instance")
    _add_common(p)
    p.set_defaults(handler=cmd_covol)

    p = subs.add_parser("common-fd", help="construct a common fundamental domain")
    _add_common(p)
    p.set_defaults(handler=cmd_common_fd)

    p = subs.add_parser("verify", help="exact tiling/packing verification")
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("check", help="measure-condition check")
    _add_common(p)
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("growth", help="word-metric ball growth")
    p.add_argument("n_max", type=int)
    _add_common(p, instance=False)
    p.set_defaults(handler=cmd_growth)

    p = subs.add_parser("boundary", help="boundary-count diagnostics")
    _add_common(p)
    p.set_defaults(handler=cmd_boundary)

    fin = subs.add_parser("finite", help="finite-action engine")
    fsubs = fin.add_subparsers(dest="finite_command", required=True)
    p = fsubs.add_parser("check", help="per-block measure condition")
    _add_common(p)
    p.set_defaults(handler=cmd_finite_check)
    p = fsubs.add_parser("construct", help="packing / k+eps construction")
    _add_common(p)
    p.set_defaults(handler=cmd_finite_construct)
    p = fsubs.add_parser("oracle", help="brute-force common-domain existence")
    _add_common(p)
    p.set_defaults(handler=cmd_finite_oracle)

    heis = subs.add_parser("heis", help="Heisenberg engine")
    hsubs = heis.add_subparsers(dest="heis_command", required=True)
    p = hsubs.add_parser("mul", help="group product of points")
    _add_common(p)
    p.set_defaults(handler=cmd_heis_mul)
    p = hsubs.add_parser("exp", help="exponential chart of a Lie vector")
    _add_common(p)
    p.set_defaults(handler=cmd_heis_exp)
    p = hsubs.add_parser("reduce", help="reduce a point to the cell")
    _add_common(p)
    p.set_defaults(handler=cmd_heis_reduce)
    p = hsubs.add_parser("covol", help="covolume of a lattice")
    _add_common(p)
    p.set_defaults(handler=cmd_heis_covol)
    p = hsubs.add_parser("mc-verify", help="seeded Monte Carlo tiling check")
    _add_common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_heis_mc_verify)

    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "timing", False):
            args._started = started
        return args.handler(args)
    except (ConditionFails, NotFree, CovolumeMismatch) as exc:
        sys.stdout.write(jsonio.dumps_report({
            "schema": "tessella-report/1",
            "verdict": "obstruction",
            "reason": str(exc),
            "timing_ms": None,
        }))
        return EXIT_OBSTRUCTION
    except InvalidDomain as exc:
        sys.stdout.write(jsonio.dumps_report({
            "schema": "tessella-report/1",
            "verdict": "verification-failed",
            "reason": str(exc),
            "timing_ms": None,
        }))
        return EXIT_VERIFY
    except TessellaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
