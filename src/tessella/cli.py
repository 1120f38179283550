"""Command-line front end.

Every subcommand is one row of COMMANDS: its words, the instance kinds it
accepts with one handler each, and the plot flags it honours. `main`
loads the JSON instance, checks its kind against the row, runs the
handler and emits the JSON report (stdout, plus --out for a file copy);
the reports of exits 2 and 3 raised by the engines take the same path.
Exit codes separate the four outcomes: 0 success, 2 a verification
failed, 3 the mathematics rules the request out, 4 the input is
malformed or the request too large. The engines re-verify every object
they construct and raise ConstructionFailed (exit 2, with a witness)
when the check fails. Reports are byte-stable: rationals as "p/q"
strings, sorted keys, and timing null unless --timing is passed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import jsonio
from .boxes import FrameRegion
from .errors import (
    ConditionFails,
    ConstructionFailed,
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
)
from .heis import (
    HeisAction,
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


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}")


def _emit(report: dict, args, code: int, started: float) -> int:
    report["timing_ms"] = (round((time.monotonic() - started) * 1000.0, 3)
                           if args.timing else None)
    report["schema"] = "tessella-report/1"
    text = jsonio.dumps_report(report)
    if args.out:
        _write_file(args.out, text)
    sys.stdout.write(text)
    return code


def _write_plot(args, suffix: str, text: str) -> None:
    if not args.out:
        raise InvalidInput(f"--{suffix} requires --out to name the file")
    _write_file(os.path.splitext(args.out)[0] + "." + suffix, text)


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


# Handlers take the instance payload (None for commands without an
# instance file) and the parsed arguments, and return the report fields
# they own plus the exit code; `main` adds "command", "kind", "schema"
# and "timing_ms". Engine errors propagate to `main`.

# ---------------------------------------------------------------- covol


def _covol_euclidean(payload, args):
    L = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
    return {"covolume": jsonio.fmt_frac(covolume(L))}, EXIT_OK


def _covol_heisenberg(payload, args):
    L = jsonio.parse_heis_lattice(jsonio._require(payload, "lattice", "heisenberg"))
    return {"covolume": jsonio.fmt_frac(lattice_covolume(L))}, EXIT_OK


# ------------------------------------------------------------- common-fd


def _finite_xy(payload, command: str):
    inst = jsonio.parse_finite(payload)
    if inst.x is None or inst.y is None:
        raise InvalidInput(f"finite {command} needs x and y domains")
    return inst


def _no_svg(args, kind: str) -> None:
    # the --svg of common-fd draws euclidean pairs only
    if args.svg:
        raise InvalidInput(f"--svg draws euclidean pairs only, not {kind} instances")


def _common_fd_finite(payload, args):
    _no_svg(args, "finite")
    inst = _finite_xy(payload, "common-fd")
    domain = construct_common_fd(inst.pair, inst.x, inst.y)
    return {
        "verdict": "ok",
        "domain_atoms": sorted(domain),
        "measure": jsonio.fmt_frac(inst.pair.left.space.measure(domain)),
    }, EXIT_OK


def _common_fd_euclidean(payload, args):
    L1 = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
    L2 = jsonio.parse_lattice(jsonio._require(payload, "lattice2", "euclidean"))
    domain = common_fd_commensurable(L1, L2)
    if args.svg:
        _write_plot(args, "svg", regions_svg([domain]))
    return {
        "verdict": "ok",
        "domain": jsonio.region_json(domain),
        "measure": jsonio.fmt_frac(domain.measure),
    }, EXIT_OK


def _common_fd_translation(payload, args):
    _no_svg(args, "translation-system")
    ts, _, _ = jsonio.parse_translation_system(payload)
    domains = translation_system_common_fd(ts)
    return {
        "verdict": "ok",
        "domains": [jsonio.region_json(d) for d in domains],
        "measures": _fracs(d.measure for d in domains),
    }, EXIT_OK


# ---------------------------------------------------------------- verify


def _verify(payload, args):
    L = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
    region = jsonio.parse_region(jsonio._require(payload, "region", "euclidean"))
    mode = payload.get("mode", "tiling")
    if mode == "tiling":
        result = verify_tiling_exact(region, L)
    elif mode == "packing":
        result = verify_packing_exact(region, L)
    else:
        raise InvalidInput("mode must be 'tiling' or 'packing'")
    if args.svg:
        _write_plot(args, "svg", regions_svg([region]))
    return {
        "mode": mode,
        "verdict": "PASS" if result.ok else "FAIL",
        "witness": None if result.ok else _witness_json(result.witness),
    }, EXIT_OK if result.ok else EXIT_VERIFY


# ----------------------------------------------------------------- check


def _check_finite(payload, args):
    inst = _finite_xy(payload, "check")
    rep = check_condition(inst.pair, inst.x, inst.y,
                          k=inst.k, eps=inst.eps, mode=inst.mode)
    return {
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
    }, EXIT_OK if rep.ok else EXIT_OBSTRUCTION


def _check_euclidean(payload, args):
    L1 = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
    L2 = jsonio.parse_lattice(jsonio._require(payload, "lattice2", "euclidean"))
    if L1.dim != L2.dim:
        raise Incommensurable("lattices of different dimension")
    ratio = covolume(L1) / covolume(L2)
    k = floor_frac(ratio)
    return {
        "ratio": jsonio.fmt_frac(ratio),
        "k": k,
        "eps": jsonio.fmt_frac(ratio - k),
        "verdict": "PASS" if ratio >= 1 else "FAIL",
    }, EXIT_OK if ratio >= 1 else EXIT_OBSTRUCTION


def _check_translation(payload, args):
    ts, X, Y = jsonio.parse_translation_system(payload)
    if X is None or Y is None:
        raise InvalidInput("translation-system check needs x and y regions "
                           "on every component")
    rep = translation_system_check(ts, X, Y)
    return {
        "verdict": "PASS" if rep.ok else "FAIL",
        "ratios": _fracs(rep.ratios),
        "offending": list(rep.offending) if rep.offending else None,
    }, EXIT_OK if rep.ok else EXIT_OBSTRUCTION


# ---------------------------------------------------------------- growth


def _growth(payload, args):
    sizes = discrete_ball_growth(args.n_max)
    if args.csv:
        rows = [(n, s) for n, s in enumerate(sizes)]
        _write_plot(args, "csv", csv_text(("n", "ball_size"), rows))
    if args.svg:
        _write_plot(args, "svg", line_svg(
            [float(n) for n in range(len(sizes))],
            [float(s) for s in sizes],
            "n", "|B_n|"))
    return {
        "n_max": args.n_max,
        "sizes": sizes,
        "exponent_estimate": growth_exponent_estimate(sizes),
    }, EXIT_OK


# -------------------------------------------------------------- boundary


def _cube_series(dim: int, count: int) -> list[FrameRegion]:
    regions = []
    for n in range(1, count + 1):
        hi = Fraction(2 * n + 1, 2)
        box = tuple((Fraction(0), hi) for _ in range(dim))
        regions.append(FrameRegion(identity(dim), (box,)))
    return regions


def _boundary(payload, args):
    L = jsonio.parse_lattice(jsonio._require(payload, "lattice", "euclidean"))
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
    return {
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
    }, EXIT_OK


# ---------------------------------------------------------------- finite


def _finite_construct(payload, args):
    inst = _finite_xy(payload, "construct")
    if inst.mode == "geq":
        fs = construct_packing_fds(inst.pair, inst.x, inst.y, k=inst.k)
        f_eps = None
    else:
        fs, f_eps = construct_k_epsilon(inst.pair, inst.x, inst.y,
                                        k=inst.k, eps=inst.eps)
    space = inst.pair.left.space
    return {
        "verdict": "ok",
        "mode": inst.mode,
        "k": inst.k,
        "eps": jsonio.fmt_frac(inst.eps),
        "fs": [sorted(f) for f in fs],
        "f_eps": None if f_eps is None else sorted(f_eps),
        "f_eps_measure": None if f_eps is None
        else jsonio.fmt_frac(space.measure(f_eps)),
    }, EXIT_OK


def _finite_oracle(payload, args):
    inst = jsonio.parse_finite(payload)
    return {"common_fd_exists": brute_force_common_fd_exists(inst.pair)}, EXIT_OK


# ------------------------------------------------------------------ heis


def _heis_mul(payload, args):
    points = jsonio._require(payload, "points", "heisenberg")
    if not isinstance(points, list) or len(points) < 2:
        raise InvalidInput("heis mul needs at least two points")
    acc = jsonio.parse_heis_point(points[0])
    for obj in points[1:]:
        acc = heis_mul(acc, jsonio.parse_heis_point(obj))
    return {"product": jsonio.heis_point_json(acc)}, EXIT_OK


def _heis_exp(payload, args):
    v = jsonio.parse_lie_vec(jsonio._require(payload, "vector", "heisenberg"))
    return {"point": jsonio.heis_point_json(heis_exp(v))}, EXIT_OK


def _heis_reduce(payload, args):
    L = jsonio.parse_heis_lattice(jsonio._require(payload, "lattice", "heisenberg"))
    g = jsonio.parse_heis_point(jsonio._require(payload, "point", "heisenberg"))
    side = payload.get("side", "left")
    if side == "left":
        red = reduce_left(g, L)
    elif side == "right":
        red = reduce_right(g, L)
    else:
        raise InvalidInput("side must be 'left' or 'right'")
    return {
        "side": side,
        "gamma": jsonio.heis_point_json(red.gamma),
        "exponents": list(red.exponents),
        "omega": jsonio.heis_point_json(red.omega),
    }, EXIT_OK


def _heis_mc_verify(payload, args):
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
    return {
        "side": side,
        "candidate": which,
        "verdict": "tiling-evidence" if ok else "fail",
        "histogram": {str(m): c for m, c in rep.histogram.items()},
        "samples": rep.samples,
        "seed": rep.seed,
        "resampled": rep.resampled,
    }, EXIT_OK if ok else EXIT_VERIFY


# --------------------------------------------------------- command table


@dataclass(frozen=True)
class _Command:
    """One subcommand. `command` is the name its report carries, which is
    not always the words typed (`finite check` reports "check").
    `handlers` maps each accepted instance kind to its handler; the key
    None marks a command that reads no instance file. `plots` lists the
    plot flags it honours, `extra` its own further arguments."""
    words: tuple[str, ...]
    command: str
    help: str
    handlers: dict[Optional[str], Callable]
    plots: tuple[str, ...] = ()
    extra: tuple[tuple[str, dict], ...] = ()


COMMANDS = (
    _Command(("covol",), "covol", "covolume of a lattice instance",
             {"euclidean": _covol_euclidean, "heisenberg": _covol_heisenberg}),
    _Command(("common-fd",), "common-fd", "construct a common fundamental domain",
             {"finite": _common_fd_finite, "euclidean": _common_fd_euclidean,
              "translation-system": _common_fd_translation}, plots=("svg",)),
    _Command(("verify",), "verify", "exact tiling/packing verification",
             {"euclidean": _verify}, plots=("svg",)),
    _Command(("check",), "check", "measure-condition check",
             {"finite": _check_finite, "euclidean": _check_euclidean,
              "translation-system": _check_translation}),
    _Command(("growth",), "growth", "word-metric ball growth",
             {None: _growth}, plots=("svg", "csv"), extra=(("n_max", {"type": int}),)),
    _Command(("boundary",), "boundary", "boundary-count diagnostics",
             {"euclidean": _boundary}, plots=("svg", "csv")),
    _Command(("finite", "check"), "check", "per-block measure condition",
             {"finite": _check_finite}),
    _Command(("finite", "construct"), "finite construct",
             "packing / k+eps construction", {"finite": _finite_construct}),
    _Command(("finite", "oracle"), "finite oracle",
             "brute-force common-domain existence", {"finite": _finite_oracle}),
    _Command(("heis", "mul"), "heis mul", "group product of points",
             {"heisenberg": _heis_mul}),
    _Command(("heis", "exp"), "heis exp", "exponential chart of a Lie vector",
             {"heisenberg": _heis_exp}),
    _Command(("heis", "reduce"), "heis reduce", "reduce a point to the cell",
             {"heisenberg": _heis_reduce}),
    _Command(("heis", "covol"), "heis covol", "covolume of a lattice",
             {"heisenberg": _covol_heisenberg}),
    _Command(("heis", "mc-verify"), "heis mc-verify", "seeded Monte Carlo tiling check",
             {"heisenberg": _heis_mc_verify},
             extra=(("--samples", {"type": int, "default": 2000}),
                   ("--seed", {"type": int, "default": 0}))),
)

_GROUPS = {"finite": "finite-action engine", "heis": "Heisenberg engine"}


# ------------------------------------------------------------ entry point


@functools.cache
def build_parser() -> _Parser:
    """The parser for every command in COMMANDS, built on the first call
    and shared after it: parsing keeps no state in the parser."""
    parser = _Parser(prog="tessella",
                     description="exact fundamental-domain toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for row in COMMANDS:
        *group, name = row.words
        target = subs
        if group:
            if group[0] not in groups:
                engine = subs.add_parser(group[0], help=_GROUPS[group[0]])
                groups[group[0]] = engine.add_subparsers(
                    dest=f"{group[0]}_command", required=True)
            target = groups[group[0]]
        p = target.add_parser(name, help=row.help)
        if None not in row.handlers:
            p.add_argument("instance", help="path to a JSON instance file")
        for arg, options in row.extra:
            p.add_argument(arg, **options)
        p.add_argument("--out", help="write the JSON report to this path")
        for flag in row.plots:
            p.add_argument(f"--{flag}", action="store_true",
                           help=f"also write {flag.upper()} next to --out")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")
        p.set_defaults(row=row)
    return parser


def _failure(verdict: str, exc: TessellaError) -> dict:
    """The report of an engine error that ends the request with exit 2 or 3."""
    report = {"verdict": verdict, "reason": str(exc)}
    if isinstance(exc, ConstructionFailed):
        report["witness"] = _witness_json(exc.witness)
    return report


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        row = args.row
        try:
            report = {"command": row.command}
            if None in row.handlers:
                kind, payload = None, None
            else:
                kind, payload = jsonio.load_instance(args.instance)
                if kind not in row.handlers:
                    raise InvalidInput(f"{' '.join(row.words)} expects a "
                                       f"{' or '.join(row.handlers)} instance")
                report["kind"] = kind
            fields, code = row.handlers[kind](payload, args)
            report.update(fields)
        except (ConditionFails, NotFree, CovolumeMismatch) as exc:
            report, code = _failure("obstruction", exc), EXIT_OBSTRUCTION
        except (InvalidDomain, ConstructionFailed) as exc:
            report, code = _failure("verification-failed", exc), EXIT_VERIFY
        return _emit(report, args, code, started)
    except TessellaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
