"""JSON interchange: instance documents in, reports out.

Instance files carry a schema tag "tessella-<kind>/1" naming the engine
they target. Every rational travels as an exact string "p/q" (or a JSON
integer); floats are rejected at the door so no precision is lost in
transit. Reports are serialized canonically (sorted keys, fixed
indentation) so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .boxes import Box, FrameRegion, make_box
from .errors import InvalidInput
from .finite import (
    ActionPair,
    FiniteAction,
    FiniteGroup,
    FiniteMeasureSpace,
)
from .heis import HeisAut, HeisLattice, HeisPoint, LieVec
from .lattices import EucLattice, TSComponent, TranslationSystem

KINDS = ("finite", "euclidean", "translation-system", "heisenberg")


def schema_tag(kind: str) -> str:
    return f"tessella-{kind}/1"


def parse_frac(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise InvalidInput(f"exact rational required, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational {v!r}: {exc}")
    raise InvalidInput(f"exact rational required, got {v!r}")


def fmt_frac(q: Fraction) -> str:
    return str(Fraction(q))


def _require(obj, key, kind=""):
    if not isinstance(obj, dict) or key not in obj:
        where = f" in {kind}" if kind else ""
        raise InvalidInput(f"missing field {key!r}{where}")
    return obj[key]


def _is_int(v) -> bool:
    return type(v) is int  # a JSON integer; true and false are bools


def _is_int_array(v) -> bool:
    return isinstance(v, list) and all(type(x) is int for x in v)


def parse_array(v, name: str, what: str, entry=None) -> list:
    """v itself, once it is a JSON array whose every entry passes `entry`."""
    if not isinstance(v, list) or (entry is not None and not all(map(entry, v))):
        raise InvalidInput(f"{name} must be an array of {what}")
    return v


def parse_vector(v) -> tuple[Fraction, ...]:
    if not isinstance(v, list):
        raise InvalidInput("vector must be a JSON array")
    return tuple(parse_frac(x) for x in v)


def parse_matrix(m) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(m, list) or not m:
        raise InvalidInput("matrix must be a nonempty JSON array of rows")
    rows = tuple(parse_vector(r) for r in m)
    if len({len(r) for r in rows}) != 1:
        raise InvalidInput("matrix rows differ in length")
    return rows


def matrix_json(m) -> list[list[str]]:
    return [[fmt_frac(x) for x in row] for row in m]


def parse_lattice(obj) -> EucLattice:
    basis = parse_matrix(_require(obj, "basis", "lattice"))
    dim = _require(obj, "dim", "lattice")
    if not _is_int(dim) or dim != len(basis) or any(len(r) != dim for r in basis):
        raise InvalidInput("lattice dim does not match the basis shape")
    return EucLattice(basis)


def lattice_json(L: EucLattice) -> dict:
    return {"dim": L.dim, "basis": matrix_json(L.basis)}


def parse_box(obj) -> Box:
    return make_box(parse_vector(_require(obj, "lo", "box")),
                    parse_vector(_require(obj, "hi", "box")))


def box_json(b: Box) -> dict:
    return {"lo": [fmt_frac(lo) for lo, _ in b],
            "hi": [fmt_frac(hi) for _, hi in b]}


_RATIONAL_TYPES = frozenset((int, str))  # the JSON values parse_frac may accept


def _is_rational_array(v) -> bool:
    """Whether v is a JSON array of entries that pass parse_frac's type
    checks: JSON integers and strings."""
    return isinstance(v, list) and _RATIONAL_TYPES.issuperset(map(type, v))


def _corner_pairs(obj) -> tuple:
    """A box's (lo, hi) pairs of JSON values, for FrameRegion to parse;
    parse_box's error when its fields, their types or their lengths are
    wrong."""
    lo, hi = (obj.get("lo"), obj.get("hi")) if isinstance(obj, dict) else (None, None)
    if not (_is_rational_array(lo) and _is_rational_array(hi) and len(lo) == len(hi)):
        parse_box(obj)
    return tuple(zip(lo, hi))


def parse_region(obj) -> FrameRegion:
    """The region of a JSON document. Its corner values go to FrameRegion
    as given, which reads them as int pairs; on any error, the boxes are
    parsed again one by one (parse_box), so the error reported is the
    first one in that order, before the frame's own checks."""
    frame = parse_matrix(_require(obj, "frame", "region"))
    boxes = _require(obj, "boxes", "region")
    if not isinstance(boxes, list):
        raise InvalidInput("region boxes must be a JSON array")
    try:
        return FrameRegion(frame, tuple(map(_corner_pairs, boxes)))
    except (InvalidInput, ValueError, ZeroDivisionError):
        for b in boxes:
            parse_box(b)
        raise


def region_json(R: FrameRegion) -> dict:
    return {"frame": matrix_json(R.frame),
            "boxes": [box_json(b) for b in R.boxes]}


@dataclass(frozen=True)
class FiniteInstance:
    pair: ActionPair
    x: Optional[list[int]]
    y: Optional[list[int]]
    k: int
    eps: Fraction
    mode: str


def _parse_atoms(v, n: int, name: str) -> list[int]:
    atoms = sorted(set(parse_array(v, name, "atom indices", _is_int)))
    if len(atoms) != len(v):
        raise InvalidInput(f"{name} repeats an atom")
    if atoms and (atoms[0] < 0 or atoms[-1] >= n):
        raise InvalidInput(f"{name} indexes outside the space")
    return atoms


def _parse_action(obj, space: FiniteMeasureSpace, role: str) -> FiniteAction:
    side = _require(obj, "side", role)
    if side != role:
        raise InvalidInput(f"{role} action declares side {side!r}")
    elements = parse_array(_require(obj, "elements", role), f"{role} elements", "names")
    table = parse_array(_require(obj, "table", role), f"{role} table",
                        "integer arrays", _is_int_array)
    perms = parse_array(_require(obj, "perms", role), f"{role} perms",
                        "integer arrays", _is_int_array)
    group = FiniteGroup(table, names=[str(e) for e in elements])
    return FiniteAction(group, space, perms, side=side)


def parse_finite(payload) -> FiniteInstance:
    weights = parse_array(_require(payload, "weights", "finite"), "weights", "rationals")
    space = FiniteMeasureSpace([parse_frac(w) for w in weights])
    left = _parse_action(_require(payload, "left_action", "finite"), space, "left")
    right = _parse_action(_require(payload, "right_action", "finite"), space, "right")
    pair = ActionPair(left, right)
    x = payload.get("x")
    y = payload.get("y")
    mode = payload.get("mode", "eq")
    if mode not in ("eq", "geq"):
        raise InvalidInput("mode must be 'eq' or 'geq'")
    k = payload.get("k", 1)
    if not _is_int(k):
        raise InvalidInput("k must be an integer")
    return FiniteInstance(
        pair=pair,
        x=None if x is None else _parse_atoms(x, space.n, "x"),
        y=None if y is None else _parse_atoms(y, space.n, "y"),
        k=k,
        eps=parse_frac(payload.get("eps", 0)),
        mode=mode,
    )


def parse_translation_system(payload):
    """Returns (system, X, Y); X and Y are region lists when every
    component carries them, else None."""
    rank = _require(payload, "rank", "translation system")
    comps = _require(payload, "components", "translation system")
    if not isinstance(comps, list) or not comps:
        raise InvalidInput("components must be a nonempty array")
    parsed = []
    xs, ys = [], []
    for comp in comps:
        dim = _require(comp, "dim", "component")
        if not _is_int(dim):
            raise InvalidInput("component dim must be an integer")
        gamma = parse_matrix(_require(comp, "gamma", "component"))
        lam = parse_matrix(_require(comp, "lambda", "component"))
        parsed.append(TSComponent(dim, gamma, lam))
        xs.append(comp.get("x"))
        ys.append(comp.get("y"))
    if not _is_int(rank):
        raise InvalidInput("rank must be an integer")
    ts = TranslationSystem(rank, parsed)

    def regions(vals, name):
        present = [v is not None for v in vals]
        if not any(present):
            return None
        if not all(present):
            raise InvalidInput(f"{name} must be given on every component or none")
        return [parse_region(v) for v in vals]

    return ts, regions(xs, "x"), regions(ys, "y")


def parse_heis_point(obj) -> HeisPoint:
    return HeisPoint(
        parse_frac(_require(obj, "x1", "point")),
        parse_frac(_require(obj, "x2", "point")),
        parse_frac(_require(obj, "c", "point")),
    )


def heis_point_json(g: HeisPoint) -> dict:
    return {"x1": fmt_frac(g.x1), "x2": fmt_frac(g.x2), "c": fmt_frac(g.c)}


def parse_lie_vec(obj) -> LieVec:
    return LieVec(
        parse_frac(_require(obj, "u1", "vector")),
        parse_frac(_require(obj, "u2", "vector")),
        parse_frac(_require(obj, "u3", "vector")),
    )


def parse_heis_lattice(obj) -> HeisLattice:
    return HeisLattice(parse_matrix(_require(obj, "A", "lattice")))


def heis_lattice_json(L: HeisLattice) -> dict:
    return {"A": matrix_json(L.A)}


def parse_heis_aut(obj) -> HeisAut:
    return HeisAut(parse_matrix(_require(obj, "A", "automorphism")))


def load_instance(path: str):
    """Read and envelope-check an instance file: (kind, payload)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}")
    return instance_envelope(doc)


def instance_envelope(doc):
    if not isinstance(doc, dict):
        raise InvalidInput("instance must be a JSON object")
    tag = _require(doc, "schema", "instance")
    for kind in KINDS:
        if tag == schema_tag(kind):
            return kind, doc
    raise InvalidInput(f"unknown schema {tag!r}")


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
