import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tessella.boxes import FrameRegion, make_box
from tessella.errors import InvalidInput, TooLarge
from tessella.heis import HeisLattice, HeisPoint
from tessella.jsonio import (
    dumps_report,
    fmt_frac,
    heis_point_json,
    instance_envelope,
    load_instance,
    parse_box,
    parse_finite,
    parse_frac,
    parse_heis_lattice,
    parse_heis_point,
    parse_lattice,
    parse_lie_vec,
    parse_matrix,
    parse_region,
    parse_translation_system,
    parse_vector,
    region_json,
    schema_tag,
)
from tessella.lattices import EucLattice
from tessella.linalg import identity

import oracles


def test_fraction_forms():
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("-2") == -2
    assert parse_frac(5) == 5
    assert fmt_frac(Fraction(8, 4)) == "2"
    assert fmt_frac(Fraction(-1, 3)) == "-1/3"


def _fraction_of(v):
    """What parse_frac returned for a string when it was Fraction(v)."""
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational {v!r}: {exc}"


def _parse_frac_outcome(v):
    try:
        return parse_frac(v)
    except InvalidInput as exc:
        return str(exc)


@pytest.mark.parametrize("v, expected", [
    (" 1/2 ", Fraction(1, 2)),
    ("+1/2", Fraction(1, 2)),
    ("-0/5", Fraction(0)),
    ("1.5", Fraction(3, 2)),
    ("1/0", "bad rational '1/0': Fraction(1, 0)"),
    ("", "bad rational '': Invalid literal for Fraction: ''"),
])
def test_rational_strings_pinned(v, expected):
    assert _parse_frac_outcome(v) == expected == _fraction_of(v)


@pytest.mark.parametrize("v", [
    "1" * 4301, "-" + "1" * 4301, "1/" + "3" * 4301, "1" * 4301 + "/0", "\t5/10\n",
    "1_000", "1e3", "0/0", "1 /2", "--1", "1/-2", "\u0663", "1/2\x1c",
])
def test_rational_strings_parse_as_fraction_does(v):
    # past the int string limit a numerator is refused with Fraction's own
    # message; an interpreter without the limit reads it
    assert _parse_frac_outcome(v) == _fraction_of(v)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter prints ints of any length")
def test_unprintable_numbers_are_too_large():
    huge = 10 ** sys.get_int_max_str_digits()
    assert fmt_frac(Fraction(1, 3)) == "1/3"
    with pytest.raises(TooLarge):
        fmt_frac(Fraction(1, huge))
    with pytest.raises(TooLarge):
        fmt_frac(huge)
    with pytest.raises(TooLarge):
        dumps_report({"sizes": [1, huge]})


@pytest.mark.parametrize("bad", [0.5, True, None, "1/0", "x", [1]])
def test_inexact_or_malformed_rationals_rejected(bad):
    with pytest.raises(InvalidInput):
        parse_frac(bad)


def test_vector_matrix_roundtrip():
    assert parse_vector(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
    m = parse_matrix([["1", "0"], ["1/2", "2"]])
    assert m == ((1, 0), (Fraction(1, 2), 2))
    with pytest.raises(InvalidInput):
        parse_matrix([["1", "0"], ["1/2"]])
    with pytest.raises(InvalidInput):
        parse_vector("12")


def test_lattice_roundtrip():
    doc = {"dim": 2, "basis": [["1/2", "0"], ["0", "2"]]}
    L = parse_lattice(doc)
    assert isinstance(L, EucLattice)
    assert oracles.lattice_json(L) == doc
    with pytest.raises(InvalidInput):
        parse_lattice({"dim": 3, "basis": [["1", "0"], ["0", "1"]]})


def test_box_and_region_roundtrip():
    b = parse_box({"lo": ["0", "0"], "hi": ["3/2", "1"]})
    assert b == make_box((0, 0), (Fraction(3, 2), 1))
    with pytest.raises(InvalidInput):
        parse_box({"lo": ["0"], "hi": ["0"]})  # empty on a coordinate

    doc = {
        "frame": [["1", "0"], ["0", "1"]],
        "boxes": [{"lo": ["0", "0"], "hi": ["1", "1"]}],
    }
    R = parse_region(doc)
    assert isinstance(R, FrameRegion)
    assert R.measure == 1
    assert region_json(R) == doc


def test_region_json_of_constructed_region():
    R = FrameRegion(identity(2), (make_box((0, 0), (1, 1)),))
    doc = region_json(R)
    assert parse_region(doc).measure == R.measure


# parse_region hands the corner values to FrameRegion as given; its value
# or first error must be that of parsing every box to Fractions first.
good_values = st.sampled_from([0, 1, 2, 3, -1, "0", "1/2", "3/2", " 2 ", "1.5", "-1/3", "7/4"])
bad_values = st.sampled_from(["abc", "1/0", "", 1.5, True, None, [1], {}])
good_corners = st.lists(good_values, min_size=2, max_size=2)
corners = st.one_of(good_corners, good_corners, good_corners,
                    st.lists(st.one_of(good_values, bad_values), max_size=3), bad_values)
json_boxes = st.one_of(
    st.fixed_dictionaries({"lo": good_corners, "hi": good_corners}),
    st.fixed_dictionaries({"lo": corners, "hi": corners}),
    st.fixed_dictionaries({"lo": corners}),
    st.fixed_dictionaries({"hi": corners}),
    st.sampled_from([None, 3, "box", []]))
frames = st.sampled_from([[["1", "0"], ["0", "1"]], [["1", "1/2"], ["0", "1"]],
                          [["1", "0"], ["2", "0"]], [["1", "0"]], [["2"]]])


def _region_by_boxes(obj):
    """The parse that built a Fraction box per JSON box before the region."""
    frame = parse_matrix(obj["frame"])
    return FrameRegion(frame, tuple(parse_box(b) for b in obj["boxes"]))


def _parsed(parse, obj):
    try:
        return "region", parse(obj)
    except InvalidInput as exc:
        return "error", str(exc)


@given(frames, st.lists(json_boxes, max_size=3))
def test_parse_region_equals_the_parse_by_boxes(frame, boxes):
    doc = {"frame": frame, "boxes": boxes}
    assert _parsed(parse_region, doc) == _parsed(_region_by_boxes, doc)


@pytest.mark.parametrize("boxes", [
    [{"lo": ["0", "0"], "hi": ["0", "1"]}, {"lo": ["x"], "hi": ["1"]}],
    [{"lo": ["0", "0"], "hi": ["1", "1"]}, {"lo": [1.5], "hi": ["1"]}],
    [{"lo": ["0", "0"], "hi": ["1", "1"]}, {"lo": ["0", "0"], "hi": ["2", "1/0"]}],
    [{"lo": ["0"], "hi": ["1"]}, {"lo": ["0", "0"], "hi": ["1"]}],
    [{"lo": ["0", "0"], "hi": ["2", "2"]}, {"lo": ["1", "1"], "hi": ["3", "3"]}],
    # a Fraction is no JSON value: parse_frac refuses it, though FrameRegion would not
    [{"lo": ["0", "0"], "hi": ["1", "1"]}, {"lo": [Fraction(1), "1"], "hi": ["2", "2"]}],
])
def test_parse_region_reports_the_first_error_by_boxes(boxes):
    for frame in ([["1", "0"], ["0", "1"]], [["1", "0"], ["2", "0"]]):
        doc = {"frame": frame, "boxes": boxes}
        got = _parsed(parse_region, doc)
        assert got[0] == "error"
        assert got == _parsed(_region_by_boxes, doc)


def finite_payload():
    return {
        "schema": schema_tag("finite"),
        "weights": ["1/6"] * 6,
        "left_action": {
            "side": "left",
            "elements": ["0", "3"],
            "table": [[0, 1], [1, 0]],
            "perms": [[0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2]],
        },
        "right_action": {
            "side": "right",
            "elements": ["0", "2", "4"],
            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
            "perms": [
                [0, 1, 2, 3, 4, 5],
                [2, 3, 4, 5, 0, 1],
                [4, 5, 0, 1, 2, 3],
            ],
        },
        "x": [0, 1, 2],
        "y": [0, 1],
        "k": 1,
        "eps": "1/2",
        "mode": "eq",
    }


def test_finite_instance_parses():
    inst = parse_finite(finite_payload())
    assert inst.x == [0, 1, 2]
    assert inst.y == [0, 1]
    assert inst.k == 1
    assert inst.eps == Fraction(1, 2)
    assert inst.mode == "eq"
    assert len(inst.pair.left.group.table) == 2
    assert len(inst.pair.right.group.table) == 3


def test_finite_defaults():
    payload = finite_payload()
    for key in ("x", "y", "k", "eps", "mode"):
        payload.pop(key)
    inst = parse_finite(payload)
    assert inst.x is None and inst.y is None
    assert inst.k == 1 and inst.eps == 0 and inst.mode == "eq"


def test_finite_rejects_wrong_side_and_bad_atoms():
    payload = finite_payload()
    payload["left_action"]["side"] = "right"
    with pytest.raises(InvalidInput):
        parse_finite(payload)
    payload = finite_payload()
    payload["x"] = [0, 6]
    with pytest.raises(InvalidInput):
        parse_finite(payload)
    payload = finite_payload()
    payload["mode"] = "sometimes"
    with pytest.raises(InvalidInput):
        parse_finite(payload)


def test_finite_rejects_trivial_group_moving_atoms():
    payload = finite_payload()
    payload["weights"] = ["1/2", "1/2"]
    payload["left_action"] = {"side": "left", "elements": ["e"], "table": [[0]],
                              "perms": [[1, 0]]}
    payload["right_action"] = {"side": "right", "elements": ["e"], "table": [[0]],
                               "perms": [[0, 1]]}
    with pytest.raises(InvalidInput, match="^perm map is not a homomorphism$"):
        parse_finite(payload)


def ts_payload():
    return {
        "schema": schema_tag("translation-system"),
        "rank": 1,
        "components": [
            {
                "dim": 1,
                "gamma": [["2"]],
                "lambda": [["1"]],
                "x": {"frame": [["1"]],
                      "boxes": [{"lo": ["0"], "hi": ["2"]}]},
                "y": {"frame": [["1"]],
                      "boxes": [{"lo": ["0"], "hi": ["1"]}]},
            },
            {
                "dim": 1,
                "gamma": [["1"]],
                "lambda": [["2"]],
                "x": {"frame": [["1"]],
                      "boxes": [{"lo": ["0"], "hi": ["1"]}]},
                "y": {"frame": [["1"]],
                      "boxes": [{"lo": ["0"], "hi": ["2"]}]},
            },
        ],
    }


def test_translation_system_parses():
    ts, X, Y = parse_translation_system(ts_payload())
    assert ts.rank == 1
    assert len(ts.components) == 2
    assert X is not None and Y is not None
    assert X[0].measure == 2 and Y[0].measure == 1


def test_translation_system_domains_all_or_none():
    payload = ts_payload()
    del payload["components"][1]["y"]
    with pytest.raises(InvalidInput):
        parse_translation_system(payload)
    payload = ts_payload()
    for comp in payload["components"]:
        del comp["x"]
        del comp["y"]
    ts, X, Y = parse_translation_system(payload)
    assert X is None and Y is None


def test_heis_values_roundtrip():
    g = parse_heis_point({"x1": "3/2", "x2": "-1/4", "c": "37/10"})
    assert g == HeisPoint("3/2", "-1/4", "37/10")
    assert heis_point_json(g) == {"x1": "3/2", "x2": "-1/4", "c": "37/10"}
    v = parse_lie_vec({"u1": "1", "u2": "0", "u3": "1/2"})
    assert (v.u1, v.u2, v.u3) == (1, 0, Fraction(1, 2))
    L = parse_heis_lattice({"A": [["1", "0"], ["0", "1/2"]]})
    assert isinstance(L, HeisLattice)
    assert oracles.heis_lattice_json(L) == {"A": [["1", "0"], ["0", "1/2"]]}
    alpha = oracles.parse_heis_aut({"A": [["2", "0"], ["0", "1/2"]]})
    assert alpha.A == ((2, 0), (0, Fraction(1, 2)))


def test_envelope_dispatch():
    kind, doc = instance_envelope({"schema": "tessella-heisenberg/1"})
    assert kind == "heisenberg"
    with pytest.raises(InvalidInput):
        instance_envelope({"schema": "tessella-heisenberg/2"})
    with pytest.raises(InvalidInput):
        instance_envelope([1, 2])
    with pytest.raises(InvalidInput):
        instance_envelope({})


def test_load_instance_errors(tmp_path):
    with pytest.raises(InvalidInput):
        load_instance(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidInput):
        load_instance(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema": "tessella-euclidean/1"}),
                    encoding="utf-8")
    assert load_instance(str(good))[0] == "euclidean"


def test_report_serialization_is_stable():
    rep = {"b": Fraction is not None and "x", "a": [1, 2]}
    text = dumps_report(rep)
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": "x"\n}\n'
    assert dumps_report(rep) == text
