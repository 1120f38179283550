"""Fault injection: each engine re-verifies what it builds with explicit
checks, so a wrong intermediate result raises ConstructionFailed (CLI
exit 2 with a witness) and never an AssertionError, also under
`python -O`, which strips assert statements.

Each fault wraps one engine step so that it returns a wrong answer: the
finite and lattice selections drop the last item of every domain, the
Heisenberg planar split moves the first exponent by one, the
coverage count in `boxes.reduce_mod` covers its first cell once more,
and the cone volume of a Dirichlet cell counts one unit too many.
Dirichlet cells have no CLI command, so that engine is checked through
the library alone.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from tessella import boxes, dirichlet, finite, heis, jsonio, lattices
from tessella.cli import main
from tessella.errors import ConstructionFailed

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")


def inst(name):
    return os.path.join(INSTANCES, name)


def _drop_last(real):
    def fake(*args, **kwargs):
        fs, feps = real(*args, **kwargs)
        return [f[:-1] for f in fs], feps
    return fake


def _shift_first_exponent(real):
    def fake(L, g):
        n1, n2, p, q = real(L, g)
        return n1 + 1, n2, p, q
    return fake


def _overcount_first_cell(real):
    def fake(pieces, bounds):
        for i, (cell, count) in enumerate(real(pieces, bounds)):
            yield cell, count + (i == 0)
    return fake


def _overcount_volume(real):
    def fake(*args, **kwargs):
        return real(*args, **kwargs) + 1
    return fake


def _payload(name):
    return jsonio.load_instance(inst(name))[1]


def _finite_library():
    fi = jsonio.parse_finite(_payload("z6_one_plus_half.json"))
    finite.construct_k_epsilon(fi.pair, fi.x, fi.y, k=fi.k, eps=fi.eps)


def _lattice_library():
    payload = _payload("pair_square_rectangle.json")
    lattices.common_fd_commensurable(jsonio.parse_lattice(payload["lattice"]),
                                     jsonio.parse_lattice(payload["lattice2"]))


def _heis_library():
    payload = _payload("heis_reduce.json")
    L = jsonio.parse_heis_lattice(payload["lattice"])
    g = jsonio.parse_heis_point(payload["point"])
    heis.reduce_right(g, L)  # the CLI command reduces on the left


def _boxes_library():
    payload = _payload("square_tiling.json")
    lattices.verify_tiling_exact(jsonio.parse_region(payload["region"]),
                                 jsonio.parse_lattice(payload["lattice"]))


def _dirichlet_library():
    dirichlet.dirichlet_domain(lattices.EucLattice([[2, 1, 0], [1, 2, 0], [0, 0, 1]]),
                               ("1/3", 0, "1/2"))


# engine -> (module, attribute, fault, library call, CLI argv or None,
#            witness keys)
FAULTS = {
    "finite": (finite, "select_and_deal", _drop_last, _finite_library,
               ["finite", "construct", inst("z6_one_plus_half.json")],
               {"atom", "count"}),
    "lattice": (lattices, "select_and_deal", _drop_last, _lattice_library,
                ["common-fd", inst("pair_square_rectangle.json")],
                {"point", "multiplicity"}),
    "heisenberg": (heis, "_planar_split", _shift_first_exponent, _heis_library,
                   ["heis", "reduce", inst("heis_reduce.json")],
                   {"point", "omega"}),
    "boxes": (boxes, "compressed_cover", _overcount_first_cell, _boxes_library,
              ["verify", inst("square_tiling.json")],
              {"measure", "expected"}),
    "dirichlet": (dirichlet, "_volume", _overcount_volume, _dirichlet_library,
                  None, {"volume", "covolume", "symmetric"}),
}


def run_faulty(engine: str) -> tuple[str, list, int, str]:
    """Install the engine's fault, then run its library call and its CLI
    command. Returns (name of what the library raised, the sorted keys of
    its witness, exit code, stdout); the last two are None and "" for an
    engine without a CLI command."""
    module, attr, fault, library, argv, _ = FAULTS[engine]
    real = getattr(module, attr)
    setattr(module, attr, fault(real))
    code, out, keys = None, io.StringIO(), []
    try:
        try:
            library()
            raised = "nothing"
        except Exception as exc:
            raised = type(exc).__name__
            keys = sorted(getattr(exc, "witness", {}))
        if argv is not None:
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
    finally:
        setattr(module, attr, real)
    return raised, keys, code, out.getvalue()


def _assert_verification_failed(engine, raised, keys, code, out):
    assert raised == "ConstructionFailed"
    assert set(keys) == FAULTS[engine][5]
    if FAULTS[engine][4] is None:
        return
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "verification-failed"
    assert set(report["witness"]) == FAULTS[engine][5]


@pytest.mark.parametrize("engine", list(FAULTS))
def test_fault_raises_construction_failed(engine):
    _assert_verification_failed(engine, *run_faulty(engine))


@pytest.mark.parametrize("engine", list(FAULTS))
def test_fault_is_caught_under_optimize(engine):
    script = ("import json, sys\n"
              "sys.exit(5) if not sys.flags.optimize else None\n"
              "import test_self_check as t\n"
              f"print(json.dumps(t.run_faulty({engine!r})))\n")
    env = dict(os.environ)
    src = os.path.join(HERE, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, HERE, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    _assert_verification_failed(engine, *json.loads(done.stdout))


def test_dirichlet_witness_names_both_values(monkeypatch):
    monkeypatch.setattr(dirichlet, "_volume", _overcount_volume(dirichlet._volume))
    with pytest.raises(ConstructionFailed) as info:
        _dirichlet_library()
    witness = info.value.witness
    assert witness["covolume"] == 3
    assert witness["volume"] > witness["covolume"]
    assert witness["symmetric"] is True


def test_witness_travels_with_the_error(monkeypatch):
    monkeypatch.setattr(finite, "select_and_deal", _drop_last(finite.select_and_deal))
    with pytest.raises(ConstructionFailed) as info:
        _finite_library()
    assert info.value.witness["count"] == 0
    assert "F_1" in str(info.value)
