"""Per-layer tracing from outside the package.

The tracer replaces the public entry points of each layer with wrappers
that record a span (name, start, end, parent, request id) and bump the
layer's counters. Because `from .x import f` binds f once per importing
module, a function is replaced in every loaded `tessella` module that
holds it, and methods are replaced on their class. Nothing under the
package's sources changes; `uninstall` puts every original back.

Spans stay in memory until the run ends; a layer's self time is the sum
over its spans of the span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

# span name -> layer key the self time is booked to
LAYER_OF = {
    "flows.lex_least_selection": "flows",
    "lattices.common_fd_commensurable": "lattices",
    "lattices.construct_k_epsilon_lattices": "lattices",
    "lattices.verify_tiling_exact": "lattices",
    "lattices.verify_packing_exact": "lattices",
    "lattices.boundary_series": "lattices",
    "lattices.boundary_count": "lattices",
    "lattices.lattice_sum": "lattices",
    "lattices.lattice_intersection": "lattices",
    "lattices.EucLattice.__init__": "lattices",
    "lattices._CellSystem.__init__": "lattices",
    "finite.check_condition": "finite",
    "finite.construct_packing_fds": "finite",
    "finite.construct_k_epsilon": "finite",
    "finite.construct_common_fd": "finite",
    "finite.brute_force_common_fd_exists": "finite",
    "finite.verify_fundamental_domain": "finite",
    "finite.verify_packing": "finite",
    "finite.FiniteGroup.__init__": "finite",
    "finite.FiniteAction.__init__": "finite",
    "finite.ActionPair.__init__": "finite",
    "boxes.reduce_mod": "boxes.reduce_mod",
    "boxes.FrameRegion.__post_init__": "boxes.region",
    "linalg.mat_inv": "linalg",
    "linalg.det": "linalg",
    "linalg.hnf": "linalg",
    "linalg.hnf_rational": "linalg",
    "heis.mc_verify_tiling": "heis.mc",
    "heis.reduce_left": "heis.reduce",
    "heis.reduce_right": "heis.reduce",
    "heis.discrete_ball_growth": "heis.growth",
    "sampling.DyadicSampler.in_box": "sampling",
    "dirichlet.dirichlet_domain": "dirichlet",
    "jsonio.load_instance": "jsonio.load",
    "jsonio.dumps_report": "jsonio.dump",
    "cli.main": "cli",
    "cli.build_parser": "cli.parser",
    "cli._Parser.parse_args": "cli.parser",
}

# self-time metric -> the layer key whose self time it reports
SELF_TIME_METRICS = {
    "flows.self_s": "flows",
    "lattices.self_s": "lattices",
    "finite.self_s": "finite",
    "boxes.reduce_mod.self_s": "boxes.reduce_mod",
    "boxes.region_self_s": "boxes.region",
    "linalg.self_s": "linalg",
    "heis.mc.self_s": "heis.mc",
    "heis.reduce.self_s": "heis.reduce",
    "heis.growth.self_s": "heis.growth",
    "sampling.self_s": "sampling",
    "dirichlet.self_s": "dirichlet",
    "jsonio.load.self_s": "jsonio.load",
    "jsonio.dump.self_s": "jsonio.dump",
    "cli.parser.self_s": "cli.parser",
    "cli.self_s": "cli",
}

COUNT_METRICS = (
    "flows.calls", "flows.edges", "flows.infeasible",
    "lattices.cells", "lattices.verify.calls",
    "finite.construct.calls", "finite.oracle.calls", "finite.oracle.probes",
    "finite.obstructions",
    "boxes.reduce_mod.calls", "boxes.pieces", "boxes.cells", "boxes.region_builds",
    "linalg.mat_inv.calls", "linalg.det.calls", "linalg.hnf.calls",
    "heis.mc.samples", "heis.mc.resampled", "heis.reduce.calls",
    "sampling.draws",
    "dirichlet.calls", "dirichlet.facets", "dirichlet.vertices",
    "jsonio.bytes_in", "jsonio.bytes_out",
    "cli.exit.0", "cli.exit.2", "cli.exit.3", "cli.exit.4",
)

_CONSTRUCTS = {"finite.construct_packing_fds", "finite.construct_k_epsilon",
               "finite.construct_common_fd"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.request_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every entry point named in LAYER_OF."""
        import tessella.cli  # noqa: F401  (with the package, loads every layer)

        modules = [m for k, m in sys.modules.items()
                   if (k == "tessella" or k.startswith("tessella.")) and m is not None]
        for span in LAYER_OF:
            mod_name, _, attr = span.partition(".")
            module = sys.modules[f"tessella.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                self._replace(cls, meth, cls.__dict__.get(meth), self._wrap(span, original))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -------------------------------------------------------------- spans

    def _name_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        return self._name_ids[span]

    def _wrap(self, span: str, fn):
        name_id = self._name_id(span)
        count = _COUNTERS.get(span)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter()
                stack.pop()
                if count is not None:
                    count(self, idx, args, None, exc)
                raise
            self.end[idx] = perf_counter()
            stack.pop()
            if count is not None:
                count(self, idx, args, result, None)
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name[p]]

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Layer key -> summed self time (span minus direct children)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            layer = LAYER_OF[self.names[self.name[i]]]
            out[layer] = out.get(layer, 0.0) + (self.end[i] - self.start[i] - child[i])
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, name -> (value, unit)."""
        times = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for metric, layer in SELF_TIME_METRICS.items():
            out[metric] = (times.get(layer, 0.0), "s")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts[metric], "count")
        samples = self.counts["heis.mc.samples"]
        out["heis.mc.resample_ratio"] = (
            self.counts["heis.mc.resampled"] / samples if samples else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, name, start, end, parent, request."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.request[i]}\n")


def layer_shares(values: dict[str, float]) -> dict[str, float]:
    """Module-level layer -> its self time, summed over its self-time
    metrics (e.g. `heis` adds `heis.mc`, `heis.reduce`, `heis.growth`)."""
    shares: dict[str, float] = {}
    for name in SELF_TIME_METRICS:
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + values[name]
    return shares


# ---------------------------------------------------------------- counters
# Each counter sees (tracer, span index, call args, result or None, exception
# or None) after the call returns.


def _bump(key):
    def count(t, idx, args, result, exc):
        t.counts[key] += 1
    return count


def _flows(t, idx, args, result, exc):
    t.counts["flows.calls"] += 1
    t.counts["flows.edges"] += len(args[0])
    if exc is None and result is None:
        t.counts["flows.infeasible"] += 1


def _cells(t, idx, args, result, exc):
    if exc is None:
        t.counts["lattices.cells"] += len(args[0].reps)


def _outermost_finite(t, idx) -> bool:
    parent = t.parent_name(idx)
    return parent is None or LAYER_OF[parent] != "finite"


def _obstruction(t, idx, exc, result) -> None:
    from tessella.errors import ConditionFails, NotFree
    from tessella.finite import ConditionReport

    if not _outermost_finite(t, idx):
        return
    if isinstance(exc, (ConditionFails, NotFree)) or (
            isinstance(result, ConditionReport) and not result.ok):
        t.counts["finite.obstructions"] += 1


def _construct(t, idx, args, result, exc):
    if t.parent_name(idx) not in _CONSTRUCTS:
        t.counts["finite.construct.calls"] += 1
    _obstruction(t, idx, exc, result)


def _check_condition(t, idx, args, result, exc):
    _obstruction(t, idx, exc, result)


def _verify_fd(t, idx, args, result, exc):
    if t.parent_name(idx) == "finite.brute_force_common_fd_exists":
        t.counts["finite.oracle.probes"] += 1


def _reduce_mod(t, idx, args, result, exc):
    t.counts["boxes.reduce_mod.calls"] += 1
    if exc is None:
        t.counts["boxes.pieces"] += len(result.pieces)
        t.counts["boxes.cells"] += (sum(len(c) for c in result.levels.values())
                                    + len(result.uncovered))


def _mc(t, idx, args, result, exc):
    if exc is None:
        t.counts["heis.mc.samples"] += result.samples
        t.counts["heis.mc.resampled"] += result.resampled


def _draws(t, idx, args, result, exc):
    t.counts["sampling.draws"] += len(args[1])


def _dirichlet(t, idx, args, result, exc):
    t.counts["dirichlet.calls"] += 1
    if exc is None:
        t.counts["dirichlet.facets"] += len(result.halfspaces)
        t.counts["dirichlet.vertices"] += len(result.vertices)


def _load(t, idx, args, result, exc):
    try:
        t.counts["jsonio.bytes_in"] += os.path.getsize(args[0])
    except OSError:
        pass


def _dump(t, idx, args, result, exc):
    if exc is None:
        t.counts["jsonio.bytes_out"] += len(result.encode("utf-8"))


def _exit(t, idx, args, result, exc):
    key = f"cli.exit.{result}"
    if exc is None and key in t.counts:
        t.counts[key] += 1


_COUNTERS = {
    "flows.lex_least_selection": _flows,
    "lattices._CellSystem.__init__": _cells,
    "lattices.verify_tiling_exact": _bump("lattices.verify.calls"),
    "lattices.verify_packing_exact": _bump("lattices.verify.calls"),
    "finite.construct_packing_fds": _construct,
    "finite.construct_k_epsilon": _construct,
    "finite.construct_common_fd": _construct,
    "finite.check_condition": _check_condition,
    "finite.brute_force_common_fd_exists": _bump("finite.oracle.calls"),
    "finite.verify_fundamental_domain": _verify_fd,
    "boxes.reduce_mod": _reduce_mod,
    "boxes.FrameRegion.__post_init__": _bump("boxes.region_builds"),
    "linalg.mat_inv": _bump("linalg.mat_inv.calls"),
    "linalg.det": _bump("linalg.det.calls"),
    "linalg.hnf": _bump("linalg.hnf.calls"),
    "heis.mc_verify_tiling": _mc,
    "heis.reduce_left": _bump("heis.reduce.calls"),
    "heis.reduce_right": _bump("heis.reduce.calls"),
    "sampling.DyadicSampler.in_box": _draws,
    "dirichlet.dirichlet_domain": _dirichlet,
    "jsonio.load_instance": _load,
    "jsonio.dumps_report": _dump,
    "cli.main": _exit,
}
