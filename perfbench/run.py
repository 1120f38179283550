"""Benchmark of the tessella library: one closed-loop caller, no threads.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout against `src/` (the package does
not need to be installed). The seed fixes every input; the library only
ever sees the generated plain data. Each request is timed from that data
to its verdict, and every verdict is checked, outside the timed region,
against the answer its generator built in.

Set-up (import the package, generate the inputs, warm up once per request
kind) is repeated SETUPS times and reported as the median. The measured
loop then repeats whole rounds of requests until `--seconds` of request
time has been spent. With `--trace 1` that untraced loop is followed by
one traced pass over every distinct round (a fixed amount of work, so
counts repeat exactly for a seed), and the per-layer metrics plus the
tracing overhead are reported instead of the end-to-end ones; the spans
are written to `.perfbench_out/` in the checkout.

Every metric is printed as `name value unit`; the last line is the JSON
result `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("construct", "verify", "decide")
ROUNDS = 8               # distinct rounds of inputs per run, used in turn
SETUPS = 5               # set-ups per run; setup_s is their median
REQUEST_LIMIT_S = 30.0   # a request running longer is stopped and fails
WALL_LIMIT_S = 150.0     # no new round starts after this much wall time


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request exceeded {REQUEST_LIMIT_S} s")


def import_package():
    """Import tessella afresh from the checkout's src/ and nowhere else."""
    for name in [n for n in sys.modules if n == "tessella" or n.startswith("tessella.")]:
        del sys.modules[name]
    import tessella
    import tessella.cli  # noqa: F401

    where = Path(tessella.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"tessella was imported from {where}, not from {SRC}")


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate ROUNDS rounds of inputs, warm up each request kind
    on its first request. Returns (rounds, handlers)."""
    import_package()
    module = importlib.import_module(workload)
    rounds = []
    for r in range(ROUNDS):
        rng = random.Random(seed * 1_000_003 + r)
        rounds.append(module.generate(rng, workdir / f"round{r}"))
    handlers = module.handlers()
    seen = set()
    for kind, data, expected in rounds[0]:
        if kind not in seen:
            seen.add(kind)
            execute, check = handlers[kind]
            check(data, execute(data), expected)
    return rounds, handlers


class Loop:
    """Closed loop over whole rounds; collects latencies and verdicts."""

    def __init__(self, rounds, handlers):
        self.rounds = rounds
        self.handlers = handlers
        self.latencies: list[float] = []
        self.failed = 0
        self.mismatches = 0
        self.busy = 0.0
        self.first_round: list[str] = []
        self.next_round = 0
        self.errors: list[str] = []

    def run(self, seconds: float, deadline: float) -> tuple[int, float]:
        """Run whole rounds until `seconds` of request time is spent; returns
        the requests and request time of this call."""
        n0, busy0 = len(self.latencies), self.busy
        while self.busy - busy0 < seconds and time.monotonic() < deadline:
            self._round(self.next_round)
            self.next_round += 1
        return len(self.latencies) - n0, self.busy - busy0

    def run_pass(self, tracer) -> tuple[int, float]:
        """Every distinct round once, traced: a fixed amount of work, so the
        counts repeat exactly for a seed."""
        n0, busy0 = len(self.latencies), self.busy
        for r in range(len(self.rounds)):
            self._round(r, tracer)
        return len(self.latencies) - n0, self.busy - busy0

    def _round(self, r: int, tracer=None) -> None:
        record = r == 0 and not self.first_round
        for kind, data, expected in self.rounds[r % len(self.rounds)]:
            self._one(kind, data, expected, record, tracer)

    def _one(self, kind, data, expected, record, tracer) -> None:
        execute, check = self.handlers[kind]
        if tracer is not None:
            tracer.request_id = len(self.latencies)
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        t0 = time.perf_counter()
        try:
            result, error = execute(data), None
        except Exception as exc:  # unexpected exceptions and timeouts fail
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.latencies.append(elapsed)
        self.busy += elapsed
        if error is not None:
            self.failed += 1
            self.errors.append(f"{kind}: {type(error).__name__}: {error}")
            verdict = "failed"
        else:
            try:
                ok, verdict = check(data, result, expected)
            except Exception as exc:  # a check that cannot read the result
                ok, verdict = False, f"unreadable: {type(exc).__name__}: {exc}"
            if not ok:
                self.mismatches += 1
                self.errors.append(f"{kind}: verdict mismatch: {verdict[:200]}")
        if record:
            self.first_round.append(f"{kind}:{verdict}")

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.first_round).encode()).hexdigest()[:16]


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    lat = loop.latencies
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (len(lat) / loop.busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "failed_ratio": (loop.failed / len(lat), "ratio"),
        "verdict_mismatches": (loop.mismatches, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# end-to-end metrics that are reported through the result's `failed` and
# `correct` fields rather than as benchmark metrics (they are 0 when healthy)
_FIELDS_ONLY = ("failed_ratio", "verdict_mismatches")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "tessella" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            rounds, handlers = setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        loop = Loop(rounds, handlers)
        deadline = started + WALL_LIMIT_S
        if args.trace:
            import tracing

            n_plain, busy_plain = loop.run(args.seconds, deadline)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                n_traced, busy_traced = loop.run_pass(tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (
                (n_plain / busy_plain) / (n_traced / busy_traced), "ratio")
            tracer.write(str(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv"))
            shares = tracing.layer_shares({k: v for k, (v, _) in metrics.items()})
            total = sum(shares.values()) or 1.0
            print("layer shares of traced self time: " + ", ".join(
                f"{layer} {value / total:.3f}"
                for layer, value in sorted(shares.items(), key=lambda kv: -kv[1])))
            printed = metrics
        else:
            loop.run(args.seconds, deadline)
            printed = end_to_end(loop, setup_times)
            metrics = {k: v for k, v in printed.items() if k not in _FIELDS_ONLY}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted = len(loop.latencies)
    for line in loop.errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"requests {attempted} rounds {loop.next_round} digest {loop.digest()}")
    if args.trace:
        print(f"failed_ratio {loop.failed / attempted} ratio")
        print(f"verdict_mismatches {loop.mismatches} count")
    for name, (value, unit) in printed.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": loop.mismatches == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
