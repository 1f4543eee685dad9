"""Cold-process benchmark of the barblocks CLI.

Every timed operation is a fresh ``python -m barblocks.cli ...`` process,
started one at a time, so every memo cache starts cold.
Every output is checked against the digests pinned in ``bench/pins.json``;
``decompose`` answers are also checked by an independent route.  Every
timed process runs between two runs of ``bench/reference.py``, whose time
scales it, so that the reported times do not follow the machine's drift.

Run from the repository root:

    python3 bench/run.py --workload strict-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --hostile             # every workload, full report

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``bench/tracer.py``).  Without
``--workload`` every workload runs.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"

SWEEP_LIMIT_S = 60.0  # per-process time limit for sweep operations
QUERY_LIMIT_S = 2.0  # per-process time limit for point queries
SETUP_REPEATS = 41  # fresh interpreters timed per run for setup_s
MEMORY_LIMIT = 2 << 30  # address-space cap inherited by every child process

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
CLI = (sys.executable, "-m", "barblocks.cli")
TRACED_CLI = (sys.executable, str(BENCH / "tracer.py"))
SETUP_PROBE = (sys.executable, "-c", "import barblocks.cli")
REFERENCE_PROBE = (sys.executable, str(BENCH / "reference.py"))
REFERENCE_S = 0.09  # median time of REFERENCE_PROBE on the baseline machine, quiet

SWEEPS = {
    "strict-sweep": [
        "verify roundtrips --p 5 --max-n 32",
        "verify lengths --p 7 --max-n 32",
        "verify signs --p 3 --max-n 32",
        "verify sizes --p 5 --max-n 32",
        "verify pairing --p 7 --max-n 32",
        "verify little --p 13 --max-n 28",
        "verify phi --p 7 --max-n 26",
        "verify valuation --p 5 --max-n 30",
    ],
    "block-maps": [
        "verify blocks --p 5 --max-n 12 --max-w 4",
        "verify blocks --p 3 --max-n 12 --max-w 6",
        "verify census --p 5 --max-n 30",
        "verify psi --p 5 --max-n 14",
        "verify crossing --p 5 --max-n 12 --max-w 4",
        "verify crossing_fails --p 3 --max-n 12 --max-w 5 --expect-violations",
        "verify psi_nonspin --p 3 --max-n 14 --max-w 4",
        "verify durfee --p 3 --max-n 44",
        "verify tau_nonspin --p 5 --max-n 36",
        "blocks --p 3 --n 42 --group stilde",
        "blocks --p 5 --n 42 --group atilde",
        "blocks --p 3 --n 33 --group gplus",
    ],
    "galois-oracle": [f"verify tau_oracle --p {p} --max-n 400" for p in (3, 5, 7, 11, 13)],
}
TINY_SWEEPS = {
    "strict-sweep": [
        "verify roundtrips --p 5 --max-n 8",
        "verify little --p 13 --max-n 8",
        "verify valuation --p 3 --max-n 8",
    ],
    "block-maps": [
        "verify blocks --p 3 --max-n 4 --max-w 2",
        "verify crossing_fails --p 3 --max-n 6 --max-w 2 --expect-violations",
        "verify tau_nonspin --p 3 --max-n 10",
        "blocks --p 3 --n 9 --group stilde",
    ],
    "galois-oracle": ["verify tau_oracle --p 5 --max-n 20"],
}
WORKLOADS = (*SWEEPS, "point-queries")

# point-queries draws, per run, this many queries from each (kind, decade)
# cell of the pinned pool, plus this many expected refusals.
QUERIES_PER_CELL = 3
REFUSALS_PER_RUN = 10
FIXED_DECADES = 2  # top decades whose queries do not depend on the seed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "partitions.frobenius.calls": "count",
    "partitions.enumerate_s": "s",
    "abacus.runner_ops.calls": "count",
    "littlewood.decompose.calls": "count",
    "littlewood.decompose.per_s": "1/s",
    "littlewood.decompose.repeat_ratio": "ratio",
    "littlewood.reconstruct.calls": "count",
    "galois.closed.calls": "count",
    "galois.closed.self_s": "s",
    "galois.oracle.calls": "count",
    "galois.oracle.self_s": "s",
    "characters.valuation.calls": "count",
    "humphreys.phi.calls": "count",
    "blocks.membership_s": "s",
    "blocks.membership.yield": "ratio",
    "blocks.maps.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    limit_s: float

    @property
    def key(self) -> str:
        return json.dumps(list(self.argv))


@dataclass(frozen=True)
class Result:
    seconds: float
    exit: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    maxrss_kib: int
    scale: float = 1.0  # machine-speed factor from the reference probes around it

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


# ---------------------------------------------------------------------------
# inputs


def load_pins(path: Path = PINS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _largest_part(argv) -> int:
    return int(argv[-1].split(",")[0] or 0)


def make_ops(workload: str, seed: int, pins: dict, tiny: bool = False, hostile: bool = False) -> list[Op]:
    """The operations of one run; the seed fixes their choice and order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "point-queries":
        per_cell, refusals = (1, 2) if tiny else (QUERIES_PER_CELL, REFUSALS_PER_RUN)
        argvs = []
        for kind in sorted(pins["pool"]):
            cells = pins["pool"][kind]
            decades = sorted(cells, key=int)
            for decade in decades[: 1 if tiny else None]:
                cell = cells[decade]
                if decade in decades[-FIXED_DECADES:]:
                    # The largest queries of the top decades are in every run:
                    # they form the latency tail and the peak RSS, so
                    # query_p90_ms and peak_rss_mb compare like with like.
                    # One more from the top decade keeps the 90th percentile
                    # inside the tail rather than at its lower edge.
                    count = per_cell + (decade == decades[-1] and not tiny)
                    argvs += sorted(cell, key=_largest_part)[-count:]
                else:
                    argvs += rng.sample(cell, per_cell)
        argvs += rng.sample(pins["refusals"], refusals)
        if hostile:
            argvs += pins["hostile"]
        ops = [Op(tuple(a), QUERY_LIMIT_S) for a in argvs]
    elif workload in SWEEPS:
        table = TINY_SWEEPS if tiny else SWEEPS
        ops = [Op(tuple(line.split()), SWEEP_LIMIT_S) for line in table[workload]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# processes


class Launcher:
    """Runs processes through ``bench/launcher.py``, a small interpreter
    started once, so that a child's max-RSS does not count this process's."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._proc = subprocess.Popen(
            (sys.executable, "-S", str(BENCH / "launcher.py")),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=ENV, text=True,
        )

    def spawn(self, cmd, limit_s: float) -> Result:
        """Run one process to completion or kill it at the time limit."""
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        self._proc.stdin.write("\0".join((str(limit_s), str(out), str(err), *cmd)) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if not reply:
            raise RuntimeError("the process launcher stopped")
        code, maxrss_kib, timed_out, seconds = reply
        return Result(float(seconds), int(code), out.read_bytes(), err.read_bytes(), timed_out == "1", int(maxrss_kib))

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# checks


def is_refusal(res: Result) -> bool:
    """Exit 2, nothing on stdout, one ``error:`` line and no traceback."""
    lines = res.stderr.decode(errors="replace").splitlines()
    return (
        res.exit == 2
        and not res.stdout
        and sum("error:" in line for line in lines) == 1
        and not any(line.startswith("Traceback") for line in lines)
    )


def cases_of(stdout: bytes) -> int | None:
    for line in stdout.decode(errors="replace").splitlines():
        if line.startswith("cases: "):
            return int(line[len("cases: "):])
    return None


_ORACLES = None


def _oracles():
    """tests/oracles.py: cores by removal moves, independent of the abacus."""
    global _ORACLES
    if _ORACLES is None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        spec = importlib.util.spec_from_file_location("barblocks_oracles", ROOT / "tests" / "oracles.py")
        _ORACLES = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_ORACLES)
    return _ORACLES


def _parts(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text.strip() else []


def check_decompose(argv, stdout: bytes) -> str | None:
    """Check a text-mode ``decompose`` answer against the removal route and
    the size and length identities."""
    p = int(argv[argv.index("--p") + 1])
    nonspin = "--nonspin" in argv
    fields = dict(line.split(": ", 1) for line in stdout.decode().splitlines())
    lam, core, cocore = (_parts(fields[k]) for k in ("partition", "core", "cocore"))
    weight, d = int(fields["weight"]), int(fields["d"])
    quotient = json.loads(fields["quotient"])
    oracles = _oracles()
    if nonspin:
        expected = oracles.p_core_by_hook_removal(oracles.Partition(lam), p)
    else:
        expected = oracles.bar_core_by_removal(oracles.BarPartition(lam), p)
    if list(expected.parts) != core:
        return "core differs from the removal route"
    if sum(lam) != sum(core) + p * weight or weight != sum(map(sum, quotient)):
        return "size identity fails"
    if not nonspin and len(lam) != len(core) + len(cocore) - 2 * d:
        return "length identity fails"
    return None


def failure(op: Op, pin: dict | None, res: Result) -> str | None:
    """Why an operation failed, or None when it succeeded."""
    if res.timed_out:
        return f"over the {op.limit_s:g} s limit"
    if pin is None:
        return "no pinned output"
    if pin.get("refusal_ok") and is_refusal(res):
        return None
    if res.exit != pin["exit"]:
        return f"exit code {res.exit}, pinned {pin['exit']}"
    if res.exit == 2 and not is_refusal(res):
        return "refusal is not exactly one error: line"
    # The independent checks come before the digest, so that an answer that
    # differs from the pin is still judged on its own.
    try:
        if "cases" in pin and cases_of(res.stdout) != pin["cases"]:
            return "cases count differs from the pin"
        if op.argv[0] == "decompose" and res.exit == 0 and "--json" not in op.argv:
            reason = check_decompose(op.argv, res.stdout)
            if reason:
                return reason
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output ({type(exc).__name__})"
    if hashlib.sha256(res.stdout).hexdigest() != pin["stdout_sha256"]:
        return "stdout differs from the pinned digest"
    return None


# ---------------------------------------------------------------------------
# runs


class Run:
    """Processes of one workload run, their checks and their failures."""

    def __init__(self, ops: list[Op], pins: dict, launcher: Launcher):
        self.ops = ops
        self.pins = pins["pins"]
        self.launcher = launcher
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def execute(self, op: Op, cmd) -> Result:
        res = self.launcher.spawn(cmd, op.limit_s)
        self.attempted += 1
        reason = failure(op, self.pins.get(op.key), res)
        if reason:
            self.failures.append((" ".join(op.argv), reason))
        return res

    def _probe_seconds(self, cmd) -> float:
        res = self.launcher.spawn(cmd, SWEEP_LIMIT_S)
        if res.exit:
            raise RuntimeError(f"probe {' '.join(cmd[1:])} failed with exit code {res.exit}")
        return res.seconds

    def probe(self, setup: list[float] | None = None) -> float:
        """Time a reference process and return its time.  With a ``setup``
        list, first time a set-up probe and append its time scaled by
        REFERENCE_S over the reference time.

        The machine's speed drifts by tens of percent over minutes and in
        bursts of seconds; the reference process runs fixed work that does
        not use barblocks, so its time follows the machine alone.
        """
        setup_s = self._probe_seconds(SETUP_PROBE) if setup is not None else 0.0
        reference_s = self._probe_seconds(REFERENCE_PROBE)
        if setup is not None:
            setup.append(setup_s * REFERENCE_S / reference_s)
        return reference_s

    def bracketed(self, commands, setup: list[float] | None = None):
        """Run each (operation, command) between two reference probes and
        yield its result, scaled by REFERENCE_S over the mean of the two
        reference times.  With a ``setup`` list, set-up probes run with the
        reference probes until it holds SETUP_REPEATS samples."""
        def probe():
            return self.probe(setup if setup is not None and len(setup) < SETUP_REPEATS else None)

        before = probe()
        for op, cmd in commands:
            res = self.execute(op, cmd)
            after = probe()
            yield dataclasses.replace(res, scale=2 * REFERENCE_S / (before + after))
            before = after

    def sets(self, seconds: float, setup: list[float] | None = None, repeat: bool = True) -> list[list[Result]]:
        """Untraced sets of all operations, repeated while a further set
        still fits in the time budget (at least one set); one set only
        without ``repeat``, so that the number of samples per operation
        does not depend on the machine's speed.

        Every operation runs between reference probes (see ``bracketed``).
        With a ``setup`` list, the first SETUP_REPEATS probes also time a
        set-up probe, so its samples spread over the run.
        """
        runs: list[list[Result]] = [[] for _ in self.ops]
        self.probe([])  # untimed: fills the bytecode caches once
        start = perf_counter()
        while True:
            set_start = perf_counter()
            for i, res in enumerate(self.bracketed(((op, CLI + op.argv) for op in self.ops), setup)):
                runs[i].append(res)
            now = perf_counter()
            if not repeat or now - start + (now - set_start) > seconds:
                return runs

    def traced_set(self) -> tuple[float, Counter]:
        """One set under the tracer: summed scaled process time and trace
        counters."""
        total = Counter()
        wall = 0.0
        trace_path = self.launcher.workdir / "trace.json"
        commands = ((op, TRACED_CLI + (str(trace_path),) + op.argv) for op in self.ops)
        for res in self.bracketed(commands):
            wall += res.scaled_s
            if res.timed_out:
                trace_path.unlink(missing_ok=True)
                continue
            with open(trace_path) as fh:
                trace = json.load(fh)
            trace_path.unlink()  # so that a process that writes no trace cannot reuse this one
            total["wall_s"] += trace["wall_s"]
            for field in ("calls", "self_s", "inclusive_s"):
                for name, value in trace[field].items():
                    total[f"{field}:{name}"] += value
            for field in ("repeats", "labels", "member_decompositions"):
                total[field] += trace[field]
        return wall, total


def op_seconds(results: list[Result]) -> float:
    """An operation's time: its median scaled process time over the run's sets."""
    return statistics.median(r.scaled_s for r in results)


def set_wall(runs: list[list[Result]]) -> float:
    """Time of one set: each operation's time, summed."""
    return sum(op_seconds(results) for results in runs)


def op_cases(op: Op, results: list[Result]) -> int:
    """Cases of a verify report; one per operation otherwise."""
    return (op.argv[0] == "verify" and cases_of(results[0].stdout)) or 1


def end_to_end_metrics(run: Run, setup: list[float], runs: list[list[Result]]) -> dict:
    wall = set_wall(runs)
    # One latency per operation, so that a sweep's percentiles do not jump
    # between the modes of its different operations.
    latencies = [op_seconds(results) for results in runs]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cases_per_s": sum(op_cases(op, rs) for op, rs in zip(run.ops, runs)) / wall,
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p90_ms": 1000 * p90,
        "peak_rss_mb": max(r.maxrss_kib for results in runs for r in results) / 1024,
    }


def per_layer_metrics(total: Counter, traced_wall: float, untraced_wall: float) -> dict:
    def calls(name):
        return total[f"calls:{name}"]

    def self_s(name):
        return total[f"self_s:{name}"]

    out = {}
    for name in PER_LAYER:
        head, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(head)
        elif kind == "self_s":
            out[name] = self_s(head)
    decompose_s = total["inclusive_s:littlewood.decompose"]
    decompose_calls = calls("littlewood.decompose")
    out.update({
        "partitions.enumerate_s": total["inclusive_s:partitions.enumerate"],
        "littlewood.decompose.per_s": decompose_calls / decompose_s if decompose_s else 0.0,
        "littlewood.decompose.repeat_ratio": total["repeats"] / decompose_calls if decompose_calls else 0.0,
        "blocks.membership_s": total["inclusive_s:blocks.membership"],
        "blocks.membership.yield": (
            total["labels"] / total["member_decompositions"] if total["member_decompositions"] else 0.0
        ),
        "trace.wall_s": total["wall_s"],
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out


def self_times_balance(total: Counter) -> bool:
    """Self times of the eight layers must sum to the traced wall time."""
    summed = sum(total[f"self_s:{layer}"] for layer in LAYERS)
    return abs(summed - total["wall_s"]) <= 1e-6 * total["wall_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pins: dict, launcher: Launcher,
                 tiny: bool = False, hostile: bool = False) -> dict:
    ops = make_ops(workload, seed, pins, tiny=tiny, hostile=hostile)
    run = Run(ops, pins, launcher)
    # A set of point-queries (105 processes, each after a reference probe)
    # fills a run, so its number of sets is fixed rather than left to the
    # machine's speed.
    sweep = workload in SWEEPS
    consistent = True
    if trace:
        untraced_wall = set_wall(run.sets(seconds / 2, repeat=sweep))
        traced_wall, total = run.traced_set()
        consistent = self_times_balance(total)
        values, units = per_layer_metrics(total, traced_wall, untraced_wall), PER_LAYER
    else:
        setup: list[float] = []
        runs = run.sets(seconds, setup, repeat=sweep)
        while len(setup) < SETUP_REPEATS:
            run.probe(setup)
        values, units = end_to_end_metrics(run, setup, runs), END_TO_END
        unscaled_wall = sum(statistics.median(r.seconds for r in results) for results in runs)
    return {
        "unscaled_wall_s": None if trace else unscaled_wall,
        "correct": consistent and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def print_result(workload: str, result: dict, trace: bool):
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: attempted={attempted} failed={failed} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    if not trace:
        print(f"  {'failed_ratio':36s} {failed / attempted:14.6g} -")
        print(f"  {'wall_s, unscaled':36s} {result['unscaled_wall_s']:14.6g} s")
    for argv_text, reason in result["failures"]:
        print(f"  failed: {argv_text}: {reason}")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hostile", action="store_true",
                        help="add the inputs known to hang to point-queries")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "barblocks" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no barblocks sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))

    pins = load_pins()
    workloads = args.workload or list(WORKLOADS)
    results = {}
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        with Launcher(workdir) as launcher:
            for workload in workloads:
                result = results[workload] = run_workload(
                    workload, args.seed, args.seconds, bool(args.trace), pins, launcher,
                    tiny=args.tiny, hostile=args.hostile,
                )
                print_result(workload, result, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
