"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

Runs every workload once at tiny sizes, traced and untraced, and checks the
harness's own guarantees: seeded inputs, failure accounting, and tracing
that changes no output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SAMPLE = [
    "verify little --p 5 --max-n 10",
    "verify crossing_fails --p 3 --max-n 6 --max-w 2 --expect-violations",
    "blocks --p 3 --n 9 --group gplus",
    "decompose --p 5 14,12,8,6,3,2",
    "decompose --p 3 --nonspin 5,3,3,1",
    "tau --p 7 --e 2 --s 3 9,4,1",
    "pairs --p 5 14,12,8,6,3,2",
    "abacus --p 3 --twisted 5,3,2,1",
    "pairs --p 5 14,12,8,6,3,1",
]


@pytest.fixture(scope="module")
def pins():
    return run.load_pins()


@pytest.fixture
def launcher():
    path = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    try:
        with run.Launcher(path) as launcher:
            yield launcher
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_at_tiny_size(trace):
    result = _bench("--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    for workload in run.WORKLOADS:
        for name, unit in names.items():
            assert result["metrics"][f"{workload}/{name}"]["unit"] == unit
        if trace == "0":
            assert all(result["metrics"][f"{workload}/{name}"]["value"] > 0 for name in names)


def test_seed_fixes_the_inputs(pins):
    for workload in run.WORKLOADS:
        for seed in (0, 1, 12345):
            assert run.make_ops(workload, seed, pins) == run.make_ops(workload, seed, pins)
    first, second = (run.make_ops("point-queries", seed, pins) for seed in (1, 2))
    assert sorted(first, key=str) != sorted(second, key=str)
    assert len(first) >= 100
    assert all(op.key in pins["pins"] for op in run.make_ops("point-queries", 7, pins, hostile=True))


def test_corrupted_digest_counts_as_failed(pins, launcher):
    op = run.Op(tuple(SAMPLE[3].split()), run.QUERY_LIMIT_S)
    pin = {"exit": 0, "stdout_sha256": "0" * 64}
    res = launcher.spawn(run.CLI + op.argv, op.limit_s)
    assert run.failure(op, pin, res) == "stdout differs from the pinned digest"
    assert run.failure(op, None, res) == "no pinned output"
    assert run.check_decompose(op.argv, res.stdout) is None
    wrong = res.stdout.replace(b"weight: 9", b"weight: 8")
    assert wrong != res.stdout
    for stdout, reason in (
        (wrong, "size identity fails"),
        (b"not a decomposition\n", "malformed output (ValueError)"),
        (res.stdout.replace(b"core: ", b"kern: "), "malformed output (KeyError)"),
    ):
        # pinned to the changed bytes, so only the independent check can catch it
        pin = {"exit": 0, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
        assert run.failure(op, pin, dataclasses.replace(res, stdout=stdout)) == reason


def test_over_limit_process_counts_as_failed(pins, launcher):
    op = run.Op(tuple("verify tau_oracle --p 13 --max-n 400".split()), 0.05)
    start = time.perf_counter()
    res = launcher.spawn(run.CLI + op.argv, op.limit_s)
    assert res.timed_out and time.perf_counter() - start < 5
    assert run.failure(op, pins["pins"][op.key], res) == "over the 0.05 s limit"


def test_times_are_scaled_by_the_reference_probes(pins):
    class HalfSpeed:
        """Every process takes 1 s; the reference takes twice REFERENCE_S."""
        workdir = run.ROOT

        def spawn(self, cmd, limit_s):
            seconds = 2 * run.REFERENCE_S if cmd == run.REFERENCE_PROBE else 1.0
            return run.Result(seconds, 0, b"", b"", False, 1)

    op = run.Op(tuple("verify little --p 5 --max-n 10".split()), run.SWEEP_LIMIT_S)
    bench_run = run.Run([op], pins, HalfSpeed())
    (res,) = bench_run.bracketed([(op, run.CLI + op.argv)])
    assert res.seconds == 1.0 and res.scaled_s == pytest.approx(0.5)
    setup = []
    assert bench_run.probe(setup) == 2 * run.REFERENCE_S and setup == [pytest.approx(0.5)]


def test_refusal_needs_one_error_line():
    ok = run.Result(0.1, 2, b"", b"error: not a 5-cocore\n", False, 1)
    assert run.is_refusal(ok)
    assert not run.is_refusal(dataclasses.replace(ok, stderr=b"Traceback (most recent call last):\nerror: x\n"))
    assert not run.is_refusal(dataclasses.replace(ok, exit=1))


def _traced(argv, launcher):
    path = launcher.workdir / "trace.json"
    res = launcher.spawn(run.TRACED_CLI + (str(path),) + argv, run.SWEEP_LIMIT_S)
    with open(path) as fh:
        return res, json.load(fh)


def test_wrappers_change_no_output(pins, launcher):
    for line in SAMPLE:
        argv = tuple(line.split())
        plain = launcher.spawn(run.CLI + argv, run.SWEEP_LIMIT_S)
        traced, _ = _traced(argv, launcher)
        assert (traced.exit, traced.stdout, traced.stderr) == (plain.exit, plain.stdout, plain.stderr), line


def test_trace_counts_repeat_and_self_times_sum(launcher):
    argv = tuple("verify blocks --p 3 --max-n 6 --max-w 2".split())
    (_, first), (_, second) = _traced(argv, launcher), _traced(argv, launcher)
    assert first["calls"] == second["calls"]
    assert set(tracer.LAYERS) >= {name for name in first["calls"] if "." not in name}
    for trace in (first, second):
        layers = sum(trace["self_s"].get(layer, 0.0) for layer in tracer.LAYERS)
        assert layers == pytest.approx(trace["wall_s"], rel=1e-9)
    assert first["calls"]["littlewood.decompose"] > 0 and first["labels"] > 0


def test_generator_span_covers_iteration():
    t = tracer.Tracer()

    def slow_items():
        for i in range(3):
            time.sleep(0.02)
            yield i

    wrapped = t.wrap(slow_items, "partitions", ("partitions.enumerate",))
    root = ("cli", None)
    t._enter(root, ())
    items = wrapped()
    assert t.inclusive_s["partitions.enumerate"] == 0.0  # creation runs nothing
    assert list(items) == [0, 1, 2]
    t._leave(root, ())
    assert t.inclusive_s["partitions.enumerate"] >= 0.06
    assert t.calls["partitions"] == 1
    assert t.self_s[("partitions", None)] == pytest.approx(t.inclusive_s["partitions.enumerate"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "strict-sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and not proc.stdout


def test_tracer_refuses_unknown_names():
    code = "import tracer; tracer.GROUPS['x'] = ('partitions.no_such_function',); tracer.Tracer().install()"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        cwd=BENCH, env=run.ENV,
    )
    assert proc.returncode != 0 and "partitions.no_such_function" in proc.stderr
