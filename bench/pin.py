"""Regenerate ``bench/pins.json``: the point-query pool and the pinned
output of every benchmark operation.

    python3 bench/pin.py

Pins record the behaviour of the commit they were made on: exit code,
SHA-256 of stdout and, for ``verify``, the cases count.  The CLI output is a
byte-identical contract, so the pins are made once and a later change that
alters an output shows up as failed operations.  Remake them only for a
change whose purpose is a different output, and say so.

Each operation runs once, under a 600 s limit instead of the query limit.
The hostile ``tau`` input is not run, because its trial division does not
finish; its expected answer is computed from the closed form without
factorizing.  Every ``decompose`` pin is checked
against the independent route before it is written.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run

PIN_LIMIT_S = 600.0
POOL_SEED = 2509
POOL_PER_CELL = 12
DECADES = 6  # largest parts log-uniform in [1, 10**6)
PRIMES = (3, 5, 7, 11, 13)
KINDS = ("abacus", "decompose", "decompose-nonspin", "pairs", "tau")
HUGE_PRIME = 1000000000000000000000000000057  # a 31-digit prime

# Malformed, non-strict or out-of-domain inputs; each must get a fast refusal.
REFUSALS = [
    "decompose --p 5 3,3",
    "decompose --p 5 1,2",
    "decompose --p 5 a,b",
    "decompose --p 5 3,,1",
    "decompose --p 5 -3,1",
    "decompose --p 5 0",
    "decompose --p 5 2.5",
    "decompose --p 5 1e9",
    "decompose --p 4 3,2",
    "decompose --p 5",
    "decompose --p 5 --nonspin 1,2",
    "tau --p 5 4,4",
    "tau --p 4 3",
    "tau --p 5 --s 5 3",
    "tau --p 5 --e -1 3",
    "abacus --p 6 --twisted 5,1",
    "abacus --p 3 --twisted x",
    "pairs --p 5 14,12,8,6,3,1",
    "pairs --p 3 4,2,1",
    "pairs --p 5 --nonspin 2,1",
]
# Inputs known to exceed the point-query time limit on the seed library.
HOSTILE = [
    f"tau --p 3 {HUGE_PRIME},1",
    "decompose --p 3 --nonspin 15000000,1",
]


def _strict(rng, largest):
    extra = rng.sample(range(1, largest), min(rng.randint(0, 6), largest - 1)) if largest > 1 else []
    return sorted({largest, *extra}, reverse=True)


def _ordinary(rng, largest):
    return [largest] + sorted((rng.randint(1, largest) for _ in range(rng.randint(0, 6))), reverse=True)


def _literal(parts) -> str:
    return ",".join(map(str, parts))


def make_pool() -> dict:
    """POOL_PER_CELL queries for every (kind, decade of the largest part)."""
    from barblocks.littlewood import bar_decompose

    rng = random.Random(POOL_SEED)
    pool = {kind: {} for kind in KINDS}
    for kind in KINDS:
        for decade in range(DECADES):
            cell = pool[kind][str(decade)] = []
            while len(cell) < POOL_PER_CELL:
                largest = int(10 ** rng.uniform(decade, decade + 1))
                p = rng.choice(PRIMES)
                if kind == "abacus":
                    argv = ["abacus", "--p", str(p), "--twisted", _literal(_strict(rng, largest))]
                elif kind == "decompose":
                    argv = ["decompose", "--p", str(p), _literal(_strict(rng, largest))]
                elif kind == "decompose-nonspin":
                    argv = ["decompose", "--p", str(p), "--nonspin", _literal(_ordinary(rng, largest))]
                elif kind == "pairs":
                    cocore = bar_decompose(_strict(rng, largest), p).cocore
                    argv = ["pairs", "--p", str(p), str(cocore)]
                else:
                    e, s = rng.randint(0, 2), rng.randint(1, p - 1)
                    argv = ["tau", "--p", str(p), "--e", str(e), "--s", str(s), _literal(_strict(rng, largest))]
                if argv not in cell:
                    cell.append(argv)
    return pool


def closed_form_tau(argv) -> bytes:
    """Expected ``tau`` output for a partition (P, 1) with P an odd prime:
    tau_i(f)**((P - 1) / 2) * tau_sqrt(P, f), with no factorization."""
    from barblocks.galois import GaloisElement, tau_i, tau_sqrt

    p = int(argv[argv.index("--p") + 1])
    prime, one = (int(x) for x in argv[-1].split(","))
    assert one == 1 and prime % 2
    f = GaloisElement(p, 1, 1)
    return f"{tau_i(f) ** (((prime - 1) // 2) % 4) * tau_sqrt(prime, f)}\n".encode()


def pin(op: run.Op, launcher: run.Launcher) -> tuple[dict, run.Result]:
    res = launcher.spawn(run.CLI + op.argv, PIN_LIMIT_S)
    entry = {"exit": res.exit, "stdout_sha256": hashlib.sha256(res.stdout).hexdigest()}
    cases = run.cases_of(res.stdout)
    if op.argv[0] == "verify" and cases is not None:
        entry["cases"] = cases
    reason = run.failure(op, entry, res)
    if reason:
        sys.exit(f"{' '.join(op.argv)}: {reason}")
    return entry, res


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pool = make_pool()
    pins = {}
    refusals, hostile = [], []
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    try:
        with run.Launcher(workdir) as launcher:
            sweeps = [line for table in (run.SWEEPS, run.TINY_SWEEPS) for lines in table.values() for line in lines]
            queries = [argv for cells in pool.values() for cell in cells.values() for argv in cell]
            for argv in [line.split() for line in sweeps] + queries:
                op = run.Op(tuple(argv), run.SWEEP_LIMIT_S)
                pins[op.key], _ = pin(op, launcher)
            for line in REFUSALS:
                op = run.Op(tuple(line.split()), run.QUERY_LIMIT_S)
                pins[op.key], res = pin(op, launcher)
                if not run.is_refusal(res):
                    sys.exit(f"{line}: not a refusal")
                refusals.append(list(op.argv))
            for line in HOSTILE:
                op = run.Op(tuple(line.split()), run.QUERY_LIMIT_S)
                if op.argv[0] == "tau":
                    stdout = closed_form_tau(op.argv)
                    pins[op.key] = {"exit": 0, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
                else:
                    pins[op.key], _ = pin(op, launcher)
                pins[op.key]["refusal_ok"] = True
                hostile.append(list(op.argv))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(run.PINS, "w") as fh:
        json.dump({"pool": pool, "refusals": refusals, "hostile": hostile, "pins": pins}, fh, indent=0)
        fh.write("\n")
    print(f"pinned {len(pins)} operations; {len(refusals)} refusals, {len(hostile)} hostile")
    return 0


if __name__ == "__main__":
    sys.exit(main())
