"""Command-line front end: decompositions, abacus drawings, tau values,
part pairings, block listings and the verification suites.

Exit codes: 0 success, 1 a verification suite failed its pass criterion,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import islice

from .partitions import BarPartition, Partition

# Each command imports the library modules it uses when it runs, so that a
# process loads and compiles only those: decompose and pairs need littlewood,
# abacus needs abacus, tau needs galois, blocks needs the block library, and
# verify needs suites, which loads the modules of the suite that runs.
# The parser itself needs the suite and group names; these are copies of
# sorted(suites.SUITES) and of (STILDE, ATILDE, G, GPLUS), which
# tests/test_cli.py pins equal to the library's.
_SUITES = (
    "blocks", "census", "crossing", "crossing_fails", "durfee", "lengths", "little", "pairing",
    "phi", "psi", "psi_nonspin", "roundtrips", "signs", "sizes", "tau_nonspin", "tau_oracle",
    "valuation",
)
_GROUPS = ("stilde", "atilde", "g", "gplus")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barblocks",
        description="bar-partition decompositions, Galois sign actions and block checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def partition_args(cmd):
        # accept both the positional form and an explicit --partition flag
        cmd.add_argument("partition", nargs="?", default=None,
                         help='partition literal, e.g. "14,12,8,6,3,2"')
        cmd.add_argument("--partition", dest="partition_flag", default=None)

    dec = sub.add_parser("decompose", help="core / quotient / cocore decomposition")
    dec.add_argument("--p", type=int, required=True, help="odd integer >= 3")
    dec.add_argument("--nonspin", action="store_true", help="decompose an ordinary partition")
    dec.add_argument("--json", action="store_true")
    partition_args(dec)

    aba = sub.add_parser("abacus", help="ASCII abacus of a strict partition")
    aba.add_argument("--p", type=int, required=True)
    aba.add_argument("--twisted", action="store_true")
    aba.add_argument("--json", action="store_true")
    partition_args(aba)

    tau = sub.add_parser("tau", help="sign by which an automorphism permutes a character pair")
    tau.add_argument("--p", type=int, required=True)
    tau.add_argument("--e", type=int, default=1)
    tau.add_argument("--s", type=int, default=1)
    tau.add_argument("--nonspin", action="store_true", help="self-conjugate non-spin label")
    partition_args(tau)

    pairs = sub.add_parser("pairs", help="paired parts of a cocore (or paired diagonal hooks)")
    pairs.add_argument("--p", type=int, required=True)
    pairs.add_argument("--nonspin", action="store_true")
    pairs.add_argument("--json", action="store_true")
    partition_args(pairs)

    blk = sub.add_parser("blocks", help="spin blocks of a group of degree n")
    blk.add_argument("--p", type=int, required=True)
    blk.add_argument("--n", type=int, required=True)
    blk.add_argument("--group", choices=_GROUPS, required=True)
    blk.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="run an exhaustive verification suite")
    ver.add_argument("suite", choices=_SUITES)
    ver.add_argument("--p", type=int, required=True)
    ver.add_argument("--max-n", type=int, required=True, help="size bound of the sweep")
    ver.add_argument("--max-w", type=int, default=3, help="weight bound for block suites")
    ver.add_argument(
        "--expect-violations",
        action="store_true",
        help="invert the pass criterion: succeed only if violations are found",
    )
    ver.add_argument("--json", action="store_true")
    return parser


def _literal(args):
    """The partition literal of a command: ordinary with --nonspin, strict otherwise."""
    if args.partition_flag is not None and args.partition is not None:
        raise ValueError("give one partition literal, positional or with --partition, not both")
    text = args.partition if args.partition_flag is None else args.partition_flag
    if text is None:
        raise ValueError("a partition literal is required")
    return (Partition if getattr(args, "nonspin", False) else BarPartition).from_text(text)


# The most numbers, or member records, in one piece of a long answer: an
# answer is written as it is made, so its peak memory does not grow with its
# length.  A member record and its text take a few hundred bytes, against a
# few dozen for a number.
_CHUNK = 4096
_RECORDS = 256


def _dumps(obj) -> str:
    """json.dumps(obj), importing json on the first call: the text answers
    write no JSON and load none of it."""
    import json

    return json.dumps(obj)


def _json_runs(items, dumps, size=_CHUNK):
    """The text of json.dumps(list(items)) in pieces of at most size items,
    each piece written by dumps: _dumps, or str for ints, whose list str
    writes as json.dumps does."""
    items = iter(items)
    yield "["
    sep = ""
    while run := list(islice(items, size)):
        yield sep + dumps(run)[1:-1]
        sep = ", "
    yield "]"


def _json_lists(lists):
    """The text of json.dumps(list(lists)), lists an iterable of int tuples,
    in pieces of at most _CHUNK numbers (a tuple counts one more), written
    by str: each run of short tuples as a list of lists, and a longer tuple
    through _json_runs."""
    yield "["
    sep, run, size = "", [], 0
    for xs in lists:
        n = len(xs) + 1
        if run and size + n > _CHUNK:
            yield sep + str(run)[1:-1]
            sep, run, size = ", ", [], 0
        if n > _CHUNK:
            yield sep
            yield from _json_runs(xs, str)
            sep = ", "
        else:
            run.append(list(xs))
            size += n
    if run:
        yield sep + str(run)[1:-1]
    yield "]"


def _cmd_decompose(args) -> int:
    from .littlewood import bar_decompose, ordinary_decompose

    lam = _literal(args)
    dec = (ordinary_decompose if args.nonspin else bar_decompose)(lam, args.p)
    if args.json:
        print(_dumps(dec.to_json()))
        return 0
    print(f"partition: {lam}")
    print(f"p: {args.p}")
    print(f"core: {dec.core}")
    print("charvec: ", end="")
    sys.stdout.writelines(_json_runs(dec.charvec, str))
    print()
    print("quotient: ", end="")
    sys.stdout.writelines(_json_lists(q.parts for q in dec.quotient))
    print()
    print(f"weight: {dec.weight}")
    print(f"cocore: {dec.cocore}")
    print(f"d: {dec.d}")
    return 0


def _cmd_abacus(args) -> int:
    from .abacus import BarAbacus, _lines

    ab = BarAbacus.from_partition(_literal(args), args.p)
    obj = ab.twist() if args.twisted else ab
    if args.json:
        print(_dumps(obj.to_json()))
    else:
        for piece in _lines(obj):
            print(piece)
    return 0


def _cmd_tau(args) -> int:
    from .galois import GaloisElement, tau_partition, tau_selfconjugate

    f = GaloisElement(args.p, args.e, args.s)
    print((tau_selfconjugate if args.nonspin else tau_partition)(_literal(args), f))
    return 0


def _cmd_pairs(args) -> int:
    from .littlewood import paired_parts, selfconjugate_paired_hooks

    result = (selfconjugate_paired_hooks if args.nonspin else paired_parts)(_literal(args), args.p)
    if args.json:
        print(_dumps([list(pair) for pair in result]))
    else:
        for a, b in result:
            print(f"{a} {b}")
    return 0


def _cmd_blocks(args) -> int:
    from .blocks import SpinBlockId, _blocks_of, _listed
    from .galois import _odd_prime

    _odd_prime(args.p)
    if args.n < 0:
        raise ValueError("n must be non-negative")
    # --json writes the text of json.dumps of the block list as it goes: each
    # block's other fields, then its members a run at a time
    if args.json:
        sys.stdout.write("[")
    for i, block in enumerate(_blocks_of(args.n, args.p, args.group)):
        defect, rows = _listed(block)
        if args.json:
            head = {"kappa": block.kappa.to_json(), "w": block.w, "group": block.group, "defect": defect}
            sys.stdout.write((", " if i else "") + _dumps(head)[:-1] + ', "members": ')
            records = ({**label.to_json(), "height": height} for label, height in rows)
            sys.stdout.writelines(_json_runs(records, _dumps, _RECORDS))
            sys.stdout.write("}")
            continue
        print(f"block kappa=[{block.kappa}] w={block.w} group={block.group} defect={defect}")
        for label, height in rows:
            name = label.partition if isinstance(block, SpinBlockId) else label.nu
            print(f"  [{name}] {label.variant} height={height}")
    if args.json:
        print("]")
    return 0


def _cmd_verify(args) -> int:
    from .suites import verify

    report = verify(args.suite, args.p, args.max_n, w_max=args.max_w)
    if args.json:
        print(_dumps(report.to_json()))
    else:
        print(f"suite: {report.suite}")
        print(f"p: {report.p}")
        print(f"bound: {report.bound}")
        print(f"cases: {report.cases}")
        print(f"violations: {len(report.violations)}")
        for note in report.notes:
            print(f"note: {note}")
        for v in report.violations[:10]:
            print(f"witness: {_dumps(v)}")
        if len(report.violations) > 10:
            print(f"... and {len(report.violations) - 10} more")
    failed = report.passed == args.expect_violations
    return 1 if failed else 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "abacus": _cmd_abacus,
    "tau": _cmd_tau,
    "pairs": _cmd_pairs,
    "blocks": _cmd_blocks,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _script() -> int:
    """main() on sys.argv as a whole process: the ``barblocks`` script and
    ``python -m barblocks.cli``.  The cyclic garbage collector is off: a
    command makes no reference cycles that grow with its work (a large
    answer leaves as many unreachable objects as a small one, the parser's),
    and the process ends with its answer, so a collection frees nothing and
    only walks the labels and memo entries again, 2-5 ms of a benchmark
    verify run and a sixth of the largest block listings."""
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(_script())
