import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from barblocks.cli import _script, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "5", "14,12,8,6,3,2")
    assert code == 0
    assert "core: \n" in out
    assert "quotient: [[], [2, 1, 1], [3, 2]]" in out
    assert "weight: 9" in out


def test_decompose_json_round_trips(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--json", "4,3,2,1")
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "core": [1],
        "quotient": [[1], [1, 1]],
        "charvec": [1],
        "weight": 3,
        "cocore": [5, 3, 1],
        "d": 0,
    }


def test_decompose_nonspin(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--nonspin", "--json", "2,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["core"] == [1]
    assert rec["weight"] == 1


def test_abacus_render_and_json(capsys):
    code, out, _ = run(capsys, "abacus", "--p", "3", "5,3,2,1")
    assert code == 0
    assert out == "● ○ ●\n○ ● ●\n0 1 2\n"
    code, out, _ = run(capsys, "abacus", "--p", "5", "--twisted", "--json", "14,12,8,6,3,2")
    assert code == 0
    assert json.loads(out) == {
        "t": 5,
        "runner0": [],
        "shifted": [{"above": [1], "below": [2]}, {"above": [0, 2], "below": [0, 1]}],
    }


def test_tau_defaults_to_sigma(capsys):
    code, out, _ = run(capsys, "tau", "--p", "3", "2,1")
    assert code == 0
    assert out.strip() == "-1"
    code, out, _ = run(capsys, "tau", "--p", "3", "--e", "0", "--s", "2", "2,1")
    assert code == 0
    assert out.strip() == "1"


def test_tau_nonspin(capsys):
    code, out, _ = run(capsys, "tau", "--p", "3", "--nonspin", "2,1")
    assert code == 0
    assert out.strip() == "1"
    code, _, err = run(capsys, "tau", "--p", "3", "--nonspin", "3,1")
    assert code == 2
    assert "error" in err


def test_pairs(capsys):
    code, out, _ = run(capsys, "pairs", "--p", "5", "14,12,8,6,3,2")
    assert code == 0
    assert out == "2 3\n6 14\n12 8\n"
    code, out, _ = run(capsys, "pairs", "--p", "5", "--json", "14,12,8,6,3,2")
    assert json.loads(out) == [[2, 3], [6, 14], [12, 8]]


def test_blocks_listing(capsys):
    code, out, _ = run(capsys, "blocks", "--p", "3", "--n", "4", "--group", "stilde", "--json")
    assert code == 0
    blocks = json.loads(out)
    # both strict partitions of 4 have 3-bar core (1), so there is one block
    assert [b["kappa"] for b in blocks] == [[1]]
    assert len(blocks[0]["members"]) == 3
    assert {m["variant"] for m in blocks[0]["members"]} == {"whole", "plus", "minus"}

    code, out, _ = run(capsys, "blocks", "--p", "3", "--n", "4", "--group", "g", "--json")
    assert code == 0
    gblocks = json.loads(out)
    assert [b["kappa"] for b in gblocks] == [[1]]
    assert len(gblocks[0]["members"]) == 3  # weight-1 block over a positive core


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "little", "--p", "3", "--max-n", "10")
    assert code == 0
    assert "violations: 0" in out

    code, out, _ = run(capsys, "verify", "crossing_fails", "--p", "3", "--max-n", "8", "--max-w", "1")
    assert code == 1  # violations found and not expected

    code, out, _ = run(
        capsys,
        "verify", "crossing_fails", "--p", "3", "--max-n", "8", "--max-w", "1",
        "--expect-violations",
    )
    assert code == 0

    code, out, _ = run(
        capsys, "verify", "lengths", "--p", "3", "--max-n", "10", "--expect-violations"
    )
    assert code == 1  # expected violations but the identity holds


def test_json_output_matches_the_library(capsys):
    from barblocks.abacus import BarAbacus
    from barblocks.blocks import SpinBlockId, spin_block_members
    from barblocks.littlewood import bar_decompose
    from barblocks.partitions import BarPartition
    from barblocks.suites import verify

    lam = BarPartition([14, 12, 8, 6, 3, 2])
    _, out, _ = run(capsys, "decompose", "--p", "5", "--json", "14,12,8,6,3,2")
    assert json.loads(out) == bar_decompose(lam, 5).to_json()

    _, out, _ = run(capsys, "abacus", "--p", "5", "--twisted", "--json", "14,12,8,6,3,2")
    assert json.loads(out) == BarAbacus.from_partition(lam, 5).twist().to_json()

    _, out, _ = run(capsys, "blocks", "--p", "3", "--n", "4", "--group", "stilde", "--json")
    rec = json.loads(out)[0]["members"][0]
    rec.pop("height")
    assert rec == spin_block_members(SpinBlockId(BarPartition([1]), 1, "stilde", 3))[0].to_json()

    _, out, _ = run(capsys, "verify", "signs", "--p", "3", "--max-n", "8", "--json")
    assert json.loads(out) == verify("signs", 3, 8).to_json()


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "signs", "--p", "3", "--max-n", "8", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["suite"] == "signs"
    assert rec["violations"] == []


def test_partition_flag_spelling(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--partition", "4,3,2,1", "--json")
    assert code == 0
    assert json.loads(out)["core"] == [1]
    code, _, err = run(capsys, "decompose", "--p", "3")
    assert code == 2
    assert "partition literal" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "decompose", "--p", "4", "2,1")
    assert code == 2
    code, _, err = run(capsys, "decompose", "--p", "3", "3,3")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_verify_refuses_bad_arguments_before_work(capsys):
    for argv in (
        ("verify", "roundtrips", "--p", "9", "--max-n", "5"),
        ("verify", "blocks", "--p", "3", "--max-n", "5", "--max-w", "0"),
        ("verify", "tau_oracle", "--p", "3", "--max-n", "2000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_blocks_refuses_p_that_is_not_prime(capsys):
    for group in ("stilde", "g"):
        code, out, err = run(capsys, "blocks", "--p", "9", "--n", "5", "--group", group)
        assert (code, out, err) == (2, "", "error: p must be an odd prime, got 9\n")


def test_blocks_refuses_negative_n(capsys):
    for group in ("stilde", "atilde", "g", "gplus"):
        code, out, err = run(capsys, "blocks", "--p", "3", "--n", "-1", "--group", group)
        assert (code, out, err) == (2, "", "error: n must be non-negative\n")


@pytest.mark.parametrize(
    "argv, expected",
    [
        # a 31-digit prime part: the closed-form tau must not factorize it
        (("tau", "--p", "3", "1000000000000000000000000000057,1"), "1\n"),
        # one huge part: no cost may grow with the largest part
        (
            ("decompose", "--p", "3", "--nonspin", "15000000,1"),
            "partition: 15000000,1\np: 3\ncore: 3,1\ncharvec: [0, -1, 1]\n"
            "quotient: [[], [], [4999999]]\nweight: 4999999\ncocore: 14999997\nd: 0\n",
        ),
    ],
)
def test_huge_parts_answer_fast(capsys, argv, expected):
    start = perf_counter()
    code, out, _ = run(capsys, *argv)
    elapsed = perf_counter() - start
    assert (code, out) == (0, expected)
    assert elapsed < 2.0


def test_tau_at_a_huge_prime_answers_fast(capsys):
    start = perf_counter()
    code, out, _ = run(capsys, "tau", "--p", "1000000000000000003", "5,1")
    assert (code, out) == (0, "-1\n")
    assert perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ("blocks", "--p", "1997", "--n", "5", "--group", "stilde"),
        ("blocks", "--p", "1997", "--n", "5", "--group", "g"),
    ],
)
def test_large_primes_answer_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "Traceback" not in out + err
    if argv[-1] == "stilde":
        assert out.startswith("block kappa=[3,2] w=0 group=stilde defect=0\n")


def test_determinism(capsys):
    first = run(capsys, "blocks", "--p", "3", "--n", "7", "--group", "atilde")
    second = run(capsys, "blocks", "--p", "3", "--n", "7", "--group", "atilde")
    assert first == second


def test_every_name_the_benchmark_tracer_wraps_exists():
    """bench/tracer.py wraps library functions by name and refuses to run when
    one is missing; the benchmark is not under testpaths, so check it here."""
    code = "import sys; sys.path[:0] = ['bench', 'src']; import tracer; tracer.Tracer().install()"
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


LITERAL_COMMANDS = [
    ("decompose", "--p", "5"),
    ("decompose", "--p", "5", "--nonspin"),
    ("abacus", "--p", "5"),
    ("tau", "--p", "5"),
    ("pairs", "--p", "5"),
]


@pytest.mark.parametrize("literal, field", [("1,,2", "''"), ("1e3", "'1e3'"), ("x", "'x'"), ("3,-1", "-1"), (",", "''")])
@pytest.mark.parametrize("command", LITERAL_COMMANDS, ids=" ".join)
def test_bad_partition_literal_is_refused_naming_it(capsys, command, literal, field):
    start = perf_counter()
    code, out, err = run(capsys, *command, literal)
    assert perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert field in err
    if literal != "3,-1":  # parses as integers; the constructor refuses the part
        assert repr(literal) in err


@pytest.mark.parametrize("command", LITERAL_COMMANDS, ids=" ".join)
def test_two_partition_literals_are_refused(capsys, command):
    code, out, err = run(capsys, *command, "--partition", "3,1", "4,1")
    assert (code, out) == (2, "")
    assert err == "error: give one partition literal, positional or with --partition, not both\n"


def _with_p(p):
    return [
        ("decompose", "--p", p, "3,1"),
        ("abacus", "--p", p, "3,1"),
        ("tau", "--p", p, "2,1"),
        ("pairs", "--p", p, "3,1"),
        ("blocks", "--p", p, "--n", "4", "--group", "stilde"),
        ("verify", "little", "--p", p, "--max-n", "5"),
    ]


# the first p the primality check can no longer decide
BEYOND_PRIMALITY = "3317044064679887385961981"
EXTREME_ARGUMENTS = [
    *_with_p("0"),
    *_with_p("-5"),
    *_with_p("4"),
    *(argv for argv in _with_p(BEYOND_PRIMALITY) if argv[0] in ("tau", "blocks", "verify")),
    ("tau", "--p", "3", "--s", "0", "2,1"),
    ("tau", "--p", "3", "--s", "3", "2,1"),
    ("tau", "--p", "3", "--e", "-1", "2,1"),
]


@pytest.mark.parametrize("argv", EXTREME_ARGUMENTS, ids=" ".join)
def test_extreme_arguments_are_refused_fast(capsys, argv):
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_parser_choices_equal_the_library_names():
    from barblocks import cli, suites
    from barblocks.characters import ATILDE, STILDE
    from barblocks.humphreys import G, GPLUS

    assert cli._SUITES == tuple(sorted(suites.SUITES))
    assert cli._GROUPS == (STILDE, ATILDE, G, GPLUS)
    assert (suites._STILDE, suites._ATILDE) == (STILDE, ATILDE)


# sha256 of the help texts at 80 columns, as printed before the command
# modules were imported per command
HELP_DIGESTS = {
    (): "325c09e30100fbbb94de703af0122dd256afe564c1067a5eb95f702c767121e8",
    ("verify",): "f495f5d087482ab310277c35621161621360891303cc93bc8f600ab5c098e774",
    ("blocks",): "42ea3f253d7029bcecc08ff5346fac9aca1a2a2578af75275cd84f0a82bed348",
}


@pytest.mark.parametrize("command", HELP_DIGESTS, ids=lambda c: " ".join(c + ("-h",)))
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "-h"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


ALL_MODULES = {
    "abacus", "blocks", "characters", "cli", "galois", "humphreys", "littlewood", "partitions", "suites",
}
LIGHT = {"cli", "partitions"}
SIGNS = LIGHT | {"galois", "littlewood", "suites"}
MODULE_BUDGETS = {
    ("decompose", "--p", "5", "14,12,8,6,3,2"): LIGHT | {"littlewood"},
    ("decompose", "--p", "3", "--nonspin", "2,2"): LIGHT | {"littlewood"},
    ("pairs", "--p", "5", "14,12,8,6,3,2"): LIGHT | {"littlewood"},
    ("pairs", "--p", "5", "--nonspin", "3,1,1"): LIGHT | {"littlewood"},
    ("abacus", "--p", "3", "--twisted", "5,3,2,1"): LIGHT | {"abacus"},
    ("tau", "--p", "3", "2,1"): LIGHT | {"galois"},
    ("tau", "--p", "3", "--nonspin", "2,1"): LIGHT | {"galois"},
    ("blocks", "--p", "3", "--n", "4", "--group", "stilde"): ALL_MODULES - {"abacus", "suites"},
    ("blocks", "--p", "3", "--n", "4", "--group", "g"): ALL_MODULES - {"abacus", "suites"},
    ("verify", "little", "--p", "3", "--max-n", "5"): SIGNS,
    ("verify", "tau_oracle", "--p", "3", "--max-n", "5"): LIGHT | {"galois", "suites"},
    ("verify", "signs", "--p", "3", "--max-n", "5"): SIGNS,
    ("verify", "roundtrips", "--p", "3", "--max-n", "5"): SIGNS | {"abacus"},
    ("verify", "phi", "--p", "3", "--max-n", "5"): SIGNS | {"characters", "humphreys"},
    ("verify", "psi", "--p", "3", "--max-n", "5"): ALL_MODULES - {"abacus"},
}


@pytest.mark.parametrize("argv", MODULE_BUDGETS, ids=" ".join)
def test_each_command_loads_only_the_modules_it_uses(argv):
    """A command imports its library modules when it runs, so a process pays
    the import (and, without a bytecode cache, the compile) of those alone.
    No command loads dataclasses or inspect, which cost a process about 7 ms,
    and only a command that writes JSON text loads json (about 3 ms): the
    charvec and quotient lines of decompose do, the text answers of tau,
    pairs, abacus and blocks and a passing verify do not.  The modules are
    read before the child imports json to print them."""
    code = (
        "import sys; from barblocks.cli import main; code = main(sys.argv[1:]); loaded = set(sys.modules); "
        "import json; print(json.dumps([code, sorted(m for m in loaded if m.startswith('barblocks.')), "
        "sorted({'dataclasses', 'inspect', 'json'} & loaded)]))"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    exit_code, modules, heavy = json.loads(done.stdout.splitlines()[-1])
    assert exit_code == 0, done.stderr
    assert {m.removeprefix("barblocks.") for m in modules} == MODULE_BUDGETS[argv]
    assert heavy == (["json"] if argv[0] == "decompose" else [])


def test_verify_text_report_shows_ten_witnesses_then_a_count(capsys):
    code, out, _ = run(
        capsys, "verify", "crossing_fails", "--p", "3", "--max-n", "12", "--max-w", "5",
        "--expect-violations",
    )
    lines = out.splitlines()
    assert code == 0
    assert "violations: 104" in lines
    assert sum(line.startswith("witness: ") for line in lines) == 10
    assert lines[-1] == "... and 94 more"


def _readme_block(heading, fence):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_lines_run(capsys):
    block = _readme_block("## CLI", "")
    lines = [line for line in block.splitlines() if line.startswith("barblocks ")]
    assert len(lines) == 9
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert run(capsys, *argv)[0] == 0, line


def test_readme_library_example_holds():
    """Run the example and check the values its comments give."""
    namespace = {}
    exec(_readme_block("## Library example", "python"), namespace)
    assert (namespace["dec"].weight, namespace["dec"].d) == (9, 0)
    assert eval("paired_parts(lam, 5)", namespace) == ((2, 3), (6, 14), (12, 8))
    assert eval("tau_partition(BarPartition([2, 1]), GaloisElement.sigma(3))", namespace) == -1


def _reference_decompose_text(lam, p, dec) -> str:
    """The text answer of decompose as one json.dumps per list line."""
    return "".join(
        f"{line}\n"
        for line in (
            f"partition: {lam}",
            f"p: {p}",
            f"core: {dec.core}",
            f"charvec: {json.dumps(list(dec.charvec))}",
            f"quotient: {json.dumps([q.to_json() for q in dec.quotient])}",
            f"weight: {dec.weight}",
            f"cocore: {dec.cocore}",
            f"d: {dec.d}",
        )
    )


def test_decompose_text_equals_the_json_dumps_lines(capsys):
    """The charvec and quotient lines, written a run of numbers at a time,
    equal one json.dumps of the whole list: every strict |lambda| <= 22 at
    p in {3, 5, 13}, every |lambda| <= 16 with --nonspin at p in {3, 5}, and
    records whose charvec, quotient or one component is longer than a chunk."""
    from barblocks.cli import _CHUNK, _build_parser, _cmd_decompose
    from barblocks.littlewood import bar_decompose, ordinary_decompose
    from barblocks.partitions import BarPartition, enumerate_partitions

    cases = [(lam, p, False) for p in (3, 5, 13) for n in range(23) for lam in enumerate_partitions(n, "strict")]
    cases += [(lam, p, True) for p in (3, 5) for n in range(17) for lam in enumerate_partitions(n)]
    wide = 2 * _CHUNK + 3
    long_ones = [((3 * 5000 + 2, 31), 3), ((5, 1), wide), ((wide * 5000 + wide - 1, wide * 10 + 1), wide),
                 ((wide * 5000 + wide - 3, wide * 4000 + 2, wide * 10 + 1, wide + 4), wide)]
    cases += [(BarPartition(parts), p, False) for parts, p in long_ones]
    parser, lengths = _build_parser(), set()  # one parser: building it is most of a main() call
    for lam, p, nonspin in cases:
        dec = (ordinary_decompose if nonspin else bar_decompose)(lam, p)
        argv = ["decompose", "--p", str(p), *(["--nonspin"] if nonspin else []), str(lam) or " "]
        code = _cmd_decompose(parser.parse_args(argv))
        assert (code, capsys.readouterr().out) == (0, _reference_decompose_text(lam, p, dec)), argv
        lengths.add((len(dec.charvec) > _CHUNK, max(len(q.parts) for q in dec.quotient) > _CHUNK))
    assert lengths >= {(False, False), (True, False), (False, True), (True, True)}


def _reference_blocks_json(n: int, p: int, group: str) -> str:
    """The blocks --json answer as one json.dumps of the whole list."""
    from barblocks.blocks import _blocks_of, _heights_of, _members_of

    out = []
    for block in _blocks_of(n, p, group):
        members = _members_of(block)
        defect, heights = _heights_of(block, members)
        out.append(
            {
                "kappa": block.kappa.to_json(),
                "w": block.w,
                "group": block.group,
                "defect": defect,
                "members": [{**label.to_json(), "height": heights[label]} for label in members],
            }
        )
    return json.dumps(out) + "\n"


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("group", ["stilde", "atilde", "g", "gplus"])
def test_blocks_json_equals_one_json_dumps_of_the_list(capsys, group, p):
    """Written a block and a run of members at a time, the listing equals one
    json.dumps of the whole list, for every n <= 24, those with no block
    included."""
    empty = 0
    for n in range(25):
        code, out, _ = run(capsys, "blocks", "--p", str(p), "--n", str(n), "--group", group, "--json")
        assert (code, out) == (0, _reference_blocks_json(n, p, group)), n
        empty += out == "[]\n"
    assert empty == (p if group in ("g", "gplus") else 0)


@pytest.mark.parametrize("group", ["stilde", "atilde", "g", "gplus"])
def test_blocks_json_across_runs_of_member_records(capsys, group):
    """Member records go out in runs of _RECORDS; at n = 33 and p = 3 a block
    holds more than two runs, and the listing still equals one json.dumps."""
    from barblocks.blocks import _blocks_of, _members_of
    from barblocks.cli import _RECORDS

    assert max(len(_members_of(block)) for block in _blocks_of(33, 3, group)) > 2 * _RECORDS
    code, out, _ = run(capsys, "blocks", "--p", "3", "--n", "33", "--group", group, "--json")
    assert (code, out) == (0, _reference_blocks_json(33, 3, group))


# Spawns one child and prints its exit code and max-RSS.  A child's max-RSS
# starts from its spawner's RSS, so a small interpreter started without site
# spawns it, not this process.
_SPAWN = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def _peak_rss_kib(*argv) -> int:
    """The max-RSS of one child interpreter, read by os.wait4 on that child
    alone, its stdout sent to the null device."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _SPAWN, sys.executable, *argv], env=env, capture_output=True, text=True
    )
    code, kib = map(int, done.stdout.split())
    assert code == 0, (argv, done.stderr)
    return kib


@pytest.mark.parametrize(
    "argv",
    [
        ("abacus", "--p", "11", "--twisted", "489775,428632,421350,236670,219044,35238"),
        ("decompose", "--p", "3", "698212,650260,635420,568462,369525,178138"),
        ("abacus", "--p", "3", "--twisted", "3000001,2999999"),
    ],
    ids=["abacus", "decompose", "abacus-2M-rows"],
)
def test_large_answers_are_written_in_bounded_memory(argv):
    """The largest abacus drawing (about 89,000 rows) and decompose answer
    (a 211,810-part quotient component) of the point queries, and a drawing
    of 2,000,003 rows, peak within 4 MiB of a process that only imports the
    CLI: the answer is written in pieces, never held whole."""
    floor = _peak_rss_kib("-c", "import barblocks.cli")
    peak = _peak_rss_kib("-c", "import sys; from barblocks.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert peak - floor <= 4 * 1024, f"{peak} KiB, {peak - floor} KiB above the import floor"


def test_blocks_json_peaks_within_a_mebibyte_of_the_text_listing():
    """--json writes the same members as the text listing, a run of
    _RECORDS records at a time, so it holds about as much: within 1 MiB of
    the text listing's peak at p = 3 and n = 66 (30,198 members)."""
    argv = ("-m", "barblocks.cli", "blocks", "--p", "3", "--n", "66", "--group", "stilde")
    text, json_text = _peak_rss_kib(*argv), _peak_rss_kib(*argv, "--json")
    assert json_text - text <= 1024, f"--json {json_text} KiB against {text} KiB in text"


def test_the_process_entry_turns_the_cyclic_collector_off(capsys, monkeypatch):
    """The barblocks script and python -m barblocks.cli run _script, which
    runs main() on sys.argv with the cyclic garbage collector off."""
    monkeypatch.setattr(sys, "argv", ["barblocks", "pairs", "--p", "3", "5,3,1"])
    try:
        assert _script() == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert capsys.readouterr().out == "1 5\n"


@pytest.mark.parametrize(
    "small, large",
    [
        (("blocks", "--p", "3", "--n", "9", "--group", "stilde"), ("blocks", "--p", "3", "--n", "33", "--group", "stilde")),
        (("blocks", "--p", "3", "--n", "9", "--group", "g", "--json"), ("blocks", "--p", "3", "--n", "33", "--group", "g", "--json")),
        (("verify", "psi", "--p", "5", "--max-n", "8"), ("verify", "psi", "--p", "5", "--max-n", "14")),
        (("verify", "crossing_fails", "--p", "3", "--max-n", "6", "--max-w", "2", "--expect-violations"),
         ("verify", "crossing_fails", "--p", "3", "--max-n", "12", "--max-w", "5", "--expect-violations")),
        (("decompose", "--p", "5", "5,3,1"), ("decompose", "--p", "3", "698212,650260,635420,568462,369525,178138")),
        (("abacus", "--p", "5", "--twisted", "5,3,1"), ("abacus", "--p", "7", "--twisted", "9001,5003,1002")),
    ],
    ids=["blocks", "blocks --json", "verify psi", "verify crossing_fails", "decompose", "abacus"],
)
def test_a_command_makes_no_reference_cycles(capsys, small, large):
    """With the collector off (the process entry), cyclic garbage is never
    freed, so a command must make none that grows with its work: a large
    answer leaves exactly as many unreachable objects as a small one, those
    of the parser."""
    gc.collect()
    gc.disable()
    try:
        left = []
        for argv in (small, large):
            main(list(argv))
            left.append(gc.collect())
    finally:
        gc.enable()
    capsys.readouterr()
    assert left[0] == left[1] > 0
