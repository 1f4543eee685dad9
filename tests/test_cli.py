import json
from time import perf_counter

import pytest

from barblocks.cli import main


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


def test_json_output_round_trips_through_parsers(capsys):
    from barblocks.abacus import TwistedBarAbacus
    from barblocks.blocks import VerificationReport
    from barblocks.characters import CharLabel
    from barblocks.littlewood import BarLittlewood, bar_decompose
    from barblocks.partitions import BarPartition

    _, out, _ = run(capsys, "decompose", "--p", "5", "--json", "14,12,8,6,3,2")
    dec = BarLittlewood.from_json(json.loads(out), 5)
    assert dec == bar_decompose(BarPartition([14, 12, 8, 6, 3, 2]), 5)

    _, out, _ = run(capsys, "abacus", "--p", "5", "--twisted", "--json", "14,12,8,6,3,2")
    tw = TwistedBarAbacus.from_json(json.loads(out))
    assert tw.to_partition() == BarPartition([14, 12, 8, 6, 3, 2])

    _, out, _ = run(capsys, "blocks", "--p", "3", "--n", "4", "--group", "stilde", "--json")
    rec = json.loads(out)[0]["members"][0]
    rec.pop("height")
    label = CharLabel.from_json(rec)
    assert label.to_json() == rec

    _, out, _ = run(capsys, "verify", "signs", "--p", "3", "--max-n", "8", "--json")
    report = VerificationReport.from_json(json.loads(out))
    assert report.to_json() == json.loads(out)


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
