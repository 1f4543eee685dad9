import contextlib
import dataclasses
import hashlib
import io
import json

import pytest

from barblocks import blocks
from barblocks.blocks import (
    LabelMap,
    NonSpinBlockId,
    SpinBlockId,
    VerificationReport,
    bar_cores,
    equivariance_check,
    nonspin_block_members,
    nonspin_psi,
    phi_map,
    psi,
    selfconjugate_cores,
    spin_block_members,
    verify,
)
from barblocks.characters import (
    ATILDE,
    NONSPIN,
    SPIN,
    STILDE,
    WHOLE,
    CharLabel,
    classify,
    height_and_defect,
)
from barblocks.cli import _spin_blocks_of, main
from barblocks.galois import GaloisElement, standard_generators, tau_partition
from barblocks.humphreys import cocores
from barblocks.littlewood import bar_decompose, ordinary_decompose
from barblocks.partitions import BarPartition, Partition, enumerate_partitions

from oracles import bar_core_by_removal, p_core_by_hook_removal


def test_spin_block_id_validation():
    with pytest.raises(ValueError):
        SpinBlockId(BarPartition([3]), 1, STILDE, 3)
    with pytest.raises(ValueError):
        SpinBlockId(BarPartition(), -1, STILDE, 3)
    with pytest.raises(ValueError):
        SpinBlockId(BarPartition(), 1, "g", 3)


def test_spin_block_members_weight_two():
    block = SpinBlockId(BarPartition(), 2, STILDE, 3)
    partitions = {label.partition for label in spin_block_members(block)}
    assert partitions == {
        BarPartition([6]),
        BarPartition([5, 1]),
        BarPartition([4, 2]),
        BarPartition([3, 2, 1]),
    }


def test_spin_block_weight_zero_singleton():
    kappa = BarPartition([3, 1])
    block = SpinBlockId(kappa, 0, STILDE, 5)
    members = spin_block_members(block)
    assert len(members) == 1 and members[0].variant == WHOLE
    defect, heights = height_and_defect(members, block.n, 5)
    assert defect == 0 and heights[members[0]] == 0


def test_spin_block_member_count_weight_one():
    for p in (3, 5, 7):
        for kappa in (BarPartition(), BarPartition([1])):
            block = SpinBlockId(kappa, 1, STILDE, p)
            members = spin_block_members(block)
            expected = p if kappa.sign() == 1 else (p + 3) // 2
            assert len(members) == expected


def test_blocks_partition_label_space():
    for p in (3, 5):
        for n in (6, 9, 11):
            seen = {}
            for lam in enumerate_partitions(n, "strict"):
                core = bar_decompose(lam, p).core
                seen.setdefault(core, set()).add(lam)
            total = 0
            for core, lams in seen.items():
                w = (n - core.size) // p
                block = SpinBlockId(core, w, STILDE, p)
                members = {label.partition for label in spin_block_members(block)}
                assert members == lams
                total += len(lams)
            assert total == sum(1 for _ in enumerate_partitions(n, "strict"))


def test_phi_map_bijection():
    block = SpinBlockId(BarPartition([1]), 2, ATILDE, 3)
    lmap = phi_map(block)
    sources = [s for s, _ in lmap.pairs]
    images = [d for _, d in lmap.pairs]
    assert sorted(set(sources), key=lambda l: l.sort_key()) == list(spin_block_members(block))
    assert len(set(images)) == len(images)


def test_psi_identity_and_composition():
    p = 3
    k1, k2 = BarPartition(), BarPartition([1])
    assert k1.sign() == 1 and k2.sign() == 1
    block = SpinBlockId(k1, 2, STILDE, p)
    ident = psi(block, k1)
    assert all(src.partition == dst.partition for src, dst in ident.pairs)

    forward = psi(block, k2)
    back = psi(forward.target, k1)
    back_map = back.as_dict()
    for src, dst in forward.pairs:
        assert back_map[dst] == src


def test_psi_same_sign_preserves_variant_and_sign():
    block = SpinBlockId(BarPartition([2]), 2, ATILDE, 3)
    lmap = psi(block, BarPartition([5, 2]))
    assert lmap.target.group == ATILDE
    for src, dst in lmap.pairs:
        assert src.variant == dst.variant
        assert src.partition.sign() == dst.partition.sign()
        assert bar_decompose(dst.partition, 3).core == BarPartition([5, 2])


def test_psi_crossing_direction_and_gate():
    p = 3
    neg, pos = BarPartition([2]), BarPartition([1])
    block = SpinBlockId(neg, 1, STILDE, p)
    lmap = psi(block, pos)
    assert lmap.target.group == ATILDE
    for src, dst in lmap.pairs:
        assert src.variant == dst.variant
        assert src.partition.sign() == -dst.partition.sign()

    # alternating side with positive core crosses back
    back = psi(SpinBlockId(pos, 1, ATILDE, p), neg)
    assert back.target.group == STILDE

    # the reversed direction is refused without the explicit flag
    with pytest.raises(ValueError):
        psi(SpinBlockId(pos, 1, STILDE, p), neg)
    forced = psi(SpinBlockId(pos, 1, STILDE, p), neg, allow_reversed=True)
    assert forced.target.group == ATILDE


def test_equivariance_check_passes_for_phi():
    p = 3
    block = SpinBlockId(BarPartition([2]), 2, STILDE, p)
    report = equivariance_check(phi_map(block), standard_generators(p))
    assert report.passed
    assert report.cases > 0


def test_equivariance_check_detects_mismatch():
    p = 3
    plus = classify(BarPartition([2, 1]), STILDE)[0]
    whole = classify(BarPartition([3]), STILDE)[0]
    clash = LabelMap(None, None, ((plus, whole),))
    report = equivariance_check(clash, standard_generators(p))
    assert not report.passed
    assert report.violations[0]["reason"] == "variant mismatch"


def test_nonspin_block_members():
    kappa = Partition([1])
    block = NonSpinBlockId(kappa, 1, 3)
    members = nonspin_block_members(block)
    # partitions of 4 with 3-core (1): the orbit {(4),(1,1,1,1)} gives one
    # self-associate label, the self-conjugate (2,2) gives a pair
    variants = sorted(label.variant for label in members)
    assert variants == ["minus", "plus", "whole"]
    for label in members:
        assert ordinary_decompose(label.partition, 3).core == kappa


def test_nonspin_block_validation():
    with pytest.raises(ValueError):
        NonSpinBlockId(Partition([2]), 1, 3)  # not self-conjugate
    with pytest.raises(ValueError):
        NonSpinBlockId(Partition([2, 1]), 1, 3)  # self-conjugate but not a core


def test_nonspin_psi_structure():
    p = 3
    k1, k2 = Partition(), Partition([1])
    lmap = nonspin_psi(k1, k2, 2, p)
    src_members = set(nonspin_block_members(NonSpinBlockId(k1, 2, p)))
    dst_members = set(nonspin_block_members(NonSpinBlockId(k2, 2, p)))
    assert {s for s, _ in lmap.pairs} == src_members
    assert {d for _, d in lmap.pairs} == dst_members
    for src, dst in lmap.pairs:
        assert src.variant == dst.variant


def test_bar_cores_helper():
    cores3 = bar_cores(3, 7)
    assert BarPartition() in cores3
    assert BarPartition([1]) in cores3
    assert BarPartition([2]) in cores3
    assert BarPartition([4, 1]) in cores3
    assert BarPartition([5, 2]) in cores3
    assert BarPartition([3]) not in cores3
    for k in cores3:
        assert bar_decompose(k, 3).weight == 0


def test_selfconjugate_cores_helper():
    for p in (3, 5):
        for k in selfconjugate_cores(p, 10):
            assert k.is_self_conjugate()
            assert ordinary_decompose(k, p).weight == 0


ELEMENTWISE_CASES = {  # p = 3, bound 14
    "roundtrips": 110,
    "lengths": 110,
    "signs": 110,
    "sizes": 110,
    "pairing": 29,
    "tau_oracle": 84,
    "little": 330,
    "phi": 660,
    "valuation": 87,
    "tau_nonspin": 72,
    "durfee": 24,
}


@pytest.mark.parametrize("suite", list(ELEMENTWISE_CASES))
def test_elementwise_suites_pass(suite):
    report = verify(suite, 3, 14)
    assert report.passed
    assert report.cases == ELEMENTWISE_CASES[suite]
    if suite == "little":
        assert report.notes == ("case_i=86", "case_ii=24", "case_iii=220")


def test_block_suites_pass():
    expected = {"blocks": 20, "census": 10, "psi": 128, "crossing": 32, "psi_nonspin": 30}
    for suite, cases in expected.items():
        report = verify(suite, 3, 7, w_max=2)
        assert report.passed, (suite, report.violations[:2])
        assert report.cases == cases, suite
    report = verify("crossing_fails", 3, 7, w_max=2)
    assert (report.cases, len(report.violations)) == (28, 6)


def test_crossing_fails_finds_localized_violations():
    report = verify("crossing_fails", 3, 8, w_max=2)
    assert len(report.violations) >= 1
    for v in report.violations:
        assert v["kappa2_sign"] == -1
        assert v["cocore_sign"] == -1
        assert v["f"] == {"p": 3, "e": 1, "s": 1}
    assert list(report.violations[0]) == [
        "label", "image", "f", "tau_source", "tau_image",
        "kappa", "kappa2", "w", "kappa2_sign", "cocore_sign",
    ]
    clean = verify("crossing_fails", 5, 8, w_max=1)
    assert clean.passed


def test_nonspin_suites_pass():
    for suite, bound, w_max, cases in (
        ("tau_nonspin", 12, 3, 54),
        ("durfee", 16, 3, 33),
        ("psi_nonspin", 6, 2, 30),
    ):
        report = verify(suite, 3, bound, w_max=w_max)
        assert report.passed
        assert report.cases == cases, suite


def test_verify_rejects_unknown_suite(monkeypatch):
    with pytest.raises(ValueError):
        verify("nope", 3, 10)
    with pytest.raises(ValueError):
        verify("lengths", 3, 0)
    for suite in ("roundtrips", "little", "blocks"):
        with pytest.raises(ValueError, match="p must be an odd prime, got 9"):
            verify(suite, 9, 5)
    for suite, w_max in (("blocks", 0), ("psi", -2)):
        with pytest.raises(ValueError, match="w_max"):
            verify(suite, 3, 5, w_max=w_max)

    def oracle_called(*_args):
        raise AssertionError("the oracle bound is checked before the sweep")

    monkeypatch.setattr(blocks, "oracle_tau_sqrt", oracle_called)
    with pytest.raises(ValueError, match="tau_oracle"):
        verify("tau_oracle", 3, 2_000_000)


def _doctored(name, make):
    real = getattr(blocks, name)
    return name, lambda *args: make(real(*args))


def _shift_d(dec):
    return dataclasses.replace(dec, d=dec.d + 1)


def _extra_part(kind):
    return lambda lam: kind((1000,) + lam.parts)


def _flip_oracle_at(m_bad):
    real = blocks.oracle_tau_sqrt
    return "oracle_tau_sqrt", lambda m, *args: (-1 if m == m_bad else 1) * real(m, *args)


# Each suite sees a doctored library function through the name it calls;
# a suite that held the function itself would not see the change.
WITNESS_CASES = [
    (
        "lengths", 3, _doctored("bar_decompose", _shift_d),
        {"lambda": [], "length": 0, "core_length": 0, "cocore_length": 0, "d": 1},
    ),
    (
        "signs", 3,
        _doctored("bar_decompose", lambda dec: dataclasses.replace(dec, cocore=BarPartition([2]))),
        {"lambda": [], "sign": 1, "core_sign": 1, "cocore_sign": -1},
    ),
    (
        "sizes", 3,
        _doctored("bar_decompose", lambda dec: dataclasses.replace(dec, weight=dec.weight + 1)),
        {"lambda": [], "size": 0, "core_size": 0, "weight": 1},
    ),
    (
        "durfee", 3, _doctored("ordinary_decompose", _shift_d),
        {"lambda": [], "durfee": 0, "core_durfee": 0, "cocore_durfee": 0, "d": 1},
    ),
    (
        "roundtrips", 3, _doctored("bar_reconstruct", _extra_part(BarPartition)),
        {"lambda": [], "reason": "decompose round trip"},
    ),
    (
        "psi", 4, _doctored("bar_reconstruct", _extra_part(BarPartition)),
        {
            "kappa": [], "kappa2": [1], "w": 1, "group": "stilde",
            "reason": "not a bijection onto the target block",
        },
    ),
    (
        "psi_nonspin", 5, _doctored("ordinary_reconstruct", _extra_part(Partition)),
        {"kappa": [], "kappa2": [1], "w": 1, "reason": "not a bijection onto the target block"},
    ),
    (
        "tau_oracle", 4, _flip_oracle_at(2),
        {"m": 2, "f": {"p": 3, "e": 0, "s": 1}, "closed": 1, "oracle": -1},
    ),
    (
        "blocks", 4, _doctored("g_height_and_defect", lambda dh: (dh[0] + 1, dh[1])),
        {"kappa": [], "w": 1, "group": "stilde", "defect": 1, "image_defect": 2},
    ),
]


@pytest.mark.parametrize(
    "suite, bound, doctor, witness", WITNESS_CASES, ids=[case[0] for case in WITNESS_CASES]
)
def test_failing_suites_report_exact_witness(monkeypatch, suite, bound, doctor, witness):
    monkeypatch.setattr(blocks, *doctor)
    report = verify(suite, 3, bound, w_max=1)
    first = report.violations[0]
    assert first == witness
    assert list(first) == list(witness)


def test_report_json_schema_and_determinism():
    r1 = verify("lengths", 3, 10)
    r2 = verify("lengths", 3, 10)
    assert r1 == r2
    blob = r1.to_json()
    assert set(blob) == {"suite", "p", "bound", "cases", "violations", "notes"}
    assert json.dumps(blob) == json.dumps(r2.to_json())
    assert isinstance(r1, VerificationReport)


def test_tau_matching_hypothesis_reported():
    p = 3
    k1, k2 = BarPartition(), BarPartition([1])
    sigma = GaloisElement.sigma(p)
    assert tau_partition(k1, sigma) == tau_partition(k2, sigma)
    lmap = psi(SpinBlockId(k1, 1, STILDE, p), k2)
    report = equivariance_check(lmap, standard_generators(p))
    assert any("matching=True" in note for note in report.notes)


def _filtered(n, p):
    """Blocks of degree n by the independent route: every strict (ordinary)
    partition of n, grouped by its core found by removal moves."""
    spin, ordinary = {}, {}
    for lam in enumerate_partitions(n, "strict"):
        spin.setdefault(bar_core_by_removal(lam, p), set()).add(lam)
    for lam in enumerate_partitions(n, "all"):
        ordinary.setdefault(p_core_by_hook_removal(lam, p), set()).add(lam)
    return spin, ordinary


def _orbit_labels(lams):
    out = set()
    for lam in lams:
        if lam.is_self_conjugate():
            out.update(classify(lam, ATILDE, NONSPIN))
        else:
            star = lam.conjugate()
            rep = lam if lam.parts >= star.parts else star
            out.add(CharLabel(rep, ATILDE, NONSPIN, WHOLE))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_membership_matches_filtering_by_removal(p):
    """Block lists, members, cocores and bar cores against filtering every
    partition of n <= 16 by the cores of tests/oracles.py."""
    cores_seen = set()
    for n in range(17):
        spin, ordinary = _filtered(n, p)
        cores_seen.update(spin)
        blocks_of = [(b.kappa, b.w) for b in _spin_blocks_of(n, p, STILDE)]
        assert blocks_of == sorted(
            ((k, (n - k.size) // p) for k in spin), key=lambda b: (b[0].size, b[0].parts)
        )
        for kappa, lams in spin.items():
            w = (n - kappa.size) // p
            for group in (STILDE, ATILDE):
                members = spin_block_members(SpinBlockId(kappa, w, group, p))
                expected = sorted(
                    (x for lam in lams for x in classify(lam, group, SPIN)),
                    key=CharLabel.sort_key,
                )
                assert list(members) == expected
        if n % p == 0:
            want = sorted(spin.get(BarPartition(), ()), key=lambda lam: lam.parts, reverse=True)
            assert list(cocores(n // p, p)) == want
        for kappa, lams in ordinary.items():
            if kappa.is_self_conjugate():
                block = NonSpinBlockId(kappa, (n - kappa.size) // p, p)
                expected = sorted(_orbit_labels(lams), key=CharLabel.sort_key)
                assert list(nonspin_block_members(block)) == expected
    assert list(bar_cores(p, 16)) == sorted(cores_seen, key=lambda k: (k.size, [-x for x in k]))


def _series(n_max, factors):
    """Coefficients up to x^n_max of the product of 1/(1 - x^i)^k over the
    (i, k) in factors, by repeated multiplication with a geometric series."""
    coeffs = [1] + [0] * n_max
    for i, k in factors:
        for _ in range(k):
            for n in range(i, n_max + 1):
                coeffs[n] += coeffs[n - i]
    return coeffs


def _strict_counts(n_max):
    """q(n), the number of strict partitions of n: the coefficients of the
    product of (1 + x^i), built without the library's enumerator."""
    coeffs = [1] + [0] * n_max
    for i in range(1, n_max + 1):
        for n in range(n_max, i - 1, -1):
            coeffs[n] += coeffs[n - i]
    return coeffs


@pytest.mark.parametrize("p", [3, 5, 7])
def test_block_sizes_match_generating_functions(p):
    """Bar members of weight w number sum_{a+b=w} q(a) P_{(p-1)/2}(b), and
    ordinary members P_p(w), where P_k(b) is the coefficient of x^b in the
    product of (1 - x^i)^(-k)."""
    w_max = 6
    q = _strict_counts(w_max)
    bar_runners = _series(w_max, [(i, (p - 1) // 2) for i in range(1, w_max + 1)])
    ordinary = _series(w_max, [(i, p) for i in range(1, w_max + 1)])
    for kappa in bar_cores(p, 10):
        for w in range(w_max + 1):
            members = spin_block_members(SpinBlockId(kappa, w, STILDE, p))
            lams = {label.partition for label in members}
            assert len(lams) == sum(q[a] * bar_runners[w - a] for a in range(w + 1))
    for w in range(1, w_max + 1):
        assert len(cocores(w, p)) == sum(q[a] * bar_runners[w - a] for a in range(w + 1))
    for kappa in selfconjugate_cores(p, 10):
        for w in range(w_max + 1):
            labels = nonspin_block_members(NonSpinBlockId(kappa, w, p))
            # an orbit {lam, lam*} of two partitions is one whole label, and
            # a self-conjugate lam is a plus/minus pair
            whole = sum(label.variant == WHOLE for label in labels)
            lams = 2 * whole + (len(labels) - whole) // 2
            assert lams == ordinary[w]


def _cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


def _golden_outputs():
    """Exit code and stdout of every block listing at p <= 7, n <= 14, and
    of the six block suites at p <= 5, bound 10, with their JSON output."""
    for p in (3, 5, 7):
        for group in (STILDE, ATILDE, "g", "gplus"):
            for n in range(15):
                argv = ("blocks", "--p", p, "--n", n, "--group", group, "--json")
                yield [list(map(str, argv)), *_cli_stdout(*argv)]
    for p in (3, 5):
        for suite in ("blocks", "census", "psi", "crossing", "crossing_fails", "psi_nonspin"):
            argv = ("verify", suite, "--p", p, "--max-n", 10, "--json")
            yield [list(map(str, argv)), *_cli_stdout(*argv)]


# sha256 over the 192 outputs of _golden_outputs(), one JSON line each, read
# from the implementation that found block members by filtering all
# partitions of n
GOLDEN_DIGEST = "fe2e8cbd465ead164313973a1aa9bcaa9915a697cef4db9b7115c4083ff0d68c"


def test_golden_digest_of_block_outputs():
    digest, count = hashlib.sha256(), 0
    for rec in _golden_outputs():
        digest.update(json.dumps(rec).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (192, GOLDEN_DIGEST)


def test_bar_cores_at_a_large_prime():
    """Below t every strict partition is a t-bar core; the walk over the
    (t-1)/2 runners must not recurse once per runner."""
    expected = tuple(
        lam for n in range(7) for lam in sorted(enumerate_partitions(n, "strict"), reverse=True)
    )
    assert bar_cores(1997, 6) == expected


def test_nonspin_members_at_a_large_prime_are_the_hooks():
    p = 1009
    members = nonspin_block_members(NonSpinBlockId(Partition([]), 1, p))
    hooks = {Partition([p - k] + [1] * k) for k in range(p)}
    found = {label.partition for label in members}
    assert found | {lam.conjugate() for lam in found} == hooks
    assert len(members) == (p - 1) // 2 + 2  # one label per conjugate pair, two for (505, 1^504)
