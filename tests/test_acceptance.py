"""Acceptance gate: every criterion below runs exhaustively at its stated
bound and prints one pass/fail line.  Run with

    pytest tests/test_acceptance.py -v

Each test is one criterion; the bounds are fixed here, not configurable.
"""

import time

from barblocks import verify


def _expect_clean(report, tag):
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: {tag} (cases={report.cases}, violations={len(report.violations)})")
    assert report.passed, (tag, report.violations[:3])


def test_criterion_round_trips():
    start = time.monotonic()
    for p in (3, 5, 7):
        _expect_clean(verify("roundtrips", p, 40), f"round trips p={p}, |lambda| <= 40")
    elapsed = time.monotonic() - start
    print(f"PASS: round-trip runtime {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0


def test_criterion_length_and_sign_identities():
    for p in (3, 5, 7):
        _expect_clean(verify("lengths", p, 30), f"exact length identity p={p}, |lambda| <= 30")
        _expect_clean(verify("signs", p, 30), f"sign multiplicativity p={p}, |lambda| <= 30")
        _expect_clean(verify("sizes", p, 30), f"size additivity p={p}, |lambda| <= 30")


def test_criterion_pairing():
    for p in (3, 5, 7):
        _expect_clean(verify("pairing", p, 30), f"cocore part pairing p={p}, |lambda| <= 30")


def test_criterion_galois_oracle_agreement():
    start = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        _expect_clean(
            verify("tau_oracle", p, 200),
            f"closed form vs cyclotomic oracle p={p}, m <= 200, e <= 2, all s",
        )
    elapsed = time.monotonic() - start
    print(f"PASS: oracle agreement runtime {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300.0


def test_criterion_tau_factorization():
    for p in (3, 5, 7, 11, 13):
        report = verify("little", p, 30)
        _expect_clean(report, f"tau factorization through the decomposition p={p}, |lambda| <= 30")
        counts = dict(note.split("=") for note in report.notes)
        assert int(counts["case_ii"]) > 0, f"both-negative case not exercised at p={p}"
    print("PASS: both-negative case exercised at p = 1 mod 4 (5, 13) and p = 3 mod 4 (3, 7, 11)")


def test_criterion_correspondence_equivariance_and_valuation():
    for p in (3, 5, 7):
        _expect_clean(verify("phi", p, 30), f"core/cocore correspondence equivariance p={p}, |lambda| <= 30")
        _expect_clean(verify("valuation", p, 30), f"degree valuation transfer p={p}, |lambda| <= 30")


def test_criterion_block_bijection():
    for p in (3, 5):
        _expect_clean(
            verify("blocks", p, 10, w_max=3),
            f"block bijection: heights, defects, common defect p={p}, |kappa| <= 10, w <= 3",
        )


def test_criterion_weight_one_census():
    for p in (3, 5, 7, 11):
        _expect_clean(verify("census", p, 6, w_max=1), f"weight-1 member counts p={p}")


def test_criterion_core_replacement_maps():
    for p in (3, 5):
        _expect_clean(
            verify("psi", p, 10, w_max=3),
            f"same-sign core replacement p={p}, |kappa| <= 10, w <= 3",
        )
        _expect_clean(
            verify("crossing", p, 10, w_max=3),
            f"crossing core replacement p={p}, |kappa| <= 10, w <= 3",
        )


def test_criterion_reversed_crossing_failure():
    report = verify("crossing_fails", 3, 10, w_max=3)
    found = len(report.violations)
    localized = all(
        v["kappa2_sign"] == -1 and v["cocore_sign"] == -1 for v in report.violations
    )
    status = "PASS" if (found >= 1 and localized) else "FAIL"
    print(
        f"{status}: reversed crossing fails at p=3 "
        f"({found} violations, all at doubly-negative labels: {localized})"
    )
    assert found >= 1
    assert localized

    clean = verify("crossing_fails", 5, 10, w_max=3)
    status = "PASS" if clean.passed else "FAIL"
    print(f"{status}: reversed crossing clean at p=5 (cases={clean.cases})")
    assert clean.passed


def test_criterion_nonspin():
    for p in (3, 5):
        _expect_clean(
            verify("tau_nonspin", p, 30),
            f"self-conjugate tau factorization p={p}, |lambda| <= 30",
        )
        _expect_clean(verify("durfee", p, 30), f"Durfee identity p={p}, |lambda| <= 30")
        _expect_clean(
            verify("psi_nonspin", p, 10, w_max=3),
            f"non-spin core replacement p={p}, |kappa| <= 10, w <= 3",
        )
