"""Transfer-time certification and early-exclusion search."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pstchain.dynamics as dynamics
from pstchain import (
    EseReport,
    EseZero,
    GridBudgetError,
    JacobiMatrix,
    PstCertificate,
    PstUndecidableError,
    SpectralData,
    SpectrumRequest,
    amplitude,
    amplitude_values,
    detect_ese,
    detect_pst,
    eigendecompose,
    gap_family_spectrum,
    persymmetric_weights,
    reconstruct_jacobi,
    surgery_spectrum,
)


GOLDEN_ESE = Path(__file__).parent / "golden" / "ese_named_families.json"


def golden_request(case):
    if case["family"] == "krawtchouk":
        N = case["N"]
        return SpectrumRequest(np.arange(N + 1.0) - N / 2.0)
    if case["family"] == "surgery":
        return surgery_spectrum(case["N"])
    return gap_family_spectrum(case["n"], case["m"])


def golden_id(case):
    params = "-".join(f"{k}{case[k]}" for k in ("N", "n", "m") if k in case)
    return f"{case['family']}-{params}"


GOLDEN_CASES = json.loads(GOLDEN_ESE.read_text())["cases"]

SHIFTED_SPECTRA = {
    "surgery-3": surgery_spectrum(3),
    "krawtchouk-40": SpectrumRequest(np.arange(41.0) - 20.0),
    "surgery-39": surgery_spectrum(39),
    "gap-10-5": gap_family_spectrum(10, 5),
    "gap-20-9": gap_family_spectrum(20, 9),
}


def scan_minima(sd, cert):
    """|x_0|^2 on detect_ese's scan and the indices of its interior minima."""
    eps = 1e-6 * cert.transfer_time
    _, f2 = dynamics._scan(sd, eps, cert.transfer_time - eps)
    minima = np.nonzero((f2[1:-1] <= f2[:-2]) & (f2[1:-1] <= f2[2:]))[0] + 1
    return f2, minima


def four_site_data():
    req = surgery_spectrum(3)
    return req, persymmetric_weights(req)


def brute_force_no_pst(gaps, j_max=10_000, tol=1e-8):
    """Independent oracle: no gap quantum makes every ratio an odd integer."""
    gaps = np.asarray(gaps, dtype=float)
    g_min = gaps.min()
    for j in range(j_max + 1):
        delta = g_min / (2 * j + 1)
        ratios = gaps / delta
        odd = np.maximum(2.0 * np.round(0.5 * (ratios - 1.0)) + 1.0, 1.0)
        if np.all(np.abs(ratios - odd) <= tol * ratios):
            return False
    return True


def loop_detect_pst(req, tol):
    """Reference for ``detect_pst``'s verdict: one candidate per iteration.

    Returns (transfer_time, gap_odd_integers), None for no PST, or
    "undecidable" when even the first candidate exceeds the odd cap.
    """
    gaps = np.diff(req.eigenvalues)
    g_min = float(gaps.min())
    tested_any = False
    for j in range(dynamics._ODD_CAP + 1):
        delta = g_min / (2 * j + 1)
        ratios = gaps / delta
        odd = np.maximum(2.0 * np.round(0.5 * (ratios - 1.0)) + 1.0, 1.0)
        if odd.max() > 2 * dynamics._ODD_CAP + 1:
            break
        tested_any = True
        if np.all(np.abs(ratios - odd) <= tol * ratios):
            return math.pi / delta, tuple(int(v) for v in np.rint(0.5 * (odd - 1.0)))
    return None if tested_any else "undecidable"


def pst_corpus():
    """Spectra for comparing ``detect_pst`` with its loop reference.

    Spectra of seeded generic wires, odd-gap lattices (symmetric and not)
    whose first feasible candidate falls on the first row of each of the
    first six blocks and inside them,
    near-uniform spectra that scan about 10^4 candidates without PST, and
    gap spreads at and just over the odd cap.
    """
    rng = np.random.default_rng(83)
    spectra = {}
    for k in range(12):
        n = int(rng.integers(2, 42))
        wire = JacobiMatrix(
            diag=rng.uniform(-2.0, 2.0, size=n), offdiag=rng.uniform(0.2, 3.0, size=n - 1)
        )
        spectra[f"wire-{k}"] = eigendecompose(wire).eigenvalues
    for k, g in enumerate((1, 3, 9, 17, 43, 81, 169, 337, 681, 1361, 1705, 3409, 4001)):
        # gaps are odd multiples of delta, the smallest of them g = 2j + 1
        count = int(rng.integers(1, 20))
        odds = np.concatenate([[g], g + 2 * rng.integers(0, g + 1, size=count)])
        odds = rng.permutation(odds)
        if k % 2:
            odds = np.concatenate([odds, odds[::-1]])
        delta = float(rng.uniform(0.2, 4.0))
        spectra[f"lattice-{g}"] = np.concatenate([[0.0], np.cumsum(odds * delta)]) - 1.0
    for k in range(3):
        n = int(rng.integers(4, 42))
        gaps = 1.0 + 1e-3 * rng.uniform(size=n - 1)
        spectra[f"near-uniform-{k}"] = np.concatenate([[0.0], np.cumsum(gaps)])
    # every candidate up to the odd cap testable, none feasible at 1e-8
    spectra["near-equal-pair"] = np.array([0.0, 1.0, 2.0 + 1e-6])
    spectra["undecidable"] = np.array([0.0, 1e-6, 1.0 + 1e-6])
    spectra["spread-at-cap"] = np.array([0.0, 1.0, 20002.0])
    spectra["spread-over-cap"] = np.array([0.0, 1.0, 20004.0])
    return spectra


PST_CORPUS = pst_corpus()

# Krawtchouk N = 1..40, surgery N = 3..39 and gap families n = 2..20,
# m = 1..30: 629 spectra
NAMED_SPECTRA = (
    [SpectrumRequest(np.arange(N + 1.0) - N / 2.0) for N in range(1, 41)]
    + [surgery_spectrum(N) for N in range(3, 40, 2)]
    + [gap_family_spectrum(n, m) for n in range(2, 21) for m in range(1, 31)]
)


class TestDetectPst:
    @pytest.mark.parametrize("tol", [1e-8, 1e-5])
    @pytest.mark.parametrize("name", PST_CORPUS)
    def test_matches_loop_reference(self, name, tol):
        req = SpectrumRequest(PST_CORPUS[name])
        expected = loop_detect_pst(req, tol)
        if expected == "undecidable":
            with pytest.raises(PstUndecidableError):
                detect_pst(req, tol)
            return
        cert = detect_pst(req, tol)
        if expected is None:
            assert not cert.has_pst
        else:
            assert cert.has_pst
            assert (cert.transfer_time, cert.gap_odd_integers) == expected


    def test_four_site_example(self):
        req, _ = four_site_data()
        cert = detect_pst(req)
        assert cert.has_pst
        assert cert.transfer_time == pytest.approx(math.pi, abs=1e-12)
        assert cert.gap_odd_integers == (0, 1, 0)
        # measured boundary phase matches the evolved column at T0
        assert abs(cert.phase) == pytest.approx(1.0, abs=1e-12)
        assert cert.phase.imag == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 5, 11])
    def test_equidistant_spectra(self, N):
        req = SpectrumRequest(np.arange(N + 1.0) - N / 2.0)
        cert = detect_pst(req)
        assert cert.has_pst
        assert cert.transfer_time == pytest.approx(math.pi, abs=1e-12)
        assert cert.gap_odd_integers == (0,) * N

    def test_certificate_gap_identity(self):
        # gaps reproduce (2 n_k + 1) pi / T0 at the default tolerance
        for req in (surgery_spectrum(5), gap_family_spectrum(3, 2)):
            cert = detect_pst(req)
            gaps = np.diff(req.eigenvalues)
            target = (
                (2.0 * np.asarray(cert.gap_odd_integers) + 1.0)
                * math.pi
                / cert.transfer_time
            )
            assert np.abs(gaps - target).max() <= 1e-8 * gaps.max()

    def test_incommensurate_gaps_rejected(self):
        # ratio 3/2 would need an even odd-multiple; oracle scans all quanta
        assert brute_force_no_pst([1.0, 1.5])
        cert = detect_pst(SpectrumRequest([0.0, 1.0, 2.5]))
        assert not cert.has_pst
        assert cert.transfer_time is None
        assert cert.phase is None

    def test_earliest_time_wins(self):
        # gaps (3, 9): quantum 3 makes both odd, so T0 = pi/3, not pi
        cert = detect_pst(SpectrumRequest([-3.0, 0.0, 9.0]))
        assert cert.has_pst
        assert cert.transfer_time == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert cert.gap_odd_integers == (0, 1)

    def test_scaling_covariance(self):
        req, _ = four_site_data()
        base = detect_pst(req)
        for sigma in (0.25, 2.0, 9.0):
            scaled = detect_pst(SpectrumRequest(req.eigenvalues * sigma))
            assert scaled.transfer_time == pytest.approx(
                base.transfer_time / sigma, rel=1e-9
            )
            assert scaled.gap_odd_integers == base.gap_odd_integers

    def test_constructed_odd_multiples_recover_quantum(self):
        # spectra built as cumulative odd multiples of a known quantum: the
        # earliest transfer quantum is delta times the gcd of the odd factors
        rng = np.random.default_rng(61)
        for _ in range(30):
            count = int(rng.integers(1, 8))
            odds = 2 * rng.integers(0, 12, size=count) + 1
            delta = float(rng.uniform(0.2, 4.0))
            lam = np.concatenate([[0.0], np.cumsum(odds * delta)])
            cert = detect_pst(SpectrumRequest(lam))
            assert cert.has_pst
            g = math.gcd(*(int(v) for v in odds)) if count > 1 else int(odds[0])
            assert cert.transfer_time == pytest.approx(
                math.pi / (delta * g), rel=1e-10
            )
            recovered = (2 * np.asarray(cert.gap_odd_integers) + 1) * g
            np.testing.assert_array_equal(recovered, odds)

    def test_undecidable_gap_spread(self):
        with pytest.raises(PstUndecidableError):
            detect_pst(SpectrumRequest([0.0, 1e-6, 1.0 + 1e-6]))

    @pytest.mark.parametrize("tol", [1e-8, 1e-16, 1e-300])
    def test_mirror_data_keep_the_gap_verdict(self, tol):
        # mirror weights' persymmetry deviation is round-off, inside its
        # bound at any tol (at most a quarter of it, measured), so the gaps
        # alone decide, as the loop reference does
        for req in NAMED_SPECTRA:
            expected = loop_detect_pst(req, tol)
            for data in (req, persymmetric_weights(req)):
                cert = detect_pst(data, tol)
                assert cert.has_pst, req.eigenvalues
                assert (cert.transfer_time, cert.gap_odd_integers) == expected

    def test_non_mirror_wires_on_odd_gap_lattices_have_no_pst(self):
        # the wires of seeded odd-gap spectra with Dirichlet(4) weights:
        # their gaps certify, but the wires are not mirror-symmetric
        rng = np.random.default_rng(36)
        for _ in range(40):
            npts = int(rng.integers(3, 42))
            odds = 2 * rng.integers(0, 4, size=npts - 1) + 1
            lam = np.concatenate([[0.0], np.cumsum(odds * 0.5)]) + rng.uniform(-5.0, 5.0)
            weights = rng.dirichlet(np.full(npts, 4.0))
            sd = eigendecompose(reconstruct_jacobi(SpectralData(lam, weights)))
            assert detect_pst(SpectrumRequest(sd.eigenvalues)).has_pst
            cert = detect_pst(sd)
            assert not cert.has_pst
            assert cert.transfer_time is cert.phase is None

    def test_phase_is_the_datas_own_far_end_amplitude(self):
        # a mirror wire solved from its matrix: the phase is x_N of the
        # eigensolver's weights, within round-off of the request's (4.0e-15
        # measured)
        for req in (surgery_spectrum(39), gap_family_spectrum(20, 9)):
            sd = eigendecompose(reconstruct_jacobi(persymmetric_weights(req)))
            cert = detect_pst(sd)
            assert cert.phase == amplitude(sd, "last", cert.transfer_time)
            assert abs(cert.phase - detect_pst(req).phase) <= 1e-12

    def test_phase_reuses_the_request_weights_bit_for_bit(self):
        for case in GOLDEN_CASES:
            req = golden_request(case)
            sd = persymmetric_weights(req)
            cert = detect_pst(req)
            assert persymmetric_weights(req) is sd
            fresh = persymmetric_weights(SpectrumRequest(req.eigenvalues))
            expected = amplitude(fresh, "last", cert.transfer_time)
            assert cert.phase.real == expected.real, golden_id(case)
            assert cert.phase.imag == expected.imag, golden_id(case)


class TestDetectEse:
    def test_scan_over_the_grid_budget_raises_before_allocating(self):
        # one unit gap, then 39 gaps of 20,001 = 2 * 10^4 + 1: PST at
        # T0 = pi, but the span of 780,040 asks for a scan of 99,844,922
        # points, about 4 GB
        req = SpectrumRequest(np.concatenate([[0.0], 1.0 + 20001.0 * np.arange(40)]))
        sd, cert = persymmetric_weights(req), detect_pst(req)
        assert cert.transfer_time == math.pi
        tracemalloc.start()
        try:
            with pytest.raises(GridBudgetError, match="grid of 99844922 points"):
                detect_ese(sd, cert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_four_site_example(self):
        req, sd = four_site_data()
        cert = detect_pst(req)
        report = detect_ese(sd, cert)
        assert len(report.zeros) == 1
        zero = report.zeros[0]
        eps = np.finfo(float).eps
        assert abs(zero.time - math.acos(2.0 / 3.0)) <= 4 * eps * cert.transfer_time
        assert zero.residual < 1e-15
        assert zero.last_site_modulus == pytest.approx(
            4.0 / 6.0**1.5, abs=1e-9
        )
        assert not report.unresolved
        assert not report.early_pst_anomalies

    @pytest.mark.parametrize("N", [1, 2, 6, 13, 20])
    def test_equidistant_chains_have_no_exclusion(self, N):
        req = SpectrumRequest(np.arange(N + 1.0) - N / 2.0)
        report = detect_ese(persymmetric_weights(req), detect_pst(req))
        assert report.zeros == ()

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3), (6, 4)])
    def test_gap_families_reach_promised_count(self, n, m):
        req = gap_family_spectrum(n, m)
        report = detect_ese(persymmetric_weights(req), detect_pst(req))
        assert len(report.zeros) >= m
        for zero in report.zeros:
            assert 0.0 < zero.time < math.pi
            assert zero.last_site_modulus < 1.0 - 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: Newton's step test leaves flat zeros unresolved; "
        "132 of the 570 families miss 1 to 5 zeros, e.g. (9, 25) reports 24",
    )
    def test_every_gap_family_reports_exactly_m_zeros(self):
        # n = 2..20 and m = 1..30, every case within 41 sites; the exact
        # count m was checked with sympy's count_roots (ROADMAP item 3)
        wrong = []
        for n in range(2, 21):
            for m in range(1, 31):
                req = gap_family_spectrum(n, m)
                report = detect_ese(persymmetric_weights(req), detect_pst(req))
                if len(report.zeros) != m or report.unresolved:
                    wrong.append((n, m))
        assert wrong == []

    def test_zero_residuals_match_amplitude_op(self):
        req = gap_family_spectrum(4, 3)
        sd = persymmetric_weights(req)
        report = detect_ese(sd, detect_pst(req))
        for zero in report.zeros:
            assert abs(amplitude(sd, "first", zero.time)) < report.tolerance

    def test_requires_positive_certificate(self):
        _, sd = four_site_data()
        negative = detect_pst(SpectrumRequest([0.0, 1.0, 2.5]))
        with pytest.raises(ValueError, match="certify"):
            detect_ese(sd, negative)

    def test_requires_consistent_spectrum(self):
        req, sd = four_site_data()
        other = detect_pst(SpectrumRequest(np.arange(4.0) - 1.5))
        with pytest.raises(ValueError, match="inconsistent"):
            detect_ese(sd, other)

    def test_scaling_covariance_of_zero_times(self):
        req, sd = four_site_data()
        base = detect_ese(sd, detect_pst(req))
        for sigma in (0.3, 4.0):
            scaled_req = SpectrumRequest(req.eigenvalues * sigma)
            scaled_sd = persymmetric_weights(scaled_req)
            scaled = detect_ese(scaled_sd, detect_pst(scaled_req))
            assert len(scaled.zeros) == len(base.zeros)
            for a, b in zip(scaled.zeros, base.zeros):
                assert a.time == pytest.approx(b.time / sigma, rel=1e-9)

    @pytest.mark.parametrize(
        "name,shift",
        [("surgery-3", 2.25)]
        + [(name, shift) for name in SHIFTED_SPECTRA for shift in (1e3, 1e7, 1e9)],
        ids=lambda v: v if isinstance(v, str) else f"{v:g}",
    )
    def test_shift_leaves_zero_set(self, name, shift):
        # a uniform spectral shift only multiplies x0 by a unit phase; the
        # 4-site exemplar keeps its zero at arccos(2/3) at every shift
        req = SHIFTED_SPECTRA[name]
        base = detect_ese(persymmetric_weights(req), detect_pst(req))
        shifted_req = SpectrumRequest(req.eigenvalues + shift)
        cert = detect_pst(shifted_req)
        shifted = detect_ese(persymmetric_weights(shifted_req), cert)
        assert len(shifted.zeros) == len(base.zeros)
        for a, b in zip(shifted.zeros, base.zeros):
            assert abs(a.time - b.time) <= 1e-12 * cert.transfer_time

    def test_nonconvergent_refinement_is_reported(self, monkeypatch):
        req, sd = four_site_data()
        cert = detect_pst(req)
        monkeypatch.setattr(dynamics, "_REFINE_MAX_ITER", 2)
        report = detect_ese(sd, cert)
        assert report.zeros == ()
        assert len(report.unresolved) >= 1

    def test_newton_stops_at_non_positive_curvature(self):
        # t = 0 is the maximum |x_0| = 1, where d^2|x_0|^2/dt^2 < 0: the
        # iterate stays where it started, finite and unconverged
        _, sd = four_site_data()
        times = np.array([-0.1, 0.0, 0.1])
        t, converged = dynamics._newton_minimize(sd, times, np.array([1]), 1.0)
        assert t.tolist() == [0.0]
        assert converged.tolist() == [False]

    @pytest.mark.parametrize(
        "req",
        [surgery_spectrum(3), gap_family_spectrum(10, 5), gap_family_spectrum(20, 9)],
        ids=["surgery-3", "gap-10-5", "gap-20-9"],
    )
    def test_search_counters_partition_candidates(self, req):
        report = detect_ese(persymmetric_weights(req), detect_pst(req))
        assert report.refined >= len(report.zeros) > 0

    def test_amplitude_evaluations_do_not_grow_with_candidates(self, monkeypatch):
        # every Newton iterate advances in the same batched evaluation, so
        # the call count is at most the step budget plus the residual and
        # |x_N| checks, whatever the number of minima; the scan itself goes
        # through the factored grid kernel, so only the refinement and the
        # checks send points through the spectral sum
        req = gap_family_spectrum(20, 9)
        sd, cert = persymmetric_weights(req), detect_pst(req)
        assert scan_minima(sd, cert)[1].size > 64
        points = []
        spectral_sum = dynamics._spectral_sum

        def counted(sd, times, coefficients):
            points.append(np.size(times))
            return spectral_sum(sd, times, coefficients)

        monkeypatch.setattr(dynamics, "_spectral_sum", counted)
        report = detect_ese(sd, cert)
        assert len(report.zeros) == 9
        assert len(points) <= dynamics._REFINE_MAX_ITER + 2
        scan_points = round((1 - 2e-6) * cert.transfer_time / report.scan_resolution) + 1
        assert scan_points == 7297
        assert sum(points) < scan_points // 8

    def test_plateau_minima_are_never_refined(self):
        # every interior minimum of the 41-site equidistant chain lies on the
        # cancellation plateau near T0
        req = SpectrumRequest(np.arange(41.0) - 20.0)
        sd, cert = persymmetric_weights(req), detect_pst(req)
        f2, minima = scan_minima(sd, cert)
        edge = np.sqrt(np.maximum(f2[minima - 1], f2[minima + 1]))
        assert minima.size > 0
        assert np.all(edge < dynamics._NOISE_CLEARANCE)
        report = detect_ese(sd, cert)
        assert report.refined == 0
        assert report.zeros == ()


class TestEseGolden:
    """detect_ese against outputs recorded before the batched refinement."""

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=golden_id)
    def test_matches_recorded_search(self, case):
        req = golden_request(case)
        cert = detect_pst(req)
        assert cert.transfer_time == case["transfer_time"]
        report = detect_ese(persymmetric_weights(req), cert)
        assert len(report.zeros) == len(case["zeros"])
        assert len(report.unresolved) == len(case["unresolved"])
        assert len(report.early_pst_anomalies) == len(case["early_pst_anomalies"])
        width = dynamics._REFINE_WIDTH_FRAC * case["transfer_time"]
        for zero, (time, _) in zip(report.zeros, case["zeros"]):
            assert abs(zero.time - time) <= width
            assert zero.residual < 2e-14
        for got, want in zip(report.early_pst_anomalies, case["early_pst_anomalies"]):
            assert abs(got - want) <= width


class TestReflectionSymmetry:
    @pytest.mark.parametrize(
        "spectrum",
        [
            np.arange(5.0) - 2.0,
            np.arange(6.0) - 2.5,
            gap_family_spectrum(3, 2).eigenvalues,
        ],
    )
    def test_modulus_mirror_about_pi(self, spectrum):
        sd = persymmetric_weights(SpectrumRequest(spectrum))
        u = np.linspace(0.01, 0.99 * math.pi, 57)
        left = np.abs(amplitude_values(sd, math.pi - u, "first"))
        right = np.abs(amplitude_values(sd, math.pi + u, "first"))
        assert np.abs(left - right).max() < 1e-12


class TestSmallSizesNeverExclude:
    def test_two_site_wires(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            a = float(rng.uniform(-2, 2))
            b = float(rng.uniform(0.2, 3.0))
            req = SpectrumRequest([a - b, a + b])
            sd = persymmetric_weights(req)
            cert = detect_pst(req)
            assert detect_ese(sd, cert).zeros == ()

    def test_three_site_wires(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            n = int(rng.integers(0, 6))
            m = int(rng.integers(0, 6))
            sigma = math.pi / float(rng.uniform(0.5, 5.0))
            req = SpectrumRequest(
                np.array([-(2 * m + 1), 0.0, 2 * n + 1]) * sigma
            )
            sd = persymmetric_weights(req)
            cert = detect_pst(req)
            assert detect_ese(sd, cert).zeros == ()


class TestReportValidation:
    def test_certificate_needs_a_spectrum(self):
        with pytest.raises(ValueError, match="spectrum it certifies"):
            PstCertificate(False, None, None, None, (1.0,))

    def test_positive_certificate_needs_time_and_integers(self):
        with pytest.raises(ValueError, match="T0 and odd integers"):
            PstCertificate(True, None, (0,), None, (-1.0, 1.0))
        with pytest.raises(ValueError, match="T0 and odd integers"):
            PstCertificate(True, math.pi / 2, None, None, (-1.0, 1.0))

    def test_certificate_gaps_must_match(self):
        PstCertificate(True, math.pi / 2, (0,), None, (-1.0, 1.0))
        with pytest.raises(ValueError, match="gap structure"):
            PstCertificate(True, math.pi / 2, (1,), None, (-1.0, 1.0))

    @pytest.mark.parametrize(
        "zero, match",
        [
            (EseZero(time=1.0, residual=1e-10, last_site_modulus=0.5), "residual"),
            (EseZero(time=1.0, residual=0.0, last_site_modulus=1.0 - 1e-7), "saturate"),
        ],
    )
    def test_report_zeros_must_be_certified(self, zero, match):
        with pytest.raises(ValueError, match=match):
            EseReport((zero,), (), (), scan_resolution=1e-3, tolerance=1e-10)
