"""Transfer-time certification and early-exclusion search."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import pstchain.dynamics as dynamics
from pstchain import (
    PstUndecidableError,
    SpectrumRequest,
    amplitude,
    amplitude_values,
    detect_ese,
    detect_pst,
    gap_family_spectrum,
    min_overlap,
    persymmetric_weights,
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


class TestDetectPst:
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

    def test_rejects_bad_tolerance(self):
        req, _ = four_site_data()
        with pytest.raises(ValueError, match="tol"):
            detect_pst(req, tol=1e-3)
        with pytest.raises(ValueError, match="tol"):
            detect_pst(req, tol=0.0)


class TestDetectEse:
    def test_four_site_example(self):
        req, sd = four_site_data()
        report = detect_ese(sd, detect_pst(req))
        assert len(report.zeros) == 1
        zero = report.zeros[0]
        assert zero.time == pytest.approx(math.acos(2.0 / 3.0), abs=1e-9)
        assert zero.residual < 1e-10
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

    def test_shift_leaves_zero_set(self):
        # a uniform spectral shift only multiplies x0 by a unit phase
        req, sd = four_site_data()
        base = detect_ese(sd, detect_pst(req))
        shifted_req = SpectrumRequest(req.eigenvalues + 2.25)
        shifted = detect_ese(
            persymmetric_weights(shifted_req), detect_pst(shifted_req)
        )
        assert len(shifted.zeros) == len(base.zeros)
        for a, b in zip(shifted.zeros, base.zeros):
            assert a.time == pytest.approx(b.time, abs=1e-10)

    def test_nonconvergent_refinement_is_reported(self, monkeypatch):
        req, sd = four_site_data()
        cert = detect_pst(req)
        monkeypatch.setattr(dynamics, "_REFINE_MAX_ITER", 2)
        report = detect_ese(sd, cert)
        assert report.zeros == ()
        assert len(report.unresolved) >= 1

    @pytest.mark.parametrize(
        "req",
        [surgery_spectrum(3), gap_family_spectrum(10, 5), gap_family_spectrum(20, 9)],
        ids=["surgery-3", "gap-10-5", "gap-20-9"],
    )
    def test_search_counters_partition_candidates(self, req):
        report = detect_ese(persymmetric_weights(req), detect_pst(req))
        assert report.candidates == report.noise_floor_rejections + report.refined
        assert report.refined >= len(report.zeros) > 0

    def test_amplitude_evaluations_do_not_grow_with_candidates(self, monkeypatch):
        # every bracket advances in the same batched evaluation, so the call
        # count follows the golden-section depth, not the number of minima
        req = gap_family_spectrum(20, 9)
        sd, cert = persymmetric_weights(req), detect_pst(req)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return amplitude_values(*args, **kwargs)

        monkeypatch.setattr(dynamics, "amplitude_values", counted)
        report = detect_ese(sd, cert)
        assert len(report.zeros) == 9
        assert report.candidates > 64
        assert len(calls) <= 64

    def test_plateau_minima_are_never_refined(self):
        # every interior minimum of the 41-site equidistant chain lies on the
        # cancellation plateau near T0
        req = SpectrumRequest(np.arange(41.0) - 20.0)
        report = detect_ese(persymmetric_weights(req), detect_pst(req))
        assert report.candidates > 0
        assert report.noise_floor_rejections == report.candidates
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
            assert zero.residual < case["tolerance"]
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


class TestMinOverlap:
    def test_monotone_closed_form(self):
        # three-site equidistant chain: |x0| = cos^2(t/2), decreasing on (0, pi)
        sd = persymmetric_weights(SpectrumRequest([-1.0, 0.0, 1.0]))
        result = min_overlap(sd, 0.1, math.pi - 0.1)
        expected = math.cos((math.pi - 0.1) / 2.0) ** 2
        assert result.min_value == pytest.approx(expected, abs=1e-8)
        assert result.argmin == pytest.approx(math.pi - 0.1, abs=1e-6)

    def test_four_site_dips_to_zero_between_half_and_one(self):
        _, sd = four_site_data()
        result = min_overlap(sd, 0.5, 1.0)
        assert result.min_value < 1e-8
        assert result.argmin == pytest.approx(math.acos(2.0 / 3.0), abs=1e-6)

    def test_gap_family_minimum_is_an_ese_zero(self):
        req = gap_family_spectrum(6, 4)
        sd = persymmetric_weights(req)
        zeros = [z.time for z in detect_ese(sd, detect_pst(req)).zeros]
        result = min_overlap(sd, 0.05, 2.5)
        assert result.min_value < 1e-10
        assert min(abs(result.argmin - t) for t in zeros) < 1e-9

    def test_rejects_empty_interval(self):
        _, sd = four_site_data()
        with pytest.raises(ValueError, match="t0 < t1"):
            min_overlap(sd, 1.0, 1.0)


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
