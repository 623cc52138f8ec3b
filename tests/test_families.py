"""Polynomial families, closed forms, and sign-change counting."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pstchain import (
    ChebyshevCombination,
    NotChebyshevRepresentableError,
    SpectralData,
    SpectrumRequest,
    amplitude_as_chebyshev,
    amplitude_values,
    closed_form_4x4,
    closed_form_krawtchouk_x0,
    closed_form_surgery_x0,
    count_sign_changes,
    detect_ese,
    detect_pst,
    eigendecompose,
    gap_family_spectrum,
    krawtchouk_chain,
    persymmetric_weights,
    reconstruct_jacobi,
    surgery_spectrum,
)

GOLDEN_ESE = Path(__file__).parent / "golden" / "ese_named_families.json"


def monic_krawtchouk(N: int, n: int, x):
    """Monic symmetric-binomial polynomial K_n at x by forward recurrence.

    Defined for n = 0..N+1 through
    K_{j+1}(x) = (x - N/2) K_j(x) - ((N+1-j) j / 4) K_{j-1}(x)
    from K_{-1} = 0, K_0 = 1; K_{N+1} is x(x-1)...(x-N).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not 0 <= n <= N + 1:
        raise ValueError("polynomial index must lie in [0, N+1]")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for j in range(n):
        prev, cur = cur, (x - N / 2.0) * cur - ((N + 1.0 - j) * j / 4.0) * prev
    return cur


def chebyshev_t(j: int, x):
    """T_j(x) through the library's Chebyshev combination."""
    return ChebyshevCombination({j: 1.0}).evaluate(x)


class TestKrawtchoukChain:
    def test_three_site_couplings(self):
        J = krawtchouk_chain(3)
        np.testing.assert_allclose(
            J.offdiag, [math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2]
        )
        assert np.all(J.diag == 0.0)

    def test_smallest_chain(self):
        np.testing.assert_allclose(krawtchouk_chain(1).offdiag, [0.5])

    def test_four_bond_chain(self):
        # direct coupling evaluation: c_1 = 1, c_2 = 3/2
        expected = [1.0, math.sqrt(6) / 2, math.sqrt(6) / 2, 1.0]
        np.testing.assert_allclose(krawtchouk_chain(4).offdiag, expected)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            krawtchouk_chain(0)
        with pytest.raises(ValueError):
            krawtchouk_chain(41)

    @pytest.mark.parametrize("N", [1, 2, 5, 9, 16, 40])
    def test_equidistant_eigenstructure(self, N):
        # binomial weights C(N,s)/2^N reach 2^-40 at 41 sites; a relative
        # bound keeps the smallest ones honest (dense LAPACK misses it)
        sd = eigendecompose(krawtchouk_chain(N))
        np.testing.assert_allclose(
            sd.eigenvalues, np.arange(N + 1.0) - N / 2.0, atol=1e-10
        )
        binom = np.array([math.comb(N, s) for s in range(N + 1)], dtype=float)
        assert np.abs(sd.weights / (binom / 2.0**N) - 1.0).max() <= 1e-13


class TestMonicKrawtchouk:
    def test_degree_zero_is_one(self):
        assert monic_krawtchouk(5, 0, 2.7) == 1.0

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_top_polynomial_vanishes_on_integer_nodes(self, N):
        for x in range(N + 1):
            assert abs(monic_krawtchouk(N, N + 1, float(x))) < 1e-10

    def test_first_degree_by_hand(self):
        x = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(monic_krawtchouk(3, 1, x), x - 1.5)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            monic_krawtchouk(3, 5, 0.0)
        with pytest.raises(ValueError):
            monic_krawtchouk(3, -1, 0.0)


class TestGapFamilySpectrum:
    def test_minimal_family(self):
        np.testing.assert_allclose(
            gap_family_spectrum(2, 1).eigenvalues, [-2.5, -1.5, 1.5, 2.5]
        )

    def test_wider_family(self):
        np.testing.assert_allclose(
            gap_family_spectrum(3, 1).eigenvalues,
            [-3.5, -2.5, -1.5, 1.5, 2.5, 3.5],
        )

    def test_larger_middle_gap(self):
        np.testing.assert_allclose(
            gap_family_spectrum(2, 2).eigenvalues, [-3.5, -2.5, 2.5, 3.5]
        )

    def test_gap_structure(self):
        lam = gap_family_spectrum(5, 3).eigenvalues
        gaps = np.diff(lam)
        assert gaps[4] == pytest.approx(7.0)
        mask = np.ones(9, dtype=bool)
        mask[4] = False
        np.testing.assert_allclose(gaps[mask], np.ones(8))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gap_family_spectrum(1, 1)
        with pytest.raises(ValueError):
            gap_family_spectrum(3, 0)


class TestClosedForms:
    def test_four_site_at_zero(self):
        values = closed_form_4x4(0.0)
        assert values.x0 == pytest.approx(1.0)
        assert values.x3_modulus == pytest.approx(0.0)

    def test_four_site_at_exclusion_time(self):
        values = closed_form_4x4(math.acos(2.0 / 3.0))
        assert abs(values.x0) < 1e-15
        assert values.x3_modulus == pytest.approx(4.0 / 6.0**1.5, abs=1e-14)

    def test_four_site_at_transfer_time(self):
        values = closed_form_4x4(math.pi)
        assert abs(values.x0) < 1e-15
        assert values.x3_modulus == pytest.approx(1.0, abs=1e-14)

    def test_equidistant_simple_values(self):
        assert closed_form_krawtchouk_x0(2, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert closed_form_krawtchouk_x0(3, math.pi / 2) == pytest.approx(
            (math.sqrt(2) / 2) ** 3
        )

    @pytest.mark.parametrize("N", [1, 4, 9, 14, 20])
    def test_equidistant_matches_spectral_sum(self, N):
        sd = eigendecompose(krawtchouk_chain(N))
        t = np.linspace(0.0, 2 * math.pi, 1000)
        x0 = amplitude_values(sd, t, "first")
        assert np.abs(x0 - closed_form_krawtchouk_x0(N, t)).max() < 1e-11

    def test_surgery_reduces_to_four_site(self):
        t = np.linspace(0.0, 2 * math.pi, 200)
        np.testing.assert_allclose(
            closed_form_surgery_x0(3, t), closed_form_4x4(t).x0, atol=1e-15
        )

    def test_surgery_at_zero(self):
        assert closed_form_surgery_x0(7, 0.0) == pytest.approx(1.0)

    def test_surgery_affine_zero_is_an_exclusion_time(self):
        # N = 5: the affine factor 4 cos t - 3 vanishes at arccos(3/4)
        req = surgery_spectrum(5)
        sd = eigendecompose(reconstruct_jacobi(persymmetric_weights(req)))
        report = detect_ese(sd, detect_pst(req))
        assert len(report.zeros) == 1
        assert report.zeros[0].time == pytest.approx(
            math.acos(3.0 / 4.0), abs=1e-9
        )

    def test_surgery_rejects_even_or_small(self):
        with pytest.raises(ValueError):
            closed_form_surgery_x0(4, 1.0)
        with pytest.raises(ValueError):
            closed_form_surgery_x0(1, 1.0)


class TestChebyshevEval:
    def test_low_degrees(self):
        x = np.linspace(-1.0, 1.0, 41)
        np.testing.assert_allclose(chebyshev_t(0, x), np.ones_like(x))
        np.testing.assert_allclose(chebyshev_t(1, x), x)

    def test_degree_three_value(self):
        assert chebyshev_t(3, 0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_matches_trigonometric_definition(self):
        x = np.linspace(-1.0, 1.0, 101)
        for j in (2, 5, 9, 17):
            np.testing.assert_allclose(
                chebyshev_t(j, x), np.cos(j * np.arccos(x)), atol=1e-12
            )

    def test_discrete_orthogonality(self):
        # quadrature oracle: Gauss nodes x_i = cos((2i+1)pi/(2M)) integrate
        # T_n T_k / sqrt(1-x^2) exactly for n + k < 2M
        M = 64
        nodes = np.cos((2 * np.arange(M) + 1) * math.pi / (2 * M))
        for n in range(0, 21):
            for k in range(0, n):
                inner = np.sum(chebyshev_t(n, nodes) * chebyshev_t(k, nodes))
                inner *= math.pi / M
                assert abs(inner) < 1e-12


class TestChebyshevCombination:
    def test_requires_nonzero_lowest_coefficient(self):
        with pytest.raises(ValueError, match="nonzero"):
            ChebyshevCombination({2: 0.0, 5: 1.0})
        with pytest.raises(ValueError):
            ChebyshevCombination({})

    def test_evaluate_matches_direct_sum(self):
        c = ChebyshevCombination({1: 0.5, 4: -1.25, 7: 2.0})
        x = np.linspace(-1.0, 1.0, 57)
        theta = np.arccos(x)
        direct = (
            0.5 * np.cos(theta)
            - 1.25 * np.cos(4 * theta)
            + 2.0 * np.cos(7 * theta)
        )
        np.testing.assert_allclose(c.evaluate(x), direct, atol=1e-13)

    def test_degree_accessors(self):
        c = ChebyshevCombination({3: 1.0, 9: -0.5})
        assert c.lowest_degree == 3
        assert c.highest_degree == 9


class TestAmplitudeAsChebyshev:
    def test_minimal_gap_family_coefficients(self):
        sd = persymmetric_weights(gap_family_spectrum(2, 1))
        c = amplitude_as_chebyshev(sd)
        assert c.coefficients == pytest.approx({3: 5 / 8, 5: 3 / 8})

    def test_two_site_chain(self):
        sd = eigendecompose(krawtchouk_chain(1))
        c = amplitude_as_chebyshev(sd)
        assert c.coefficients == pytest.approx({1: 1.0})

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 4)])
    def test_degree_endpoints(self, n, m):
        c = amplitude_as_chebyshev(persymmetric_weights(gap_family_spectrum(n, m)))
        assert c.lowest_degree == 2 * m + 1
        assert c.highest_degree == 2 * n + 2 * m - 1

    @pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 4)])
    def test_reproduces_amplitude(self, n, m):
        sd = persymmetric_weights(gap_family_spectrum(n, m))
        c = amplitude_as_chebyshev(sd)
        t = np.linspace(0.0, 2 * math.pi, 701)
        x0 = amplitude_values(sd, t, "first")
        assert np.abs(x0.imag).max() < 1e-14
        assert np.abs(c.evaluate(np.cos(t / 2.0)) - x0.real).max() < 1e-10

    def test_rejects_asymmetric_spectrum(self):
        sd = persymmetric_weights(SpectrumRequest([-0.5, 1.5, 2.5, 3.5]))
        with pytest.raises(NotChebyshevRepresentableError, match="symmetric"):
            amplitude_as_chebyshev(sd)

    def test_rejects_integer_spectrum(self):
        sd = persymmetric_weights(SpectrumRequest([-2.0, -1.0, 1.0, 2.0]))
        with pytest.raises(NotChebyshevRepresentableError, match="half-integers"):
            amplitude_as_chebyshev(sd)

    def test_rejects_zero_eigenvalue(self):
        sd = persymmetric_weights(SpectrumRequest([-1.5, 0.0, 1.5]))
        with pytest.raises(NotChebyshevRepresentableError):
            amplitude_as_chebyshev(sd)

    def test_rejects_asymmetric_weights(self):
        sd = SpectralData(
            eigenvalues=[-1.5, -0.5, 0.5, 1.5], weights=[0.3, 0.3, 0.2, 0.2]
        )
        with pytest.raises(NotChebyshevRepresentableError, match="weights"):
            amplitude_as_chebyshev(sd)


class TestCountSignChanges:
    def test_single_first_degree(self):
        assert count_sign_changes(ChebyshevCombination({1: 1.0}), 512) == 1

    def test_pure_degree_three(self):
        # zeros of T_3 inside (-1, 1): -cos(pi/6), 0, cos(pi/6)
        assert count_sign_changes(ChebyshevCombination({3: 1.0}), 512) == 3

    def test_count_is_stable_under_refinement(self):
        c = ChebyshevCombination({2: -0.7, 5: 1.0, 8: 0.4})
        coarse = count_sign_changes(c, 1024)
        fine = count_sign_changes(c, 8192)
        assert fine >= coarse

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            count_sign_changes(ChebyshevCombination({1: 1.0}), 32)

    def test_random_combinations_lower_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            top = int(rng.integers(2, 13))
            low = int(rng.integers(1, top + 1))
            coeffs = {
                j: float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
                for j in range(low, top + 1)
            }
            c = ChebyshevCombination(coeffs)
            assert count_sign_changes(c, 8192) >= low

    def test_named_symmetric_spectra_count_exactly(self):
        # x_0 is odd in u = cos(t/2): each ESE zero in (0, pi) and its mirror
        # are sign changes on (-1, 1), and u = 0 (t = pi) is one more
        wrong = []
        for case in json.loads(GOLDEN_ESE.read_text())["cases"]:
            if case["family"] == "krawtchouk":
                if case["N"] % 2 == 0:  # odd size: 0 is in the spectrum
                    continue
                req = SpectrumRequest(np.arange(case["N"] + 1.0) - case["N"] / 2.0)
            elif case["family"] == "surgery":
                req = surgery_spectrum(case["N"])
            else:
                req = gap_family_spectrum(case["n"], case["m"])
            c = amplitude_as_chebyshev(persymmetric_weights(req))
            count = count_sign_changes(c)
            if count != 2 * len(case["zeros"]) + 1 or count > c.highest_degree:
                wrong.append((case, count, c.highest_degree))
        assert not wrong, wrong

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 3), (6, 4)])
    def test_gap_family_amplitudes(self, n, m):
        c = amplitude_as_chebyshev(persymmetric_weights(gap_family_spectrum(n, m)))
        assert count_sign_changes(c, 4096) >= 2 * m + 1
