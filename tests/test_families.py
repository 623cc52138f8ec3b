"""Polynomial families, closed forms, and sign-change counting."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from exact import chebyshev_to_power, lattice_weights, odd_multiplicity_roots

from pstchain import (
    SpectralData,
    SpectrumRequest,
    amplitude_as_chebyshev,
    amplitude_values,
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
from pstchain import families

GOLDEN_ESE = Path(__file__).parent / "golden" / "ese_named_families.json"
GOLDEN_SIGN_CHANGES = Path(__file__).parent / "golden" / "sign_changes.json"
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


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
    """T_j(x) through numpy's Chebyshev basis."""
    return np.polynomial.Chebyshev.basis(j)(x)


def named_request(case: dict) -> SpectrumRequest:
    """Spectrum of a golden case: Krawtchouk N, surgery N or gap family (n, m)."""
    if case["family"] == "krawtchouk":
        return SpectrumRequest(np.arange(case["N"] + 1.0) - case["N"] / 2.0)
    if case["family"] == "surgery":
        return surgery_spectrum(case["N"])
    return gap_family_spectrum(case["n"], case["m"])


def combination(low: int, coefficients) -> np.polynomial.Chebyshev:
    """sum_j A_j T_j with the given A_low, A_low+1, ... and no lower terms."""
    return np.polynomial.Chebyshev(np.concatenate([np.zeros(low), coefficients]))


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

    @pytest.mark.parametrize(
        "build",
        [lambda: gap_family_spectrum(10**9, 1), lambda: surgery_spectrum(2 * 10**9 - 1)],
        ids=["gap-family", "surgery"],
    )
    def test_site_cap_is_checked_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 41, got 2000000000"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def four_site_x3_modulus(t):
    """The paper's |x_3(t)| = |sin^3(t/2) (3 cos t + 2)| for the four-site exemplar."""
    t = np.asarray(t, dtype=float)
    return np.abs(np.sin(0.5 * t) ** 3 * (3.0 * np.cos(t) + 2.0))


class TestClosedForms:
    # the four-site exemplar is surgery N = 3: x_0(t) = cos^3(t/2) (3 cos t - 2)
    def test_four_site_at_zero(self):
        assert closed_form_surgery_x0(3, 0.0) == pytest.approx(1.0)
        assert four_site_x3_modulus(0.0) == pytest.approx(0.0)

    def test_four_site_at_exclusion_time(self):
        t = math.acos(2.0 / 3.0)
        assert abs(closed_form_surgery_x0(3, t)) < 1e-15
        assert four_site_x3_modulus(t) == pytest.approx(4.0 / 6.0**1.5, abs=1e-14)

    def test_four_site_at_transfer_time(self):
        assert abs(closed_form_surgery_x0(3, math.pi)) < 1e-15
        assert four_site_x3_modulus(math.pi) == pytest.approx(1.0, abs=1e-14)

    def test_four_site_x3_matches_spectral_sum(self):
        sd = persymmetric_weights(surgery_spectrum(3))
        t = np.linspace(0.0, 2 * math.pi, 300)
        xN = amplitude_values(sd, t, "last")
        assert np.abs(np.abs(xN) - four_site_x3_modulus(t)).max() < 1e-13

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
        paper = np.cos(0.5 * t) ** 3 * (3.0 * np.cos(t) - 2.0)
        np.testing.assert_allclose(closed_form_surgery_x0(3, t), paper, atol=1e-15)

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


class TestAmplitudeAsChebyshev:
    def test_minimal_gap_family_coefficients(self):
        sd = persymmetric_weights(gap_family_spectrum(2, 1))
        c = amplitude_as_chebyshev(sd)
        assert c.coef.tolist() == pytest.approx([0, 0, 0, 5 / 8, 0, 3 / 8])

    def test_two_site_chain(self):
        sd = eigendecompose(krawtchouk_chain(1))
        c = amplitude_as_chebyshev(sd)
        assert c.coef.tolist() == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 4)])
    def test_degree_endpoints(self, n, m):
        c = amplitude_as_chebyshev(persymmetric_weights(gap_family_spectrum(n, m)))
        assert np.flatnonzero(c.coef)[0] == 2 * m + 1
        assert c.degree() == 2 * n + 2 * m - 1

    @pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 4)])
    def test_reproduces_amplitude(self, n, m):
        sd = persymmetric_weights(gap_family_spectrum(n, m))
        c = amplitude_as_chebyshev(sd)
        t = np.linspace(0.0, 2 * math.pi, 701)
        x0 = amplitude_values(sd, t, "first")
        assert np.abs(x0.imag).max() < 1e-14
        assert np.abs(c(np.cos(t / 2.0)) - x0.real).max() < 1e-10

    def test_evaluate_matches_direct_sum(self):
        sd = persymmetric_weights(gap_family_spectrum(3, 2))
        c = amplitude_as_chebyshev(sd)
        x = np.linspace(-1.0, 1.0, 57)
        theta = np.arccos(x)
        positive = sd.eigenvalues > 0
        direct = sum(
            2.0 * w * np.cos(2.0 * lam * theta)
            for lam, w in zip(sd.eigenvalues[positive], sd.weights[positive])
        )
        np.testing.assert_allclose(c(x), direct, atol=1e-13)

    def test_rejects_asymmetric_spectrum(self):
        sd = persymmetric_weights(SpectrumRequest([-0.5, 1.5, 2.5, 3.5]))
        with pytest.raises(ValueError, match="symmetric"):
            amplitude_as_chebyshev(sd)

    def test_rejects_integer_spectrum(self):
        sd = persymmetric_weights(SpectrumRequest([-2.0, -1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="half-integers"):
            amplitude_as_chebyshev(sd)

    def test_rejects_zero_eigenvalue(self):
        sd = persymmetric_weights(SpectrumRequest([-1.5, 0.0, 1.5]))
        with pytest.raises(ValueError):
            amplitude_as_chebyshev(sd)

    def test_rejects_asymmetric_weights(self):
        sd = SpectralData(
            eigenvalues=[-1.5, -0.5, 0.5, 1.5], weights=[0.3, 0.3, 0.2, 0.2]
        )
        with pytest.raises(ValueError, match="weights"):
            amplitude_as_chebyshev(sd)


def linspace_sign_changes(c: np.polynomial.Chebyshev) -> int:
    """Reference count: numpy's evaluation at np.linspace(-1, 1, 8194).

    The same floor and counting rule as ``count_sign_changes``, on the
    linspace samples, endpoints included, and numpy's full-degree Clenshaw
    recurrence.
    """
    values = c(np.linspace(-1.0, 1.0, 8194))
    floor = 1e-12 * sum(abs(a) for a in c.coef.tolist())
    signs = np.sign(values[np.abs(values) > floor])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def seeded_series(count=500, seed=18):
    """Series of degree 1..81, in turn even-only, odd-only and mixed parity."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        degree = int(rng.integers(1, 82))
        if i % 3 == 0:
            degree = max(2, degree - degree % 2)
        elif i % 3 == 1:
            degree -= 1 - degree % 2
        coef = rng.standard_normal(degree + 1)
        coef[: int(rng.integers(0, degree + 1))] = 0.0
        if i % 3 < 2:
            coef[1 - i % 3 :: 2] = 0.0
        yield np.polynomial.Chebyshev(coef)


class TestCountSignChanges:
    def test_grid_is_exactly_antisymmetric(self):
        grid = families._GRID
        # the identity series T_1 evaluates to the sample points themselves
        assert np.array_equal(chebval(grid, [0.0, 1.0]), grid)
        assert grid.size == 8194
        assert np.array_equal(grid, -grid[::-1])
        assert np.all(np.diff(grid) > 0.0) and grid[0] == -1.0
        exact = [float(Fraction(2 * k + 1, 8193)) for k in range(4096)] + [1.0]
        assert np.array_equal(grid[4097:], exact)
        # the nominal points of linspace, which rounds 5,119 of them off
        linspace = np.linspace(-1.0, 1.0, 8194)
        np.testing.assert_array_max_ulp(grid, linspace, maxulp=2)
        assert np.count_nonzero(grid != linspace) == 5119

    def test_matches_linspace_evaluation_on_seeded_series(self):
        series = list(seeded_series())
        parities = {
            (bool(c.coef[::2].any()), bool(c.coef[1::2].any())) for c in series
        }
        assert parities == {(True, False), (False, True), (True, True)}
        assert {c.degree() for c in series} >= {1, 81}
        wrong = [
            (c.coef.tolist(), count_sign_changes(c), linspace_sign_changes(c))
            for c in series
            if count_sign_changes(c) != linspace_sign_changes(c)
        ]
        assert not wrong, wrong

    def test_other_domain_or_basis_samples_the_same_function(self):
        c = np.polynomial.Chebyshev([0.1, -0.3, 0.5, 0.2, -0.7], domain=[0.0, 2.0])
        assert count_sign_changes(c) == linspace_sign_changes(c) == 2
        assert count_sign_changes(c) == count_sign_changes(c.convert())
        # x^2 + 0.3 has no real root, while T_2 + 0.3 has two
        power = np.polynomial.Polynomial([0.3, 0.0, 1.0])
        assert count_sign_changes(power) == linspace_sign_changes(power) == 0

    def test_zero_and_constant_series(self):
        assert count_sign_changes(np.polynomial.Chebyshev([0.0])) == 0
        assert count_sign_changes(np.polynomial.Chebyshev([-2.0])) == 0

    NON_FINITE = {
        "nan": np.polynomial.Chebyshev([0.0, math.nan]),
        "inf": np.polynomial.Chebyshev([math.inf, 1.0]),
        "minus-inf": np.polynomial.Chebyshev([0.0, -math.inf, 0.0, 1.0]),
        "odd-on-the-table": np.polynomial.Chebyshev([0.0, 1.0, 0.0, math.nan]),
        "sum-overflows": np.polynomial.Chebyshev([0.0, 1e308, 1e308]),
        "power-basis": np.polynomial.Polynomial([0.3, math.nan, 1.0]),
        # finite, but the map onto the window overflows in conversion
        "domain-map-overflows": np.polynomial.Chebyshev(
            [0.0, 1e300], domain=[0.0, 1e-300]
        ),
    }

    @pytest.mark.parametrize("name", NON_FINITE)
    def test_non_finite_series_raise(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                count_sign_changes(self.NON_FINITE[name])

    def test_single_first_degree(self):
        assert count_sign_changes(np.polynomial.Chebyshev.basis(1)) == 1

    def test_pure_degree_three(self):
        # zeros of T_3 inside (-1, 1): -cos(pi/6), 0, cos(pi/6)
        assert count_sign_changes(np.polynomial.Chebyshev.basis(3)) == 3

    def test_count_is_stable_under_refinement(self):
        c = combination(2, [-0.7, 0.0, 0.0, 1.0, 0.0, 0.0, 0.4])
        values = c(np.linspace(-1.0, 1.0, 65538)[1:-1])
        signs = np.sign(values[np.abs(values) > 1e-12 * np.abs(c.coef).sum()])
        assert count_sign_changes(c) == np.count_nonzero(signs[1:] != signs[:-1])

    def test_named_symmetric_spectra_count_exactly(self):
        # x_0 is odd in u = cos(t/2): each ESE zero in (0, pi) and its mirror
        # are sign changes on (-1, 1), and u = 0 (t = pi) is one more
        wrong = []
        for case in json.loads(GOLDEN_ESE.read_text())["cases"]:
            if case["family"] == "krawtchouk" and case["N"] % 2 == 0:
                continue  # odd size: 0 is in the spectrum
            c = amplitude_as_chebyshev(persymmetric_weights(named_request(case)))
            count = count_sign_changes(c)
            if count != 2 * len(case["zeros"]) + 1 or count > c.degree():
                wrong.append((case, count, c.degree()))
        assert not wrong, wrong

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 3), (6, 4)])
    def test_gap_family_amplitudes(self, n, m):
        c = amplitude_as_chebyshev(persymmetric_weights(gap_family_spectrum(n, m)))
        assert count_sign_changes(c) >= 2 * m + 1

    def test_every_gap_family_up_to_n20_m30_counts_2m_plus_1(self):
        # criterion 7's bound is met exactly; 19 wide families (n = 13..20,
        # m = 27..30) have their earliest zero between the outermost interior
        # sample, 8191/8193, and y = 1, which only the endpoint sample shows
        wrong = [
            (n, m, count)
            for n in range(2, 21)
            for m in range(1, 31)
            if (count := count_sign_changes(amplitude_as_chebyshev(
                persymmetric_weights(gap_family_spectrum(n, m))
            ))) != 2 * m + 1
        ]
        assert not wrong, wrong


class TestSignChangeGolden:
    """Sign-change counts pinned across changes of the series' representation."""

    golden = json.loads(GOLDEN_SIGN_CHANGES.read_text())

    def test_named_symmetric_spectra(self):
        wrong = []
        for case in self.golden["named"]:
            sd = persymmetric_weights(named_request(case))
            count = count_sign_changes(amplitude_as_chebyshev(sd))
            if count != case["sign_changes"]:
                wrong.append((case, count))
        assert len(self.golden["named"]) == 209
        assert not wrong, wrong

    def test_criterion_7_random_combinations(self):
        wrong = []
        for case in self.golden["random"]:
            count = count_sign_changes(combination(case["low"], case["coefficients"]))
            if count != case["sign_changes"]:
                wrong.append((case, count))
        assert len(self.golden["random"]) == 100
        assert not wrong, wrong

    def test_grid_constants_are_read_only(self):
        # the sign-count abscissae are built once, at import, and shared
        y = np.append(np.arange(1.0, 8193.0, 2.0) / 8193.0, 1.0)
        x = 2.0 * y * y - 1.0
        built = {
            "_Y": y, "_X": x, "_TWO_X": 2.0 * x, "_V1": 2.0 * x - 1.0,
            "_GRID": np.concatenate([-y[::-1], y]),
        }
        for name, expected in built.items():
            constant = getattr(families, name)
            assert not constant.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 0.0
        cases = [
            (amplitude_as_chebyshev(persymmetric_weights(named_request(case))),
             case["sign_changes"])
            for case in self.golden["named"]
        ] + [
            (combination(case["low"], case["coefficients"]), case["sign_changes"])
            for case in self.golden["random"]
        ]
        wrong = [(c, n) for c, n in cases if count_sign_changes(c) != n]
        assert not wrong, wrong
        for name, expected in built.items():
            assert getattr(families, name).tobytes() == expected.tobytes(), name


def exact_sign_changes(coef) -> int:
    """Sign changes on (-1, 1) of sum_j coef[j] T_j, for exact coefficients."""
    return odd_multiplicity_roots(chebyshev_to_power(coef))


def exact_gap_family_series(n: int, m: int) -> list[int]:
    """x_0 of gap family (n, m) as a Chebyshev series, up to a positive scale.

    ``amplitude_as_chebyshev`` puts 2 w(lambda) at degree 2 lambda for each
    positive eigenvalue; here the weights are ``lattice_weights``' integers.
    """
    x, w = lattice_weights(gap_family_spectrum(n, m).eigenvalues)
    coef = [0] * (max(x) + 1)
    for xs, ws in zip(x, w):
        if xs > 0:
            coef[xs] = ws
    return coef


class TestExactSignCount:
    """Criterion 7's count in exact arithmetic (``tests/exact.py``): Descartes
    bisection on the square-free parts of the power-basis polynomial."""

    def test_chebyshev_to_power_matches_numpy(self):
        rng = np.random.default_rng(20)
        for degree in (0, 1, 2, 7, 40):
            coef = rng.integers(-9, 10, size=degree + 1).tolist()
            power = chebyshev_to_power(coef)
            assert all(isinstance(a, int) for a in power)
            np.testing.assert_array_equal(power, np.polynomial.chebyshev.cheb2poly(coef))
        halves = chebyshev_to_power([Fraction(1, 2), 0, Fraction(-3, 4)])
        assert halves == [Fraction(5, 4), 0, Fraction(-3, 2)]

    @pytest.mark.parametrize(
        "factors, count",
        [
            ([([-1, 2], 2), ([1, 3], 1)], 1),  # (2y - 1)^2 (3y + 1)
            ([([-1, 0, 4], 3), ([0, 1], 3)], 3),  # (4y^2 - 1)^3 y^3
            ([([-1, 0, 4], 2), ([0, 1], 2)], 0),  # even multiplicities only
            ([([1, 0, 1], 1), ([-1, 1], 1)], 0),  # no real root; a root at y = 1
            ([([-1, 0, 0, 9], 1), ([1, 5], 2), ([-2, 3], 5)], 2),
        ],
    )
    def test_odd_multiplicity_roots_by_hand(self, factors, count):
        p = [1]
        for factor, multiplicity in factors:
            for _ in range(multiplicity):
                p = [
                    sum(p[i] * factor[k - i] for i in range(len(p)) if 0 <= k - i < len(factor))
                    for k in range(len(p) + len(factor) - 1)
                ]
        assert odd_multiplicity_roots(p) == count
        assert odd_multiplicity_roots([-a for a in p]) == count

    def test_every_gap_family_up_to_n20_m30_counts_2m_plus_1(self):
        wrong = [
            (n, m, count)
            for n in range(2, 21)
            for m in range(1, 31)
            if (count := exact_sign_changes(exact_gap_family_series(n, m))) != 2 * m + 1
        ]
        assert not wrong, wrong

    @pytest.mark.parametrize("index", range(100))
    def test_random_golden_count_is_exact(self, index):
        # the recorded coefficients are floats, each an exact binary rational
        case = TestSignChangeGolden.golden["random"][index]
        coef = [0] * case["low"] + [Fraction(a) for a in case["coefficients"]]
        assert exact_sign_changes(coef) == case["sign_changes"]


def full_grid_count(c: np.polynomial.Chebyshev) -> int:
    """The count's rule applied to numpy's ``chebval`` at all 8194 samples,
    signs by ``np.sign``."""
    values = chebval(families._GRID, c.coef)
    floor = 1e-12 * sum(abs(a) for a in c.coef.tolist())
    signs = np.sign(values[np.abs(values) > floor])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def no_chebval(*args):
    raise AssertionError("chebval ran")


def odd_series(degree: int, count: int = 25, seed: int = 25):
    """Seeded odd-only series of exactly the given odd degree, and T_degree."""
    rng = np.random.default_rng([seed, degree])
    for _ in range(count):
        coef = np.zeros(degree + 1)
        coef[1::2] = rng.standard_normal(degree // 2 + 1)
        coef[: int(rng.integers(0, degree))] = 0.0
        coef[degree] = 1.0 + abs(coef[degree])
        yield np.polynomial.Chebyshev(coef)
    yield np.polynomial.Chebyshev.basis(degree)


class TestOddTable:
    """Counts through the odd-part table, on half the grid of an odd series,
    equal those of numpy's ``chebval`` on the whole grid."""

    def assert_same_counts(self, series):
        wrong = [
            (c.degree(), a, b)
            for c in series
            if (a := count_sign_changes(c)) != (b := full_grid_count(c))
        ]
        assert not wrong, wrong

    def test_every_gap_family_up_to_n20_m30(self):
        series = [
            amplitude_as_chebyshev(persymmetric_weights(gap_family_spectrum(n, m)))
            for n in range(2, 21)
            for m in range(1, 31)
        ]
        assert len(series) == 570
        assert max(c.degree() for c in series) == 99  # all on the table
        self.assert_same_counts(series)

    def test_seeded_series(self):
        self.assert_same_counts(list(seeded_series()))

    def test_golden_sets(self):
        golden = json.loads(GOLDEN_SIGN_CHANGES.read_text())
        cases = golden["named"] + [
            case
            for case in json.loads(GOLDEN_ESE.read_text())["cases"]
            if case["family"] != "krawtchouk" or case["N"] % 2
        ]
        series = [
            amplitude_as_chebyshev(persymmetric_weights(named_request(case)))
            for case in cases
        ] + [
            combination(case["low"], case["coefficients"])
            for case in golden["random"]
        ]
        self.assert_same_counts(series)

    @pytest.mark.parametrize("degree", [125, 127, 129, 131])
    def test_degrees_around_the_table_edge(self, degree, monkeypatch):
        series = list(odd_series(degree))
        self.assert_same_counts(series)
        # degree 127 is the table's last row, 129 the first left to chebval
        with monkeypatch.context() as patch:
            patch.setattr(np.polynomial.chebyshev, "chebval", no_chebval)
            if degree <= 127:
                for c in series:
                    count_sign_changes(c)
            else:
                with pytest.raises(AssertionError, match="chebval"):
                    count_sign_changes(series[0])

    def test_every_amplitude_series_takes_the_table(self, monkeypatch):
        # amplitude_as_chebyshev's series are the only ones a workload counts:
        # every named symmetric spectrum and gap family counts without chebval
        cases = json.loads(GOLDEN_SIGN_CHANGES.read_text())["named"] + [
            case
            for case in json.loads(GOLDEN_ESE.read_text())["cases"]
            if case["family"] != "krawtchouk" or case["N"] % 2
        ]
        requests = [named_request(case) for case in cases] + [
            gap_family_spectrum(n, m) for n in range(2, 21) for m in range(1, 31)
        ]
        series = [amplitude_as_chebyshev(persymmetric_weights(r)) for r in requests]
        with monkeypatch.context() as patch:
            patch.setattr(np.polynomial.chebyshev, "chebval", no_chebval)
            counts = [count_sign_changes(c) for c in series]
        assert len(counts) == len(cases) + 570

    def test_table_rows_are_odd_chebyshev_polynomials(self):
        table = families._odd_table()
        assert table.shape == (64, 4097) and table.nbytes == 2 * 2**20 + 512
        # a row error of 2e-13 moves a sample by at most a fifth of the
        # count's floor, 1e-12 times the sum of |A_j|; row 63 is at 1.1e-13
        vander = np.polynomial.chebyshev.chebvander(families._Y, 127)[:, 1::2]
        np.testing.assert_allclose(table, vander.T, rtol=0.0, atol=2e-13)

    def test_table_is_read_only_and_built_once(self):
        table = families._odd_table()
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        for case in json.loads(GOLDEN_SIGN_CHANGES.read_text())["random"]:
            count_sign_changes(combination(case["low"], case["coefficients"]))
        assert families._odd_table() is table
        assert families._odd_table.cache_info().misses == 1

    def test_cli_analyze_does_not_build_the_table(self):
        # analyze never counts sign changes, so it must not pay for the table
        document = GOLDEN_CLI / "gap-family-20-9" / "construct.json"
        script = (
            "import os, pstchain\n"
            "from pstchain import cli, families\n"
            f"assert cli.main(['analyze', '--in', {str(document)!r}, "
            "'--out', os.devnull]) == 0\n"
            "print(families._odd_table.cache_info().misses)\n"
        )
        # the child imports the pstchain under test, wherever it was found
        source = str(Path(families.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.splitlines()[-1] == "0"
