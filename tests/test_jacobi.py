"""Core types, eigensolver, and boundary amplitude evaluation."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from pstchain import (
    AmplitudeSeries,
    EigensolverError,
    JacobiMatrix,
    SpectralData,
    SpectrumRequest,
    amplitude,
    amplitude_series,
    amplitude_values,
    check_persymmetry,
    eigendecompose,
    full_evolution_column,
    gap_family_spectrum,
    krawtchouk_chain,
    persymmetric_weights,
    reconstruct_jacobi,
)
from pstchain import jacobi
from pstchain.jacobi import _eigensystem


def random_persymmetric(rng, n):
    # computed eigenvectors mix near-degenerate pairs at eps/gap, so keep
    # the corpus away from the degeneracy floor
    while True:
        diag = rng.uniform(-2.0, 2.0, size=n)
        diag = 0.5 * (diag + diag[::-1])
        off = rng.uniform(0.2, 3.0, size=n - 1)
        off = 0.5 * (off + off[::-1])
        J = JacobiMatrix(diag=diag, offdiag=off)
        sd = eigendecompose(J)
        gaps = np.diff(sd.eigenvalues)
        if gaps.min() > 1e-6 * np.abs(sd.eigenvalues).max():
            return J


def to_dense(J):
    """The wire as a dense symmetric (n_sites x n_sites) array."""
    return np.diag(J.diag) + np.diag(J.offdiag, 1) + np.diag(J.offdiag, -1)


def count_calls(monkeypatch, name):
    """Record every call of the private jacobi helper ``name``."""
    calls = []
    original = getattr(jacobi, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(jacobi, name, counting)
    return calls


def four_site_example():
    b = math.sqrt(15.0) / 2.0
    return JacobiMatrix(diag=np.zeros(4), offdiag=[b, 1.0, b])


class TestJacobiMatrix:
    def test_valid_construction(self):
        J = JacobiMatrix(diag=[0.0, 1.0, 0.0], offdiag=[1.0, 1.0])
        assert J.n_sites == 3
        assert not J.diag.flags.writeable

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError, match="strictly positive"):
            JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.0])
        with pytest.raises(ValueError, match="strictly positive"):
            JacobiMatrix(diag=[0.0, 0.0], offdiag=[-1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="one entry shorter"):
            JacobiMatrix(diag=[0.0, 0.0, 0.0], offdiag=[1.0])

    def test_rejects_oversize(self):
        n = 42
        with pytest.raises(ValueError, match="between 2 and 41"):
            JacobiMatrix(diag=np.zeros(n), offdiag=np.ones(n - 1))


class TestSpectralData:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpectralData(eigenvalues=[-1.0, 1.0], weights=[0.5, 0.6])
        with pytest.raises(ValueError, match="inside"):
            SpectralData(eigenvalues=[-1.0, 1.0], weights=[0.0, 1.0])

    def test_rejects_tight_gap(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectralData(eigenvalues=[1.0, 1.0 + 1e-12], weights=[0.5, 0.5])


class TestEigendecompose:
    def test_two_site_symmetric(self):
        sd = eigendecompose(JacobiMatrix(diag=[0.0, 0.0], offdiag=[1.0]))
        np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(sd.weights, [0.5, 0.5], atol=1e-14)

    def test_four_site_example_eigenvalues(self):
        sd = eigendecompose(four_site_example())
        np.testing.assert_allclose(
            sd.eigenvalues, [-2.5, -1.5, 1.5, 2.5], atol=1e-12
        )

    def test_krawtchouk_three_site_weights(self):
        sd = eigendecompose(krawtchouk_chain(3))
        np.testing.assert_allclose(
            sd.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-12
        )
        np.testing.assert_allclose(
            sd.weights, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-13
        )

    def test_matches_lapack(self):
        # independent oracle: LAPACK tridiagonal eigensolver
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            diag = rng.uniform(-3, 3, size=n)
            off = rng.uniform(0.1, 2.0, size=n - 1)
            J = JacobiMatrix(diag=diag, offdiag=off)
            sd = eigendecompose(J)
            lam_ref, vec_ref = eigh_tridiagonal(diag, off)
            scale = np.abs(lam_ref).max()
            assert np.abs(sd.eigenvalues - lam_ref).max() < 1e-12 * scale
            assert np.abs(sd.weights - vec_ref[0] ** 2).max() < 1e-11

    @pytest.mark.parametrize(
        "seed,max_sites,diag_range,off_range",
        [
            (11, 30, 3.0, (0.1, 2.0)),
            # strongly localized eigenvectors: large on-site disorder, weak
            # couplings
            (31, 42, 10.0, (0.05, 1.0)),
        ],
        ids=["generic", "localized"],
    )
    def test_eigenpair_residuals(self, seed, max_sites, diag_range, off_range):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.integers(2, max_sites))
            J = JacobiMatrix(
                diag=rng.uniform(-diag_range, diag_range, size=n),
                offdiag=rng.uniform(*off_range, size=n - 1),
            )
            sd, vectors = _eigensystem(J)
            dense = to_dense(J)
            norm = np.abs(sd.eigenvalues).max()
            residual = np.abs(dense @ vectors - vectors * sd.eigenvalues).max()
            assert residual <= 1e-14 * max(1.0, norm)
            assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("k", [-250, -150, -100, -50, 50, 150, 200, 300])
    def test_scaled_wire(self, k):
        # 41 sites, weights down to 2^-40 and an eigenvalue at 0
        J = krawtchouk_chain(40)
        c = 10.0**k
        ref = eigendecompose(J)
        sd = eigendecompose(JacobiMatrix(diag=c * J.diag, offdiag=c * J.offdiag))
        scale = c * np.abs(ref.eigenvalues).max()
        eps = np.finfo(float).eps
        assert np.abs(sd.eigenvalues - c * ref.eigenvalues).max() <= 4 * eps * scale
        assert np.abs(sd.weights / ref.weights - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("shift", [-1e9, 1e3, 1e7])
    def test_shifted_wire(self, shift):
        # the solve is centred on the diagonal, so a shift costs the weights
        # nothing and the eigenvalues only their own rounding
        J = krawtchouk_chain(40)
        shifted = JacobiMatrix(diag=J.diag + shift, offdiag=J.offdiag)
        ref = eigendecompose(J)
        sd = eigendecompose(shifted)
        eps = np.finfo(float).eps
        assert np.abs(sd.eigenvalues - shift - ref.eigenvalues).max() <= eps * abs(shift)
        assert np.abs(sd.weights / ref.weights - 1.0).max() <= 1e-13
        # the column is summed about the spectrum's midpoint, so the shift
        # only turns its global phase
        moduli = np.abs(full_evolution_column(shifted, math.pi / 2))
        ref_moduli = np.abs(full_evolution_column(J, math.pi / 2))
        assert np.abs(moduli - ref_moduli).max() <= 1e-14

    def test_rejects_overflowing_spectrum(self):
        huge = np.finfo(float).max
        with pytest.raises(EigensolverError, match="too large"):
            eigendecompose(JacobiMatrix(diag=[huge, huge], offdiag=[huge]))

    @pytest.mark.parametrize("N", range(2, 41, 2))
    def test_bisection_sweeps_odd_krawtchouk(self, N, monkeypatch):
        # odd site counts put an eigenvalue at exactly 0
        calls = count_calls(monkeypatch, "_pivots")
        eigendecompose(krawtchouk_chain(N))
        # the twisted factorization adds one forward and one backward sweep
        assert len(calls) - 2 <= 64

    @pytest.mark.parametrize(
        "diag,offdiag", [([1.0, 0.0], [1e-9]), ([1.0, 0.0, 0.5], [1e-9, 0.3])]
    )
    def test_rejects_weakly_coupled_first_site(self, diag, offdiag):
        # the weight of order 1e-18 is lost against a weight that rounds to 1
        with pytest.raises(EigensolverError, match="weight 0") as info:
            eigendecompose(JacobiMatrix(diag=diag, offdiag=offdiag))
        assert info.value.index == 0

    def test_rejects_numerically_degenerate(self):
        # two nearly decoupled blocks give an eigenvalue gap below tolerance
        diag = np.array([0.0, 0.0, 0.0, 0.0])
        off = np.array([1.0, 1e-14, 1.0])
        with pytest.raises(EigensolverError) as info:
            eigendecompose(JacobiMatrix(diag=diag, offdiag=off))
        assert info.value.index is not None


class TestSolveOnce:
    def test_one_solve_per_instance(self, monkeypatch):
        calls = count_calls(monkeypatch, "_bisect_eigenvalues")
        J = krawtchouk_chain(12)
        eigendecompose(J)
        for t in (0.0, 0.5, 1.0, math.pi, 7.0):
            full_evolution_column(J, t)
        assert len(calls) == 1

    def test_equal_instance_solves_again(self, monkeypatch):
        calls = count_calls(monkeypatch, "_bisect_eigenvalues")
        J = krawtchouk_chain(12)
        eigendecompose(J)
        eigendecompose(JacobiMatrix(diag=J.diag, offdiag=J.offdiag))
        assert len(calls) == 2

    def test_cached_outputs_match_fresh_solve(self):
        rng = np.random.default_rng(7)
        n = 25
        J = JacobiMatrix(
            diag=rng.uniform(-3, 3, size=n), offdiag=rng.uniform(0.1, 2.0, size=n - 1)
        )
        first = eigendecompose(J)
        col = full_evolution_column(J, 2.5)
        again = eigendecompose(J)
        fresh, vectors = _eigensystem(JacobiMatrix(diag=J.diag, offdiag=J.offdiag))
        for sd in (first, again):
            assert np.array_equal(sd.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(sd.weights, fresh.weights)
        expected = jacobi._spectral_sum(fresh, [2.5], (vectors * vectors[0]).T)[0]
        assert np.array_equal(col, expected)

    def test_cached_arrays_are_read_only(self):
        J = krawtchouk_chain(5)
        sd = eigendecompose(J)
        full_evolution_column(J, 1.0)
        _, vectors = J._spectral
        for arr in (sd.eigenvalues, sd.weights, vectors):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert np.array_equal(eigendecompose(J).weights, sd.weights)


class TestCheckPersymmetry:
    def test_four_site_example(self):
        report = check_persymmetry(four_site_example(), 1e-12)
        assert report.is_persymmetric
        assert report.max_diag_asymmetry == 0.0

    def test_asymmetric_diag(self):
        report = check_persymmetry(
            JacobiMatrix(diag=[0.0, 1.0], offdiag=[1.0]), 1e-12
        )
        assert not report.is_persymmetric
        assert report.max_diag_asymmetry == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [1, 2, 5, 12])
    def test_krawtchouk_chain_is_persymmetric(self, N):
        assert check_persymmetry(krawtchouk_chain(N), 1e-12).is_persymmetric

    def test_scaled_reconstructed_wire_is_persymmetric(self):
        # the bound follows the entries' scale, not an absolute 1e-12
        scaled = SpectrumRequest(1e6 * gap_family_spectrum(10, 5).eigenvalues)
        J = reconstruct_jacobi(persymmetric_weights(scaled))
        assert check_persymmetry(J, 1e-12).is_persymmetric

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            check_persymmetry(four_site_example(), 0.0)


class TestAmplitude:
    def test_unit_at_time_zero(self):
        sd = eigendecompose(four_site_example())
        assert amplitude(sd, "first", 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_krawtchouk_closed_form(self):
        sd = eigendecompose(krawtchouk_chain(3))
        t = np.linspace(0.0, 2 * math.pi, 400)
        x0 = amplitude_values(sd, t, "first")
        assert np.abs(x0 - np.cos(t / 2) ** 3).max() < 1e-12

    def test_four_site_exclusion_time(self):
        sd = eigendecompose(four_site_example())
        t = math.acos(2.0 / 3.0)
        assert abs(amplitude(sd, "first", t)) < 1e-12
        assert abs(amplitude(sd, "last", t)) == pytest.approx(
            4.0 / 6.0**1.5, abs=1e-12
        )

    def test_rejects_unknown_site(self):
        sd = eigendecompose(four_site_example())
        with pytest.raises(ValueError, match="site"):
            amplitude(sd, "middle", 1.0)


class TestAmplitudeSeries:
    def test_four_site_transfer(self):
        sd = eigendecompose(four_site_example())
        series = amplitude_series(sd, 0.0, math.pi, 629)
        assert series.x0[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(series.xN[-1]) == pytest.approx(1.0, abs=1e-9)

    def test_two_site_values(self):
        sd = eigendecompose(krawtchouk_chain(1))
        series = amplitude_series(sd, 0.0, math.pi / 2, 2)
        np.testing.assert_allclose(
            series.x0, [1.0, math.cos(math.pi / 4)], atol=1e-12
        )

    def test_rejects_empty_interval(self):
        sd = eigendecompose(krawtchouk_chain(1))
        with pytest.raises(ValueError, match="t0 < t1"):
            amplitude_series(sd, 1.0, 1.0, 10)
        with pytest.raises(ValueError, match="steps"):
            amplitude_series(sd, 0.0, 1.0, 1)

    def test_type_enforces_unitarity_bound(self):
        with pytest.raises(ValueError, match="unitarity"):
            AmplitudeSeries(times=[0.0, 1.0], x0=[1.0, 1.5], xN=[0.0, 0.0])
        with pytest.raises(ValueError, match="equal 1"):
            AmplitudeSeries(times=[0.0, 1.0], x0=[0.5, 0.5], xN=[0.0, 0.0])


class TestFullEvolutionColumn:
    def test_two_site_closed_form(self):
        J = JacobiMatrix(diag=[0.0, 0.0], offdiag=[1.0])
        for t in (0.3, 1.1, 2.9):
            col = full_evolution_column(J, t)
            np.testing.assert_allclose(
                col, [math.cos(t), -1j * math.sin(t)], atol=1e-12
            )

    def test_time_zero_is_first_basis_vector(self):
        col = full_evolution_column(four_site_example(), 0.0)
        np.testing.assert_allclose(col, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_four_site_perfect_transfer(self):
        col = full_evolution_column(four_site_example(), math.pi)
        assert np.abs(col[:3]).max() < 1e-10
        assert abs(col[3]) == pytest.approx(1.0, abs=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            J = JacobiMatrix(
                diag=rng.uniform(-2, 2, size=n),
                offdiag=rng.uniform(0.2, 3.0, size=n - 1),
            )
            t = float(rng.uniform(0.0, 20.0))
            col = full_evolution_column(J, t)
            assert abs(np.linalg.norm(col) - 1.0) < 1e-10


class TestPersymmetricStructure:
    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            J = random_persymmetric(rng, n)
            sd = eigendecompose(J)
            t = float(rng.uniform(0.0, 15.0))
            col = full_evolution_column(J, t)
            assert abs(amplitude(sd, "first", t) - col[0]) < 1e-10
            assert abs(amplitude(sd, "last", t) - col[-1]) < 1e-10

    def test_sign_pattern_of_eigenvectors(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            J = random_persymmetric(rng, n)
            _, vectors = _eigensystem(J)
            s = np.arange(n)
            signs = np.where((n - 1 + s) % 2 == 0, 1.0, -1.0)
            assert np.abs(vectors[-1] - signs * vectors[0]).max() < 1e-9
