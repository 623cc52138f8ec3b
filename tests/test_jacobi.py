"""Core types, eigensolver, and boundary amplitude evaluation."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from pstchain import (
    AmplitudeSeries,
    EigensolverError,
    GridBudgetError,
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


# seeded wire draws: seed, size bound (exclusive), diagonal range, couplings
DRAWS = {
    "generic": (11, 30, 3.0, (0.1, 2.0)),
    # strongly localized eigenvectors: large on-site disorder, weak couplings
    "localized": (31, 42, 10.0, (0.05, 1.0)),
}


def random_wires(kind, count=10):
    seed, max_sites, diag_range, off_range = DRAWS[kind]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_sites))
        yield JacobiMatrix(
            diag=rng.uniform(-diag_range, diag_range, size=n),
            offdiag=rng.uniform(*off_range, size=n - 1),
        )


def sturm_pivmin(J):
    # LAPACK's pivot guard: b^2 / pivmin cannot overflow
    return np.finfo(float).tiny * max(1.0, float(J.offdiag.max()) ** 2)


def plain_bisection(J, halvings=64):
    """Eigenvalues of J by one Sturm count per halving of each interval.

    An independent reference for the solver: no frame, no multisection and
    no stopping rule; 64 halvings of the Gershgorin interval leave a width
    far below eps times the spectral scale.
    """
    pivmin = sturm_pivmin(J)
    radius = np.zeros(J.n_sites)
    radius[:-1] += J.offdiag
    radius[1:] += J.offdiag
    lo = np.full(J.n_sites, (J.diag - radius).min())
    hi = np.full(J.n_sites, (J.diag + radius).max())
    want = np.arange(1, J.n_sites + 1)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        count = np.zeros(J.n_sites, dtype=int)
        d = np.ones(J.n_sites)
        for i in range(J.n_sites):
            d = J.diag[i] - mid - (J.offdiag[i - 1] ** 2 / d if i else 0.0)
            d = np.where(np.abs(d) < pivmin, -pivmin, d)
            count += d < 0.0
        hi = np.where(count >= want, mid, hi)
        lo = np.where(count >= want, lo, mid)
    return 0.5 * (lo + hi)


def five_sweep_pivots(diag, off2, shifts, pivmin):
    """Reference for ``jacobi._pivots`` on one flat matrix: new arrays per site."""
    piv = np.empty((diag.size,) + np.shape(shifts))
    for i in range(diag.size):
        d = diag[i] - shifts
        if i:
            d = d - off2[i - 1] / piv[i - 1]
        piv[i] = np.where(np.abs(d) < pivmin, -pivmin, d)
    return piv


def five_sweep_bisection(diag, off, off2, pivmin):
    """Reference for ``jacobi._bisect_eigenvalues``: a sweep of its own checks
    the seeded brackets, and every multisection pass then counts only at the
    interior shifts."""
    n = diag.size
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    glo = float(np.min(diag - radius))
    ghi = float(np.max(diag + radius))
    eps = np.finfo(float).eps
    atol = eps * max(abs(glo), abs(ghi))
    pad = 1e-3 * (ghi - glo)
    want = np.arange(1, n + 1)
    try:
        guess = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError:
        guess = np.full(n, np.nan)
    lo, hi = guess - 8 * n * atol, guess + 8 * n * atol
    ends = np.concatenate([lo, hi])
    counts = np.count_nonzero(five_sweep_pivots(diag, off2, ends, pivmin) < 0.0, axis=0)
    seeded = np.isfinite(guess) & (counts[:n] < want) & (want <= counts[n:])
    lo = np.where(seeded, lo, glo - pad)
    hi = np.where(seeded, hi, ghi + pad)
    fractions = np.arange(1, jacobi._SECTIONS)[:, None] / jacobi._SECTIONS
    for _ in range(jacobi._BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        width = np.maximum(atol, 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)))
        active = np.nonzero((hi - lo > width) & (mid > lo) & (mid < hi))[0]
        if not active.size:
            break
        a, b = lo[active], hi[active]
        grid = np.vstack([a, a + fractions * (b - a), b])
        pivots = five_sweep_pivots(diag, off2, grid[1:-1], pivmin)
        counts = np.count_nonzero(pivots < 0.0, axis=0)
        reached = np.vstack([counts >= want[active], np.ones(active.size, bool)])
        first = np.argmax(reached, axis=0) + 1
        columns = np.arange(active.size)
        lo[active] = grid[first - 1, columns]
        hi[active] = grid[first, columns]
    return 0.5 * (lo + hi)


def loop_twisted_vectors(diag, off, off2, lam, pivmin):
    """Reference for ``jacobi._twisted_vectors``: one forward and one backward
    sweep, then the outward walk as loops.

    From z_k = 1 at the twist, one row per step: z_i = up_i z_{i+1} above
    the twist, then z_i = down_{i-1} z_{i-1} below it.
    """
    d = five_sweep_pivots(diag, off2, lam, pivmin)
    r = five_sweep_pivots(diag[::-1], off2[::-1], lam, pivmin)[::-1]
    twist = np.argmin(np.abs(d + r - (diag[:, None] - lam)), axis=0)
    up = -off[:, None] / d[:-1]
    down = -off[:, None] / r[1:]
    z = np.ones_like(d)
    for i in range(diag.size - 2, -1, -1):
        z[i] = np.where(i < twist, up[i] * z[i + 1], z[i])
    for i in range(1, diag.size):
        z[i] = np.where(i > twist, down[i - 1] * z[i - 1], z[i])
    return z / np.linalg.norm(z, axis=0)


def assert_matches_five_sweep_solver(J, monkeypatch):
    """``_eigensystem`` gives the same bits as with both reference stages."""
    sd, vectors = _eigensystem(J)
    with monkeypatch.context() as patch:
        patch.setattr(jacobi, "_bisect_eigenvalues", five_sweep_bisection)
        patch.setattr(jacobi, "_twisted_vectors", loop_twisted_vectors)
        ref, ref_vectors = _eigensystem(J)
    assert np.array_equal(sd.eigenvalues, ref.eigenvalues)
    assert np.array_equal(sd.weights, ref.weights)
    assert np.array_equal(vectors, ref_vectors)


def corrupt_eigvalsh(monkeypatch, corruption):
    """Make LAPACK's eigenvalue guesses wrong in the way ``corruption`` names.

    "rolled" puts each guess on a neighbouring eigenvalue, "shifted" three
    spectral spans away, "nan" makes every guess NaN, and "error" raises.
    "nudged" raises each guess by 3 n atol, with atol the solver's stopping
    tolerance: inside its bracket, -+ 8 n atol, but outside the window of
    the first pass, -+ 2 n atol.
    """
    eigvalsh = np.linalg.eigvalsh

    def corrupted(a):
        guess = eigvalsh(a)
        if corruption == "nudged":
            diag, off = np.diag(a), np.abs(np.diag(a, 1))
            radius = np.concatenate([off, [0.0]]) + np.concatenate([[0.0], off])
            bound = max(abs(np.min(diag - radius)), abs(np.max(diag + radius)))
            return guess + 3 * diag.size * np.finfo(float).eps * bound
        if corruption == "rolled":
            return np.roll(guess, 1)
        if corruption == "shifted":
            return guess + 3.0 * (guess[-1] - guess[0])
        if corruption == "nan":
            return np.full_like(guess, np.nan)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", corrupted)


CORRUPTIONS = ["rolled", "shifted", "nan", "error"]


def fallback_wires():
    wires = [krawtchouk_chain(N) for N in (1, 2, 20, 40)]
    return wires + [*random_wires("generic"), *random_wires("localized")]


def to_dense(J):
    """The wire as a dense symmetric (n_sites x n_sites) array."""
    return np.diag(J.diag) + np.diag(J.offdiag, 1) + np.diag(J.offdiag, -1)


def count_calls(monkeypatch, name):
    """Record the arguments of every call of the private jacobi helper ``name``."""
    calls = []
    original = getattr(jacobi, name)

    def counting(*args):
        calls.append(args)
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

    @pytest.mark.parametrize("kind", DRAWS)
    def test_eigenpair_residuals(self, kind):
        for J in random_wires(kind):
            sd, vectors = _eigensystem(J)
            dense = to_dense(J)
            norm = np.abs(sd.eigenvalues).max()
            residual = np.abs(dense @ vectors - vectors * sd.eigenvalues).max()
            assert residual <= 1e-14 * max(1.0, norm)
            assert np.abs(vectors.T @ vectors - np.eye(J.n_sites)).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["krawtchouk", *DRAWS])
    def test_matches_plain_bisection(self, kind):
        if kind == "krawtchouk":
            wires = [krawtchouk_chain(N) for N in (1, 2, 3, 20, 39, 40)]
        else:
            wires = random_wires(kind)
        eps = np.finfo(float).eps
        for J in wires:
            lam = eigendecompose(J).eigenvalues
            scale = np.abs(lam).max()
            assert np.abs(lam - plain_bisection(J)).max() <= 2 * eps * scale

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

    @pytest.mark.parametrize("case", [*range(1, 41), *DRAWS])
    def test_bisection_sweeps_odd_krawtchouk(self, case, monkeypatch):
        # every Krawtchouk chain (odd site counts put an eigenvalue at
        # exactly 0) and the seeded draws: every eigenvalue lies in the
        # first pass's window of 9 shifts about its guess, 32-way
        # multisection takes at most 2 passes, and one sweep gives the
        # twisted factorization
        if isinstance(case, int):
            wires = [krawtchouk_chain(case)]
        else:
            wires = random_wires(case)
        calls = count_calls(monkeypatch, "_pivots")
        for J in wires:
            calls.clear()
            _eigensystem(J)
            assert len(calls) <= 3
            assert calls[0][2].shape == (9, J.n_sites)

    @pytest.mark.parametrize("kind", ["krawtchouk", *DRAWS])
    def test_matches_five_sweep_solver(self, kind, monkeypatch):
        # the same IEEE operations in the same order as the solver with a
        # separate check sweep and separate forward and backward sweeps
        if kind == "krawtchouk":
            wires = [krawtchouk_chain(N) for N in range(1, 41)]
        else:
            wires = random_wires(kind)
        for J in wires:
            assert_matches_five_sweep_solver(J, monkeypatch)

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_rejected_seed_matches_five_sweep_solver(self, corruption, monkeypatch):
        # a bracket that fails the check skips the first pass, so it takes
        # one pass more than with a separate check sweep, and no other bit
        corrupt_eigvalsh(monkeypatch, corruption)
        for J in fallback_wires():
            assert_matches_five_sweep_solver(J, monkeypatch)

    def test_seed_outside_the_window_takes_the_whole_first_pass(self, monkeypatch):
        # every window misses, so each bracket takes the whole first pass
        # in a sweep of its own, holds there and then joins pass 2: one
        # sweep more than a seed inside the window, and no other bit (a
        # 2-site wire needs no pass 2, the reference solver no _pivots)
        corrupt_eigvalsh(monkeypatch, "nudged")
        calls = count_calls(monkeypatch, "_pivots")
        for J in fallback_wires():
            calls.clear()
            assert_matches_five_sweep_solver(J, monkeypatch)
            assert len(calls) == (3 if J.n_sites == 2 else 4)
            assert calls[1][2].shape == (33, J.n_sites)

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_rejected_seed_falls_back_to_gershgorin(self, corruption, monkeypatch):
        # guesses that sit on a neighbouring eigenvalue, lie three spectral
        # spans away or are not numbers fail the Sturm check, as does every
        # guess when LAPACK fails; their brackets restart from the
        # Gershgorin interval, which costs passes but no accuracy
        corrupt_eigvalsh(monkeypatch, corruption)
        calls = count_calls(monkeypatch, "_pivots")
        eps = np.finfo(float).eps
        for J in fallback_wires():
            calls.clear()
            lam = _eigensystem(J)[0].eigenvalues
            assert len(calls) - 2 > 1 + 2
            scale = np.abs(lam).max()
            assert np.abs(lam - plain_bisection(J)).max() <= 2 * eps * scale

    @pytest.mark.parametrize("kind", ["krawtchouk", *DRAWS])
    def test_twisted_vectors_match_loop_form(self, kind):
        # the cumulative products repeat the loop's multiplications exactly
        if kind == "krawtchouk":
            wires = [krawtchouk_chain(N) for N in (3, 20, 40)]
        else:
            wires = random_wires(kind)
        for J in wires:
            args = (
                J.diag, J.offdiag, J.offdiag**2,
                eigendecompose(J).eigenvalues, sturm_pivmin(J),
            )
            assert np.array_equal(
                jacobi._twisted_vectors(*args), loop_twisted_vectors(*args)
            )

    @pytest.mark.parametrize("kind", ["krawtchouk", *DRAWS])
    def test_sturm_count_is_monotone(self, kind):
        # the guarded recurrence's negative-pivot count never falls as the
        # shift rises, also between an eigenvalue and its float neighbours;
        # the first pass's window rests on this
        if kind == "krawtchouk":
            wires = [krawtchouk_chain(N) for N in range(1, 41)]
        else:
            wires = random_wires(kind)
        for J in wires:
            lam = eigendecompose(J).eigenvalues
            shifts = np.sort(np.concatenate([
                np.linspace(lam[0] - 1.0, lam[-1] + 1.0, 4001),
                np.nextafter(lam, -np.inf),
                lam,
                np.nextafter(lam, np.inf),
            ]))
            pivots = jacobi._pivots(
                J.diag[:, None], (J.offdiag**2)[:, None], shifts, sturm_pivmin(J)
            )
            counts = np.count_nonzero(pivots < 0.0, axis=0)
            assert np.all(np.diff(counts) >= 0)
            assert counts[0] == 0 and counts[-1] == J.n_sites

    @pytest.mark.parametrize("kind", ["krawtchouk", *DRAWS])
    def test_stacked_pivots_equal_separate_sweeps(self, kind):
        # the twisted factorization's one sweep over a wire and its mirror
        # image gives the bits of one sweep over each
        if kind == "krawtchouk":
            wires = [krawtchouk_chain(N) for N in (1, 20, 40)]
        else:
            wires = random_wires(kind)
        for J in wires:
            diag, off2 = J.diag, J.offdiag**2
            lam, pivmin = eigendecompose(J).eigenvalues, sturm_pivmin(J)
            stacked = jacobi._pivots(
                np.stack([diag, diag[::-1]], axis=1)[..., None],
                np.stack([off2, off2[::-1]], axis=1)[..., None],
                lam,
                pivmin,
            )
            forward = jacobi._pivots(diag[:, None], off2[:, None], lam, pivmin)
            backward = jacobi._pivots(diag[::-1, None], off2[::-1, None], lam, pivmin)
            assert np.array_equal(stacked[:, 0], forward)
            assert np.array_equal(stacked[:, 1], backward)

    @pytest.mark.parametrize("N", [2, 4, 40])
    def test_zero_shift_on_zero_diagonal_is_guarded(self, N):
        # a shift of exactly 0 on a Krawtchouk chain makes the first pivot
        # 0, and the guard then leaves -pivmin where the reference does
        J = krawtchouk_chain(N)
        off2, pivmin = J.offdiag**2, sturm_pivmin(J)
        shifts = np.array([-0.5, 0.0, 0.5])
        pivots = jacobi._pivots(J.diag[:, None], off2[:, None], shifts, pivmin)
        assert np.array_equal(pivots, five_sweep_pivots(J.diag, off2, shifts, pivmin))
        guarded = pivots == -pivmin
        assert guarded[0, 1] and not guarded[:, [0, 2]].any()

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

    def test_last_site_coefficients_are_kept(self):
        sd = persymmetric_weights(gap_family_spectrum(3, 2))
        last = jacobi._boundary_coefficients(sd, "last")
        assert jacobi._boundary_coefficients(sd, "last") is last
        assert np.array_equal(last, sd.weights * [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            last[0] = 1.0

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

    @pytest.mark.parametrize("shift", [0.0, 1e9])
    def test_shift_does_not_hide_coupling_asymmetry(self, shift):
        # the bound is measured about the diagonal's midpoint, so a shift
        # does not widen it past the couplings' 1e-4 asymmetry
        J = JacobiMatrix(diag=[shift] * 3, offdiag=[1.0, 1.0001])
        report = check_persymmetry(J, 1e-12)
        assert not report.is_persymmetric
        assert report.max_offdiag_asymmetry == pytest.approx(1e-4)

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

    @pytest.mark.parametrize("t", [1e308, -1e308, math.inf, -math.inf, math.nan])
    def test_rejects_time_with_non_finite_phases(self, t):
        # warnings are errors in this suite, so the check runs before any
        # phase is formed
        J = four_site_example()
        sd = eigendecompose(J)
        message = re.escape(f"t = {t!r} gives non-finite phases")
        with pytest.raises(ValueError, match=message):
            amplitude(sd, "first", t)
        with pytest.raises(ValueError, match=message):
            amplitude_values(sd, [0.0, 1.0, t, 2.0], "last")
        with pytest.raises(ValueError, match=message):
            full_evolution_column(J, t)

    def test_accepts_large_finite_time(self):
        J = four_site_example()
        sd = eigendecompose(J)
        for site in ("first", "last"):
            assert abs(amplitude(sd, site, 1e306)) <= 1.0 + 1e-12
        assert abs(np.linalg.norm(full_evolution_column(J, -1e306)) - 1.0) < 1e-10


class TestGridSum:
    """The factored uniform-grid kernel against the direct spectral sum."""

    # 7297 is the gap (20, 9) ESE scan; the others are a small grid, a
    # perfect square, a square + 1 and a prime
    @pytest.mark.parametrize("n", [16, 1024, 1025, 997, 7297])
    @pytest.mark.parametrize("shift", [0.0, 1e7])
    def test_matches_spectral_sum(self, n, shift):
        sd = persymmetric_weights(
            SpectrumRequest(gap_family_spectrum(20, 9).eigenvalues + shift)
        )
        assert (sd._centred[0] != 0.0) == (shift != 0.0)
        wire, vectors = reconstruct_jacobi(sd)._spectral
        t0 = 1e-6 * math.pi
        h = (1.0 - 2e-6) * math.pi / (n - 1)
        t1 = t0 + (n - 1) * h
        times = np.linspace(t0, t1, n)
        s = np.arange(sd.n_sites)
        for data, coefficients in (
            (sd, sd.weights),
            (sd, np.where(s % 2 == 0, 1.0, -1.0) * sd.weights),
            (sd, np.exp(1j * s) * sd.weights),
            (wire, (vectors * vectors[0]).T),
        ):
            mu = data._centred[1]
            expected = jacobi._spectral_sum(data, times, coefficients)
            grid, got = jacobi._grid_sum(data, t0, t1, n, coefficients)
            assert np.array_equal(grid, np.linspace(t0, t1, n))
            assert got.shape == expected.shape
            bound = (
                64 * np.finfo(float).eps * np.abs(coefficients).sum(axis=0)
                * max(1.0, np.abs(mu).max() * t1)
            )
            assert np.all(np.abs(got - expected) <= bound)


class TestAmplitudeSeries:
    # 2 and 3 are the smallest grids (one and two partial blocks)
    @pytest.mark.parametrize("steps", [2, 3, 101, 2001])
    @pytest.mark.parametrize("interval", [(0.0, math.pi), (1.3, 7.9)])
    @pytest.mark.parametrize("shift", [0.0, 1e7])
    def test_matches_spectral_sum(self, steps, interval, shift):
        sd = persymmetric_weights(
            SpectrumRequest(gap_family_spectrum(20, 9).eigenvalues + shift)
        )
        assert (sd._centred[0] != 0.0) == (shift != 0.0)
        t0, t1 = interval
        series = amplitude_series(sd, t0, t1, steps)
        times = np.linspace(t0, t1, steps)
        assert np.array_equal(series.times, times)
        mu = sd._centred[1]
        for site, got in (("first", series.x0), ("last", series.xN)):
            coefficients = jacobi._boundary_coefficients(sd, site)
            expected = jacobi._spectral_sum(sd, times, coefficients)
            bound = (
                64 * np.finfo(float).eps * np.abs(coefficients).sum()
                * max(1.0, np.abs(mu).max() * t1)
            )
            assert np.all(np.abs(got - expected) <= bound)

    @pytest.mark.parametrize("steps", [2, 2001])
    @pytest.mark.parametrize("shift", [0.0, 1e7])
    def test_floor_matches_reference_bit_for_bit(self, steps, shift):
        # two steps make one block, whose kernel values are not C-contiguous
        sd = persymmetric_weights(
            SpectrumRequest(gap_family_spectrum(20, 9).eigenvalues + shift)
        )
        assert (sd._centred[0] != 0.0) == (shift != 0.0)
        coefficients = np.stack(
            [sd.weights, jacobi._boundary_coefficients(sd, "last")], axis=1
        )
        _, values = jacobi._grid_sum(sd, 0.0, 7.9, steps, coefficients)
        assert values.flags.c_contiguous == (steps > 2)
        floor = 1e-12 * np.abs(coefficients).sum(axis=0)
        for part in (values.real, values.imag):
            part[np.abs(part) <= floor] = 0.0
        series = amplitude_series(sd, 0.0, 7.9, steps)
        for got, expected in ((series.x0, values[:, 0]), (series.xN, values[:, 1])):
            assert np.array_equal(got.real, expected.real)
            assert np.array_equal(got.imag, expected.imag)

    def test_memory_is_bounded(self):
        # no steps x sites temporaries: the series and O(sqrt(steps) S)
        sd = persymmetric_weights(SpectrumRequest(np.arange(41.0) - 20.0))
        steps = 50_000
        tracemalloc.start()
        try:
            amplitude_series(sd, 0.0, math.pi, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 256 * steps

    def test_rejects_grid_over_the_budget(self, monkeypatch):
        monkeypatch.setattr(jacobi, "_MAX_GRID_POINTS", 64)
        sd = eigendecompose(four_site_example())
        assert amplitude_series(sd, 0.0, math.pi, 64).times.size == 64
        with pytest.raises(GridBudgetError, match="grid of 65 points"):
            amplitude_series(sd, 0.0, math.pi, 65)

    def test_round_off_below_the_floor_is_zero(self):
        # gap (2, 1) is symmetric about 0, so x_0 is real: its imaginary
        # part is pure round-off
        sd = persymmetric_weights(gap_family_spectrum(2, 1))
        series = amplitude_series(sd, 0.0, math.pi, 101)
        assert np.all(series.x0.imag == 0.0)
        for value in (series.x0, series.xN):
            for part in (np.abs(value.real), np.abs(value.imag)):
                assert not np.any((part > 0.0) & (part <= 1e-12))

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

    @pytest.mark.parametrize("t0, t1, steps", [
        (0.0, 1e308, 11),
        (0.0, math.inf, 11),
        (-math.inf, 0.0, 11),
        (-1e308, 1e308, 11),
        # each time's phase is finite; with two steps the grid's one step is
        # the whole span, and its phase (lambda - c)(t1 - t0) is not
        (-6e307, 6e307, 2),
        # the bound is conservative: with 11 steps every phase the grid
        # computes here is finite, but the span's phase is not, so the
        # range is rejected all the same
        (-6e307, 6e307, 11),
    ])
    def test_rejects_range_with_non_finite_phases(self, t0, t1, steps):
        sd = eigendecompose(four_site_example())
        with pytest.raises(ValueError, match=r"t0 = .*, t1 = .* non-finite phases"):
            amplitude_series(sd, t0, t1, steps)

    def test_rejects_non_finite_midpoint_phase(self):
        # (lambda - c) t = 5e299 is finite, c t = 1e309 is not
        sd = SpectralData(eigenvalues=[1e10, 1e10 + 10.0], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite phases"):
            amplitude_series(sd, 0.0, 1e299, 11)

    def test_accepts_large_finite_range(self):
        # warnings are errors in this suite, so no phase overflows here
        sd = eigendecompose(four_site_example())
        series = amplitude_series(sd, -1e306, 1e306, 11)
        assert np.isfinite(series.x0).all() and np.isfinite(series.xN).all()

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
