"""Inverse spectral construction: weights, reconstruction, spectral surgery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from exact import exact_stieltjes, lattice_weights

from pstchain import (
    JacobiMatrix,
    ReconstructionError,
    SpectralData,
    SpectrumRequest,
    amplitude_values,
    check_persymmetry,
    closed_form_surgery_x0,
    eigendecompose,
    full_evolution_column,
    gap_family_spectrum,
    persymmetric_weights,
    reconstruct_jacobi,
    surgery_spectrum,
)
from pstchain.jacobi import _frame

EPS = np.finfo(float).eps


def symmetric_spectrum(rng, npts):
    """Random spectrum symmetric about 0 with gaps uniform in [0.1, 10]."""
    half = npts // 2
    gaps = rng.uniform(0.1, 10.0, size=half)
    if npts % 2 == 0:
        pos = gaps[0] / 2.0 + np.concatenate([[0.0], np.cumsum(gaps[1:])])
        return np.concatenate([-pos[::-1], pos])
    pos = np.cumsum(gaps)
    return np.concatenate([-pos[::-1], [0.0], pos])


NAMED_41_SITES = {
    "gap-20-9": gap_family_spectrum(20, 9),
    "surgery-39": surgery_spectrum(39),
    "krawtchouk-40": SpectrumRequest(np.arange(41.0) - 20.0),
}


def oracle_weights(lam):
    """Direct product-formula weights, no log-space tricks (test oracle)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    raw = np.empty(n)
    for s in range(n):
        prod = 1.0
        for k in range(n):
            if k != s:
                prod *= lam[s] - lam[k]
        raw[s] = (-1.0) ** (n - 1 + s) / prod
    return raw / raw.sum()


def named_spectra(gap_ms=range(1, 10)):
    """The named spectra: Krawtchouk N = 1..40, surgery N = 3..39 and gap
    families n = 2..20 with m in ``gap_ms``, 230 by default."""
    return (
        [SpectrumRequest(np.arange(N + 1.0) - N / 2.0) for N in range(1, 41)]
        + [surgery_spectrum(N) for N in range(3, 40, 2)]
        + [gap_family_spectrum(n, m) for n in range(2, 21) for m in gap_ms]
    )


def seeded_spectra(count=100, seed=18):
    """Random spectra of 2..41 points, alternately symmetric and generic."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        npts = int(rng.integers(2, 42))
        if i % 2:
            yield SpectrumRequest(symmetric_spectrum(rng, npts))
        else:
            yield SpectrumRequest(np.cumsum(rng.uniform(0.1, 10.0, size=npts)))


def non_mirror_data(count=200, seed=14):
    """Seeded spectral data of 3..41 points whose weights are not
    mirror-symmetric: gaps U(0.1, 10), a shift U(-50, 50), Dirichlet(1)
    weights."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        npts = int(rng.integers(3, 42))
        lam = np.cumsum(rng.uniform(0.1, 10.0, size=npts)) + rng.uniform(-50.0, 50.0)
        yield SpectralData(lam, rng.dirichlet(np.ones(npts)))


def dirichlet_lattices(seed=24):
    """(x, w, data) on the 116 named spectra with gap families m = 1, 5, 9,
    with seeded Dirichlet(1) weights: nodes x = 2 lam and the float weights
    scaled exactly to integers w."""
    rng = np.random.default_rng(seed)
    for req in named_spectra((1, 5, 9)):
        sd = SpectralData(req.eigenvalues, rng.dirichlet(np.ones(req.eigenvalues.size)))
        weights = [Fraction(v) for v in sd.weights.tolist()]
        scale = max(v.denominator for v in weights)
        x = lattice_weights(req.eigenvalues)[0]
        yield x, [int(v * scale) for v in weights], sd


def exact_errors(J, lam, x, w):
    """Largest errors of the wire J against the exact Stieltjes coefficients
    of weights w on nodes x: the diagonal's in eps of the half-span, the
    couplings' relative, in eps."""
    diag_exact, off2_exact = exact_stieltjes(x, w)
    half_span = Fraction(0.5 * (lam[-1] - lam[0]))
    diag_err = max(abs(Fraction(v) - a) for v, a in zip(J.diag.tolist(), diag_exact))
    off_err = max(
        abs(Fraction(v) ** 2 / b2 - 1) / 2 for v, b2 in zip(J.offdiag.tolist(), off2_exact)
    )
    return diag_err / half_span / Fraction(EPS), off_err / Fraction(EPS)


def lanczos_reference(sd):
    """Accuracy baseline for reconstruct_jacobi: the earlier Lanczos loop,
    which takes a_k as q @ (lam q), subtracts the three-term components and
    then projects onto the basis twice (test oracle)."""
    c, e = _frame(sd.eigenvalues)
    lam = np.ldexp(sd.eigenvalues - c, -e)
    n = lam.size
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    basis = np.zeros((n, n))
    q = np.sqrt(sd.weights)
    q /= np.linalg.norm(q)
    for k in range(n):
        basis[:, k] = q
        u = lam * q
        diag[k] = float(q @ u)
        u = u - diag[k] * q
        if k:
            u -= off[k - 1] * basis[:, k - 1]
        span = basis[:, : k + 1]
        for _ in range(2):
            u -= span @ (span.T @ u)
        if k < n - 1:
            norm = float(np.linalg.norm(u))
            if not norm > 1e-12:
                raise ReconstructionError("breakdown")
            off[k] = norm
            q = u / norm
    if np.abs(off - off[::-1]).max() >= 1e-6:
        raise ReconstructionError("asymmetric")
    off = 0.5 * (off + off[::-1])
    return c + np.ldexp(diag, e), np.ldexp(off, e)


class TestSpectrumRequest:
    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            SpectrumRequest([1.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectrumRequest([1.0, 0.0])

    def test_rejects_tight_relative_gap(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectrumRequest([1e6, 1e6 + 1e-6])


class TestPersymmetricWeights:
    def test_equidistant_four_point(self):
        sd = persymmetric_weights(SpectrumRequest([-1.5, -0.5, 0.5, 1.5]))
        np.testing.assert_allclose(
            sd.weights, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-15
        )

    def test_two_point(self):
        sd = persymmetric_weights(SpectrumRequest([-0.5, 0.5]))
        np.testing.assert_allclose(sd.weights, [0.5, 0.5], atol=1e-15)

    def test_gapped_four_point_against_oracle(self):
        lam = [-2.5, -1.5, 1.5, 2.5]
        sd = persymmetric_weights(SpectrumRequest(lam))
        # hand values: unnormalized (1/20, 1/12, 1/12, 1/20)
        np.testing.assert_allclose(
            sd.weights, [3 / 16, 5 / 16, 5 / 16, 3 / 16], atol=1e-15
        )
        np.testing.assert_allclose(sd.weights, oracle_weights(lam), atol=1e-15)
        # cross-check: the resulting x0 must match the four-site closed form
        t = np.linspace(0.0, 2 * math.pi, 300)
        x0 = amplitude_values(sd, t, "first")
        assert np.abs(x0 - closed_form_surgery_x0(3, t)).max() < 1e-13

    def test_matches_oracle_on_random_spectra(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            npts = int(rng.integers(2, 15))
            lam = np.sort(rng.uniform(-5, 5, size=npts))
            if np.diff(lam).min() < 1e-3:
                continue
            sd = persymmetric_weights(SpectrumRequest(lam))
            np.testing.assert_allclose(sd.weights, oracle_weights(lam), rtol=1e-12)

    def test_weight_symmetry_for_symmetric_spectra(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            lam = symmetric_spectrum(rng, int(rng.integers(2, 31)))
            w = persymmetric_weights(SpectrumRequest(lam)).weights
            assert np.abs(w - w[::-1]).max() < 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 19, mirror weights: 510 of the 629 named spectra get "
        "mirror weights up to 381 ulps apart; the mend moves golden bytes, so it "
        "waits for item 19's re-record",
    )
    def test_symmetric_spectrum_gives_exact_mirror_weights(self):
        # every named spectrum is exactly its own mirror image, so its weights
        # should be too; gap (7, 2) has w[4] = 0x1.3ebfffffffff8p-3 but
        # w[9] = 0x1.3ec000000000cp-3, and construct writes the 12-digit tie
        # 0.155639648437 against 0.155639648438
        for req in named_spectra(gap_ms=range(1, 31)):
            w = persymmetric_weights(req).weights
            assert np.array_equal(w, w[::-1]), req.eigenvalues

    def test_computed_once_per_request(self):
        req = gap_family_spectrum(20, 9)
        assert persymmetric_weights(req) is persymmetric_weights(req)
        fresh = persymmetric_weights(SpectrumRequest(req.eigenvalues))
        assert fresh is not persymmetric_weights(req)
        assert np.array_equal(fresh.weights, persymmetric_weights(req).weights)

    def test_underflowing_weight_raises_on_every_call(self):
        # 40 points 2e-10 apart and one at 1.0: the smallest mirror weight
        # underflows to 0, and no call may return a cached result
        req = SpectrumRequest(np.concatenate([np.arange(40) * 2e-10, [1.0]]))
        for _ in range(3):
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                persymmetric_weights(req)

    def test_weights_positive_and_normalized_at_max_size(self):
        # size 41 spans the worst weight hierarchy the package supports
        lam = np.arange(41.0) - 20.0
        sd = persymmetric_weights(SpectrumRequest(lam))
        assert sd.weights.min() > 0.0
        assert abs(sd.weights.sum() - 1.0) < 1e-13


class TestReconstructJacobi:
    def test_four_site_example(self):
        sd = persymmetric_weights(SpectrumRequest([-2.5, -1.5, 1.5, 2.5]))
        J = reconstruct_jacobi(sd)
        np.testing.assert_allclose(J.diag, np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(
            J.offdiag, [math.sqrt(15) / 2, 1.0, math.sqrt(15) / 2], atol=1e-12
        )

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 16])
    def test_equidistant_chain_couplings(self, N):
        lam = np.arange(N + 1.0) - N / 2.0
        J = reconstruct_jacobi(persymmetric_weights(SpectrumRequest(lam)))
        k = np.arange(N)
        expected = np.sqrt((k + 1.0) * (N - k)) / 2.0
        np.testing.assert_allclose(J.offdiag, expected, atol=1e-11)
        np.testing.assert_allclose(J.diag, np.zeros(N + 1), atol=1e-11)

    def test_two_point_direct(self):
        sd = persymmetric_weights(SpectrumRequest([-0.5, 0.5]))
        J = reconstruct_jacobi(sd)
        np.testing.assert_allclose(J.diag, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(J.offdiag, [0.5], atol=1e-15)

    def assert_round_trip(self, sd):
        back = eigendecompose(reconstruct_jacobi(sd))
        half_span = 0.5 * (sd.eigenvalues[-1] - sd.eigenvalues[0])
        assert np.abs(back.eigenvalues - sd.eigenvalues).max() <= 8 * EPS * half_span
        assert np.abs(back.weights / sd.weights - 1.0).max() <= 1e-12

    def test_round_trip_through_eigendecompose(self):
        # spectral data that are not mirror-symmetric come back from their
        # wire (measured: 3.4 eps of the half-span and 2.2e-13)
        for sd in non_mirror_data():
            self.assert_round_trip(sd)

    def test_round_trip_random_symmetric(self):
        # measured: 1.3 eps of the half-span and 6.8e-14
        rng = np.random.default_rng(41)
        for _ in range(40):
            lam = symmetric_spectrum(rng, int(rng.integers(2, 31)))
            self.assert_round_trip(persymmetric_weights(SpectrumRequest(lam)))

    def test_reproduces_input_spectral_data(self):
        self.assert_round_trip(persymmetric_weights(gap_family_spectrum(4, 2)))

    def test_reconstruction_is_persymmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            lam = symmetric_spectrum(rng, int(rng.integers(2, 31)))
            J = reconstruct_jacobi(persymmetric_weights(SpectrumRequest(lam)))
            assert check_persymmetry(J, 1e-8).is_persymmetric

    @pytest.mark.parametrize(
        "req,shift",
        [(surgery_spectrum(3), shift) for shift in (-4.2, 0.9, 3.7)]
        + [(req, 1e7) for req in NAMED_41_SITES.values()],
        ids=["surgery-3--4.2", "surgery-3-0.9", "surgery-3-3.7"]
        + [f"{name}-1e7" for name in NAMED_41_SITES],
    )
    def test_shift_covariance(self, req, shift):
        lam = req.eigenvalues
        base = reconstruct_jacobi(persymmetric_weights(req))
        moved = reconstruct_jacobi(persymmetric_weights(SpectrumRequest(lam + shift)))
        half_span = 0.5 * (lam[-1] - lam[0])
        assert np.abs(moved.diag - base.diag - shift).max() <= 1e-13 * half_span
        assert np.abs(moved.offdiag / base.offdiag - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("req", NAMED_41_SITES.values(), ids=list(NAMED_41_SITES))
    def test_scale_covariance(self, req):
        # the unit frame keeps the Lanczos norms away from underflow and
        # overflow at every scale
        base = reconstruct_jacobi(persymmetric_weights(req))
        for k in range(-300, 301, 50):
            c = 10.0**k
            J = reconstruct_jacobi(
                persymmetric_weights(SpectrumRequest(c * req.eigenvalues))
            )
            assert np.abs(J.offdiag / c / base.offdiag - 1.0).max() <= 1e-13, k

    def test_matches_exact_stieltjes_on_named_spectra(self):
        # both this loop and the earlier one meet one bound against exact
        # rational a_k and b_k^2 (measured: 12.5 and 12.6 eps for the
        # diagonal, 4.0 and 3.5 eps for the couplings)
        requests = named_spectra()
        assert len(requests) == 230
        for req in requests:
            lam = req.eigenvalues
            x, w = lattice_weights(lam)
            sd = persymmetric_weights(req)
            diag, off = lanczos_reference(sd)
            for J in (reconstruct_jacobi(sd), JacobiMatrix(diag=diag, offdiag=off)):
                diag_err, off_err = exact_errors(J, lam, x, w)
                assert diag_err <= 16 and off_err <= 8, lam

    def test_matches_exact_stieltjes_on_non_mirror_lattices(self):
        # the wire of weights that are not mirror-symmetric, within the
        # named spectra's diagonal bound on both (measured on all 116
        # lattices: 7.7 eps of the half-span on the diagonal and 5.9 eps on
        # the couplings, 9.2 eps on the couplings on OpenBLAS's SSE3
        # kernel); every fourth lattice keeps this under 1 s
        for x, w, sd in list(dirichlet_lattices())[::4]:
            diag_err, off_err = exact_errors(reconstruct_jacobi(sd), sd.eigenvalues, x, w)
            assert diag_err <= 16 and off_err <= 16, x

    def test_exact_stieltjes_oracle_on_krawtchouk(self):
        for N in range(1, 41):
            diag, off2 = exact_stieltjes(*lattice_weights(np.arange(N + 1.0) - N / 2.0))
            assert diag == [0] * (N + 1)
            assert off2 == [Fraction((k + 1) * (N - k), 4) for k in range(N)]

    def test_seeded_spectra_agree_with_baseline(self):
        # measured gaps: 9.3e-15 of the half-span (diagonal) and 1.4e-14
        # relative (couplings)
        for req in seeded_spectra():
            sd = persymmetric_weights(req)
            diag, off = lanczos_reference(sd)
            J = reconstruct_jacobi(sd)
            half_span = 0.5 * (req.eigenvalues[-1] - req.eigenvalues[0])
            assert np.abs(J.diag - diag).max() <= 128 * EPS * half_span
            assert np.abs(J.offdiag / off - 1.0).max() <= 128 * EPS

    def test_breakdown_on_effectively_two_point_measure(self):
        # the outer weights are below round-off, so the residual after the
        # second step is noise and the measure has two support points
        sd = SpectralData(
            eigenvalues=[-1.5, -0.5, 0.5, 1.5], weights=[1e-30, 0.5, 0.5, 1e-30]
        )
        with pytest.raises(
            ReconstructionError,
            match=r"^orthogonalization broke down at step 1: residual norm "
            r"2\.828e-15 of the half-span$",
        ):
            reconstruct_jacobi(sd)


class TestFarEndAmplitude:
    """``amplitude_values``' x_N against the last entry of the evolved column
    of the wire that the spectral data define."""

    TIMES = np.linspace(0.0, 2 * math.pi, 9)

    def largest_gap(self, sd):
        J = reconstruct_jacobi(sd)
        column_end = [full_evolution_column(J, t)[-1] for t in self.TIMES]
        return np.abs(amplitude_values(sd, self.TIMES, "last") - column_end).max()

    def test_mirror_data(self):
        # measured: 7.2e-15
        for n in range(2, 21):
            for m in (1, 5, 9):
                sd = persymmetric_weights(gap_family_spectrum(n, m))
                assert self.largest_gap(sd) <= 1e-13, (n, m)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: x_N is the alternating-sign formula, which "
        "holds for mirror-symmetric weights only (measured gaps 0.29 to 0.81)",
    )
    def test_non_mirror_data(self):
        for sd in non_mirror_data(count=10):
            assert self.largest_gap(sd) <= 1e-13


class TestSurgerySpectrum:
    def test_smallest_case(self):
        np.testing.assert_allclose(
            surgery_spectrum(3).eigenvalues, [-2.5, -1.5, 1.5, 2.5]
        )

    def test_next_case(self):
        np.testing.assert_allclose(
            surgery_spectrum(5).eigenvalues,
            [-3.5, -2.5, -1.5, 1.5, 2.5, 3.5],
        )

    @pytest.mark.parametrize("N", [4, 2, 0, -3])
    def test_rejects_bad_sizes(self, N):
        with pytest.raises(ValueError, match="odd integer"):
            surgery_spectrum(N)

    @pytest.mark.parametrize("N", [3, 5, 9, 13])
    def test_matches_gap_family(self, N):
        assert np.array_equal(
            surgery_spectrum(N).eigenvalues,
            gap_family_spectrum((N + 1) // 2, 1).eigenvalues,
        )
