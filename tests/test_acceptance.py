"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np

from pstchain import (
    SpectrumRequest,
    amplitude_as_chebyshev,
    amplitude_values,
    check_persymmetry,
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
from pstchain.cli import main


@contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_four_site_exemplar():
    with criterion("criterion 1: four-site exemplar"):
        started = time.perf_counter()
        req = SpectrumRequest([-2.5, -1.5, 1.5, 2.5])
        sd = persymmetric_weights(req)
        J = reconstruct_jacobi(sd)
        expected = np.array([math.sqrt(15) / 2, 1.0, math.sqrt(15) / 2])
        assert np.abs(J.offdiag - expected).max() < 1e-10
        cert = detect_pst(req)
        assert cert.has_pst
        assert abs(cert.transfer_time - math.pi) < 1e-10
        report = detect_ese(sd, cert)
        assert len(report.zeros) == 1
        zero = report.zeros[0]
        assert abs(zero.time - math.acos(2.0 / 3.0)) < 1e-7
        assert abs(zero.last_site_modulus - 4.0 / 6.0**1.5) < 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_2_equidistant_no_exclusion():
    with criterion("criterion 2: equidistant chains match cos^N(t/2), no exclusion"):
        started = time.perf_counter()
        t = np.linspace(0.0, 2.0 * math.pi, 2000)
        for N in range(1, 21):
            sd = eigendecompose(krawtchouk_chain(N))
            x0 = amplitude_values(sd, t, "first")
            assert np.abs(x0 - closed_form_krawtchouk_x0(N, t)).max() < 1e-10, N
            report = detect_ese(sd, detect_pst(SpectrumRequest(sd.eigenvalues)))
            assert report.zeros == (), N
        assert time.perf_counter() - started < 10.0


def test_criterion_3_gap_family_exclusion_counts():
    with criterion("criterion 3: gap families, persymmetric with >= m exclusions"):
        started = time.perf_counter()
        for n in range(2, 7):
            for m in range(1, 5):
                req = gap_family_spectrum(n, m)
                sd = persymmetric_weights(req)
                J = reconstruct_jacobi(sd)
                persym = check_persymmetry(J, 1e-8)
                assert persym.is_persymmetric, (n, m)
                cert = detect_pst(req)
                assert cert.has_pst and abs(cert.transfer_time - math.pi) < 1e-10
                report = detect_ese(sd, cert)
                assert len(report.zeros) >= m, (n, m, len(report.zeros))
                assert all(0.0 < z.time < math.pi for z in report.zeros)
        assert time.perf_counter() - started < 30.0


def test_criterion_4_surgery_closed_form():
    with criterion("criterion 4: spectral-surgery amplitudes match closed form"):
        t = np.linspace(0.0, 2.0 * math.pi, 2000)
        for N in (3, 5, 7, 9):
            sd = eigendecompose(
                reconstruct_jacobi(persymmetric_weights(surgery_spectrum(N)))
            )
            x0 = amplitude_values(sd, t, "first")
            assert np.abs(x0 - closed_form_surgery_x0(N, t)).max() < 1e-10, N


def test_criterion_5_round_trip():
    with criterion("criterion 5: 200 random symmetric spectra round-trip"):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            npts = int(rng.integers(2, 32))
            half = npts // 2
            gaps = rng.uniform(0.1, 10.0, size=half)
            if npts % 2 == 0:
                pos = gaps[0] / 2.0 + np.concatenate([[0.0], np.cumsum(gaps[1:])])
                lam = np.concatenate([-pos[::-1], pos])
            else:
                pos = np.cumsum(gaps)
                lam = np.concatenate([-pos[::-1], [0.0], pos])
            sd = persymmetric_weights(SpectrumRequest(lam))
            back = eigendecompose(reconstruct_jacobi(sd))
            scale = np.abs(lam).max()
            assert np.abs(back.eigenvalues - lam).max() < 1e-8 * scale
            assert np.abs(back.weights - sd.weights).max() < 1e-7


def test_criterion_6_small_sizes_never_exclude():
    with criterion("criterion 6: 2x2 and 3x3 wires never exclude early"):
        rng = np.random.default_rng(1234)
        round_off = 2 * math.ulp(1.0)  # the weights are exact to round-off
        # 2 sites: weights (1/2, 1/2) give |x0(t)| = |cos(bt)|, whose first
        # zero is pi/(2b), the earliest transfer time itself
        for _ in range(100):
            a = float(rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(0.2, 3.0))
            req = SpectrumRequest([a - b, a + b])
            sd = persymmetric_weights(req)
            assert np.abs(sd.weights - 0.5).max() <= round_off
            cert = detect_pst(req)
            first_zero = math.pi / (2.0 * b)
            assert abs(cert.transfer_time - first_zero) <= 1e-14 * first_zero
            assert detect_ese(sd, cert).zeros == ()
        # 3 sites, spectrum sigma(-a, 0, b) with a, b odd: w_0 = 1/2 = w_- + w_+,
        # so |x0| >= w_0 - w_- - w_+ = 0 with equality only where
        # exp(i a sigma t) = exp(-i b sigma t) = -1, first at pi/(g sigma) with
        # g = gcd(a, b), which is the earliest transfer time
        for _ in range(100):
            n = int(rng.integers(0, 6))
            m = int(rng.integers(0, 6))
            sigma = math.pi / float(rng.uniform(0.5, 5.0))
            req = SpectrumRequest(np.array([-(2 * m + 1), 0.0, 2 * n + 1]) * sigma)
            sd = persymmetric_weights(req)
            w_minus, w_0, w_plus = sd.weights
            assert abs(w_0 - 0.5) <= round_off, (n, m)
            assert abs(w_minus + w_plus - 0.5) <= round_off, (n, m)
            cert = detect_pst(req)  # earliest transfer, also when gcd > 1
            first_zero = math.pi / (math.gcd(2 * m + 1, 2 * n + 1) * sigma)
            assert abs(cert.transfer_time - first_zero) <= 1e-14 * first_zero, (n, m)
            assert detect_ese(sd, cert).zeros == (), (n, m)


def test_criterion_7_sign_change_lower_bounds():
    with criterion("criterion 7: quasi-orthogonal sign-change lower bounds"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            top = int(rng.integers(2, 13))
            low = int(rng.integers(1, top + 1))
            coeffs = [
                float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
                for _ in range(low, top + 1)
            ]
            c = np.polynomial.Chebyshev(np.concatenate([np.zeros(low), coeffs]))
            assert count_sign_changes(c) >= low, (low, top)
        for n in range(2, 7):
            for m in range(1, 5):
                c = amplitude_as_chebyshev(
                    persymmetric_weights(gap_family_spectrum(n, m))
                )
                assert count_sign_changes(c) >= 2 * m + 1, (n, m)


def test_criterion_8_cli_goldens(tmp_path):
    with criterion("criterion 8: CLI construct/analyze/plot golden pipeline"):
        artifacts = []
        for tag in ("a", "b"):
            wire = tmp_path / f"wire_{tag}.json"
            report = tmp_path / f"report_{tag}.json"
            series = tmp_path / f"series_{tag}.csv"
            fig = tmp_path / f"fig_{tag}.svg"
            assert main(["construct", "gap-family", "--n", "2", "--m", "1",
                         "--out", str(wire)]) == 0
            assert main(["analyze", "--in", str(wire), "--out", str(report)]) == 0
            assert main(["evolve", "--in", str(wire), "--t0", "0",
                         "--t1", str(math.pi), "--steps", "629",
                         "--out", str(series)]) == 0
            assert main(["plot", "--in", str(wire), "--t0", "0",
                         "--t1", str(math.pi), "--out", str(fig)]) == 0
            artifacts.append((wire.read_bytes(), report.read_bytes(),
                              series.read_bytes(), fig.read_bytes()))
        assert artifacts[0] == artifacts[1]  # byte-stable

        report_doc = json.loads(artifacts[0][1].decode())
        zeros = [z["time"] for z in report_doc["ese"]["zeros"]]
        assert len(zeros) == 1 and 0.5 < zeros[0] < 1.0

        rows = artifacts[0][2].decode().strip().split("\n")[1:]
        last = [float(v) for v in rows[-1].split(",")]
        assert abs(last[6] - 1.0) < 1e-9  # |xN| = 1 at t = pi

        tree = ET.fromstring(artifacts[0][3].decode())  # well-formed XML
        markers = [el for el in tree.iter() if el.get("class") == "ese-marker"]
        assert len(markers) == 1
        assert 0.5 < float(markers[0].get("data-t")) < 1.0
