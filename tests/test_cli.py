"""Command-line behavior: documents, determinism, SVG output, exit codes.

The golden files under ``tests/golden/cli`` pin every output byte of the
pipeline for a few named documents, and those under ``tests/golden/matrix_only``
pin ``analyze`` of three of them reduced to their matrix.  Both suites run
through ``cli.main`` in this process and, when one is on PATH, through the
installed ``pstchain`` console script.  Re-record them, only when an output
change is intended, with ``PYTHONPATH=src python tests/test_cli.py``.
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from pstchain import cli, detect_ese, detect_pst, persymmetric_weights, surgery_spectrum
from pstchain.cli import build_parser, main


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"

# golden document -> construct arguments.  analyze, evolve and plot reject
# the construct documents of krawtchouk-N40 and gap-family-10-5 with exit
# code 2: written with 12 significant digits, their weights no longer sum
# to 1 within 1e-12 (ROADMAP item 2).  The rejections are pinned as they are.
GOLDEN_DOCUMENTS = {
    "example-4x4": ["example-4x4"],
    "krawtchouk-N5": ["krawtchouk", "--N", "5"],
    "krawtchouk-N40": ["krawtchouk", "--N", "40"],
    "surgery-N39": ["surgery", "--N", "39"],
    "gap-family-2-1": ["gap-family", "--n", "2", "--m", "1"],
    "gap-family-10-5": ["gap-family", "--n", "10", "--m", "5"],
    "gap-family-20-9": ["gap-family", "--n", "20", "--m", "9"],
}


GOLDEN_MATRIX_ONLY = Path(__file__).parent / "golden" / "matrix_only"

# golden documents whose matrix alone goes through analyze, the CLI's one
# eigensolver path: 4, 40 and 41 sites
MATRIX_ONLY_DOCUMENTS = ("example-4x4", "gap-family-20-9", "krawtchouk-N40")


def named_documents():
    """construct arguments of every named document and its exact ESE count.

    Krawtchouk chains have no zero, surgery wires one, gap family (n, m) m.
    """
    for N in range(1, 41):
        yield pytest.param(["krawtchouk", "--N", str(N)], 0, id=f"krawtchouk-N{N}")
    for N in range(3, 40, 2):
        yield pytest.param(["surgery", "--N", str(N)], 1, id=f"surgery-N{N}")
    for n in range(2, 21):
        for m in range(1, 10):
            args = ["gap-family", "--n", str(n), "--m", str(m)]
            yield pytest.param(args, m, id=f"gap-family-{n}-{m}")


def in_process(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main`` run in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def console_script(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the installed ``pstchain`` script."""
    proc = subprocess.run(
        ["pstchain", *map(str, argv)], capture_output=True, encoding="utf-8", timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


NO_SCRIPT = pytest.mark.skipif(not shutil.which("pstchain"), reason="no pstchain script on PATH")
RUNNERS = [
    pytest.param(in_process, id="main"),
    pytest.param(console_script, id="script", marks=NO_SCRIPT),
]


def through_both(cases):
    """(runner, case) for each case: ``cli.main`` under the case's id, then the script."""
    for case in cases:
        yield pytest.param(in_process, case, id=case)
        yield pytest.param(console_script, case, id=f"{case}-script", marks=NO_SCRIPT)


def cli_transcript(run, construct_args, workdir: Path) -> dict[str, bytes]:
    """Every file one document's pipeline writes through ``run``, plus ``runs.json``.

    ``runs.json`` records each invocation's exit code, stdout manifest and
    stderr, with ``workdir`` replaced by ``<out>``.
    """
    doc = workdir / "construct.json"
    span = ["--t0", "0", "--t1", repr(math.pi)]
    series = ["evolve", "--in", doc, *span, "--steps", "101", "--format"]
    invocations = {
        "construct.json": ["construct", *construct_args],
        "analyze.json": ["analyze", "--in", doc],
        "evolve.csv": [*series, "csv"],
        "evolve.json": [*series, "json"],
        "plot.svg": ["plot", "--in", doc, *span],
    }
    runs = []
    for name, argv in invocations.items():
        code, stdout, stderr = run([*argv, "--out", workdir / name])
        runs.append({
            "output": name,
            "exit_code": code,
            "stdout": stdout.replace(str(workdir), "<out>"),
            "stderr": stderr.replace(str(workdir), "<out>"),
        })
    files = {path.name: path.read_bytes() for path in workdir.iterdir()}
    files["runs.json"] = (json.dumps(runs, indent=2) + "\n").encode()
    return files


@pytest.mark.parametrize("run, name", through_both(GOLDEN_DOCUMENTS))
def test_matches_golden_cli_outputs(run, name, tmp_path):
    got = cli_transcript(run, GOLDEN_DOCUMENTS[name], tmp_path)
    golden = GOLDEN_CLI / name
    assert sorted(got) == sorted(path.name for path in golden.iterdir())
    for file_name, content in got.items():
        assert content == (golden / file_name).read_bytes(), file_name


def matrix_only_analysis(run, construct_args, workdir: Path) -> bytes:
    """analyze's output, through ``run``, on a copy of the construct document
    with only its matrix."""
    doc, copy, report = (workdir / name for name in ("doc.json", "matrix.json", "report.json"))
    assert run(["construct", *construct_args, "--out", doc])[0] == 0
    copy.write_text(json.dumps({"matrix": json.loads(doc.read_text())["matrix"]}))
    assert run(["analyze", "--in", copy, "--out", report])[0] == 0
    return report.read_bytes()


@pytest.mark.parametrize("run, name", through_both(MATRIX_ONLY_DOCUMENTS))
def test_matrix_only_analysis_matches_golden(run, name, tmp_path):
    got = matrix_only_analysis(run, GOLDEN_DOCUMENTS[name], tmp_path)
    assert got == (GOLDEN_MATRIX_ONLY / f"{name}.json").read_bytes()


@pytest.mark.parametrize("construct_args,count", named_documents())
def test_matrix_only_analysis_counts_every_zero(construct_args, count, tmp_path):
    # the eigensolver's weights carry no 12-digit rounding, so every named
    # wire reports its exact zero count; plateau minima may stay unresolved
    report = json.loads(matrix_only_analysis(in_process, construct_args, tmp_path))
    assert len(report["ese"]["zeros"]) == count


class TestConstruct:
    def test_gap_family_document(self, tmp_path):
        out = tmp_path / "wire.json"
        assert main(["construct", "gap-family", "--n", "2", "--m", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["spectrum", "weights", "matrix", "persymmetry", "pst"]
        np.testing.assert_allclose(doc["spectrum"], [-2.5, -1.5, 1.5, 2.5])
        np.testing.assert_allclose(
            doc["matrix"]["offdiag"],
            [math.sqrt(15) / 2, 1.0, math.sqrt(15) / 2],
            atol=1e-11,
        )
        assert doc["persymmetry"]["is_persymmetric"] is True
        assert doc["pst"]["has_pst"] is True
        assert doc["pst"]["transfer_time"] == pytest.approx(math.pi, abs=1e-10)

    def test_krawtchouk_smallest(self, tmp_path):
        out = tmp_path / "k1.json"
        assert main(["construct", "krawtchouk", "--N", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(doc["matrix"]["offdiag"], [0.5])
        assert doc["pst"]["transfer_time"] == pytest.approx(math.pi, abs=1e-10)
        assert doc["pst"]["gap_odd_integers"] == [0]

    def test_from_spectrum_without_pst(self, tmp_path):
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text("[0.0, 1.0, 2.5]\n")
        out = tmp_path / "doc.json"
        assert main(
            ["construct", "from-spectrum", "--in", str(spectrum), "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["pst"]["has_pst"] is False
        assert doc["pst"]["transfer_time"] is None

    def test_example_4x4_matches_surgery(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["construct", "example-4x4", "--out", str(a)]) == 0
        assert main(["construct", "surgery", "--N", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["construct", "gap-family", "--out", str(out)]) == 2
        assert "requires --n and --m" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_lists_outputs(self, tmp_path, capsys):
        out = tmp_path / "wire.json"
        main(["construct", "krawtchouk", "--N", "3", "--out", str(out)])
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "construct"
        assert manifest["outputs"] == [str(out)]
        assert manifest["tool_version"]


class TestAnalyze:
    def test_four_site_report(self, tmp_path):
        wire = tmp_path / "wire.json"
        report = tmp_path / "report.json"
        main(["construct", "example-4x4", "--out", str(wire)])
        assert main(["analyze", "--in", str(wire), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "ESE present"
        zeros = doc["ese"]["zeros"]
        assert len(zeros) == 1
        assert zeros[0]["time"] == pytest.approx(0.8410687, abs=1e-6)
        assert zeros[0]["last_site_modulus"] == pytest.approx(0.2721655, abs=1e-6)

    def test_krawtchouk_has_no_exclusion(self, tmp_path):
        wire = tmp_path / "wire.json"
        report = tmp_path / "report.json"
        main(["construct", "krawtchouk", "--N", "5", "--out", str(wire)])
        main(["analyze", "--in", str(wire), "--out", str(report)])
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "ESE absent"
        assert doc["ese"]["zeros"] == []

    def test_gap_family_rich_exclusion(self, tmp_path):
        wire = tmp_path / "wire.json"
        report = tmp_path / "report.json"
        main(["construct", "gap-family", "--n", "4", "--m", "3", "--out", str(wire)])
        main(["analyze", "--in", str(wire), "--out", str(report)])
        doc = json.loads(report.read_text())
        zeros = [z["time"] for z in doc["ese"]["zeros"]]
        assert len(zeros) >= 3
        assert all(0.0 < t < math.pi for t in zeros)

    @pytest.mark.parametrize(
        "document",
        [
            {"matrix": [1, 2]},
            {"matrix": 5},
            {"matrix": {"diag": {"a": 1}, "offdiag": [1]}},
            {"spectrum": {"a": 1}, "weights": [0.5, 0.5]},
        ],
    )
    def test_wrongly_typed_document_exit_2(self, document, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(document))
        out = str(tmp_path / "out")
        span = ["--t0", "0", "--t1", "1", "--steps", "4"]
        for argv in (["analyze"], ["evolve", *span]):
            assert main([*argv, "--in", str(doc), "--out", out]) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_non_pst_input_still_succeeds(self, tmp_path):
        spectrum = tmp_path / "s.json"
        spectrum.write_text("[0.0, 1.0, 2.5]\n")
        report = tmp_path / "report.json"
        assert main(["analyze", "--in", str(spectrum), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["pst"]["has_pst"] is False
        assert doc["ese"] is None
        assert "no PST" in doc["verdict"]

    def test_rounded_weights_leave_one_minimum_unresolved(self, tmp_path):
        # surgery N = 27 written with 12-digit weights: the one zero of the
        # exact spectrum survives the round trip, and a plateau minimum whose
        # Newton iterate does not settle is listed as unresolved
        wire = tmp_path / "wire.json"
        report = tmp_path / "report.json"
        main(["construct", "surgery", "--N", "27", "--out", str(wire)])
        assert main(["analyze", "--in", str(wire), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        req = surgery_spectrum(27)
        (exact,) = detect_ese(persymmetric_weights(req), detect_pst(req)).zeros
        assert [z["time"] for z in doc["ese"]["zeros"]] == [pytest.approx(exact.time, abs=1e-9)]
        assert len(doc["ese"]["unresolved"]) == 1
        assert 0.0 < doc["ese"]["unresolved"][0] < doc["pst"]["transfer_time"]

    def test_certificate_round_trip_is_exact(self, tmp_path):
        wire = tmp_path / "wire.json"
        report = tmp_path / "report.json"
        main(["construct", "gap-family", "--n", "2", "--m", "1", "--out", str(wire)])
        main(["analyze", "--in", str(wire), "--out", str(report)])
        embedded = json.loads(wire.read_text())["pst"]
        recomputed = json.loads(report.read_text())["pst"]
        assert embedded == recomputed

    def test_matrix_only_document(self, tmp_path):
        doc = tmp_path / "m.json"
        doc.write_text(
            json.dumps({"matrix": {"diag": [0.0, 0.0], "offdiag": [1.0]}})
        )
        report = tmp_path / "report.json"
        assert main(["analyze", "--in", str(doc), "--out", str(report)]) == 0
        parsed = json.loads(report.read_text())
        assert parsed["pst"]["has_pst"] is True
        assert parsed["pst"]["transfer_time"] == pytest.approx(math.pi / 2)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: detect_pst takes x_N from the persymmetric "
        "weights of the spectrum, not from the weights the document gives",
    )
    def test_non_mirror_weights_deny_pst(self, tmp_path):
        # the wire of these spectral data, reconstruct_jacobi's, reaches
        # only |x_N(pi)| = 0.95476 by full_evolution_column, as by
        # scipy.linalg.expm, so it has no PST at pi
        doc = tmp_path / "s.json"
        doc.write_text(json.dumps(
            {"spectrum": [-2.5, -1.5, 1.5, 2.5], "weights": [0.1, 0.4, 0.3, 0.2]}
        ))
        report = tmp_path / "report.json"
        assert main(["analyze", "--in", str(doc), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["pst"]["has_pst"] is False

    def test_weakly_coupled_matrix_is_numerical_failure(self, tmp_path, capsys):
        doc = tmp_path / "m.json"
        doc.write_text(
            json.dumps({"matrix": {"diag": [1.0, 0.0], "offdiag": [1e-9]}})
        )
        report = tmp_path / "report.json"
        assert main(["analyze", "--in", str(doc), "--out", str(report)]) == 3
        assert "numerical failure: weight 0" in capsys.readouterr().err
        assert not report.exists()


class TestEvolve:
    def test_csv_boundary_rows(self, tmp_path):
        wire = tmp_path / "wire.json"
        series = tmp_path / "series.csv"
        main(["construct", "example-4x4", "--out", str(wire)])
        assert main(
            ["evolve", "--in", str(wire), "--t0", "0", "--t1", str(math.pi),
             "--steps", "315", "--format", "csv", "--out", str(series)]
        ) == 0
        lines = series.read_text().strip().split("\n")
        assert lines[0] == "t,re_x0,im_x0,abs_x0,re_xN,im_xN,abs_xN"
        assert len(lines) == 316
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[3] == pytest.approx(1.0, abs=1e-12)
        assert last[6] == pytest.approx(1.0, abs=1e-9)

    def test_csv_matches_closed_form(self, tmp_path):
        wire = tmp_path / "wire.json"
        series = tmp_path / "series.csv"
        main(["construct", "krawtchouk", "--N", "3", "--out", str(wire)])
        main(["evolve", "--in", str(wire), "--t0", "0", "--t1", "6.0",
              "--steps", "100", "--out", str(series)])
        rows = [line.split(",") for line in series.read_text().strip().split("\n")[1:]]
        for row in rows[:: 7]:
            t, abs_x0 = float(row[0]), float(row[3])
            assert abs_x0 == pytest.approx(abs(math.cos(t / 2) ** 3), abs=1e-10)

    def test_json_format(self, tmp_path):
        wire = tmp_path / "wire.json"
        out = tmp_path / "series.json"
        main(["construct", "krawtchouk", "--N", "2", "--out", str(wire)])
        assert main(
            ["evolve", "--in", str(wire), "--t0", "0", "--t1", "1", "--steps", "4",
             "--format", "json", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["t", "re_x0", "im_x0", "abs_x0", "re_xN", "im_xN", "abs_xN"]
        assert len(doc["t"]) == 4

    def test_rejects_bad_interval(self, tmp_path):
        wire = tmp_path / "wire.json"
        main(["construct", "krawtchouk", "--N", "2", "--out", str(wire)])
        assert main(
            ["evolve", "--in", str(wire), "--t0", "1", "--t1", "1",
             "--steps", "4", "--out", str(tmp_path / "x.csv")]
        ) == 2

    @pytest.mark.parametrize("t1, shown", [("1e308", "1e+308"), ("inf", "inf")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_range_with_non_finite_phases_exit_2(self, t1, shown, fmt, tmp_path, capsys):
        wire = tmp_path / "wire.json"
        series = tmp_path / f"series.{fmt}"
        main(["construct", "example-4x4", "--out", str(wire)])
        capsys.readouterr()
        assert main(
            ["evolve", "--in", str(wire), "--t0", "0", "--t1", t1, "--steps", "11",
             "--format", fmt, "--out", str(series)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: t0 = 0.0, t1 = {shown} give non-finite phases\n"
        assert captured.out == ""
        assert not series.exists()


class TestPlot:
    def test_four_site_figure(self, tmp_path):
        wire = tmp_path / "wire.json"
        fig = tmp_path / "fig.svg"
        main(["construct", "example-4x4", "--out", str(wire)])
        assert main(
            ["plot", "--in", str(wire), "--t0", "0", "--t1", str(math.pi),
             "--out", str(fig)]
        ) == 0
        tree = ET.parse(fig)  # well-formed XML
        markers = [el for el in tree.iter() if el.get("class") == "ese-marker"]
        assert len(markers) == 1
        assert float(markers[0].get("data-t")) == pytest.approx(0.841, abs=1e-3)
        pst = [el for el in tree.iter() if el.get("class") == "pst-marker"]
        assert len(pst) == 1
        curves = {el.get("class") for el in tree.iter() if el.tag.endswith("polyline")}
        assert curves == {"x0-curve", "xN-curve"}

    def test_krawtchouk_has_no_markers(self, tmp_path):
        wire = tmp_path / "wire.json"
        fig = tmp_path / "fig.svg"
        main(["construct", "krawtchouk", "--N", "4", "--out", str(wire)])
        main(["plot", "--in", str(wire), "--t0", "0", "--t1", str(math.pi),
              "--out", str(fig)])
        tree = ET.parse(fig)
        assert not [el for el in tree.iter() if el.get("class") == "ese-marker"]

    # At t ~ 1e308 the phases lambda t overflow.  The range is rejected
    # before any amplitude is summed, so numpy never warns (an error here).
    def test_non_finite_curve_exit_2_and_no_file(self, tmp_path, capsys):
        wire = tmp_path / "wire.json"
        fig = tmp_path / "fig.svg"
        main(["construct", "example-4x4", "--out", str(wire)])
        capsys.readouterr()
        assert main(
            ["plot", "--in", str(wire), "--t0", "0", "--t1", "1e308", "--out", str(fig)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: t0 = 0.0, t1 = 1e+308 give non-finite phases\n"
        assert captured.out == ""
        assert not fig.exists()

    def test_malformed_input_leaves_no_file(self, tmp_path):
        fig = tmp_path / "fig.svg"
        assert main(
            ["plot", "--in", str(tmp_path / "missing.json"), "--t0", "0",
             "--t1", "1", "--out", str(fig)]
        ) == 2
        assert not fig.exists()


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        pairs = []
        for tag in ("a", "b"):
            wire = tmp_path / f"wire_{tag}.json"
            report = tmp_path / f"report_{tag}.json"
            series = tmp_path / f"series_{tag}.csv"
            fig = tmp_path / f"fig_{tag}.svg"
            main(["construct", "gap-family", "--n", "2", "--m", "1", "--out", str(wire)])
            main(["analyze", "--in", str(wire), "--out", str(report)])
            main(["evolve", "--in", str(wire), "--t0", "0", "--t1", "3.14",
                  "--steps", "50", "--out", str(series)])
            main(["plot", "--in", str(wire), "--t0", "0", "--t1", "3.15",
                  "--out", str(fig)])
            pairs.append((wire.read_bytes(), report.read_bytes(),
                          series.read_bytes(), fig.read_bytes()))
        assert pairs[0] == pairs[1]


class TestExitCodes:
    def test_undecidable_spectrum_is_numerical_failure(self, tmp_path, capsys):
        spectrum = tmp_path / "s.json"
        spectrum.write_text("[0.0, 1e-06, 1.000001]\n")
        out = tmp_path / "doc.json"
        assert main(
            ["construct", "from-spectrum", "--in", str(spectrum), "--out", str(out)]
        ) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("run", RUNNERS)
    def test_scan_over_the_grid_budget_is_numerical_failure(self, run, tmp_path):
        # PST at T0 = pi over a span of 780,040: a 99,844,922-point scan
        spectrum = tmp_path / "s.json"
        spectrum.write_text(json.dumps([0.0] + [1.0 + 20001.0 * k for k in range(40)]))
        report = tmp_path / "report.json"
        code, stdout, stderr = run(["analyze", "--in", spectrum, "--out", report])
        assert (code, stdout) == (3, "")
        assert "exceeds the budget of 1048576" in stderr
        assert not report.exists()

    @pytest.mark.parametrize("run", RUNNERS)
    def test_series_over_the_grid_budget_is_numerical_failure(self, run, tmp_path):
        wire, series = tmp_path / "wire.json", tmp_path / "series.csv"
        assert run(["construct", "example-4x4", "--out", wire])[0] == 0
        code, stdout, _ = run(
            ["evolve", "--in", wire, "--t0", "0", "--t1", "1",
             "--steps", 2**20 + 1, "--out", series]
        )
        assert (code, stdout) == (3, "")
        assert not series.exists()

    OVERSIZED = {
        "krawtchouk": ["krawtchouk", "--N", "1000000000"],
        "gap-family": ["gap-family", "--n", "1000000000", "--m", "1"],
        "surgery": ["surgery", "--N", "1000000001"],
    }

    @pytest.mark.parametrize("run, kind", through_both(OVERSIZED))
    def test_oversized_family_is_rejected_before_allocating(self, run, kind, tmp_path):
        out = tmp_path / "doc.json"
        tracemalloc.start()
        try:
            code, stdout, _ = run(["construct", *self.OVERSIZED[kind], "--out", out])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (2, "")
        assert not out.exists()
        if run is in_process:  # the script allocates in a process of its own
            assert peak < 1 << 20

    NON_POSITIVE_N = {"0": "0", "-1": "-1", "-5": "-5", "-10**400": str(-(10**400))}

    @pytest.mark.parametrize("run, N", through_both(NON_POSITIVE_N))
    def test_non_positive_krawtchouk_N_is_named(self, run, N, tmp_path):
        out = tmp_path / "doc.json"
        argv = ["construct", "krawtchouk", "--N", self.NON_POSITIVE_N[N], "--out", out]
        assert run(argv) == (2, "", "error: N must be a positive integer\n")
        assert not out.exists()

    def test_unparseable_spectrum_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(
            ["construct", "from-spectrum", "--in", str(bad),
             "--out", str(tmp_path / "o.json")]
        ) == 2

    def test_unknown_kind_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["construct", "pentagon", "--out", str(tmp_path / "o.json")])
        assert info.value.code == 2


FAILED_RUNS = [  # exit code, argv; {name} is a file of the test's
    (2, ["construct", "gap-family", "--n", "2"]),
    (2, ["analyze", "--in", "{missing}"]),
    (2, ["evolve", "--in", "{wire}", "--t0", "1", "--t1", "1", "--steps", "4"]),
    (2, ["plot", "--in", "{bad}", "--t0", "0", "--t1", "1"]),
    (3, ["construct", "from-spectrum", "--in", "{undecidable}"]),
    (3, ["analyze", "--in", "{weak}"]),
    (3, ["plot", "--in", "{weak}", "--t0", "0", "--t1", "1"]),
    (2, ["analyze", "--in", "{deep}"]),
    (2, ["analyze", "--in", "{deep_spectrum}"]),
    (2, ["evolve", "--in", "{deep}", "--t0", "0", "--t1", "1", "--steps", "4"]),
    (2, ["plot", "--in", "{deep}", "--t0", "0", "--t1", "1"]),
    (2, ["construct", "from-spectrum", "--in", "{deep}"]),
    # a JSON integer beyond float range, in each place a document holds numbers
    *[
        (2, [*command, "--in", f"{{{document}}}"])
        for command in (
            ["analyze"],
            ["evolve", "--t0", "0", "--t1", "1", "--steps", "4"],
            ["plot", "--t0", "0", "--t1", "1"],
        )
        for document in ("huge_spectrum", "huge_weights", "huge_matrix")
    ],
    (2, ["construct", "from-spectrum", "--in", "{huge_spectrum}"]),
    (2, ["construct", "gap-family", "--n", "2", "--m", str(10**400)]),
    # N below 1, which the chain's rule rejects before anything is built
    *[
        (2, ["construct", "krawtchouk", "--N", N])
        for N in ("0", "-1", "-5", str(-(10**400)))
    ],
    # numbers written as strings, which used to convert silently
    (2, ["construct", "from-spectrum", "--in", "{string_spectrum}"]),
]


def failed_runs():
    """(runner, exit code, argv) for each failed run: ``cli.main``, then the script."""
    for i, (code, argv) in enumerate(FAILED_RUNS):
        yield pytest.param(in_process, code, argv, id=f"{code}-argv{i}")
        yield pytest.param(
            console_script, code, argv, id=f"{code}-argv{i}-script", marks=NO_SCRIPT
        )


class TestManifest:
    """The stdout manifest echoes the subcommand's options in parser order,
    ``--in`` as ``in`` and without ``--out``; failed runs print nothing."""

    @pytest.fixture
    def wire(self, tmp_path):
        path = tmp_path / "wire.json"
        assert main(["construct", "example-4x4", "--out", str(path)]) == 0
        return path

    def assert_manifest(self, stdout, command, inputs, out):
        manifest = json.loads(stdout)
        assert list(manifest) == ["command", "inputs", "outputs", "tool_version"]
        assert manifest["command"] == command
        assert list(manifest["inputs"].items()) == inputs
        assert manifest["outputs"] == [str(out)]

    def test_construct_named_kind(self, tmp_path):
        out = tmp_path / "k.json"
        code, stdout, _ = in_process(["construct", "krawtchouk", "--N", 3, "--out", out])
        assert code == 0
        self.assert_manifest(stdout, "construct", [
            ("kind", "krawtchouk"), ("N", 3), ("n", None), ("m", None),
            ("in", None), ("tol", 1e-8),
        ], out)

    def test_construct_from_spectrum(self, tmp_path):
        spectrum = tmp_path / "spectrum.json"
        spectrum.write_text("[-2.5, -1.5, 1.5, 2.5]\n")
        out = tmp_path / "doc.json"
        code, stdout, _ = in_process([
            "construct", "from-spectrum", "--out", out, "--in", spectrum,
            "--tol", "1e-6",
        ])
        assert code == 0
        self.assert_manifest(stdout, "construct", [
            ("kind", "from-spectrum"), ("N", None), ("n", None), ("m", None),
            ("in", str(spectrum)), ("tol", 1e-6),
        ], out)

    def test_analyze(self, wire, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = in_process(["analyze", "--out", out, "--in", wire])
        assert code == 0
        self.assert_manifest(stdout, "analyze", [("in", str(wire)), ("tol", 1e-8)], out)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evolve(self, fmt, wire, tmp_path):
        out = tmp_path / f"series.{fmt}"
        code, stdout, _ = in_process([
            "evolve", "--format", fmt, "--steps", 5, "--t1", 2.5, "--t0", 0.5,
            "--in", wire, "--out", out,
        ])
        assert code == 0
        self.assert_manifest(stdout, "evolve", [
            ("in", str(wire)), ("t0", 0.5), ("t1", 2.5), ("steps", 5), ("format", fmt),
        ], out)

    def test_plot(self, wire, tmp_path):
        out = tmp_path / "fig.svg"
        code, stdout, _ = in_process([
            "plot", "--out", out, "--tol", "1e-9", "--t1", 3, "--t0", 0, "--in", wire,
        ])
        assert code == 0
        self.assert_manifest(stdout, "plot", [
            ("in", str(wire)), ("t0", 0), ("t1", 3), ("tol", 1e-9),
        ], out)

    @pytest.mark.parametrize("argv", [
        ["construct", "example-4x4"],
        ["analyze", "--in", "{wire}"],
        ["evolve", "--in", "{wire}", "--t0", "0", "--t1", "1", "--steps", "4"],
        ["evolve", "--in", "{wire}", "--t0", "0", "--t1", "1", "--steps", "4",
         "--format", "json"],
        ["plot", "--in", "{wire}", "--t0", "0", "--t1", "1"],
    ])
    def test_output_to_devnull(self, argv, wire):
        # a character device: neither a regular file nor one with a size
        argv = [arg.format(wire=wire) for arg in argv]
        code, stdout, _ = in_process([*argv, "--out", os.devnull])
        assert code == 0
        assert json.loads(stdout)["outputs"] == [os.devnull]

    @pytest.mark.parametrize("run, code, argv", failed_runs())
    def test_failed_run_prints_nothing_and_writes_nothing(
        self, run, code, argv, wire, tmp_path
    ):
        files = {
            "wire": wire,
            "missing": tmp_path / "missing.json",
            "bad": tmp_path / "bad.json",
            "undecidable": tmp_path / "undecidable.json",
            "weak": tmp_path / "weak.json",
            "deep": tmp_path / "deep.json",
            "deep_spectrum": tmp_path / "deep_spectrum.json",
            "huge_spectrum": tmp_path / "huge_spectrum.json",
            "huge_weights": tmp_path / "huge_weights.json",
            "huge_matrix": tmp_path / "huge_matrix.json",
            "string_spectrum": tmp_path / "string_spectrum.json",
        }
        files["bad"].write_text("{not json")
        files["undecidable"].write_text("[0.0, 1e-06, 1.000001]\n")
        files["weak"].write_text(
            json.dumps({"matrix": {"diag": [1.0, 0.0], "offdiag": [1e-9]}})
        )
        # deeper than the JSON decoder's recursion allows
        nested = "[" * 5000 + "]" * 5000
        files["deep"].write_text(nested)
        files["deep_spectrum"].write_text(f'{{"spectrum": {nested}}}')
        huge = 10**400  # json writes and reads it as an exact integer
        files["huge_spectrum"].write_text(json.dumps([-huge, huge]))
        files["huge_weights"].write_text(
            json.dumps({"spectrum": [-1.0, 1.0], "weights": [huge, 0.5]})
        )
        files["huge_matrix"].write_text(
            json.dumps({"matrix": {"diag": [0.0, 0.0], "offdiag": [huge]}})
        )
        files["string_spectrum"].write_text(json.dumps(["-1.5", "-0.5", "0.5", "1.5"]))
        out = tmp_path / "out"
        argv = [arg.format(**files) for arg in argv]
        code_got, stdout, stderr = run([*argv, "--out", out])
        assert (code_got, stdout) == (code, "")
        assert stderr.startswith("error: " if code == 2 else "numerical failure: ")
        assert stderr.count("\n") == 1, stderr
        assert not out.exists()


class TestParser:
    def test_main_builds_the_parser_once(self, tmp_path, capsys, monkeypatch):
        built = []

        def counting():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            wire = tmp_path / "wire.json"
            for _ in range(3):
                assert main(["construct", "example-4x4", "--out", str(wire)]) == 0
            # argparse exits on a bad command line; the parser stays usable
            with pytest.raises(SystemExit):
                main(["construct", "no-such-kind", "--out", str(wire)])
            assert main(["analyze", "--in", str(wire), "--out", os.devnull]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        capsys.readouterr()

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


if __name__ == "__main__":
    for name, construct_args in GOLDEN_DOCUMENTS.items():
        with tempfile.TemporaryDirectory() as workdir:
            files = cli_transcript(in_process, construct_args, Path(workdir))
        target = GOLDEN_CLI / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        for file_name, content in files.items():
            (target / file_name).write_bytes(content)
        print(f"recorded {target}", file=sys.stderr)
    GOLDEN_MATRIX_ONLY.mkdir(exist_ok=True)
    for name in MATRIX_ONLY_DOCUMENTS:
        with tempfile.TemporaryDirectory() as workdir:
            target = GOLDEN_MATRIX_ONLY / f"{name}.json"
            target.write_bytes(
                matrix_only_analysis(in_process, GOLDEN_DOCUMENTS[name], Path(workdir))
            )
        print(f"recorded {target}", file=sys.stderr)
