"""Command-line behavior: documents, determinism, SVG output, exit codes.

The golden files under ``tests/golden/cli`` pin every output byte of the
pipeline for a few named documents.  Re-record them, only when an output
change is intended, with ``PYTHONPATH=src python tests/test_cli.py``.
"""

import io
import json
import math
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from pstchain.cli import main


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


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def cli_transcript(construct_args, workdir: Path) -> dict[str, bytes]:
    """Every file one document's pipeline writes, plus ``runs.json``.

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
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([str(a) for a in argv] + ["--out", str(workdir / name)])
        runs.append({
            "output": name,
            "exit_code": code,
            "stdout": stdout.getvalue().replace(str(workdir), "<out>"),
            "stderr": stderr.getvalue().replace(str(workdir), "<out>"),
        })
    files = {path.name: path.read_bytes() for path in workdir.iterdir()}
    files["runs.json"] = (json.dumps(runs, indent=2) + "\n").encode()
    return files


@pytest.mark.parametrize("name", GOLDEN_DOCUMENTS)
def test_matches_golden_cli_outputs(name, tmp_path):
    got = cli_transcript(GOLDEN_DOCUMENTS[name], tmp_path)
    golden = GOLDEN_CLI / name
    assert sorted(got) == sorted(path.name for path in golden.iterdir())
    for file_name, content in got.items():
        assert content == (golden / file_name).read_bytes(), file_name


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

    # At t ~ 1e308 the amplitude sums overflow to NaN, and numpy warns.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_curve_exit_2_and_no_file(self, tmp_path, capsys):
        wire = tmp_path / "wire.json"
        fig = tmp_path / "fig.svg"
        main(["construct", "example-4x4", "--out", str(wire)])
        assert main(
            ["plot", "--in", str(wire), "--t0", "0", "--t1", "1e308", "--out", str(fig)]
        ) == 2
        assert "non-finite" in capsys.readouterr().err
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


if __name__ == "__main__":
    for name, construct_args in GOLDEN_DOCUMENTS.items():
        with tempfile.TemporaryDirectory() as workdir:
            files = cli_transcript(construct_args, Path(workdir))
        target = GOLDEN_CLI / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        for file_name, content in files.items():
            (target / file_name).write_bytes(content)
        print(f"recorded {target}", file=sys.stderr)
