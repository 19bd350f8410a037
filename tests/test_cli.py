import json

import numpy as np
import pytest

from gutterlp import cli
from gutterlp.model import Sense, Verdict, check_point
from gutterlp import testkit

BOX_MAX = "vars 2\nobjective max 1 1\nc 1 0 <= 2\nc 0 1 <= 1\n"
TWO_PLANE = "vars 2\nc 0 1 >= 0\nc 1 0 >= 2\n"
INFEASIBLE_1D = "vars 1\nc 1 >= 1\nc -1 >= 0\n"
TRIANGLE_MAX = "vars 2\nobjective max 1 1\nc 1 0 >= 0\nc 0 1 >= 0\nc -1 -1 >= -2\n"


class TestParse:
    def test_le_rows_flip_to_ge(self):
        lp = cli.parse_lp(BOX_MAX)
        assert lp.dimension == 2
        assert np.allclose(lp.A[0], [-1.0, 0.0])
        assert lp.b[0] == pytest.approx(-2.0)
        assert lp.senses[0] is Sense.GE
        assert lp.objective is not None

    def test_normalization_applied(self):
        lp = cli.parse_lp("vars 1\nc 3 >= 6\n")
        assert np.allclose(lp.A[0], [1.0])
        assert lp.b[0] == pytest.approx(2.0)

    def test_coefficient_count_checked(self):
        with pytest.raises(cli.LpFormatError):
            cli.parse_lp("vars 2\nc 1 >= 0\n")

    def test_comments_and_blanks_ignored(self):
        lp = cli.parse_lp("# hello\n\nvars 1  # inline\nc 1 >= 0\n")
        assert lp.dimension == 1

    def test_strict_and_equality_ops(self):
        lp = cli.parse_lp("vars 1\nc 1 > 0\nc 1 = 2\nc -1 < 3\n")
        assert lp.senses == (Sense.GT, Sense.EQ, Sense.GT)

    def test_unknown_directive(self):
        with pytest.raises(cli.LpFormatError):
            cli.parse_lp("vars 1\nrow 1 >= 0\n")

    def test_missing_vars(self):
        with pytest.raises(cli.LpFormatError):
            cli.parse_lp("c 1 >= 0\n")

    def test_round_trip(self):
        doc = cli.parse_lp_document(BOX_MAX)
        assert cli.parse_lp_document(cli.serialize_lp(doc)) == doc

    def test_round_trip_awkward_floats(self):
        doc = cli.LpFileDocument(2, ("max", (0.1, 1e-17)),
                                 (((1 / 3, -2.5e8), ">=", 7.000000001),))
        assert cli.parse_lp_document(cli.serialize_lp(doc)) == doc


class TestSolveCommand:
    def test_feasibility_record(self, tmp_path, capsys):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), "--start", "0,1", "--epsilon", "0.01"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "FEASIBLE"
        assert record["point"] == pytest.approx([2.01, 1.0])
        assert record["epsilon_final"] == pytest.approx(0.01)

    def test_optimize_record(self, tmp_path, capsys):
        path = tmp_path / "box.lp"
        path.write_text(BOX_MAX)
        code = cli.main(["solve", str(path), "--phase", "optimize", "--start", "0,0"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "OPTIMAL"
        assert record["objective"] == pytest.approx(3.0, abs=1e-6)
        assert record["point"] == pytest.approx([2.0, 1.0], abs=1e-6)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.lp"
        path.write_text(INFEASIBLE_1D)
        code = cli.main(["solve", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert code == 1
        assert record["verdict"] == "INFEASIBLE"

    def test_unbounded_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unb.lp"
        path.write_text("vars 1\nobjective max 1\nc 1 >= 0\n")
        code = cli.main(["solve", str(path), "--phase", "optimize"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "UNBOUNDED"

    def test_missing_file(self, capsys):
        code = cli.main(["solve", "/nonexistent/x.lp"])
        capsys.readouterr()
        assert code == 66

    def test_trace_jsonl(self, tmp_path, capsys):
        path = tmp_path / "two.lp"
        trace_path = tmp_path / "trace.jsonl"
        path.write_text(TWO_PLANE)
        cli.main(["solve", str(path), "--start", "0,1", "--trace", str(trace_path)])
        capsys.readouterr()
        lines = trace_path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert events
        assert {"iteration", "kind", "p0", "dir", "gutter", "detail"} <= set(events[0])
        kinds = [e["kind"] for e in events]
        assert "SELECT_TARGET" in kinds and "RESOLVED" in kinds

    def test_svg_written_for_2d(self, tmp_path, capsys):
        path = tmp_path / "two.lp"
        svg_path = tmp_path / "out.svg"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), "--start", "0,1", "--svg", str(svg_path)])
        capsys.readouterr()
        assert code == 0
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    @pytest.mark.parametrize("text", [
        "vars 2\nc nan 0 >= 1\n",
        "vars 2\nc 1 inf >= 1\n",
        "vars 2\nc 1 0 >= inf\n",
        "vars 2\nc 1 0 >= -nan\n",
        "vars 2\nobjective max nan 1\nc 1 0 >= 1\n",
        "vars 2\nobjective min 1 -inf\nc 1 0 >= 1\n",
    ])
    def test_non_finite_data_is_a_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.lp"
        path.write_text(text)
        code = cli.main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--trace", "--svg"])
    def test_unwritable_output_path(self, tmp_path, capsys, flag):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), flag, str(tmp_path / "missing" / "out")])
        captured = capsys.readouterr()
        assert code == 73
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_svg_rejected_for_other_dims(self, tmp_path, capsys):
        path = tmp_path / "one.lp"
        path.write_text("vars 1\nc 1 >= 0\n")
        code = cli.main(["solve", str(path), "--svg", str(tmp_path / "x.svg")])
        capsys.readouterr()
        assert code == 64

    def test_optimize_requires_objective(self, tmp_path, capsys):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), "--phase", "optimize"])
        capsys.readouterr()
        assert code == 64


class TestGenOracleBench:
    def test_gen_feasible_with_certificate(self, tmp_path, capsys):
        out = tmp_path / "inst.lp"
        code = cli.main(["gen", "--feasible", "-n", "3", "-m", "8",
                         "--slack", "0.1", "--seed", "7", "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        lp = cli.parse_lp(out.read_text())
        cert = json.loads((tmp_path / "inst.lp.cert.json").read_text())
        assert cert["kind"] == "feasible_interior"
        assert check_point(lp, np.array(cert["point"]), 1e-8)

    def test_gen_infeasible_certificate(self, tmp_path, capsys):
        out = tmp_path / "bad.lp"
        code = cli.main(["gen", "--infeasible", "-n", "2", "-m", "4",
                         "--seed", "3", "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        cert = json.loads((tmp_path / "bad.lp.cert.json").read_text())
        assert cert["kind"] == "infeasible_pair"
        lp = cli.parse_lp(out.read_text())
        assert testkit.oracle_solve(lp).verdict is Verdict.INFEASIBLE

    def test_gen_requires_output(self, capsys):
        code = cli.main(["gen", "--feasible"])
        capsys.readouterr()
        assert code == 64

    def test_oracle_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.lp"
        path.write_text(TRIANGLE_MAX)
        code = cli.main(["oracle", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "OPTIMAL"
        assert record["objective"] == pytest.approx(2.0, abs=1e-9)

    def test_bench_feasible_batch(self, capsys):
        code = cli.main(["bench", "--feasible", "--seeds", "1..6", "-n", "3",
                         "-m", "6", "--slack", "0.15"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        records = [json.loads(line) for line in out]
        aggregate = records[-1]
        assert aggregate["instances"] == 6
        assert aggregate["unsound"] == 0
        assert all(r["sound"] for r in records[:-1])

    def test_bench_beyond_oracle_scale_judged_by_certificate(self, capsys):
        code = cli.main(["bench", "--feasible", "-n", "10", "-m", "30", "--seeds", "1..2"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        records = [json.loads(line) for line in out]
        assert len(records) == 3
        assert [r["expected"] for r in records[:2]] == ["FEASIBLE", "FEASIBLE"]
        assert all(r["agree"] is (r["verdict"] == "FEASIBLE") for r in records[:2])
        assert records[-1]["instances"] == 2

    def test_bench_bound_flag_removed(self, capsys):
        code = cli.main(["bench", "--feasible", "--bound", "1"])
        capsys.readouterr()
        assert code == 64

    def test_bench_infeasible_batch(self, capsys):
        code = cli.main(["bench", "--infeasible", "--seeds", "1..4", "-n", "2", "-m", "4"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        aggregate = json.loads(out[-1])
        assert aggregate["feasible"] == 0
        assert aggregate["unsound"] == 0


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "inst.lp"
        cli.main(["gen", "--feasible", "-n", "3", "-m", "9", "--slack", "0.12",
                  "--seed", "21", "-o", str(path)])
        capsys.readouterr()
        outputs = []
        traces = []
        for run in range(2):
            trace_path = tmp_path / f"trace{run}.jsonl"
            code = cli.main(["solve", str(path), "--trace", str(trace_path)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
            traces.append(trace_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert traces[0] == traces[1]
