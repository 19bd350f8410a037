import json
import re

import numpy as np
import pytest

from gutterlp import cli, solve_feasibility
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


    def test_arrays_match_a_row_by_row_build(self):
        text = ("vars 3\nobjective min 1 -2 0.5\nc 1 -0.0 2.5 <= 4\nc 0 1e-300 -3 > -1\n"
                "c 0.1 0.2 0.3 = 0.6\nc -7 0 1 < 0\nc 2 2 2 >= -0.0\n")
        doc = cli.parse_lp_document(text)
        lp = cli.document_to_lp(doc)
        normals, offsets, senses = [], [], []
        for coeffs, op, rhs in doc.rows:
            sign = -1.0 if op in ("<=", "<") else 1.0
            normals.append(sign * np.asarray(coeffs, dtype=float))
            offsets.append(sign * rhs)
            senses.append({">=": Sense.GE, "<=": Sense.GE, ">": Sense.GT, "<": Sense.GT,
                           "=": Sense.EQ}[op])
        norms = np.linalg.norm(np.array(normals), axis=1)
        assert lp.A.tobytes() == (np.array(normals) / norms[:, None]).tobytes()
        assert lp.b.tobytes() == (np.array(offsets) / norms).tobytes()
        assert lp.senses == tuple(senses)
        assert not np.signbit(lp.A[0, 1]) and np.signbit(lp.b[4])


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

    def test_huge_coefficients_keep_their_row(self, tmp_path, capsys):
        # 1e200 x + 1e200 y >= 1e200 used to normalize to 0 >= 0, and (0, 0) came back
        path = tmp_path / "huge.lp"
        path.write_text("vars 2\nc 1e200 1e200 >= 1e200\nc -1 0 >= -5\nc 0 -1 >= -5\n")
        code = cli.main(["solve", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "FEASIBLE"
        x, y = record["point"]
        assert x + y >= 1.0 and x <= 5.0 and y <= 5.0

    def test_missing_file(self, capsys):
        code = cli.main(["solve", "/nonexistent/x.lp"])
        capsys.readouterr()
        assert code == 66

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_non_utf8_file_is_bad_data(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.lp"
        path.write_bytes(b"vars 1\nc 1 >= 0 # \xff\n")
        code = cli.main([command, str(path)])
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith("error: ") and "UTF-8" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_utf8_byte_order_mark_is_skipped(self, command, tmp_path, capsys):
        path = tmp_path / "bom.lp"
        path.write_bytes(b"\xef\xbb\xbfvars 1\nc 1 >= 0\n")
        code = cli.main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["verdict"] == "FEASIBLE"

    def test_all_violated_rows_pinned_equalities_stall(self, tmp_path, capsys):
        # two equality planes 5e-8 apart: consistent to the projection's 10 * feas_tol,
        # but the projection leaves row 1 violated, and phase I pins every equality
        text = "vars 2\nc 1 0 = 1\nc 1 0 = 1.00000005\nc 0 1 >= -5\n"
        path = tmp_path / "pinned.lp"
        path.write_text(text)
        code = cli.main(["solve", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert code == 3
        assert record["verdict"] == "STALLED" and record["iterations"] == 0
        assert record["diagnostics"] == ["all violated constraints are pinned equalities"]
        result = solve_feasibility(cli.parse_lp(text))
        assert result.verdict is Verdict.STALLED and result.iterations == 0
        assert result.diagnostics == ("all violated constraints are pinned equalities",)

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

    def test_svg_equality_row_shades_only_its_line(self, tmp_path, capsys):
        path = tmp_path / "eq.lp"
        svg_path = tmp_path / "out.svg"
        path.write_text("vars 2\nc 1 1 = 1\nc 1 0 >= 0\nc 0 1 >= 0\n")
        assert cli.main(["solve", str(path), "--svg", str(svg_path)]) == 0
        capsys.readouterr()
        shaded = re.search(r'<polygon points="([^"]*)" fill="rgb\(70,160,90\)"', svg_path.read_text())
        pixels = np.array([[float(v) for v in pair.split(",")] for pair in shaded.group(1).split()])
        # x + y = 1 is a line of constant px - py, and a vertex is printed to 0.01 px
        along = pixels[:, 0] - pixels[:, 1]
        assert np.ptp(along) <= 0.05
        assert np.ptp(pixels[:, 0]) > 100.0

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

    def test_unopenable_svg_leaves_the_trace_file_as_it_was(self, tmp_path, capsys):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text("kept\n")
        code = cli.main(["solve", str(path), "--trace", str(trace_path), "--svg", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 73 and captured.out == ""
        assert trace_path.read_text() == "kept\n"

    @pytest.mark.parametrize("start", ["nan,1", "1,inf", "0,-inf"])
    def test_non_finite_start_is_a_usage_error(self, tmp_path, capsys, start):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), "--start", start])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--epsilon", "--geom-tol", "--feas-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, tmp_path, capsys, flag, value):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), flag, value])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_negative_start_in_either_form(self, tmp_path, capsys):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        records = []
        for args in (["--start", "-1,2"], ["--start=-1,2"], ["--start", "-.5,-2"]):
            code = cli.main(["solve", str(path), *args])
            records.append(capsys.readouterr().out)
            assert code == 0
        assert records[0] == records[1]
        assert json.loads(records[2])["verdict"] == "FEASIBLE"

    @pytest.mark.parametrize("args", [["--start", "-x"], ["--start"], ["--start", "--trace", "t"]])
    def test_start_that_is_not_a_point_is_a_usage_error(self, tmp_path, capsys, args):
        path = tmp_path / "two.lp"
        path.write_text(TWO_PLANE)
        code = cli.main(["solve", str(path), *args])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""

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

    def test_gen_unwritable_output_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.lp"
        code = cli.main(["gen", "--feasible", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 73
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_gen_unopenable_certificate_leaves_the_lp_file_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "x.lp"
        out.write_text("kept\n")
        (tmp_path / "x.lp.cert.json").mkdir()
        code = cli.main(["gen", "--feasible", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 73 and captured.out == ""
        assert out.read_text() == "kept\n"

    def test_gen_overwrites_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "x.lp"
        out.write_text("old text longer than nothing\n" * 100)
        (tmp_path / "x.lp.cert.json").write_text("old\n" * 100)
        assert cli.main(["gen", "--feasible", "-n", "2", "-m", "3", "-o", str(out)]) == 0
        capsys.readouterr()
        assert cli.parse_lp(out.read_text()).num_constraints == 3
        assert json.loads((tmp_path / "x.lp.cert.json").read_text())

    @pytest.mark.parametrize("slack", ["nan", "inf", "0"])
    def test_gen_bad_slack_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys, slack):
        code = cli.main(["gen", "--feasible", "--slack", slack, "-o", str(tmp_path / "x.lp")])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err == "error: slack must be positive and finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_gen_bad_size_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys):
        code = cli.main(["gen", "--infeasible", "-m", "1", "-o", str(tmp_path / "x.lp")])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_oracle_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.lp"
        path.write_text(TRIANGLE_MAX)
        code = cli.main(["oracle", str(path)])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "OPTIMAL"
        assert record["objective"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("bound", ["nan", "inf", "0"])
    def test_oracle_bound_must_be_finite_and_positive(self, tmp_path, capsys, bound):
        path = tmp_path / "tri.lp"
        path.write_text(TRIANGLE_MAX)
        code = cli.main(["oracle", str(path), "--bound", bound])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["1e+308", "1e+307"])
    def test_oracle_bound_whose_retry_overflows(self, tmp_path, capsys, bound):
        # an optimum on the box is retried at 10x the bound: past the float
        # maximum at 1e308, and with vertex residuals past it at 1e307
        path = tmp_path / "ray.lp"
        path.write_text("vars 1\nobjective max 1\nc 1 >= 0\n")
        code = cli.main(["oracle", str(path), "--bound", bound])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == (f"error: bound {bound} is too large: an optimum on the box is "
                                "retried with bound * 10, which overflows\n")
        assert cli.main(["oracle", str(path), "--bound", "1e300"]) == 2

    def test_oracle_bound_whose_vertices_overflow(self, tmp_path, capsys):
        # without an objective there is no retry, but a box vertex's residual
        # at 1e308 is already past the float maximum
        path = tmp_path / "quadrant.lp"
        path.write_text("vars 2\nc 1 0 >= 0\nc 0 1 >= 0\n")
        code = cli.main(["oracle", str(path), "--bound", "1e308"])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == ("error: bound 1e+308 is too large: the vertex arithmetic "
                                "overflows\n")
        assert cli.main(["oracle", str(path), "--bound", "1e300"]) == 0

    def test_oracle_bound_whose_scores_overflow(self, tmp_path, capsys):
        # the box vertex (1e306, 1e306) is representable, but its objective
        # score 2e309 is not
        path = tmp_path / "corner.lp"
        path.write_text("vars 2\nobjective min 1000 1000\nc 1 0 >= 0\nc 0 1 >= 0\n")
        code = cli.main(["oracle", str(path), "--bound", "1e306"])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == ("error: bound 1e+306 is too large: the vertex arithmetic "
                                "overflows\n")
        assert cli.main(["oracle", str(path), "--bound", "1e300"]) == 0

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

    @pytest.mark.parametrize("args", [["--infeasible", "-m", "1"], ["--feasible", "-n", "0"],
                                      ["--feasible", "--slack", "0"]])
    def test_bench_bad_generator_sizes_are_usage_errors(self, capsys, args):
        code = cli.main(["bench", *args])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("seeds", ["5..1", "x", "1..y"])
    def test_bench_bad_seeds_are_usage_errors(self, capsys, seeds):
        code = cli.main(["bench", "--feasible", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == f"error: bad --seeds value {seeds!r}\n"

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_bench_bad_epsilon_is_a_usage_error(self, capsys, epsilon):
        code = cli.main(["bench", "--feasible", "--seeds", "0..1", "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

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
