import csv
import io
import json
import re

import numpy as np
import pytest

import icir.cli as cli
from icir.cli import (RECORD_FIELDS, RunConfig, build_rhs, main,
                      run_experiment, run_suite)
from icir.gallery import poisson2d, tridiag
from icir.sparse import SparseSpd, matvec_f64


def write_mtx(A, path):
    lines = ["%%MatrixMarket matrix coordinate real symmetric",
             f"{A.n} {A.n} {A.nnz}"]
    for j in range(A.n):
        for p in range(A.col_ptr[j], A.col_ptr[j + 1]):
            lines.append(f"{A.row_idx[p] + 1} {j + 1} {float(A.values[p])!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def poisson_mtx(tmp_path):
    return write_mtx(poisson2d(10), tmp_path / "poisson10.mtx")


class TestBuildRhs:
    def test_ones_solution(self):
        A = tridiag(5)
        b, x = build_rhs(A)
        assert np.array_equal(x, np.ones(5))
        assert np.array_equal(b, matvec_f64(A, np.ones(5)))

    def test_identity(self):
        A = tridiag(3, diag=2.0, off=0.0)
        b, _ = build_rhs(A)
        assert np.array_equal(b, [2.0, 2.0, 2.0])


class TestRunConfig:
    def test_defaults(self):
        c = RunConfig(matrix_path="x.mtx")
        assert c.level == 0 and c.solver == "cg" and c.factor_format == "fp16"

    def test_bad_solver(self):
        with pytest.raises(ValueError):
            RunConfig(matrix_path="x.mtx", solver="jacobi")

    def test_bad_format(self):
        with pytest.raises(ValueError):
            RunConfig(matrix_path="x.mtx", factor_format="fp8")

    def test_bad_level(self):
        with pytest.raises(ValueError):
            RunConfig(matrix_path="x.mtx", level=-1)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"matrix_path": "x.mtx", "lvl": 2})

    def test_from_dict_roundtrip(self):
        c = RunConfig.from_dict({"matrix_path": "x.mtx", "level": 2,
                                 "solver": "gmres"})
        assert c.level == 2 and c.solver == "gmres"


class TestRunExperiment:
    def test_cg_converges(self, poisson_mtx):
        rec = run_experiment(RunConfig(matrix_path=poisson_mtx))
        assert rec.identifier == "poisson10"
        assert rec.n == 100
        assert rec.status == "converged"
        assert rec.resfinal <= 1.2e-13
        assert rec.res_unscaled <= 1.2e-13
        assert rec.totits >= rec.iouter >= 1
        assert rec.nnz_L == rec.nnz_A  # level 0, no shift growth

    def test_all_solvers(self, poisson_mtx):
        for solver in ("cg", "gmres", "lu-ir", "plain-krylov"):
            rec = run_experiment(RunConfig(matrix_path=poisson_mtx, solver=solver))
            assert rec.status == "converged", solver

    def test_determinism(self, poisson_mtx):
        c = RunConfig(matrix_path=poisson_mtx, level=1)
        r1, r2 = run_experiment(c), run_experiment(c)
        d1, d2 = r1.as_dict(), r2.as_dict()
        d1.pop("wall_seconds"), d2.pop("wall_seconds")
        assert d1 == d2

    def test_level_increases_fill(self, poisson_mtx):
        r0 = run_experiment(RunConfig(matrix_path=poisson_mtx, level=0))
        r2 = run_experiment(RunConfig(matrix_path=poisson_mtx, level=2))
        assert r2.nnz_L > r0.nnz_L
        assert r2.totits <= r0.totits

    def test_outer_itmax(self, poisson_mtx):
        rec = run_experiment(RunConfig(matrix_path=poisson_mtx, solver="lu-ir",
                                       outer_itmax=0))
        assert rec.status == "not-converged" and rec.iouter == 0

    @pytest.mark.parametrize("solver", ["cg", "gmres", "lu-ir", "plain-krylov"])
    def test_unset_limits_take_the_driver_defaults(self, poisson_mtx, monkeypatch, solver):
        calls = []
        for name in ("ic_krylov_ir", "ic_lu_ir"):
            def spy(*args, _real=getattr(cli, name), **kwargs):
                calls.append(kwargs)
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        run_experiment(RunConfig(matrix_path=poisson_mtx, solver=solver))
        run_experiment(RunConfig(matrix_path=poisson_mtx, solver=solver,
                                 inner_maxit=7, outer_itmax=3))
        limits = [{k: c[k] for k in ("inner_maxit", "itmax") if k in c} for c in calls]
        if solver == "plain-krylov":   # the CLI's own single long outer step
            assert limits == [{"inner_maxit": 2000, "itmax": 1}, {"inner_maxit": 7, "itmax": 3}]
        elif solver == "lu-ir":        # no inner solver
            assert limits == [{}, {"itmax": 3}]
        else:
            assert limits == [{}, {"inner_maxit": 7, "itmax": 3}]


class TestSuite:
    def test_empty_manifest(self, tmp_path):
        m = tmp_path / "suite.jsonl"
        m.write_text("# nothing but comments\n\n")
        records, errors = run_suite(str(m))
        assert records == [] and errors == []

    def test_two_runs_in_order(self, tmp_path, poisson_mtx):
        m = tmp_path / "suite.jsonl"
        m.write_text(
            json.dumps({"matrix_path": poisson_mtx, "level": 0}) + "\n" +
            json.dumps({"matrix_path": poisson_mtx, "level": 1,
                        "solver": "gmres"}) + "\n")
        records, errors = run_suite(str(m))
        assert errors == []
        assert len(records) == 2
        assert records[0].nnz_L < records[1].nnz_L

    def test_errors_do_not_stop_suite(self, tmp_path, poisson_mtx):
        m = tmp_path / "suite.jsonl"
        m.write_text(
            "not json\n" +
            json.dumps({"matrix_path": str(tmp_path / "missing.mtx")}) + "\n" +
            json.dumps({"matrix_path": poisson_mtx, "bogus_key": 1}) + "\n" +
            json.dumps({"matrix_path": poisson_mtx}) + "\n")
        records, errors = run_suite(str(m))
        assert len(records) == 1 and records[0].status == "converged"
        assert [e["line"] for e in errors] == [1, 2, 3]

    def test_every_bad_line_kind_is_recorded(self, tmp_path, poisson_mtx):
        bad_mtx = tmp_path / "bad.mtx"
        bad_mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                           "2 2 2\n1 1 4.0\n2.7 1.2 0.5\n")
        indefinite = write_mtx(tridiag(2, diag=-1.0, off=0.0), tmp_path / "neg.mtx")
        lines = [
            ("not json", "JSONDecodeError"),
            ("[1, 2]", "ValueError"),
            ({"level": 1}, "ValueError"),
            ({"matrix_path": poisson_mtx, "level": "3"}, "ValueError"),
            ({"matrix_path": poisson_mtx, "level": True}, "ValueError"),
            ({"matrix_path": poisson_mtx, "level": -1}, "ValueError"),
            ({"matrix_path": poisson_mtx, "delta": 0}, "ValueError"),
            ({"matrix_path": poisson_mtx, "delta_krylov": float("nan")}, "ValueError"),
            ({"matrix_path": poisson_mtx, "tau": "1e-5"}, "ValueError"),
            ({"matrix_path": poisson_mtx, "inner_maxit": 0}, "ValueError"),
            ({"matrix_path": poisson_mtx, "max_restarts": 2.5}, "ValueError"),
            ({"matrix_path": poisson_mtx, "solver": 3}, "ValueError"),
            ({"matrix_path": 7}, "ValueError"),
            ({"matrix_path": poisson_mtx, "bogus_key": 1}, "ValueError"),
            ({"matrix_path": poisson_mtx, "output": "json"}, "ValueError"),
            ({"matrix_path": str(tmp_path / "missing.mtx")}, "FileNotFoundError"),
            ({"matrix_path": str(bad_mtx)}, "MatrixFormatError"),
            ({"matrix_path": indefinite, "max_restarts": 1}, "ShiftRestartError"),
            # the first shift after the breakdown is beyond fp16's range
            ({"matrix_path": indefinite, "shift_init": 1e6}, "FactorizationError"),
            ({"matrix_path": poisson_mtx}, None),
        ]
        m = tmp_path / "suite.jsonl"
        m.write_text("".join((t if isinstance(t, str) else json.dumps(t)) + "\n"
                             for t, _ in lines))
        records, errors = run_suite(str(m))
        assert len(records) == 1 and records[0].status == "converged"
        assert [(e["line"], e["error"]) for e in errors] == \
            [(i, kind) for i, (_, kind) in enumerate(lines, 1) if kind]


class TestMain:
    def test_requires_matrix_or_suite(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["--matrix", "a.mtx", "--suite", "b.jsonl"])

    def test_suite_rejects_run_flags(self, tmp_path, poisson_mtx, capsys):
        m = tmp_path / "suite.jsonl"
        m.write_text(json.dumps({"matrix_path": poisson_mtx}) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--suite", str(m), "--level", "3", "--format", "bf16", "--output", "json"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "icir: error: --suite does not take run flags: --level, --format"

    def test_csv_stdout(self, poisson_mtx, capsys):
        assert main(["--matrix", poisson_mtx]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert list(rows[0]) == RECORD_FIELDS
        assert rows[0]["status"] == "converged"

    def test_json_to_file(self, poisson_mtx, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["--matrix", poisson_mtx, "--output", "json",
                     "--out", str(out), "--level", "1", "--solver", "gmres"]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 1
        assert set(data[0]) == set(RECORD_FIELDS) | {"inner_statuses", "overflow_fallbacks",
                                                      "attempts"}
        assert data[0]["status"] == "converged"
        assert len(data[0]["inner_statuses"]) == data[0]["iouter"]
        assert data[0]["overflow_fallbacks"] == 0
        assert data[0]["attempts"] == []

    def test_inner_status_reaches_json_not_csv(self, tmp_path, capsys):
        # indefinite: the fp16 factor needs alpha = 1.024 after 11 B1
        # restarts, then CG stops at step 0 on small curvature
        A = SparseSpd.from_coo(3, [0, 1, 2, 1], [0, 1, 2, 0], [4, -1, 4, 0.5])
        path = write_mtx(A, tmp_path / "indefinite.mtx")
        assert main(["--matrix", path, "--output", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)[0]
        assert rec["inner_statuses"] == ["small_curvature"]
        assert rec["status"] == "not-converged" and rec["alpha"] == 1.024
        assert [a["alpha"] for a in rec["attempts"]] == [0.0] + [1e-3 * 2 ** i for i in range(10)]
        assert {a["kind"] for a in rec["attempts"]} == {"B1"}
        assert main(["--matrix", path]) == 0
        header = next(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert header == RECORD_FIELDS == [
            "identifier", "n", "nnz_A", "normA", "normb", "nnz_L", "alpha", "nmod", "nofl",
            "resinit", "resfinal", "res_unscaled", "iouter", "totits", "maxbasis", "status",
            "wall_seconds"]

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["--matrix", str(tmp_path / "nope.mtx")]) == 1

    def test_suite_with_errors_exit_code(self, tmp_path, poisson_mtx):
        m = tmp_path / "suite.jsonl"
        m.write_text("not json\n" +
                     json.dumps({"matrix_path": poisson_mtx}) + "\n")
        assert main(["--suite", str(m)]) == 1

    def test_suite_clean_exit_code(self, tmp_path, poisson_mtx):
        m = tmp_path / "suite.jsonl"
        m.write_text(json.dumps({"matrix_path": poisson_mtx}) + "\n")
        assert main(["--suite", str(m)]) == 0

    @pytest.mark.parametrize("flags, error", [
        (["--max-restarts", "1"], "ShiftRestartError"),
        # the first shift after the breakdown is beyond fp16's range
        (["--shift-init", "1e6"], "FactorizationError"),
    ])
    def test_run_failure_exit_code(self, tmp_path, capsys, flags, error):
        indefinite = write_mtx(tridiag(2, diag=-1.0, off=0.0), tmp_path / "neg.mtx")
        assert main(["--matrix", indefinite, *flags]) == 1
        assert f"error: {error}:" in capsys.readouterr().err

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        flags = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"-h", "--help", "--matrix", "--suite", "--level", "--format",
                         "--solver", "--delta", "--delta-krylov", "--inner-maxit",
                         "--outer-itmax", "--tau", "--shift-init", "--max-restarts",
                         "--output", "--out"}
