import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import icir.cli as cli
import oracles
from icir.cli import (RECORD_FIELDS, RunConfig, build_rhs, main,
                      run_experiment, run_suite)
from icir.factor import FactorizationError, ShiftRestartError
from icir.gallery import poisson2d, tridiag, wathen
from icir.sparse import SparseSpd, matvec_f64
from icir.symbolic import ic_pattern
from icir.trisolve import _records


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


def strict_json(text):
    """text parsed as JSON that a strict parser reads: no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


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

    @pytest.mark.parametrize("diag", [(1e300, 1e-300), (1e-310, 1e-310)])
    @pytest.mark.parametrize("solver", ["cg", "gmres", "lu-ir"])
    @pytest.mark.parametrize("fmt", ["fp16", "bf16"])
    def test_column_norms_outside_the_fp64_range(self, tmp_path, diag, solver, fmt):
        path = write_mtx(SparseSpd(2, [0, 1, 2], [0, 1], list(diag)), tmp_path / "extreme.mtx")
        rec = run_experiment(RunConfig(matrix_path=path, solver=solver, factor_format=fmt))
        assert rec.status == "converged"

    def test_row_sums_beyond_fp64_fail_the_run(self, tmp_path):
        A = SparseSpd(2, [0, 2, 3], [0, 1, 1], [1.7e308, 1e308, 1.7e308])
        with pytest.raises(ValueError, match="row sums overflow"):
            run_experiment(RunConfig(matrix_path=write_mtx(A, tmp_path / "big.mtx")))

    def test_determinism(self, poisson_mtx):
        c = RunConfig(matrix_path=poisson_mtx, level=1)
        r1, r2 = run_experiment(c), run_experiment(c)
        d1, d2 = r1.as_dict(), r2.as_dict()
        for seconds in ("wall_seconds", "read_s", "scale_s", "pattern_s", "factor_s", "solve_s"):
            d1.pop(seconds), d2.pop(seconds)
        assert d1 == d2

    def test_lu_ir_divergence_is_the_status(self, tmp_path):
        # the indefinite matrix of test_inner_status_reaches_json_not_csv,
        # where LU-IR's iteration matrix has an eigenvalue near 10
        A = SparseSpd.from_coo(3, [0, 1, 2, 1], [0, 1, 2, 0], [4, -1, 4, 0.5])
        path = write_mtx(A, tmp_path / "indefinite.mtx")
        rec = run_experiment(RunConfig(matrix_path=path, solver="lu-ir"))
        assert rec.status == "diverged" and rec.iouter < 1000

    @pytest.mark.parametrize("values, fmt", [
        # lower triangle (0, 0), (1, 1) and (1, 0); the x of both overflows fp64
        # once unscaled, and its residual is NaN
        ([-1.0111527380795538e-145, 1.1557688898817532e-146, 0.0], "bf16"),
        ([-7.22676519331039e+66, -1.2765465817880722e+65, -5.293301751538056e+61], "fp32")])
    def test_diverged_lu_ir_ends_as_a_status_in_strict_json(self, tmp_path, capsys,
                                                           values, fmt):
        A = SparseSpd.from_coo(2, [0, 1, 1], [0, 1, 0], values)
        path = write_mtx(A, tmp_path / "diverges.mtx")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--matrix", path, "--level", "1", "--format", fmt,
                         "--solver", "lu-ir", "--output", "json"])
        assert code == 0 and caught == []
        out, err = capsys.readouterr()
        rec = strict_json(out)[0]
        assert rec["status"] == "diverged" and rec["res_unscaled"] is None
        assert err.endswith("[diverged]\n") and err.count("\n") == 1   # the summary only

    @pytest.mark.parametrize("level", [0, 2])
    def test_work_counts_match_the_oracle(self, tmp_path, level):
        # depth is the longest chain of the elimination's dependencies, plus
        # one, factor_steps the last pivot step of the column-by-column step
        # times, plus one, and update_pairs_enumerated the pairs i <= j of
        # off-diagonal rows of one column, over all columns
        for A in (wathen(3, 2, seed=1), poisson2d(5)):
            path = write_mtx(A, tmp_path / "a.mtx")
            rec = run_experiment(RunConfig(matrix_path=path, solver="lu-ir",
                                           factor_format="bf16", level=level))
            pattern = ic_pattern(A, level)
            cp, ri = pattern.col_ptr, pattern.row_idx
            chain = [0] * A.n
            pairs = 0
            for k in range(A.n):
                rows = ri[cp[k] + 1:cp[k + 1]].tolist()
                for i in rows:
                    chain[i] = max(chain[i], chain[k] + 1)
                pairs += sum(i <= j for i in rows for j in rows)
            _, P = oracles.step_times(cp, ri)
            assert (rec.depth, rec.factor_steps) == (max(chain) + 1, max(P) + 1)
            assert rec.update_pairs_enumerated == pairs
            # each solve takes one group per run of levels, at least one and
            # at most one per level
            assert rec.solve_groups == [len(_records(pattern, forward)[2])
                                        for forward in (True, False)]
            assert all(1 <= groups <= rec.depth for groups in rec.solve_groups)

    def test_level_increases_fill(self, poisson_mtx):
        r0 = run_experiment(RunConfig(matrix_path=poisson_mtx, level=0))
        r2 = run_experiment(RunConfig(matrix_path=poisson_mtx, level=2))
        assert r2.nnz_L > r0.nnz_L
        assert r2.totits <= r0.totits

    def test_outer_itmax(self, poisson_mtx):
        rec = run_experiment(RunConfig(matrix_path=poisson_mtx, solver="lu-ir",
                                       outer_itmax=0))
        assert rec.status == "not-converged" and rec.iouter == 0

    def test_blas_and_its_thread_settings(self, poisson_mtx, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        rec = run_experiment(RunConfig(matrix_path=poisson_mtx))
        assert rec.blas_threads["OPENBLAS_NUM_THREADS"] == "3"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert rec.blas == f"{blas['name']} {blas['version']}"

        def old_show_config():   # NumPy < 1.26 takes no mode
            pass

        monkeypatch.setattr(cli.np, "show_config", old_show_config)
        assert run_experiment(RunConfig(matrix_path=poisson_mtx)).blas == "unknown"

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


@st.composite
def small_runs(draw):
    """The Matrix Market text of a symmetric matrix of order n <= 12, with
    entries of any sign and of magnitudes from 1e-320 to 1e307, one diagonal
    missing in about one matrix of 7, and a level, format and solver for it."""
    n = draw(st.integers(1, 12))
    missing = draw(st.integers(0, 7 * n))   # a diagonal if below n
    off = [(i, j) for j in range(n) for i in range(j + 1, n)]
    entries = [(j, j) for j in range(n) if j != missing]
    entries += sorted(draw(st.sets(st.sampled_from(off), max_size=2 * n))) if off else []
    exponents = draw(st.lists(st.floats(-320.0, 307.0), min_size=len(entries),
                              max_size=len(entries)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(entries),
                          max_size=len(entries)))
    lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {len(entries)}"]
    lines += [f"{i + 1} {j + 1} {s * 10.0 ** e!r}"
              for (i, j), e, s in zip(entries, exponents, signs)]
    return ("\n".join(lines) + "\n", draw(st.integers(0, 3)),
            draw(st.sampled_from(["fp16", "bf16", "fp32", "fp64"])),
            draw(st.sampled_from(cli.SOLVERS)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_runs())
def test_every_small_run_ends_as_a_record_or_a_named_error(tmp_path, run):
    text, level, fmt, solver = run
    path = tmp_path / "small.mtx"
    path.write_text(text)
    config = RunConfig(matrix_path=str(path), level=level, factor_format=fmt, solver=solver)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rec = run_experiment(config)
        except (ValueError, FactorizationError, ShiftRestartError):
            rec = None
    assert caught == []
    if rec is not None:
        buf = io.StringIO()
        cli._write_records([rec], "json", buf)
        assert strict_json(buf.getvalue())[0]["status"] == rec.status


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
        stages = ["read_s", "scale_s", "pattern_s", "factor_s", "solve_s"]
        assert set(data[0]) == set(RECORD_FIELDS) | {"inner_statuses", "overflow_fallbacks",
                                                      "attempts", "squeeze_dropped",
                                                      "squeeze_flushed", *stages,
                                                      "depth", "solve_groups",
                                                      "factor_steps",
                                                      "update_pairs_enumerated",
                                                      "blas", "blas_threads"}
        assert all(data[0][s] > 0.0 for s in stages)   # each stage was timed
        assert sum(data[0][s] for s in stages) <= data[0]["wall_seconds"]
        assert data[0]["status"] == "converged"
        assert len(data[0]["inner_statuses"]) == data[0]["iouter"]
        assert data[0]["overflow_fallbacks"] == 0
        assert data[0]["attempts"] == []
        assert data[0]["squeeze_dropped"] == data[0]["squeeze_flushed"] == 0

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

    def test_squeeze_counts_reach_json_not_csv(self, tmp_path, capsys):
        # after scaling, 1e-9 rounds to zero in fp16 and 1e-6 to a subnormal
        A = SparseSpd.from_coo(3, [0, 1, 2, 1, 2], [0, 1, 2, 0, 1], [1, 1, 1, 1e-9, 1e-6])
        path = write_mtx(A, tmp_path / "tiny.mtx")
        assert main(["--matrix", path, "--output", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)[0]
        assert (rec["squeeze_dropped"], rec["squeeze_flushed"]) == (1, 1)
        assert main(["--matrix", path]) == 0
        assert next(csv.reader(io.StringIO(capsys.readouterr().out))) == RECORD_FIELDS
        assert "squeeze_dropped" not in RECORD_FIELDS

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

    @pytest.mark.parametrize("target", [".", "missing/rec.csv"])
    def test_unusable_out_fails_before_running(self, tmp_path, poisson_mtx, capsys,
                                                monkeypatch, target):
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        assert main(["--matrix", poisson_mtx, "--out", str(tmp_path / target)]) == 1
        assert ran == []
        assert capsys.readouterr().err.startswith("error: OSError: --out ")

    def test_write_failure_exit_code(self, tmp_path, poisson_mtx, capsys, monkeypatch):
        def refuse(path, text):
            raise PermissionError(f"[Errno 13] Permission denied: '{path}'")

        monkeypatch.setattr(cli.Path, "write_text", refuse)
        assert main(["--matrix", poisson_mtx, "--out", str(tmp_path / "rec.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: PermissionError: [Errno 13]")

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        flags = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"-h", "--help", "--matrix", "--suite", "--level", "--format",
                         "--solver", "--delta", "--delta-krylov", "--inner-maxit",
                         "--outer-itmax", "--tau", "--shift-init", "--max-restarts",
                         "--output", "--out"}

    def test_module_entry_point_runs_under_warning_errors(self):
        # importing the package must not import icir.cli before runpy runs it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "icir.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage:")
