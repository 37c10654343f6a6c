"""Benchmark plumbing: configs, manifests, trace files, profiles, CLI."""
import math
import types

import numpy as np
import pytest

from minresls import bench, checks, cli
from minresls.bench import (
    BUILTIN_CONFIGS,
    ParsedTrace,
    apply_setting,
    builtin_config,
    emit_trace,
    load_trace_dir,
    parse_manifest,
    parse_trace,
    parse_trace_text,
    performance_profile,
    repeat_rng,
    run_suite,
    table_from_traces,
    trace_filename,
    write_profile_csv,
    write_suite,
)
from minresls.driver import CONVERGED, RunTrace
from minresls.problems import REGISTRY, ProblemSpec, quadratic
from minresls.reference import profile_fraction_reference


MANIFEST = """\
# two cells, one with repeats
problem=quadratic p.n=6 config=newton_mr seed=3 repeats=2
problem=quartic_saddle p.n=4 config=coupled seed=5 label=co
"""


@pytest.fixture(scope="module")
def suite_traces():
    cells = parse_manifest(MANIFEST)
    return cells, run_suite(cells)


class TestConfigs:
    def test_builtins(self):
        for name in BUILTIN_CONFIGS:
            cfg = builtin_config(name)
            assert cfg.schedule.mode == name
        assert builtin_config("lbfgs_mr").hessian == "lbfgs"
        assert builtin_config("coupled").hessian == "exact"
        with pytest.raises(ValueError,
                           match="unknown config 'bfgs'; builtins: newton_mr, lbfgs_mr"):
            builtin_config("bfgs")

    def test_apply_setting_levels(self):
        cfg = builtin_config("newton_mr")
        cfg = apply_setting(cfg, "max_inner", "77")
        cfg = apply_setting(cfg, "schedule.alpha", "0.5")
        cfg = apply_setting(cfg, "linesearch.shrink", "0.25")
        cfg = apply_setting(cfg, "check_invariants", "TRUE")
        assert cfg.max_inner == 77
        assert cfg.schedule.alpha == 0.5
        assert cfg.linesearch.shrink == 0.25
        assert cfg.check_invariants is True

    def test_apply_setting_revalidates(self):
        cfg = builtin_config("newton_mr")
        with pytest.raises(ValueError, match="tol_cap"):
            apply_setting(cfg, "schedule.tol_cap", "1.5")

    def test_apply_setting_rejects_unknown(self):
        cfg = builtin_config("newton_mr")
        with pytest.raises(ValueError, match="unknown config key"):
            apply_setting(cfg, "momentum", "0.9")
        with pytest.raises(ValueError, match="unknown config key"):
            apply_setting(cfg, "schedule.gamma", "1.0")
        with pytest.raises(ValueError, match="bad value"):
            apply_setting(cfg, "max_inner", "many")


class TestManifests:
    def test_cells_and_problem_ids(self):
        cells = parse_manifest(MANIFEST)
        assert [c.problem_id for c in cells] == ["quadratic(n=6)",
                                                 "quartic_saddle(n=4)"]
        assert [c.label for c in cells] == ["newton_mr", "co"]
        assert [c.repeats for c in cells] == [2, 1]
        assert cells[0].seed == 3

    def test_tuple_parameter(self):
        cells = parse_manifest(
            "problem=quartic_saddle p.spectrum=1.0,-1.0 config=newton_mr seed=0\n")
        assert cells[0].params["spectrum"] == (1.0, -1.0)
        assert cells[0].problem_id == "quartic_saddle(spectrum=1.0;-1.0)"
        assert cells[0].spec.dim == 2

    def test_overrides_reach_solver_config(self):
        cells = parse_manifest(
            "problem=quadratic config=newton_mr seed=0 grad_tol=1e-6 "
            "schedule.alpha=0.5\n")
        assert cells[0].cfg.grad_tol == 1e-6
        assert cells[0].cfg.schedule.alpha == 0.5

    def test_lbfgs_memory_override(self):
        cells = parse_manifest("problem=quadratic config=lbfgs_mr seed=0 lbfgs_memory=3\n")
        assert cells[0].cfg.lbfgs_memory == 3

    @pytest.mark.parametrize("line,fragment", [
        ("problem=quadratic config=newton_mr", "missing required key 'seed'"),
        ("config=newton_mr seed=1", "missing required key 'problem'"),
        ("problem=quadratic seed=1", "missing required key 'config'"),
        ("problem=quadratic config=newton_mr seed=x", "must be integers"),
        ("problem=quadratic config=newton_mr seed=-1", "seed >= 0"),
        ("problem=quadratic config=newton_mr seed=1 repeats=0", "repeats >= 1"),
        ("problem=nope config=newton_mr seed=1", "unknown problem"),
        ("problem=quadratic config=nope seed=1", "unknown config"),
        ("problem=quadratic config=tight.cfg seed=1",
         "unknown config 'tight.cfg'; builtins: newton_mr, lbfgs_mr, coupled"),
        ("problem=quadratic config=newton_mr seed=1 max_inner=soon", "bad value"),
        ("problem=quadratic config=newton_mr seed=1 label=a/b", "characters outside"),
        ("problem=quadratic problem=toy_sine config=newton_mr seed=1", "duplicate key"),
        ("problem=quadratic p.n=4 p.n=5 config=newton_mr seed=1",
         "bad or duplicate parameter"),
        ("problem=quadratic p.n=4 config=newton_mr seed=1 grad_tol=1e-3 grad_tol=1e-9",
         "duplicate key 'grad_tol'"),
        ("problem=quadratic config=newton_mr seed=1 schedule.beta=0.5 schedule.beta=0.5",
         "duplicate key 'schedule.beta'"),
        ("problem=quadratic config=newton_mr seed=1 junk", "not key=value"),
        ("problem=quadratic p.m=4 config=newton_mr seed=1", "unexpected keyword"),
        ("problem=quadratic p.spectrum=1,nan config=newton_mr seed=1",
         "spectrum contains non-finite entries"),
        ("problem=quadratic p.spectrum=1,inf config=newton_mr seed=1",
         "spectrum contains non-finite entries"),
        ("problem=quartic_saddle p.spectrum=1,nan,-1 config=newton_mr seed=1",
         "spectrum contains non-finite entries"),
        ("problem=quadratic p.n=0 config=newton_mr seed=1", "n must be positive"),
        ("problem=quadratic p.spectrum=1,2,3 p.n=5 config=newton_mr seed=1",
         "n and spectrum exclude each other"),
        ("problem=quadratic p.spectrum=1e308,1e308,1e308,1e308 config=newton_mr seed=1",
         "gradient norm overflows"),
        ("problem=quadratic config=newton_mr seed=1 schedule.shift_cap=nan",
         "shift_cap must be positive"),
        ("problem=quadratic config=newton_mr seed=1 schedule.beta=nan",
         "beta and zeta_mult must be positive"),
        ("problem=quadratic config=newton_mr seed=1 schedule.zeta_mult=nan",
         "beta and zeta_mult must be positive"),
        ("problem=quadratic config=lbfgs_mr seed=1 schedule.npc_curvature_cap=nan",
         "npc_curvature_cap must be positive"),
        ("problem=quadratic config=lbfgs_mr seed=1 schedule.npc_curvature_cap=0",
         "npc_curvature_cap must be positive"),
        ("problem=quadratic config=newton_mr seed=1 grad_tol=nan",
         "grad_tol must be >= 0"),
        ("problem=quadratic config=newton_mr seed=1 max_oracles=nan",
         "max_oracles > 0"),
        ("problem=quadratic config=lbfgs_mr seed=1 lbfgs_memory=0",
         "lbfgs_memory must be at least 1"),
        ("problem=quadratic config=lbfgs_mr seed=1 lbfgs_memory=2.5",
         "bad value '2.5' for config key 'lbfgs_memory'"),
    ])
    def test_rejects_bad_lines_with_numbers(self, line, fragment):
        with pytest.raises(ValueError, match="m:1"):
            parse_manifest(line + "\n", origin="m")
        with pytest.raises(ValueError) as exc:
            parse_manifest(line + "\n", origin="m")
        assert fragment in str(exc.value)

    def test_failed_self_test_is_tagged(self, monkeypatch):
        def broken(n=3):
            spec = quadratic(n=n)
            return ProblemSpec("broken", n, spec._f, lambda x: 2.0 * x, spec._hvp,
                               spec._start)
        monkeypatch.setitem(REGISTRY, "broken", broken)
        with pytest.raises(ValueError, match="m:2: broken: gradient gap"):
            parse_manifest("problem=quadratic config=newton_mr seed=1\n"
                           "problem=broken config=newton_mr seed=1\n", origin="m")

    def test_line_numbers_skip_comments(self):
        text = "# header\n\nproblem=quadratic config=newton_mr seed=bad\n"
        with pytest.raises(ValueError, match="m:3"):
            parse_manifest(text, origin="m")

    def test_empty_manifest(self):
        with pytest.raises(ValueError, match="no runnable cells"):
            parse_manifest("# nothing here\n")

    def test_rejects_cells_whose_traces_would_collide(self):
        line = "problem=quadratic p.n=4 config=newton_mr seed=1"
        with pytest.raises(ValueError) as exc:
            parse_manifest(f"{line}\n# tighter\n{line} grad_tol=1e-3\n", origin="m")
        assert str(exc.value).startswith(
            "m:3: same label 'newton_mr', problem 'quadratic(n=4)' and seed 1 as line 1;")
        assert "label=" in str(exc.value)
        # a label, another seed or other parameters keep the traces apart
        cells = parse_manifest(f"{line}\n{line} grad_tol=1e-3 label=loose\n"
                               f"{line.replace('seed=1', 'seed=2')}\n"
                               f"{line.replace('p.n=4', 'p.n=5')}\n")
        assert [c.label for c in cells] == ["newton_mr", "loose", "newton_mr", "newton_mr"]


class TestExecution:
    def test_manifest_order_and_metadata(self, suite_traces):
        cells, traces = suite_traces
        assert len(traces) == 3
        assert [t.problem for t in traces] == ["quadratic(n=6)", "quadratic(n=6)",
                                               "quartic_saddle(n=4)"]
        assert [t.config for t in traces] == ["newton_mr", "newton_mr", "co"]
        assert [t.repeat for t in traces] == [0, 1, 0]
        assert all(t.status == CONVERGED for t in traces)

    def test_repeats_draw_distinct_starts(self):
        a = repeat_rng(3, 0).uniform(0.0, 1.0, 6)
        b = repeat_rng(3, 1).uniform(0.0, 1.0, 6)
        assert not np.array_equal(a, b)
        # and the stream is stable across calls
        assert np.array_equal(a, repeat_rng(3, 0).uniform(0.0, 1.0, 6))

    def test_filenames_are_deterministic(self, suite_traces):
        _, traces = suite_traces
        assert trace_filename(0, traces[0]) == \
            "0000_newton_mr_quadratic-n-6-_s3r0.trace"


class TestTraceFiles:
    def test_round_trip_exact(self, tmp_path, suite_traces):
        _, traces = suite_traces
        trace = traces[2]           # saddle run, has NPC records
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        parsed = parse_trace(path)
        assert len(parsed.records) == trace.iters
        for rec, r in zip(parsed.records, trace.records):
            assert rec["k"] == r.k
            assert rec["f"] == r.f                      # exact, 17 digits
            assert rec["gnorm"] == r.gnorm
            assert rec["flag"] == r.flag
            assert rec["lambda"] == r.step
            assert rec["inner_iters"] == r.inner_iters
            assert rec["theta_k"] == r.theta
            assert rec["zeta_k"] == r.zeta
            assert rec["oracles"] == r.oracles
        s = parsed.summary
        assert s["status"] == trace.status
        assert s["final_f"] == trace.f_final
        assert s["final_gnorm"] == trace.gnorm_final
        assert s["iters"] == trace.iters
        assert s["seed"] == trace.seed and s["repeat"] == trace.repeat

    def test_summary_only_file(self, tmp_path):
        trace = RunTrace(status=CONVERGED, records=[], f_final=0.25,
                         gnorm_final=0.0, x_final=None, iters=0, oracles=2.0,
                         time_ms=0.1)
        path = tmp_path / "empty.trace"
        emit_trace(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("summary ")
        parsed = parse_trace(path)
        assert parsed.records == []
        assert parsed.summary["seed"] is None and parsed.summary["repeat"] is None

    def test_plot_columns_via_flag_filter(self, tmp_path, suite_traces):
        # Figure-style data: k vs log10 gnorm, certificate steps marked by flag
        _, traces = suite_traces
        trace = traces[2]
        expected = sum(1 for r in trace.records if r.flag == "NPC")
        assert expected >= 1
        p = tmp_path / "x.trace"
        emit_trace(trace, p)
        parsed = parse_trace(p)
        points = [(rec["k"], math.log10(rec["gnorm"]), rec["flag"] == "NPC")
                  for rec in parsed.records]
        assert sum(1 for _, _, is_npc in points if is_npc) == expected
        assert all(isinstance(k, int) for k, _, _ in points)

    def test_parse_errors(self):
        good = "summary problem=p config=c seed=- repeat=- status=CONVERGED " \
               "iters=0 oracles=1 final_f=0 final_gnorm=0 time_ms=1\n"
        with pytest.raises(ValueError, match="missing summary"):
            parse_trace_text("", origin="t")
        with pytest.raises(ValueError, match="t:2.*content after the summary"):
            parse_trace_text(good + "k=1\n", origin="t")
        with pytest.raises(ValueError, match=r"t:1.*record missing.*\bgnorm\b"):
            parse_trace_text("k=1 f=0\n" + good, origin="t")
        with pytest.raises(ValueError, match="t:1.*summary missing"):
            parse_trace_text("summary status=CONVERGED\n", origin="t")
        with pytest.raises(ValueError, match="duplicate field"):
            parse_trace_text("summary status=A status=B\n", origin="t")
        with pytest.raises(ValueError, match="bad value"):
            parse_trace_text(good.replace("iters=0", "iters=zero"), origin="t")
        with pytest.raises(ValueError, match="bad token"):
            parse_trace_text("summary junk\n", origin="t")

    def test_write_error_carries_path(self, tmp_path):
        trace = RunTrace(status=CONVERGED, records=[], f_final=0.0,
                         gnorm_final=0.0, x_final=None, iters=0, oracles=1.0,
                         time_ms=0.0)
        target = tmp_path / "missing-dir" / "x.trace"
        with pytest.raises(OSError, match="cannot write trace"):
            emit_trace(trace, target)

    def test_write_suite_refuses_a_directory_holding_traces(self, tmp_path, suite_traces):
        _, traces = suite_traces
        out = tmp_path / "traces"
        assert len(write_suite(traces, out)) == 3
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(FileExistsError, match=r"traces already holds 3 \*\.trace files"):
            write_suite(traces[:1], out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # other files do not count
        other = tmp_path / "other"
        other.mkdir()
        (other / "notes.txt").write_text("kept\n")
        assert len(write_suite(traces, other)) == 3

    def test_load_trace_dir_requires_traces(self, tmp_path):
        with pytest.raises(ValueError, match="no .*files"):
            load_trace_dir(tmp_path)


def mk_summary(solver, problem, status, oracles, seed=None, repeat=None):
    return ParsedTrace(records=[], summary={
        "problem": problem, "config": solver, "seed": seed, "repeat": repeat,
        "status": status, "iters": 1, "oracles": float(oracles),
        "final_f": 0.0, "final_gnorm": 0.0, "time_ms": 1.0,
    })


class TestMetricTables:
    def test_metric_selection(self):
        s = [mk_summary("a", "p", "CONVERGED", 12.0)]
        assert table_from_traces(s, "oracles")[("a", "p")] == (12.0, True)
        assert table_from_traces(s, "f")[("a", "p")] == (0.0, True)
        assert table_from_traces(s, "time")[("a", "p")] == (1.0, True)
        s2 = [mk_summary("a", "p", "BUDGET", 12.0)]
        assert table_from_traces(s2, "oracles")[("a", "p")] == (12.0, False)
        with pytest.raises(ValueError, match="unknown metric"):
            table_from_traces(s, "iterations")

    def test_instance_keys_include_seed_and_repeat(self):
        parsed = [mk_summary("a", "p", "CONVERGED", 1.0, seed=7, repeat=0),
                  mk_summary("a", "p", "CONVERGED", 2.0, seed=7, repeat=1)]
        table = table_from_traces(parsed, "oracles")
        assert set(table) == {("a", "p#s7r0"), ("a", "p#s7r1")}

    def test_duplicate_cell_rejected(self):
        parsed = [mk_summary("a", "p", "CONVERGED", 1.0),
                  mk_summary("a", "p", "CONVERGED", 2.0)]
        with pytest.raises(ValueError, match="duplicate trace"):
            table_from_traces(parsed, "oracles")


class TestProfiles:
    def test_hand_example(self):
        table = {("A", "p"): (10.0, True), ("B", "p"): (20.0, True)}
        prof = performance_profile(table)
        assert prof.ratios[("A", "p")] == 1.0
        assert prof.ratios[("B", "p")] == 2.0
        assert prof.taus == [1.0, 2.0]
        assert prof.fractions["A"] == [1.0, 1.0]
        assert prof.fractions["B"] == [0.0, 1.0]

    def test_single_solver_profile_is_one(self):
        table = {("A", "p1"): (5.0, True), ("A", "p2"): (8.0, True)}
        prof = performance_profile(table)
        assert prof.taus == [1.0]
        assert prof.fractions["A"] == [1.0]

    def test_failing_solver_profile_is_zero(self):
        table = {("A", "p1"): (1.0, True), ("B", "p1"): (1.0, False),
                 ("A", "p2"): (2.0, True), ("B", "p2"): (0.5, False)}
        prof = performance_profile(table)
        assert all(f == 0.0 for f in prof.fractions["B"])
        assert all(f == 1.0 for f in prof.fractions["A"])
        assert prof.ratios[("B", "p1")] == math.inf
        # the failed 0.5 never becomes the baseline
        assert prof.ratios[("A", "p2")] == 1.0

    def test_unsolvable_problem_stays_in_denominator(self):
        table = {("A", "p1"): (1.0, True), ("B", "p1"): (2.0, True),
                 ("A", "p2"): (1.0, False), ("B", "p2"): (1.0, False)}
        prof = performance_profile(table)
        assert ("A", "p2") not in prof.ratios
        assert prof.fractions["A"][-1] == 0.5
        assert prof.fractions["B"][-1] == 0.5

    def test_zero_baseline(self):
        table = {("A", "p"): (0.0, True), ("B", "p"): (0.5, True)}
        prof = performance_profile(table)
        assert prof.ratios[("A", "p")] == 1.0
        assert prof.ratios[("B", "p")] == math.inf

    def test_missing_cell_counts_as_failure(self):
        table = {("A", "p1"): (1.0, True), ("A", "p2"): (2.0, True),
                 ("B", "p1"): (1.5, True)}
        prof = performance_profile(table)
        assert prof.ratios[("B", "p2")] == math.inf
        assert prof.fractions["B"][-1] == 0.5

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            performance_profile({})

    def test_matches_plain_recount(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            table = {}
            solvers = ["s1", "s2", "s3"]
            problems = [f"p{i}" for i in range(6)]
            for s in solvers:
                for p in problems:
                    table[(s, p)] = (float(rng.uniform(0.5, 3.0)),
                                     bool(rng.uniform() < 0.8))
            prof = performance_profile(table)
            for s in solvers:
                for tau, frac in zip(prof.taus, prof.fractions[s]):
                    assert frac == profile_fraction_reference(table, s, tau)

    def test_csv_output(self, tmp_path):
        table = {("A", "p"): (10.0, True), ("B", "p"): (20.0, True)}
        prof = performance_profile(table)
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert len(lines) == 1 + len(prof.solvers) * len(prof.taus)
        assert lines[1] == "A,1,1"


class TestCli:
    def test_run_and_profile_round_trip(self, tmp_path, capsys):
        manifest = tmp_path / "suite.manifest"
        manifest.write_text(
            "problem=quadratic p.n=5 config=newton_mr seed=1 repeats=2\n"
            "problem=quadratic p.n=5 config=lbfgs_mr seed=1 repeats=2\n")
        out = tmp_path / "traces"
        assert cli.main(["run", "--manifest", str(manifest),
                         "--out", str(out)]) == 0
        assert len(list(out.glob("*.trace"))) == 4
        assert "wrote 4 traces" in capsys.readouterr().out

        csv_path = tmp_path / "prof.csv"
        assert cli.main(["profile", "--traces", str(out), "--metric", "oracles",
                         "--out", str(csv_path)]) == 0
        assert "2 solvers x 2 instances" in capsys.readouterr().out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert len(lines) > 1

    def test_run_into_a_directory_holding_traces_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "suite.manifest"
        manifest.write_text("problem=quadratic p.n=5 config=newton_mr seed=1 repeats=2\n")
        out = tmp_path / "traces"
        argv = ["run", "--manifest", str(manifest), "--out", str(out)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f"{out} already holds 2 *.trace files" in captured.err
        assert "wrote" not in captured.out
        assert len(list(out.glob("*.trace"))) == 2

    def test_run_refuses_a_directory_holding_traces_before_solving(
            self, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "suite.manifest"
        manifest.write_text("problem=quadratic p.n=5 config=newton_mr seed=1\n")
        out = tmp_path / "traces"
        out.mkdir()
        (out / "old.trace").write_text("")
        calls = []

        def no_solve(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solve called")

        monkeypatch.setattr(bench, "solve", no_solve)
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"{out} already holds 1 *.trace files" in capsys.readouterr().err
        assert calls == []

    def test_config_file_token_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "suite.manifest"
        manifest.write_text("problem=quadratic config=tight.cfg seed=1\n")
        (tmp_path / "tight.cfg").write_text("grad_tol = 1e-9\n")
        assert cli.main(["run", "--manifest", str(manifest),
                         "--out", str(tmp_path / "o")]) == 2
        assert "suite.manifest:1: unknown config 'tight.cfg'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("problem=unobtainium config=newton_mr seed=1\n")
        assert cli.main(["run", "--manifest", str(manifest),
                         "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", "--manifest", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_profile_on_empty_dir_exits_2(self, tmp_path, capsys):
        assert cli.main(["profile", "--traces", str(tmp_path), "--metric", "f",
                         "--out", str(tmp_path / "p.csv")]) == 2
        capsys.readouterr()

    def test_check_reports_and_exit_codes(self, monkeypatch, capsys):
        fake = [types.SimpleNamespace(name="alpha", passed=True, detail="ok"),
                types.SimpleNamespace(name="beta", passed=True, detail="ok")]
        monkeypatch.setattr(cli, "run_all_checks", lambda: fake)
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "pass" in out

        fake[1] = types.SimpleNamespace(name="beta", passed=False, detail="boom")
        assert cli.main(["check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "1 of 2 suites failed" in out

    def test_check_survives_a_raising_suite(self, monkeypatch, capsys):
        # an exception other than AssertionError fails its suite alone
        def raises():
            return 1 / 0

        suite = [("before", lambda: "ok", {}), ("raises", raises, {}),
                 ("after", lambda: "ok", {})]
        monkeypatch.setattr(checks, "_FAST_SUITE", suite)
        results = checks.run_all_checks()
        assert [(r.name, r.passed) for r in results] == [
            ("before", True), ("raises", False), ("after", True)]
        assert results[1].detail == "ZeroDivisionError: division by zero"
        assert cli.main(["check"]) == 1
        out = capsys.readouterr().out
        assert "raises  FAIL  ZeroDivisionError: division by zero" in out
        assert "after   pass  ok" in out and "1 of 3 suites failed" in out
