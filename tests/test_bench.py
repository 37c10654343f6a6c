"""Benchmark plumbing: configs, manifests, trace files, profiles, CLI."""
import dataclasses
import math
import operator
import re
import types

import numpy as np
import pytest

from minresls import bench, checks, cli, driver
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
from minresls.core import OptimizationError
from minresls.driver import (
    BUDGET,
    CONVERGED,
    DIVERGED,
    STAGNATED,
    UNREAD_FIELDS,
    IterateRecord,
    RunTrace,
    ScheduleParams,
    SolverConfig,
)
from minresls.linesearch import LinesearchConfig
from minresls.minres import minres_npc
from minresls.problems import REGISTRY, ProblemSpec, quadratic
from minresls.reference import profile_fraction_reference


MANIFEST = """\
# two cells, one with repeats
problem=quadratic p.n=6 config=newton_mr seed=3 repeats=2
problem=quartic_saddle p.n=4 config=coupled seed=5 label=co
"""


# the two header lines every trace file opens with
HEADER = ["# record k f gnorm flag lambda inner_iters theta_k zeta_k oracles time_ms",
          "# summary problem config seed repeat status iters oracles final_f "
          "final_gnorm time_ms"]


@pytest.fixture(scope="module")
def suite_traces():
    cells = parse_manifest(MANIFEST)
    return cells, run_suite(cells)


class TestConfigs:
    def test_builtins(self):
        for name in BUILTIN_CONFIGS:
            # a builtin is its schedule mode, which also picks the model
            assert builtin_config(name) == SolverConfig(schedule=ScheduleParams(mode=name))
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
        with pytest.raises(ValueError, match="bad value"):
            apply_setting(cfg, "max_inner", "many")

    @pytest.mark.parametrize("key, message", [
        ("schedule.mode", "config key 'schedule.mode' is not settable from text"),
        ("schedule", "config key 'schedule' is not settable from text"),
        ("schedule.gamma", "unknown config key 'schedule.gamma'"),
        ("a.b.c", "unknown config key 'a.b.c'"),
        ("schedule.beta.x", "unknown config key 'schedule.beta.x'"),
    ])
    def test_apply_setting_refuses_keys_by_name(self, key, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_setting(builtin_config("newton_mr"), key, "1")

    @pytest.mark.parametrize("name, count", [("newton_mr", 14), ("lbfgs_mr", 16),
                                             ("coupled", 14)])
    def test_every_settable_field_reads_its_own_value_back(self, name, count):
        # 44 settable (builtin, key) pairs: the 18 fields less those the mode never reads
        cfg = builtin_config(name)
        keys = [key for key in
                [*(f"schedule.{f.name}" for f in dataclasses.fields(ScheduleParams)
                   if f.name != "mode"),
                 *(f"linesearch.{f.name}" for f in dataclasses.fields(LinesearchConfig)),
                 "max_inner", "grad_tol", "max_oracles", "lbfgs_memory",
                 "check_invariants"]
                if key not in UNREAD_FIELDS[name]]
        assert len(keys) == count
        for key in keys:
            value = operator.attrgetter(key)(cfg)
            assert apply_setting(cfg, key, str(value)) == cfg, key

    @pytest.mark.parametrize("name, key", [(name, key) for name, keys in UNREAD_FIELDS.items()
                                           for key in keys])
    def test_a_field_the_mode_never_reads_is_refused(self, name, key):
        # the override would change nothing but the label; the value is read
        # first, so a bad one keeps its own message
        cfg = builtin_config(name)
        value = str(operator.attrgetter(key)(cfg))
        message = f"config key '{key}' is not read by schedule mode '{name}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_setting(cfg, key, value)
        with pytest.raises(ValueError, match=re.escape(f"m:2: {message}")):
            parse_manifest(f"problem=quadratic config={name} seed=1\n"
                           f"problem=quadratic config={name} seed=2 {key}={value}\n",
                           origin="m")
        with pytest.raises(ValueError, match="bad value 'x'"):
            apply_setting(cfg, key, "x")

    def test_text_is_read_by_the_declared_type(self):
        cfg = builtin_config("lbfgs_mr")
        # float fields take integer text, and keep float values
        for name, key in (("lbfgs_mr", "grad_tol"), ("coupled", "schedule.beta"),
                          ("lbfgs_mr", "linesearch.max_step")):
            value = operator.attrgetter(key)(apply_setting(builtin_config(name), key, "2"))
            assert type(value) is float and value == 2.0
        assert apply_setting(cfg, "max_inner", "7").max_inner == 7
        with pytest.raises(ValueError, match="bad value '0.5' for config key 'max_inner'"):
            apply_setting(cfg, "max_inner", "0.5")
        with pytest.raises(ValueError, match="bad value '1' for config key "
                                             "'check_invariants'"):
            apply_setting(cfg, "check_invariants", "1")


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
        ("problem=quadratic config=newton_mr seed=1 hessian=lbfgs",
         "unknown config key 'hessian'"),
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
        ("problem=quadratic p.spectrum=1,,2 config=newton_mr seed=1",
         "bad numeric list '1,,2'"),
        ("problem=quadratic p.spectrum=3,1, config=newton_mr seed=1",
         "bad numeric list '3,1,'"),
        ("problem=quadratic p.spectrum=1,nan config=newton_mr seed=1",
         "spectrum contains non-finite entries"),
        ("problem=quadratic p.spectrum=1j config=newton_mr seed=1",
         "spectrum has <U2 values, expected real numbers"),
        ("problem=quadratic p.spectrum=1,inf config=newton_mr seed=1",
         "spectrum contains non-finite entries"),
        ("problem=quartic_saddle p.spectrum=1,nan,-1 config=newton_mr seed=1",
         "spectrum contains non-finite entries"),
        ("problem=quadratic p.n=0 config=newton_mr seed=1", "n must be at least 1"),
        ("problem=quadratic p.n=1e3 config=newton_mr seed=1", "n must be an integer"),
        ("problem=quadratic p.n=abc config=newton_mr seed=1", "n must be an integer"),
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
        # config= names the mode; an override would run another model under its label
        ("problem=quartic_saddle p.n=10 config=newton_mr seed=1 schedule.mode=lbfgs_mr",
         "config key 'schedule.mode' is not settable from text; config= names"),
    ])
    def test_rejects_bad_lines_with_numbers(self, line, fragment):
        with pytest.raises(ValueError) as exc:
            parse_manifest("# a comment line\n" + line + "\n")
        message = str(exc.value)
        # the line tag leads the message, and only once
        assert message.startswith("<manifest>:2: ")
        assert message.count("<manifest>:") == 1
        assert fragment in message

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

    def test_huge_coupled_exponent_runs_to_a_status(self):
        # schedule.beta=1e300 passes validation; gnorm ** beta must not overflow
        [trace] = run_suite(parse_manifest(
            "problem=toy_sine p.n=3 config=coupled seed=0 schedule.beta=1e300"))
        assert trace.status == CONVERGED
        assert trace.records[0].theta == 0.1 and trace.records[0].gnorm > 1.0

    @pytest.mark.xfail(strict=True, raises=OptimizationError, reason=(
        "known defect: under coupled with schedule.beta=3 the 6th inner solve "
        "ends in a certificate after 37 iterations on the 40-dimensional model "
        "that is an ascent direction (g'd = 6.5e-11); the symmetry defect of "
        "that model is 6.9e-17, so the residual recurrence has lost "
        "r'b = ||r||^2 in floating point"))
    def test_coupled_exponent_three_runs_to_a_status(self, monkeypatch):
        solves = []
        def spy(*args, **kwargs):
            solves.append(args)
            return minres_npc(*args, **kwargs)
        monkeypatch.setattr(driver, "minres_npc", spy)
        try:
            [trace] = run_suite(parse_manifest(
                "problem=toy_sine p.n=20 config=coupled seed=0 schedule.beta=3"))
        except OptimizationError as err:
            assert len(solves) == 6
            assert "after 37 inner iterations on the 40-dimensional model" in str(err)
            raise
        assert trace.status in (CONVERGED, STAGNATED, BUDGET, DIVERGED)

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
    # file key -> attribute of every float column, per line kind
    RECORD_FLOATS = {"f": "f", "gnorm": "gnorm", "lambda": "step", "theta_k": "theta",
                     "zeta_k": "zeta", "oracles": "oracles", "time_ms": "time_ms"}
    SUMMARY_FLOATS = {"oracles": "oracles", "final_f": "f_final",
                      "final_gnorm": "gnorm_final", "time_ms": "time_ms"}

    @staticmethod
    def edge_trace(v):
        """A one-record trace holding ``v`` in every float column."""
        record = IterateRecord(k=1, f=v, gnorm=v, flag="SOL", step=v, inner_iters=2,
                               theta=v, zeta=v, oracles=v, time_ms=v)
        return RunTrace(status=BUDGET, records=[record], f_final=v, gnorm_final=v,
                        x_final=None, iters=1, oracles=v, time_ms=v,
                        problem="edge", config="cfg", seed=4, repeat=0)

    @pytest.mark.parametrize("edge", [None, -0.0, 5e-324, 1.7976931348623157e308,
                                      math.inf, math.nan, np.float64(0.1)],
                             ids=lambda v: "saddle_run" if v is None else None)
    def test_round_trip_exact(self, tmp_path, suite_traces, edge):
        # None: the saddle run of the suite, which has NPC records
        trace = suite_traces[1][2] if edge is None else self.edge_trace(edge)
        path = tmp_path / "t.trace"
        emit_trace(trace, path)
        parsed = parse_trace(path)
        assert len(parsed.records) == trace.iters
        for rec, r in zip(parsed.records, trace.records):
            assert (rec["k"], rec["flag"], rec["inner_iters"]) == (r.k, r.flag, r.inner_iters)
        s = parsed.summary
        assert (s["problem"], s["config"], s["seed"], s["repeat"], s["status"], s["iters"]) \
            == (trace.problem, trace.config, trace.seed, trace.repeat, trace.status,
                trace.iters)
        # bitwise: float.hex tells -0.0 from 0.0 and reads nan as nan
        lines = path.read_text().splitlines()[len(HEADER):]
        checked = [(self.RECORD_FLOATS, HEADER[0], rec, r, line)
                   for rec, r, line in zip(parsed.records, trace.records, lines)]
        checked.append((self.SUMMARY_FLOATS, HEADER[1], s, trace, lines[-1].split(None, 1)[1]))
        for floats, header, got, obj, line in checked:
            tokens = dict(zip(header.split()[2:], line.split()))
            for key, attr in floats.items():
                assert float.hex(got[key]) == float.hex(float(getattr(obj, attr))), key
                # the shortest exact text, never np.float64(...)
                assert tokens[key] == repr(float(tokens[key])), key

    def test_summary_only_file(self, tmp_path):
        trace = RunTrace(status=CONVERGED, records=[], f_final=0.25,
                         gnorm_final=0.0, x_final=None, iters=0, oracles=2.0,
                         time_ms=0.1)
        path = tmp_path / "empty.trace"
        emit_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines == [HEADER[0], HEADER[1],
                         "summary - - - - CONVERGED 0 2.0 0.25 0.0 0.1"]
        parsed = parse_trace(path)
        assert parsed.records == []
        assert parsed.summary["seed"] is None and parsed.summary["repeat"] is None
        assert parsed.summary["problem"] == "-" and parsed.summary["final_f"] == 0.25

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
        # two header lines name the columns; each line holds bare values in that order
        record = "1 0 1 SOL 1 2 0.1 0 5 1\n"
        good = "summary p c - - CONVERGED 1 5 0 0 1\n"
        head = "\n".join(HEADER) + "\n"
        parsed = parse_trace_text(head + record + good)
        assert parsed.records[0]["inner_iters"] == 2 and parsed.records[0]["lambda"] == 1.0
        assert parsed.summary["seed"] is None and parsed.summary["final_gnorm"] == 0.0
        # blank lines between and after record lines are skipped
        blanks = parse_trace_text(head + record + "\n  \n" + record + "\n" + good)
        assert blanks.records == 2 * parsed.records and blanks.summary == parsed.summary
        with pytest.raises(ValueError, match="t: missing summary"):
            parse_trace_text(head, origin="t")
        with pytest.raises(ValueError, match="t:4: content after the summary"):
            parse_trace_text(head + good + record, origin="t")
        old_layout = ("k=1 f=0 gnorm=1 flag=SOL lambda=1 inner_iters=2 theta_k=0.1 "
                      "zeta_k=0 oracles=5 time_ms=1\n"
                      "summary problem=p config=c seed=- repeat=- status=CONVERGED "
                      "iters=1 oracles=5 final_f=0 final_gnorm=0 time_ms=1\n")
        bad_files = [
            # no header, an old-layout file, and a header naming other columns
            ("", f"t:1: expected the header line {HEADER[0]!r}"),
            (old_layout, f"t:1: expected the header line {HEADER[0]!r}"),
            (HEADER[0] + "\n" + record + good, f"t:2: expected the header line {HEADER[1]!r}"),
            (head.replace(" f gnorm", " gnorm f") + record + good, "t:1: expected the header"),
            (head.replace(" time_ms", "", 1) + record + good, "t:1: expected the header"),
            # a missing or an extra value, on a record and on the summary line
            (head + "1 0 SOL 1 2 0.1 0 5 1\n" + good,
             "t:3: record has 9 fields, expected 10: k f gnorm flag lambda"),
            (head + "1 " + record + good, "t:3: record has 11 fields, expected 10"),
            (head + record + "summary CONVERGED\n", "t:4: summary has 1 fields, expected 10"),
            # a value its column cannot hold, named by column
            (head + record.replace("1 0 1 SOL 1 2", "1 0 1 SOL 1 two") + good,
             "t:3: bad inner_iters value 'two'"),
            (head + record.replace("0.1", "tenth") + good, "t:3: bad theta_k value 'tenth'"),
            (head + record + good.replace("CONVERGED 1", "CONVERGED one"),
             "t:4: bad iters value 'one'"),
            (head + record + good.replace(" 5 0 0", " - 0 0"), "t:4: bad oracles value '-'"),
        ]
        for text, fragment in bad_files:
            with pytest.raises(ValueError) as exc:
                parse_trace_text(text, origin="t")
            assert str(exc.value).startswith(fragment), (str(exc.value), fragment)

    def test_header_is_written_from_the_column_table(self, tmp_path, suite_traces):
        _, traces = suite_traces
        path = tmp_path / "t.trace"
        emit_trace(traces[0], path)
        lines = path.read_text().splitlines()
        assert lines[:2] == HEADER
        # record lines hold bare values: no column name is repeated
        assert len(lines) == 3 + traces[0].iters
        assert all("=" not in line for line in lines[2:-1])
        assert lines[-1].startswith("summary quadratic(n=6) newton_mr 3 0 CONVERGED ")

    @pytest.mark.parametrize("column, text", [("problem", "my problem"),
                                              ("config", "newton_mr\n"),
                                              ("problem", " ")])
    def test_whitespace_in_a_text_column_is_refused_before_writing(
            self, tmp_path, column, text):
        obj = quadratic(n=4).make_objective()
        trace = driver.solve(obj, np.ones(obj.dim))
        setattr(trace, column, text)
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match=re.escape(f"trace {column} {text!r}")):
            emit_trace(trace, path)
        assert not path.exists()

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
        assert table_from_traces(s, "time")[("a", "p")] == (1.0, True)
        s2 = [mk_summary("a", "p", "BUDGET", 12.0)]
        assert table_from_traces(s2, "oracles")[("a", "p")] == (12.0, False)
        for metric in ("iterations", "f"):
            with pytest.raises(ValueError, match="unknown metric"):
                table_from_traces(s, metric)

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
        assert lines[1] == "A,1.0,1.0"

    def test_csv_write_error_carries_path(self, tmp_path):
        prof = performance_profile({("A", "p"): (1.0, True)})
        target = tmp_path / "missing-dir" / "prof.csv"
        with pytest.raises(OSError, match="cannot write profile"):
            write_profile_csv(prof, target)
        assert not target.parent.exists()

    def test_csv_reads_back_bitwise(self, tmp_path):
        # ratio 7/3 and fractions 1/3, 2/3 need 16 or 17 digits, 1.0 and 2.0 one
        table = {("A", "p"): (3.0, True), ("B", "p"): (7.0, True),
                 ("A", "q"): (2.0, True), ("B", "q"): (4.0, True),
                 ("A", "r"): (5.0, False), ("B", "r"): (1.0, True)}
        prof = performance_profile(table)
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        want = [(s, tau, frac) for s in prof.solvers
                for tau, frac in zip(prof.taus, prof.fractions[s])]
        assert len(rows) == len(want)
        for (solver, tau, frac), (s, want_tau, want_frac) in zip(rows, want):
            assert solver == s
            assert float.hex(float(tau)) == float.hex(want_tau)
            assert float.hex(float(frac)) == float.hex(want_frac)
            assert [tau, frac] == [repr(float(tau)), repr(float(frac))]


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

    def test_run_prints_the_oracle_count_exactly(self, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "suite.manifest"
        manifest.write_text("problem=quadratic p.n=5 config=newton_mr seed=1\n")
        trace = RunTrace(status=BUDGET, records=[], f_final=1.0, gnorm_final=1.0,
                         x_final=None, iters=3, oracles=1234567.0, time_ms=1.0,
                         problem="quadratic", config="newton_mr", seed=1, repeat=0)
        monkeypatch.setattr(cli, "run_suite", lambda cells: [trace])
        assert cli.main(["run", "--manifest", str(manifest),
                         "--out", str(tmp_path / "traces")]) == 0
        assert f"{BUDGET} iters=3 oracles=1234567 " in capsys.readouterr().out

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

    def test_run_refuses_an_out_that_is_a_file_before_solving(
            self, tmp_path, monkeypatch, capsys):
        manifest = tmp_path / "suite.manifest"
        manifest.write_text("problem=quadratic p.n=5 config=newton_mr seed=1\n")
        out = tmp_path / "traces"
        out.write_text("kept\n")
        calls = []

        def no_solve(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solve called")

        monkeypatch.setattr(bench, "solve", no_solve)
        assert cli.main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"error: {out} exists and is not a directory" in capsys.readouterr().err
        assert calls == []
        assert out.read_text() == "kept\n"

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
        assert cli.main(["profile", "--traces", str(tmp_path), "--metric", "oracles",
                         "--out", str(tmp_path / "p.csv")]) == 2
        assert "no *.trace files" in capsys.readouterr().err

    def test_profile_metric_f_is_refused(self, tmp_path, capsys):
        # performance ratios need positive costs, and final f values need not be
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", "--traces", str(tmp_path), "--metric", "f",
                      "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'f'" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_check_reports_and_exit_codes(self, monkeypatch, capsys):
        fake = [types.SimpleNamespace(name="alpha", passed=True, detail="ok"),
                types.SimpleNamespace(name="beta", passed=True, detail="ok")]
        monkeypatch.setattr(checks, "run_all_checks", lambda: fake)
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
