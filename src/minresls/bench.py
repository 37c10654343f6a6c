"""Benchmark harness: manifest-driven suites, trace files, performance profiles.

A manifest is line-delimited text, one run cell per line, ``key=value`` tokens
separated by whitespace::

    problem=toy_sine config=newton_mr seed=0 repeats=3 p.n=200 label=newton

``problem``, ``config`` and ``seed`` are required; ``repeats`` defaults to 1
and ``label`` to the config name. ``config`` names a builtin (``newton_mr``,
``lbfgs_mr``, ``coupled``). ``p.<name>`` tokens are problem parameters
(``p.spectrum`` takes comma-separated floats). Any dotted or bare solver key
(``schedule.beta``, ``linesearch.max_step``, ``grad_tol``, ...) overrides a
field of that builtin. A key may appear only once in a cell, and no two cells
may share label, problem and seed, since their traces would collide in a
profile. ``#`` starts a comment. The whole manifest is validated before
anything runs.

Trace files carry one record per outer iteration with fields exactly
``k f gnorm flag lambda inner_iters theta_k zeta_k oracles time_ms`` followed
by a single ``summary`` line; floats are serialized with 17 significant digits
so parsing reproduces them bit-for-bit. Everything except the ``time_ms``
columns is deterministic for a fixed manifest. Convergence-plot data is a
field filter away: the ``k`` and ``gnorm`` columns give the curve, and lines
with ``flag=NPC`` mark the negative-curvature steps.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import operator
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .core import NotEvaluable
from .driver import CONVERGED, RunTrace, ScheduleParams, SolverConfig, solve
from .linesearch import LinesearchConfig
from .problems import build_problem

__all__ = [
    "ProfileTable",
    "ParsedTrace",
    "RunCell",
    "emit_trace",
    "parse_manifest",
    "parse_trace",
    "performance_profile",
    "run_suite",
    "write_profile_csv",
]

TRACE_SUFFIX = ".trace"
METRICS = ("f", "oracles", "time")

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


def _g17(x) -> str:
    # %.17g round-trips any float64 exactly through float()
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# solver configs


BUILTIN_CONFIGS = {
    "newton_mr": SolverConfig(schedule=ScheduleParams(mode="newton_mr"), hessian="exact"),
    "lbfgs_mr": SolverConfig(schedule=ScheduleParams(mode="lbfgs_mr"), hessian="lbfgs"),
    "coupled": SolverConfig(schedule=ScheduleParams(mode="coupled"), hessian="exact"),
}


def builtin_config(name: str) -> SolverConfig:
    """The named preset: schedule mode plus the matching Hessian model."""
    try:
        return BUILTIN_CONFIGS[name]
    except KeyError:
        raise ValueError(f"unknown config {name!r}; builtins: "
                         f"{', '.join(BUILTIN_CONFIGS)}") from None


def _typed_fields(cls):
    out = {}
    for f in dataclasses.fields(cls):
        out[f.name] = f.type if isinstance(f.type, str) else f.type.__name__
    return out


_TOP_FIELDS = _typed_fields(SolverConfig)
_NESTED_FIELDS = {"schedule": _typed_fields(ScheduleParams),
                  "linesearch": _typed_fields(LinesearchConfig)}
_BOOLS = {"true": True, "false": False}


def _coerce_setting(value: str, type_name: str, key: str):
    try:
        if type_name == "float":
            return float(value)
        if type_name == "int":
            return int(value)
        if type_name == "bool":
            return _BOOLS[value.lower()]
        if type_name == "str":
            return value
    except (ValueError, KeyError):
        raise ValueError(f"bad value {value!r} for config key {key!r}") from None
    raise ValueError(f"config key {key!r} is not settable from text")


def apply_setting(cfg: SolverConfig, key: str, value: str) -> SolverConfig:
    """One ``key=value`` assignment on an immutable config.

    ``schedule.<field>`` and ``linesearch.<field>`` reach into the nested
    dataclasses; bare keys hit the top level. Replacement reruns the dataclass
    validation, so out-of-range values fail here, before any run starts.
    """
    block, dot, name = key.partition(".")
    if dot and block in _NESTED_FIELDS:
        fields = _NESTED_FIELDS[block]
        if name not in fields:
            raise ValueError(f"unknown config key {key!r}")
        sub = dataclasses.replace(
            getattr(cfg, block), **{name: _coerce_setting(value, fields[name], key)})
        return dataclasses.replace(cfg, **{block: sub})
    if key in _NESTED_FIELDS or key not in _TOP_FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    return dataclasses.replace(
        cfg, **{key: _coerce_setting(value, _TOP_FIELDS[key], key)})


# ---------------------------------------------------------------------------
# manifests


@dataclass
class RunCell:
    """One manifest line: a (problem, config) pairing with seed and repeats."""
    problem: str
    params: dict
    label: str
    cfg: SolverConfig
    seed: int
    repeats: int
    spec: object = field(repr=False, default=None)

    @property
    def problem_id(self) -> str:
        """Problem name with any non-default parameters folded in."""
        if not self.params:
            return self.problem
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items()))
        return f"{self.problem}({inner})"


def _fmt_param(v) -> str:
    if isinstance(v, tuple):
        return ";".join(_fmt_param(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _coerce_param(value: str):
    if "," in value:
        try:
            return tuple(float(tok) for tok in value.split(",") if tok)
        except ValueError:
            raise ValueError(f"bad numeric list {value!r}") from None
    for conv in (int, float):
        try:
            return conv(value)
        except ValueError:
            pass
    return value


def parse_manifest(text: str, origin: str = "<manifest>") -> list[RunCell]:
    """Parse and fully validate a manifest; raises before any cell could run.

    Unknown problems, configs that are not builtins, bad parameter or
    override values, a failed derivative self-test and a second cell with the
    label, problem and seed of an earlier one all surface as ValueError
    tagged with the manifest line number.
    """
    cells = []
    first_line = {}     # (label, problem_id, seed) -> line of its first cell
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields, params, overrides = {}, {}, {}
        for tok in line.split():
            key, sep, value = tok.partition("=")
            if not sep or not key or not value:
                raise ValueError(f"{origin}:{ln}: token {tok!r} is not key=value")
            if key.startswith("p."):
                pname = key[2:]
                if not pname or pname in params:
                    raise ValueError(f"{origin}:{ln}: bad or duplicate parameter {key!r}")
                try:
                    params[pname] = _coerce_param(value)
                except ValueError as exc:
                    raise ValueError(f"{origin}:{ln}: {exc}") from None
            elif key in fields or key in overrides:
                raise ValueError(f"{origin}:{ln}: duplicate key {key!r}")
            elif key in ("problem", "config", "seed", "repeats", "label"):
                fields[key] = value
            else:
                overrides[key] = value
        for req in ("problem", "config", "seed"):
            if req not in fields:
                raise ValueError(f"{origin}:{ln}: missing required key {req!r}")
        try:
            seed = int(fields["seed"])
            repeats = int(fields.get("repeats", "1"))
        except ValueError:
            raise ValueError(f"{origin}:{ln}: seed and repeats must be integers") from None
        if seed < 0 or repeats < 1:
            raise ValueError(f"{origin}:{ln}: need seed >= 0 and repeats >= 1")
        try:
            spec = build_problem(fields["problem"], **params)
        except (KeyError, TypeError, ValueError, AssertionError, NotEvaluable) as exc:
            detail = exc.args[0] if exc.args else exc
            raise ValueError(f"{origin}:{ln}: {detail}") from None
        try:
            cfg = builtin_config(fields["config"])
            for key, value in overrides.items():
                cfg = apply_setting(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"{origin}:{ln}: {exc}") from None
        label = fields.get("label", fields["config"])
        if not _LABEL_RE.match(label):
            raise ValueError(f"{origin}:{ln}: label {label!r} has characters outside "
                             "[A-Za-z0-9_.+-]")
        cell = RunCell(problem=fields["problem"], params=params, label=label,
                       cfg=cfg, seed=seed, repeats=repeats, spec=spec)
        key = (label, cell.problem_id, seed)
        if key in first_line:
            raise ValueError(f"{origin}:{ln}: same label {label!r}, problem {key[1]!r} "
                             f"and seed {seed} as line {first_line[key]}; their traces "
                             "would collide, so give one of the two its own label=")
        first_line[key] = ln
        cells.append(cell)
    if not cells:
        raise ValueError(f"{origin}: no runnable cells")
    return cells


# ---------------------------------------------------------------------------
# execution


def repeat_rng(seed: int, repeat: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, repeat): repeats never overlap."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, repeat])))


def run_cell_repeat(cell: RunCell, repeat: int) -> RunTrace:
    rng = repeat_rng(cell.seed, repeat)
    obj = cell.spec.make_objective()
    x0 = cell.spec.start(rng)
    trace = solve(obj, x0, cell.cfg)
    trace.problem = cell.problem_id
    trace.config = cell.label
    trace.seed = cell.seed
    trace.repeat = repeat
    return trace


def run_suite(cells: list[RunCell]) -> list[RunTrace]:
    """Execute every (cell, repeat) unit in manifest order, one after another."""
    return [run_cell_repeat(cell, rep) for cell in cells for rep in range(cell.repeats)]


# ---------------------------------------------------------------------------
# trace files


# (file key, attribute, type) of every column, in file order, per line kind:
# a record line per IterateRecord and the summary line of the RunTrace. Floats
# are written with %.17g; an int or str that is None or empty is "-".
_COLUMNS = {
    "record": (
        ("k", "k", int), ("f", "f", float), ("gnorm", "gnorm", float),
        ("flag", "flag", str), ("lambda", "step", float),
        ("inner_iters", "inner_iters", int), ("theta_k", "theta", float),
        ("zeta_k", "zeta", float), ("oracles", "oracles", float),
        ("time_ms", "time_ms", float),
    ),
    "summary": (
        ("problem", "problem", str), ("config", "config", str), ("seed", "seed", int),
        ("repeat", "repeat", int), ("status", "status", str), ("iters", "iters", int),
        ("oracles", "oracles", float), ("final_f", "f_final", float),
        ("final_gnorm", "gnorm_final", float), ("time_ms", "time_ms", float),
    ),
}
# per line kind: its %-format and a getter of the values it formats
_FORMATS = {
    line_kind: (" ".join(f"{key}=%.17g" if kind is float else f"{key}=%s"
                         for key, _, kind in columns),
                operator.attrgetter(*(attr for _, attr, _ in columns)))
    for line_kind, columns in _COLUMNS.items()
}
# per line kind: file key -> type, for parsing
_TYPES = {line_kind: {key: kind for key, _, kind in columns}
          for line_kind, columns in _COLUMNS.items()}


def _trace_line(obj, line_kind) -> str:
    fmt, values = _FORMATS[line_kind]
    return fmt % tuple("-" if v is None or v == "" else v for v in values(obj))


def emit_trace(trace: RunTrace, path) -> None:
    """Write one record line per iteration plus the final summary line."""
    lines = [_trace_line(r, "record") for r in trace.records]
    lines.append("summary " + _trace_line(trace, "summary"))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace {path}: {exc}") from exc


@dataclass
class ParsedTrace:
    records: list
    summary: dict


def _parse_tokens(toks, line_kind, origin, ln) -> dict:
    """Fields of one line by file key; keys outside its columns read as floats."""
    types = _TYPES[line_kind]
    out = {}
    for tok in toks:
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise ValueError(f"{origin}:{ln}: bad token {tok!r}")
        if key in out:
            raise ValueError(f"{origin}:{ln}: duplicate field {key!r}")
        kind = types.get(key, float)
        try:
            if kind is str:
                out[key] = value
            elif kind is int:
                out[key] = None if value == "-" else int(value)
            else:
                out[key] = float(value)
        except ValueError:
            raise ValueError(f"{origin}:{ln}: bad value in {tok!r}") from None
    missing = [key for key in types if key not in out]
    if missing:
        raise ValueError(f"{origin}:{ln}: {line_kind} missing {missing}")
    return out


def parse_trace_text(text: str, origin: str = "<trace>") -> ParsedTrace:
    """Inverse of emit_trace; numeric fields round-trip exactly."""
    records, summary = [], None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if summary is not None:
            raise ValueError(f"{origin}:{ln}: content after the summary line")
        toks = line.split()
        if toks[0] == "summary":
            summary = _parse_tokens(toks[1:], "summary", origin, ln)
        else:
            records.append(_parse_tokens(toks, "record", origin, ln))
    if summary is None:
        raise ValueError(f"{origin}: missing summary line")
    return ParsedTrace(records, summary)


def parse_trace(path) -> ParsedTrace:
    with open(path) as fh:
        return parse_trace_text(fh.read(), origin=str(path))


def _safe_name(s: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "-", s)


def trace_filename(index: int, trace: RunTrace) -> str:
    return (f"{index:04d}_{_safe_name(trace.config or 'run')}_"
            f"{_safe_name(trace.problem or 'problem')}_"
            f"s{trace.seed}r{trace.repeat}{TRACE_SUFFIX}")


def refuse_stale_traces(out_dir) -> None:
    """Raise FileExistsError if ``out_dir`` already holds trace files.

    A profile over such a directory would count the old runs too.
    """
    if os.path.isdir(out_dir):
        stale = sum(name.endswith(TRACE_SUFFIX) for name in os.listdir(out_dir))
        if stale:
            raise FileExistsError(f"{out_dir} already holds {stale} *{TRACE_SUFFIX} "
                                  "files; write a suite into a fresh directory")


def write_suite(traces: list[RunTrace], out_dir) -> list[str]:
    """Emit every trace into ``out_dir`` under deterministic filenames.

    A directory that already holds trace files is refused before anything is
    written (:func:`refuse_stale_traces`).
    """
    refuse_stale_traces(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, tr in enumerate(traces):
        path = os.path.join(out_dir, trace_filename(i, tr))
        emit_trace(tr, path)
        paths.append(path)
    return paths


def load_trace_dir(dirpath) -> list[ParsedTrace]:
    names = sorted(n for n in os.listdir(dirpath) if n.endswith(TRACE_SUFFIX))
    if not names:
        raise ValueError(f"no *{TRACE_SUFFIX} files in {dirpath}")
    return [parse_trace(os.path.join(dirpath, name)) for name in names]


# ---------------------------------------------------------------------------
# performance profiles


def table_from_traces(parsed: list[ParsedTrace], metric: str) -> dict:
    """Metric table keyed by (solver, instance); instance = problem#seed.repeat.

    Each entry is (value, solved), where solved means the run converged.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    field_key = {"f": "final_f", "oracles": "oracles", "time": "time_ms"}[metric]
    table = {}
    for pt in parsed:
        s = pt.summary
        instance = s["problem"]
        if s["seed"] is not None:
            instance += f"#s{s['seed']}"
        if s["repeat"] is not None:
            instance += f"r{s['repeat']}"
        key = (s["config"], instance)
        if key in table:
            raise ValueError(f"duplicate trace for solver {key[0]!r} on {instance!r}")
        table[key] = (float(s[field_key]), s["status"] == CONVERGED)
    return table


@dataclass
class ProfileTable:
    """Performance-ratio profile over a {(solver, problem): (metric, solved)} table."""
    solvers: list
    problems: list
    ratios: dict        # (solver, problem) -> ratio; +inf for unsolved cells
    taus: list          # sorted breakpoints, always containing 1.0
    fractions: dict     # solver -> fractions aligned with taus


def performance_profile(table: dict) -> ProfileTable:
    """Classical performance-ratio profile.

    Per problem, the baseline is the best metric among solvers that solved
    it; each solved cell gets ratio metric/baseline and each unsolved or
    missing cell +inf. Problems nobody solves contribute no ratios but stay
    in every denominator, so a profile's limit at large tau is the fraction
    of problems that solver actually solved. Ratios assume positive metrics
    (oracle counts, times); exact ties get ratio 1.0 without division.
    """
    if not table:
        raise ValueError("empty metric table")
    solvers = sorted({s for s, _ in table})
    problems = sorted({p for _, p in table})
    ratios = {}
    for p in problems:
        best = None
        for s in solvers:
            entry = table.get((s, p))
            if entry is None:
                continue
            value, solved = entry
            if solved and math.isfinite(value):
                best = value if best is None else min(best, value)
        if best is None:
            continue                      # nobody solved it
        for s in solvers:
            entry = table.get((s, p))
            if entry is None:
                ratios[(s, p)] = math.inf
                continue
            value, solved = entry
            if not solved or not math.isfinite(value):
                ratios[(s, p)] = math.inf
            elif value == best:
                ratios[(s, p)] = 1.0
            elif best == 0.0:
                ratios[(s, p)] = math.inf
            else:
                ratios[(s, p)] = value / best
    finite = {r for r in ratios.values() if math.isfinite(r)}
    taus = sorted(finite | {1.0})
    n = len(problems)
    fractions = {
        s: [sum(1 for p in problems
                if ratios.get((s, p), math.inf) <= tau) / n for tau in taus]
        for s in solvers
    }
    return ProfileTable(solvers, problems, ratios, taus, fractions)


def write_profile_csv(profile: ProfileTable, path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solver", "tau", "fraction"])
            for s in profile.solvers:
                for tau, frac in zip(profile.taus, profile.fractions[s]):
                    writer.writerow([s, _g17(tau), _g17(frac)])
    except OSError as exc:
        raise OSError(f"cannot write profile {path}: {exc}") from exc
