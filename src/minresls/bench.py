"""Benchmark harness: manifest-driven suites, trace files, performance profiles.

A manifest is line-delimited text, one run cell per line, ``key=value`` tokens
separated by whitespace::

    problem=toy_sine config=newton_mr seed=0 repeats=3 p.n=200 label=newton

``problem``, ``config`` and ``seed`` are required; ``repeats`` defaults to 1
and ``label`` to the config name. ``config`` names a builtin (``newton_mr``,
``lbfgs_mr``, ``coupled``), whose schedule mode also picks the Hessian model.
``p.<name>`` tokens are problem parameters (``p.spectrum`` takes
comma-separated floats, none of them empty). Any dotted or bare solver key
(``schedule.beta``, ``linesearch.max_step``, ``grad_tol``, ...) overrides a
field of that builtin, unless its schedule mode never reads the field. A key
may appear only once in a cell, and no two cells may share label, problem and
seed, since their traces would collide in a profile. ``#`` starts a comment. The whole manifest is validated before
anything runs.

A trace file opens with two header lines that name the columns of each line
kind once, in file order::

    # record k f gnorm flag lambda inner_iters theta_k zeta_k oracles time_ms
    # summary problem config seed repeat status iters oracles final_f final_gnorm time_ms

Then come one record line per outer iteration and a single ``summary`` line,
each carrying its bare values in that order. A float is written as the
shortest text that ``float()`` reads back to the same double, ``repr`` of a
built-in float (``0.1``, ``1e-12``, ``-0.0``, ``inf``), so parsing reproduces
it bit-for-bit, except that every NaN reads back as the positive quiet NaN.
Profile CSVs and problem ids write floats the same way. A missing seed or
repeat is ``-``. The reader refuses a file whose header differs from the
writer's. Everything except the ``time_ms`` columns, the last of each line, is
deterministic for a fixed manifest. Convergence-plot data is a column filter
away: the first and third columns give the curve, and record lines whose
fourth column is ``NPC`` mark the negative-curvature steps.

Performance profiles rank the solvers of a trace directory by oracle count or
wall time, the positive costs that performance ratios are defined on.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import os
import re
import typing
from dataclasses import dataclass, field

import numpy as np

from .driver import CONVERGED, UNREAD_FIELDS, RunTrace, ScheduleParams, SolverConfig, solve
from .problems import build_problem

__all__ = [
    "parse_manifest",
    "RunCell",
    "run_suite",
    "emit_trace",
    "parse_trace",
    "ParsedTrace",
    "performance_profile",
    "ProfileTable",
    "write_profile_csv",
]

TRACE_SUFFIX = ".trace"
# each profile metric with the summary field it ranks by
_METRIC_FIELDS = {"oracles": "oracles", "time": "time_ms"}
METRICS = tuple(_METRIC_FIELDS)

# the characters a label may hold, and a trace file name keeps
_NAME_CHARS = "A-Za-z0-9_.+-"
_LABEL_RE = re.compile(f"^[{_NAME_CHARS}]+$")


def _float_text(x) -> str:
    """The shortest text that float() reads back to the same double."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# solver configs


BUILTIN_CONFIGS = {
    mode: SolverConfig(schedule=ScheduleParams(mode=mode))
    for mode in UNREAD_FIELDS
}


def builtin_config(name: str) -> SolverConfig:
    """The named preset: a schedule mode, which also picks the Hessian model."""
    try:
        return BUILTIN_CONFIGS[name]
    except KeyError:
        raise ValueError(f"unknown config {name!r}; builtins: "
                         f"{', '.join(BUILTIN_CONFIGS)}") from None


def _read_bool(text: str) -> bool:
    """``true`` or ``false``, in any case; any other text raises ValueError."""
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"not a bool: {text!r}")
    return lowered == "true"


# one text reader per declared field type; a field of any other type (the
# schedule mode, a nested block) is set by the builtin that config= names
_TEXT_READERS = {float: float, int: int, bool: _read_bool}


def apply_setting(cfg: SolverConfig, key: str, value: str) -> SolverConfig:
    """One ``key=value`` assignment on an immutable config.

    A dotted key walks down the nested dataclasses (``schedule.beta``,
    ``linesearch.shrink``); a bare key names a top-level field. The text is
    read by the field's declared type, from ``typing.get_type_hints``: float,
    int or bool (``true``/``false``, any case). A key that names no field is
    unknown, and a field of any other type, such as ``schedule.mode``, is not
    settable from text. Replacement reruns the dataclass validation, so
    out-of-range values fail here, before any run starts. Last, a field that
    the config's schedule mode never reads (``driver.UNREAD_FIELDS``) is
    refused, since its override would change nothing but the label.
    """
    new = _replaced(cfg, key.split("."), value, key)
    mode = cfg.schedule.mode
    if key in UNREAD_FIELDS[mode]:
        raise ValueError(f"config key {key!r} is not read by schedule mode {mode!r}")
    return new


def _replaced(block, names, value: str, key: str):
    name, *rest = names
    field_type = typing.get_type_hints(type(block)).get(name)
    if field_type is None or (rest and not dataclasses.is_dataclass(field_type)):
        raise ValueError(f"unknown config key {key!r}")
    if rest:
        new = _replaced(getattr(block, name), rest, value, key)
    elif field_type in _TEXT_READERS:
        try:
            new = _TEXT_READERS[field_type](value)
        except ValueError:
            raise ValueError(f"bad value {value!r} for config key {key!r}") from None
    else:
        raise ValueError(f"config key {key!r} is not settable from text; "
                         "config= names the builtin that sets it")
    return dataclasses.replace(block, **{name: new})


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
    return _float_text(v) if isinstance(v, float) else str(v)


def _coerce_param(value: str):
    if "," in value:
        try:
            return tuple(float(tok) for tok in value.split(","))
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
        try:
            cell = _parse_cell(line)
            key = (cell.label, cell.problem_id, cell.seed)
            if key in first_line:
                raise ValueError(f"same label {cell.label!r}, problem {key[1]!r} and "
                                 f"seed {cell.seed} as line {first_line[key]}; their "
                                 "traces would collide, so give one of the two its "
                                 "own label=")
        # TypeError: a parameter the problem's builder does not take
        except (TypeError, ValueError, AssertionError) as exc:
            raise ValueError(f"{origin}:{ln}: {exc}") from None
        first_line[key] = ln
        cells.append(cell)
    if not cells:
        raise ValueError(f"{origin}: no runnable cells")
    return cells


def _parse_cell(line: str) -> RunCell:
    """One manifest line, comment stripped, as a validated cell; its errors
    carry no line tag, which ``parse_manifest`` adds."""
    fields, params, overrides = {}, {}, {}
    for tok in line.split():
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"token {tok!r} is not key=value")
        if key.startswith("p."):
            pname = key[2:]
            if not pname or pname in params:
                raise ValueError(f"bad or duplicate parameter {key!r}")
            params[pname] = _coerce_param(value)
        elif key in fields or key in overrides:
            raise ValueError(f"duplicate key {key!r}")
        elif key in ("problem", "config", "seed", "repeats", "label"):
            fields[key] = value
        else:
            overrides[key] = value
    for req in ("problem", "config", "seed"):
        if req not in fields:
            raise ValueError(f"missing required key {req!r}")
    try:
        seed = int(fields["seed"])
        repeats = int(fields.get("repeats", "1"))
    except ValueError:
        raise ValueError("seed and repeats must be integers") from None
    if seed < 0 or repeats < 1:
        raise ValueError("need seed >= 0 and repeats >= 1")
    spec = build_problem(fields["problem"], **params)
    cfg = builtin_config(fields["config"])
    for key, value in overrides.items():
        cfg = apply_setting(cfg, key, value)
    label = fields.get("label", fields["config"])
    if not _LABEL_RE.match(label):
        raise ValueError(f"label {label!r} has characters outside [{_NAME_CHARS}]")
    return RunCell(problem=fields["problem"], params=params, label=label,
                   cfg=cfg, seed=seed, repeats=repeats, spec=spec)


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


# (header name, attribute, type) of every column, in file order, per line kind:
# a record line per IterateRecord and the summary line of the RunTrace. A float
# is written as its shortest exact text (_float_text), an int or str that is
# None or empty as "-".
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
_HEADER = [f"# {line_kind} " + " ".join(key for key, _, _ in columns)
           for line_kind, columns in _COLUMNS.items()]
_READERS = {str: str, float: float, int: lambda v: None if v == "-" else int(v)}


def _trace_line(obj, line_kind) -> str:
    values = ((kind, getattr(obj, attr)) for _, attr, kind in _COLUMNS[line_kind])
    return " ".join(_float_text(v) if kind is float else "-" if v is None or v == "" else str(v)
                    for kind, v in values)


def emit_trace(trace: RunTrace, path) -> None:
    """Write the header, one record line per iteration and the summary line.

    Raises ValueError, before the file is opened, when a text column of the
    summary holds whitespace, which would split it into several fields.
    """
    for key, attr, kind in _COLUMNS["summary"]:
        text = getattr(trace, attr)
        if kind is str and text and text.split() != [text]:
            raise ValueError(f"trace {key} {text!r} holds whitespace; "
                             "a trace column must be one token")
    lines = [*_HEADER, *(_trace_line(r, "record") for r in trace.records),
             "summary " + _trace_line(trace, "summary")]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace {path}: {exc}") from exc


@dataclass
class ParsedTrace:
    records: list
    summary: dict


def _parse_values(values, line_kind, origin, ln) -> dict:
    """One line's values by file key, converted by their position in the header."""
    columns = _COLUMNS[line_kind]
    if len(values) != len(columns):
        raise ValueError(f"{origin}:{ln}: {line_kind} has {len(values)} fields, "
                         f"expected {len(columns)}: {' '.join(k for k, _, _ in columns)}")
    out = {}
    for value, (key, _, kind) in zip(values, columns):
        try:
            out[key] = _READERS[kind](value)
        except ValueError:
            raise ValueError(f"{origin}:{ln}: bad {key} value {value!r}") from None
    return out


def parse_trace_text(text: str, origin: str = "<trace>") -> ParsedTrace:
    """Inverse of emit_trace; numeric fields round-trip exactly."""
    lines = text.splitlines()
    for ln, want in enumerate(_HEADER, 1):
        if ln > len(lines) or lines[ln - 1].strip() != want:
            raise ValueError(f"{origin}:{ln}: expected the header line {want!r}")
    records, summary = [], None
    for ln, raw in enumerate(lines[len(_HEADER):], len(_HEADER) + 1):
        values = raw.split()
        if not values:
            continue
        if summary is not None:
            raise ValueError(f"{origin}:{ln}: content after the summary line")
        if values[0] == "summary":
            summary = _parse_values(values[1:], "summary", origin, ln)
        else:
            records.append(_parse_values(values, "record", origin, ln))
    if summary is None:
        raise ValueError(f"{origin}: missing summary line")
    return ParsedTrace(records, summary)


def parse_trace(path) -> ParsedTrace:
    with open(path) as fh:
        return parse_trace_text(fh.read(), origin=str(path))


def _safe_name(s: str) -> str:
    return re.sub(f"[^{_NAME_CHARS}]", "-", s)


def trace_filename(index: int, trace: RunTrace) -> str:
    return (f"{index:04d}_{_safe_name(trace.config or 'run')}_"
            f"{_safe_name(trace.problem or 'problem')}_"
            f"s{trace.seed}r{trace.repeat}{TRACE_SUFFIX}")


def refuse_stale_traces(out_dir) -> None:
    """Raise FileExistsError if ``out_dir`` exists but is no directory, or holds traces.

    A suite cannot be written into the first, and a profile over the second
    would count the old runs too.
    """
    if os.path.isdir(out_dir):
        stale = sum(name.endswith(TRACE_SUFFIX) for name in os.listdir(out_dir))
        if stale:
            raise FileExistsError(f"{out_dir} already holds {stale} *{TRACE_SUFFIX} "
                                  "files; write a suite into a fresh directory")
    elif os.path.exists(out_dir):
        raise FileExistsError(f"{out_dir} exists and is not a directory; write a "
                              "suite into a fresh directory")


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
        table[key] = (float(s[_METRIC_FIELDS[metric]]), s["status"] == CONVERGED)
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
    of problems that solver actually solved. Ratios assume positive metrics,
    as oracle counts and times are; exact ties get ratio 1.0 without division.
    """
    if not table:
        raise ValueError("empty metric table")
    solvers = sorted({s for s, _ in table})
    problems = sorted({p for _, p in table})
    # problem -> {solver: cost}: a cell counts when its run converged at a finite cost
    costs = {p: {} for p in problems}
    for (s, p), (value, solved) in table.items():
        if solved and math.isfinite(value):
            costs[p][s] = value
    ratios = {}
    for p, cost in costs.items():
        if not cost:
            continue                      # nobody solved it
        best = min(cost.values())
        for s in solvers:
            value = cost.get(s)
            if value is None or (value != best and best == 0.0):
                ratios[(s, p)] = math.inf
            else:
                ratios[(s, p)] = 1.0 if value == best else value / best
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
                    writer.writerow([s, _float_text(tau), _float_text(frac)])
    except OSError as exc:
        raise OSError(f"cannot write profile {path}: {exc}") from exc
