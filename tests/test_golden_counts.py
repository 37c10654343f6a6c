"""Deterministic counts of two manifests against committed files.

Each line of ``golden_counts.txt`` is one run of ``demos/example.manifest`` at
seed 3, 5 or 11, and each line of ``golden_gd_counts.txt`` one run of
``gd_fallbacks.manifest`` at the seeds it names, whose cells take the
gradient-descent fallback of each direction screen. A line holds the run's
status, outer iterations and oracle count, then one ``flag/inner_iters/step``
token per outer iteration. Counts and grid steps do not depend on the last
bits of the iterates, so the files hold across numpy builds; ``x_final`` is not
pinned. A change that moves any count fails here and names the first field
that differs. After a deliberate change, regenerate both files with

    PYTHONPATH=src python tests/test_golden_counts.py --write

and say in the change description why the counts moved.
"""
import dataclasses
import sys
from pathlib import Path

from minresls.bench import parse_manifest, run_suite

HERE = Path(__file__).resolve().parent
# (manifest, golden file, seeds that replace each cell's own, or None to keep them)
EXAMPLE = (HERE.parent / "demos" / "example.manifest", HERE / "golden_counts.txt",
           (3, 5, 11))
GD_FALLBACKS = (HERE / "gd_fallbacks.manifest", HERE / "golden_gd_counts.txt", None)
HEADER = ("status", "iters", "oracles")
RECORD = ("flag", "inner_iters", "step")


def count_lines(manifest, seeds):
    """One line per run of ``manifest``, at each of ``seeds`` when given."""
    cells = parse_manifest(manifest.read_text(), origin=str(manifest))
    suites = ([[dataclasses.replace(c, seed=seed) for c in cells] for seed in seeds]
              if seeds else [cells])
    lines = []
    for suite in suites:
        for t in run_suite(suite):
            tokens = [f"{t.problem}/{t.config}/seed={t.seed}/repeat={t.repeat}",
                      t.status, str(t.iters), repr(t.oracles)]
            tokens += [f"{r.flag}/{r.inner_iters}/{r.step!r}" for r in t.records]
            lines.append(" ".join(tokens))
    return lines


def first_difference(golden, now):
    """Where ``now`` first departs from ``golden``, or None when they agree."""
    if len(golden) != len(now):
        return f"{len(now)} runs, golden file has {len(golden)}"
    for want_line, got_line in zip(golden, now):
        want, got = want_line.split(), got_line.split()
        if want[0] != got[0]:
            return f"run {got[0]} where the golden file has {want[0]}"
        for name, w, g in zip(HEADER, want[1:4], got[1:4]):
            if w != g:
                return f"{got[0]}: {name} {g}, golden {w}"
        for k, (w, g) in enumerate(zip(want[4:], got[4:]), 1):
            for name, wf, gf in zip(RECORD, w.split("/"), g.split("/")):
                if wf != gf:
                    return f"{got[0]}: record k={k} {name} {gf}, golden {wf}"
        if len(want) != len(got):
            return f"{got[0]}: {len(got) - 4} records, golden {len(want) - 4}"
    return None


def assert_counts_match(manifest, golden, seeds):
    diff = first_difference(golden.read_text().splitlines(), count_lines(manifest, seeds))
    assert diff is None, diff


def test_example_manifest_counts_match_golden_file():
    assert_counts_match(*EXAMPLE)


def test_gd_fallback_counts_match_golden_file():
    assert_counts_match(*GD_FALLBACKS)
    manifest, golden, _ = GD_FALLBACKS
    lines = golden.read_text().splitlines()
    assert len(lines) == sum(ln.startswith("problem=")
                             for ln in manifest.read_text().splitlines())
    assert all(" GD/" in ln for ln in lines), "a pinned run takes no GD step"


def test_first_difference_names_the_field():
    golden = ["a/c/seed=3/repeat=0 CONVERGED 2 9.0 SOL/3/1.0 NPC/1/4.0"]
    assert first_difference(golden, golden) is None
    moved = ["a/c/seed=3/repeat=0 CONVERGED 2 9.0 SOL/3/1.0 NPC/1/2.0"]
    assert first_difference(golden, moved) == "a/c/seed=3/repeat=0: record k=2 step 2.0, golden 4.0"
    fewer = ["a/c/seed=3/repeat=0 CONVERGED 2 9.0 SOL/3/1.0"]
    assert first_difference(golden, fewer) == "a/c/seed=3/repeat=0: 1 records, golden 2"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_counts.py --write")
    for manifest, golden, seeds in (EXAMPLE, GD_FALLBACKS):
        golden.write_text("\n".join(count_lines(manifest, seeds)) + "\n")
        print(f"wrote {golden}")
