# Drive the benchmark layer from Python: parse a manifest, run the suite,
# write trace files, and build a performance profile. The CLI (minresls run /
# minresls profile) wraps exactly these calls.

import os
import tempfile

from minresls import (
    parse_manifest,
    performance_profile,
    run_suite,
    write_profile_csv,
)
from minresls.bench import load_trace_dir, table_from_traces, write_suite

MANIFEST = """\
# two solvers on two problems, two seeds each
problem=toy_sine p.n=50 config=newton_mr seed=3
problem=toy_sine p.n=50 config=newton_mr seed=4
problem=rosenbrock p.n=20 config=newton_mr seed=3
problem=rosenbrock p.n=20 config=newton_mr seed=4
problem=toy_sine p.n=50 config=lbfgs_mr seed=3
problem=toy_sine p.n=50 config=lbfgs_mr seed=4
problem=rosenbrock p.n=20 config=lbfgs_mr seed=3
problem=rosenbrock p.n=20 config=lbfgs_mr seed=4
"""

cells = parse_manifest(MANIFEST)
print(f"{len(cells)} cells parsed")
for c in cells:
    print(f"  {c.problem_id:18s} config={c.label} seed={c.seed}")

traces = run_suite(cells)
print()
for t in traces:
    print(f"{t.problem:12s} {t.config:10s} s{t.seed}  {t.status:9s} "
          f"iters={t.iters:4d} oracles={t.oracles:8.0f}")

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "traces")
    names = write_suite(traces, out)
    print()
    print(f"wrote {len(names)} trace files, first: {names[0]}")

    # the profile compares cumulative oracle calls across solvers; a solver
    # scores tau on an instance when its cost is within a factor tau of the
    # best, and rho(tau) is the fraction of instances at or below that factor
    parsed = load_trace_dir(out)
    table = table_from_traces(parsed, metric="oracles")
    prof = performance_profile(table)
    csv_path = os.path.join(tmp, "profile.csv")
    write_profile_csv(prof, csv_path)

    print()
    print("tau   " + "  ".join(f"{s:>10s}" for s in prof.solvers))
    for i, tau in enumerate(prof.taus):
        row = "  ".join(f"{prof.fractions[s][i]:10.3f}" for s in prof.solvers)
        print(f"{tau:5.2f} {row}")

    with open(csv_path) as fh:
        print()
        print("profile.csv head:")
        for line in fh.read().splitlines()[:3]:
            print(" ", line)
