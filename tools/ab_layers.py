"""In-process A/B timing of data generation, one assembly, one LASSO path and one pipeline run in two source trees.

Each tree's ``src/eqod`` is copied to a temporary directory under its own
package name (``eqod_a``, ``eqod_b``), so both import side by side in one
process and their relative imports keep working. Per case, the calls
alternate between the trees (A then B, B then A, ...):

- ``generate_set``: each tree generates the case's data,
  ``generate_set(pde, pde.default_grid(nx, nt), 3, sigma, 42)``;
- ``assemble``: the pipeline's three-grid call (the identification grid,
  the stability grid and the identification grid's Galilean boost) on the
  union of the standard library and ``GALILEAN_BASIS``;
- ``lasso_cv``: one CV-LASSO path on the identification system restricted
  to the standard library, as ``identify_on_system`` makes it;
- ``run_eqod``: the whole pipeline, ``run_eqod(data, 42)``. What a package
  keeps across calls (the assembly's plans, the spectral multipliers)
  shows only here and in ``assemble``, whose repeated calls reuse it.

The last three run on tree A's data, rebuilt as tree B's own types from
the same arrays. The cases are every law at 128 x 128 with sigma 0 and 0.1,
and heat (sigma 0.1) and ks (sigma 0) at 1024 x 512.

Timings in separate processes spread by tens of percent on one machine,
so a change of a few percent in one layer shows only when both trees run
in one process. The script prints the median milliseconds of each call
per tree, B's median against A's, whether the two trees' data are
bitwise equal, whether their systems are (the identification and
stability systems), how far apart each of the three systems is (largest
distance over each column's, and b's, largest entry, so a change at the
rounding level is measured as well as flagged), and whether the
two ``run_eqod`` answers are identical: their ``to_json()`` text, so the
mode, fallback, library, library size, coefficients, residual ratio and
every detector field (scores, c1, rank_ok) are compared, each to the
last digit; answers that differ are described (the fields that differ,
whether the support is kept, the largest coefficient distance). It
exits with status 1 unless every case is bitwise on all
four counts, so a run of a tree against itself, or of a change that
keeps every answer, checks that the answers are reproduced.

It does not measure peak RSS. A change whose helper threads allocated
their own full-size spectra read neutral here and in a bare loop of
``run_eqod``, yet raised perfbench's large-grid ``peak_rss_mb`` from 115.8
to 123.6 MB: perfbench's ``peak_rss_mb`` is the memory check.

Run from anywhere, with the standard library and numpy:
``python tools/ab_layers.py TREE_A TREE_B [--reps N] [--cases heat-128-0.1,ks-1024x512-0]``
where a tree is a directory holding ``src/eqod`` (a checkout of the repo).
BLAS and OpenMP default to one thread unless the environment sets them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

LAWS = ("heat", "burgers", "kdv", "fisher_kpp", "adv_diff", "ks", "kdv_burgers", "react_diff")
# (name, pde, sigma, nx, nt)
CASES = (
    *((f"{pde}-128-{sigma:g}", pde, sigma, 128, 128) for pde in LAWS for sigma in (0.0, 0.1)),
    ("heat-1024x512-0.1", "heat", 0.1, 1024, 512),
    ("ks-1024x512-0", "ks", 0.0, 1024, 512),
)
SEED = 42
N_TRAJ = 3


def load_tree(tree: Path, name: str, tmp: Path):
    """Import ``tree/src/eqod`` as the package ``name``, with the modules used here."""
    src = tree / "src" / "eqod"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{tree} holds no src/eqod package")
    shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    subs = ("core", "oplib", "pipeline", "solvers", "sparse", "stability", "symmetry", "weakform")
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in subs}


def make_data(tree, pde_name: str, sigma: float, nx: int, nt: int):
    pde = tree["solvers"].PDES[pde_name]
    return tree["solvers"].generate_set(pde, pde.default_grid(nx, nt), N_TRAJ, sigma, SEED)


def rebuild(tree, trajset):
    """The same trajectories as ``tree``'s own types."""
    core = tree["core"]
    grid = core.Grid1D(**asdict(trajset.grid))
    return core.TrajectorySet(tuple(core.Trajectory(grid, tr.values) for tr in trajset))


def calls(tree, case, trajset):
    """The systems and the pipeline answer of one case, and its timed calls,
    the last three on ``trajset``, as zero-argument functions."""
    wf, oplib, sym = tree["weakform"], tree["oplib"], tree["symmetry"]
    base = oplib.standard_library()
    lib = oplib.LibrarySpec(tuple(dict.fromkeys(base.terms + sym.GALILEAN_BASIS.terms)))
    identify = wf.make_test_grid(trajset.grid, *wf.IDENTIFY_GRID)
    grids = (
        identify,
        wf.make_test_grid(trajset.grid, *tree["stability"].STABILITY_GRID),
        wf.BoostedGrid(identify, sym.GALILEAN_BOOST_C, sym.GALILEAN_BASIS),
    )
    systems = wf.assemble(trajset, lib, *grids)
    ws = systems[0].restricted(base)
    run_eqod = tree["pipeline"].run_eqod
    return (systems, run_eqod(trajset, SEED)), {
        "generate_set": lambda: make_data(tree, *case),
        "assemble": lambda: wf.assemble(trajset, lib, *grids),
        "lasso_cv": lambda: tree["sparse"].lasso_cv(ws.theta, ws.b, SEED),
        "run_eqod": lambda: run_eqod(trajset, SEED),
    }


def distance(a, b) -> tuple[float, float]:
    """How far apart two systems are: the largest distance over each
    column's largest entry (theta), and over max|b| (b)."""
    theta = float((np.abs(a.theta - b.theta) / np.abs(a.theta).max(axis=0)).max())
    return theta, float(np.abs(a.b - b.b).max() / np.abs(a.b).max())


def compare(data_a, data_b, outputs_a, outputs_b) -> tuple[bool, str]:
    """Whether every comparison is bitwise, and the report: the data, the
    plain systems, each system's distance and the pipeline answers."""
    (systems_a, res_a), (systems_b, res_b) = outputs_a, outputs_b
    data = all(np.array_equal(a.values, b.values) for a, b in zip(data_a, data_b))
    plain = all(
        np.array_equal(a.theta, b.theta) and np.array_equal(a.b, b.b) for a, b in zip(systems_a[:2], systems_b[:2])
    )
    apart = [distance(a, b) for a, b in zip(systems_a, systems_b)]
    same = res_a.to_json() == res_b.to_json()
    distances = "; ".join(
        f"{name} system apart by {theta:.1e} (theta), {resp:.1e} (b)"
        for name, (theta, resp) in zip(("identification", "stability", "boosted"), apart)
    )
    report = f"data bitwise: {data}; plain systems bitwise: {plain}; {distances}; run_eqod answers identical: {same}"
    if not same:
        report += f" ({answers_apart(res_a.to_json_dict(), res_b.to_json_dict())})"
    return data and plain and apart[2] == (0, 0) and same, report


def answers_apart(a: dict, b: dict) -> str:
    """How two ``run_eqod`` answers differ: the fields whose values do, whether
    the support is kept, and the largest coefficient distance over max|coef|."""
    terms = list(dict.fromkeys([*a["coefficients"], *b["coefficients"]]))
    ca, cb = (np.array([c["coefficients"].get(t, 0.0) for t in terms]) for c in (a, b))
    support = "kept" if np.array_equal(ca != 0, cb != 0) else "changed"
    coef = float(np.abs(ca - cb).max() / max(np.abs(ca).max(), np.abs(cb).max(), np.finfo(float).tiny))
    return f"differ in {', '.join(k for k in a if a[k] != b[k])}; support {support}; coefficients apart by {coef:.1e}"


def time_case(fns_a, fns_b, reps: int) -> dict:
    """Alternating wall times, in ms, of each call: {call: (A times, B times)}."""
    out = {name: ([], []) for name in fns_a}
    for name in fns_a:
        for rep in range(reps):
            order = ((0, fns_a), (1, fns_b)) if rep % 2 == 0 else ((1, fns_b), (0, fns_a))
            for side, fns in order:
                t0 = time.perf_counter()
                fns[name]()
                out[name][side].append(1e3 * (time.perf_counter() - t0))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--reps", type=int, default=30, help="timed calls per tree, call and case")
    parser.add_argument("--cases", default=",".join(c[0] for c in CASES), help="comma-separated case names")
    args = parser.parse_args(argv)
    chosen = args.cases.split(",")
    unknown = sorted(set(chosen) - {c[0] for c in CASES})
    if unknown:
        parser.error(f"unknown cases {unknown}; choose from {[c[0] for c in CASES]}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        tree_a = load_tree(args.tree_a.resolve(), "eqod_a", Path(tmp))
        tree_b = load_tree(args.tree_b.resolve(), "eqod_b", Path(tmp))
        print(f"A = {args.tree_a}, B = {args.tree_b}; {args.reps} alternating calls each; median ms")
        print(f"{'case':<19} {'call':<12} {'A':>9} {'B':>9} {'B/A - 1':>8}")
        differ = []
        for name, *case in CASES:
            if name not in chosen:
                continue
            data_a, data_b = make_data(tree_a, *case), make_data(tree_b, *case)
            outputs_a, fns_a = calls(tree_a, case, data_a)
            outputs_b, fns_b = calls(tree_b, case, rebuild(tree_b, data_a))
            for call, (times_a, times_b) in time_case(fns_a, fns_b, args.reps).items():
                med_a, med_b = statistics.median(times_a), statistics.median(times_b)
                print(f"{name:<19} {call:<12} {med_a:9.3f} {med_b:9.3f} {100 * (med_b / med_a - 1):+7.1f}%")
            bitwise, report = compare(data_a, data_b, outputs_a, outputs_b)
            print(f"{'':<19} {report}")
            if not bitwise:
                differ.append(name)
    if differ:
        raise SystemExit(f"not bitwise: {', '.join(differ)}")


if __name__ == "__main__":
    main()
