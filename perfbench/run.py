"""End-to-end and per-layer benchmark of ``eqod.run_eqod``.

    python3 perfbench/run.py --workload grid-quick --seed 42 --seconds 10 --trace 0

Each workload's cells are trajectory sets of M = 3 trajectories. Their
initial conditions are those of ``generate_set`` with seed 42; ``--seed``
draws the measurement noise, so ``--seed 42`` gives exactly
``generate_set(pde, grid, 3, sigma, 42)``. Each set is identified by
``run_eqod`` with seed 42 and default configs. ``--trace 0`` prints the
end-to-end metrics, measured with only a capture of ``lasso_cv``'s answers
installed; their times are in reference seconds (see ``hostspeed``).
``--trace 1`` runs one traced pass and prints the per-layer metrics.
``--workload all`` runs every workload, each in its own process.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

# The program is single-threaded; one BLAS thread keeps the timings from
# depending on what else runs on the machine's other core. numpy is first
# imported in main(), after this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Seed of the initial conditions and of run_eqod's own random streams (CV
# folds, stability subsamples). Either moves run_eqod's cost by up to 4x
# from one draw to the next, so both stay fixed and --seed draws the noise.
FIXED_SEED = 42

# Spans installed outside the traced pass: the capture of lasso_cv's answers
# for the KKT check, and the solvers during a traced run's set-up.
CAPTURE = {"sparse.lasso_cv"}
GENERATE = {"solvers.generate_set", "solvers.add_noise"}

# Fresh interpreters that time ``import eqod`` besides this process's own
# import; setup_s takes the median of the five. The import is file and
# loader work: its wall time did not follow the host-speed probe, so it
# stays in wall seconds.
IMPORT_PROBES = 4
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import eqod; print(time.perf_counter() - t0)"


@dataclass(frozen=True)
class Cell:
    """One trajectory set: a benchmark PDE at one noise level on one grid."""

    pde: str
    sigma: float
    nx: int = 128
    nt: int = 128

    @property
    def id(self) -> str:
        return f"{self.pde}/sigma={self.sigma:g}/{self.nx}x{self.nt}"


@dataclass(frozen=True)
class Workload:
    cells: tuple[Cell, ...]
    setup_reps: int  # set-ups per run; setup_s takes their median


WORKLOADS = {
    # The paper's grid in miniature: each noise level once, both pipeline
    # modes; CV-LASSO takes nearly all of run_eqod here.
    "grid-quick": Workload(
        (
            Cell("heat", 0.0),
            Cell("heat", 0.05),
            Cell("heat", 0.20),
            Cell("adv_diff", 0.0),
            Cell("adv_diff", 0.10),
            Cell("ks", 0.0),
        ),
        setup_reps=5,
    ),
    # Large grid: the solvers set setup_s; assembly, term evaluation and
    # spectral derivatives are a large share of run_eqod. One set-up takes
    # about 16 s, so a run makes only one. ks is clean: at sigma = 0.10 its
    # identification time moved from 8.7 to 15.1 s with the noise draw.
    "large-grid": Workload(
        (Cell("heat", 0.10, 1024, 512), Cell("ks", 0.0, 1024, 512)),
        setup_reps=1,
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "identify_s": "s",
    "support_f1": "fraction",
    "coef_digits": "digits",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "solvers.generate_s": "s",
    "spectral.derivative_calls": "count",
    "spectral.derivative_s": "s",
    "oplib.evaluate_term_calls": "count",
    "oplib.evaluate_term_self_s": "s",
    "weakform.assemble_calls": "count",
    "weakform.assemble_self_s": "s",
    "weakform.field_mb": "MB",
    "sparse.lasso_cv_calls": "count",
    "sparse.lasso_cv_s": "s",
    "sparse.lasso_calls": "count",
    "sparse.lasso_s": "s",
    "sparse.unconverged_warnings": "count",
    "sparse.kkt_rel_max": "ratio",
    "stability.gate_self_s": "s",
    "stability.kept_terms": "count",
    "symmetry.detect_self_s": "s",
    "symmetry.galilean_cells": "count",
    "pipeline.run_eqod_s": "s",
    "pipeline.self_s": "s",
    "pipeline.fallbacks": "count",
    "trace.coverage": "fraction",
    "trace.overhead": "ratio",
}


def import_seconds(in_process: float) -> list[float]:
    """Wall seconds of this process's ``import eqod`` and of IMPORT_PROBES
    more, each in a fresh interpreter with the same environment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    times = [in_process]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
        )
        times.append(float(out.stdout))
    return times


def make_set(cell: Cell, seed: int):
    """generate_set's clean trajectories (seed 42) with noise drawn from ``seed``
    the way generate_set draws it."""
    from eqod import TrajectorySet, solvers

    pde = solvers.PDES[cell.pde]
    clean = solvers.generate_set(pde, pde.default_grid(cell.nx, cell.nt), 3, 0.0, FIXED_SEED)
    noise = solvers.RngStream(seed + solvers.NOISE_SEED_OFFSET)
    return TrajectorySet(
        tuple(solvers.add_noise(tr, cell.sigma, noise.generator(i)) for i, tr in enumerate(clean))
    )


class Outcome(NamedTuple):
    result: Any  # IdentificationResult, or the exception run_eqod raised
    seconds: float  # wall
    ref_seconds: float
    warnings: list[str]


def identify(trajset, tag: str, tracer, speed) -> Outcome:
    """One timed run_eqod call."""
    from eqod import pipeline

    tracer.cell = tag
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with speed.timed() as timing:
            try:
                res = pipeline.run_eqod(trajset, FIXED_SEED)
            except Exception as exc:  # a failed operation is counted, not fatal
                res = exc
    return Outcome(res, timing.wall, timing.ref, [str(w.message) for w in caught])


def set_up(workload: Workload, seed: int, tracer, traced: bool, speed):
    """Build every cell's trajectory set ``setup_reps`` times; returns (data, Timing per set-up)."""
    times, data = [], {}
    for rep in range(workload.setup_reps):
        tracer.cell = f"setup{rep}"
        with tracer.installed(GENERATE if traced else ()), speed.timed() as timing:
            for cell in workload.cells:
                data[cell] = make_set(cell, seed)
        times.append(timing)
    return data, times


def run_passes(workload: Workload, data, seconds: float, traced: bool, tracer, speed):
    """Whole passes over the cells; returns a list of {cell: identify(...)} per pass.

    An untraced run repeats passes until ``seconds`` have elapsed (at least
    one) with only CAPTURE installed; a traced run makes one pass with
    every layer traced.
    """
    if traced:
        with tracer.installed():
            return [{c: identify(data[c], f"pass0:{c.id}", tracer, speed) for c in workload.cells}]
    passes = []
    t0 = time.perf_counter()
    with tracer.installed(CAPTURE):
        while time.perf_counter() - t0 < seconds or not passes:
            passes.append({c: identify(data[c], f"pass{len(passes)}:{c.id}", tracer, speed) for c in workload.cells})
    return passes


def check_run(workload: Workload, data, passes, repeat, tracer):
    """Run every correctness check.

    Returns (problems, failed, kkt): every check that failed, the operations
    that raised, and each operation's worst KKT violation of a lasso_cv answer.
    """
    import checks
    from eqod import solvers

    kkt = {}
    for span in tracer.spans:
        if span.name != "sparse.lasso_cv":
            continue
        if span.result is None:  # lasso_cv raised
            continue
        (theta, b, *_), _ = span.args
        lam, xi = span.result[:2]
        kkt[span.cell] = max(kkt.get(span.cell, 0.0), checks.kkt_violation(theta, b, lam, xi))

    problems, failed = [], {}
    for cell in workload.cells:
        pde = solvers.PDES[cell.pde]
        ts = data[cell]
        if cell.pde in ("heat", "adv_diff"):
            for i, tr in enumerate(ts):
                u0 = solvers.initial_condition(pde, ts.grid, solvers.RngStream(FIXED_SEED).generator(i))
                exact = checks.exact_linear(pde, u0, ts.grid)
                problems += [f"{cell.id} traj {i}: {m}" for m in checks.check_closed_form(tr.values, exact, cell.sigma)]
        elif cell.sigma == 0.0:
            problems += [f"{cell.id}: {m}" for m in checks.check_weak_residual(ts, pde.true_coeffs)]

        runs = [(f"pass{k}:{cell.id}", p[cell].result) for k, p in enumerate(passes)]
        if cell in repeat:
            runs.append((f"repeat:{cell.id}", repeat[cell].result))
        first = runs[0][1]
        for tag, res in runs:
            if isinstance(res, Exception):
                failed[tag] = f"{type(res).__name__}: {res}"
                continue
            msgs = checks.check_structure(res) + checks.check_kkt(kkt.get(tag, math.inf))
            if cell.sigma == 0.0:
                msgs += checks.check_recovery(res, pde.true_coeffs)
            problems += [f"{tag}: {m}" for m in msgs]
            if not isinstance(first, Exception):
                problems += [f"{tag}: {m}" for m in checks.check_repeat(first.coeffs, res.coeffs)]
    return problems, failed, kkt


def e2e_metrics(workload: Workload, passes, setup_s: float) -> dict:
    import checks
    from eqod import PDES

    f1s, digits = [], []
    for cell in workload.cells:
        res = passes[0][cell].result
        if isinstance(res, Exception):
            continue
        pde = PDES[cell.pde]
        f1s.append(checks.f1(res.support(), pde.true_support))
        err = checks.max_rel_coef_error(res.coeffs, pde.true_coeffs)
        digits.append(-math.log10(max(err, sys.float_info.epsilon)))
    return {
        "setup_s": setup_s,
        "identify_s": statistics.median(sum(o.ref_seconds for o in p.values()) for p in passes),
        "support_f1": statistics.mean(f1s) if f1s else 0.0,
        "coef_digits": statistics.mean(digits) if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, traced_pass, repeat, setup_reps: int, kkt) -> dict:
    """Per-layer counts and times from the traced pass.

    ``repeat`` holds the untraced call on the cheapest cell; trace.overhead
    compares that cell's traced and untraced times, in reference seconds.
    """
    self_times = tracer.self_times()
    traced = [i for i, s in enumerate(tracer.spans) if s.cell and s.cell.startswith("pass0:")]

    def calls(name):
        return [i for i in traced if tracer.spans[i].name == name]

    def total(name):
        return sum(tracer.spans[i].seconds for i in calls(name))

    def self_total(name):
        return sum(self_times[i] for i in calls(name))

    generate = [
        sum(
            s.seconds
            for s in tracer.spans
            if s.name.startswith("solvers.") and s.parent is None and s.cell == f"setup{r}"
        )
        for r in range(setup_reps)
    ]
    field_bytes = [
        len(ts) * len(spec) * ts.grid.nt * ts.grid.nx * 8
        for ts, spec, *_ in (tracer.spans[i].args[0] for i in calls("weakform.assemble"))
    ]
    results = [o.result for o in traced_pass.values() if not isinstance(o.result, Exception)]
    (cell, untraced), = repeat.items()
    run_s = total("pipeline.run_eqod")
    pipeline_self = self_total("pipeline.run_eqod")
    return {
        "solvers.generate_s": statistics.median(generate),
        "spectral.derivative_calls": len(calls("spectral.spectral_derivative")),
        "spectral.derivative_s": total("spectral.spectral_derivative"),
        "oplib.evaluate_term_calls": len(calls("oplib.evaluate_term")),
        "oplib.evaluate_term_self_s": self_total("oplib.evaluate_term"),
        "weakform.assemble_calls": len(calls("weakform.assemble")),
        "weakform.assemble_self_s": self_total("weakform.assemble"),
        "weakform.field_mb": max(field_bytes, default=0) / 2**20,
        "sparse.lasso_cv_calls": len(calls("sparse.lasso_cv")),
        "sparse.lasso_cv_s": total("sparse.lasso_cv"),
        "sparse.lasso_calls": len(calls("sparse.lasso")),
        "sparse.lasso_s": total("sparse.lasso"),
        "sparse.unconverged_warnings": sum(
            "did not converge" in w for o in traced_pass.values() for w in o.warnings
        ),
        "sparse.kkt_rel_max": max(kkt.values(), default=math.nan),
        "stability.gate_self_s": self_total("stability.stability_gate"),
        "stability.kept_terms": sum(len(tracer.spans[i].result[0]) for i in calls("stability.stability_gate")),
        "symmetry.detect_self_s": self_total("symmetry.detect_all"),
        "symmetry.galilean_cells": sum(
            bool(r.symmetry_report and r.symmetry_report.galilean.detected) for r in results
        ),
        "pipeline.run_eqod_s": run_s,
        "pipeline.self_s": pipeline_self,
        "pipeline.fallbacks": sum(r.fallback_triggered for r in results),
        "trace.coverage": (run_s - pipeline_self) / run_s,
        "trace.overhead": traced_pass[cell].ref_seconds / untraced.ref_seconds,
    }


def describe(outcome: Outcome) -> dict:
    res = outcome.result
    if isinstance(res, Exception):
        return {"seconds": outcome.seconds, "ref_seconds": outcome.ref_seconds, "error": f"{type(res).__name__}: {res}"}
    return {
        "seconds": outcome.seconds,
        "ref_seconds": outcome.ref_seconds,
        "mode": res.mode,
        "fallback": res.fallback_triggered,
        "support": sorted(t.tag for t in res.support()),
        "coefficients": {t.tag: float(v) for t, v in zip(res.coeffs.terms, res.coeffs.values) if v},
        "warnings": outcome.warnings,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=42, help="noise seed; 7 is the second seed for checking claims")
    ap.add_argument("--seconds", type=float, default=10.0, help="time over which whole passes repeat")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in its own process and combine their last lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import eqod

    import_times = import_seconds(time.perf_counter() - t0)
    import hostspeed
    from spans import Tracer

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    probe_before = 1e6 * hostspeed.spot_probe_s()

    tracer = Tracer(keep_io=CAPTURE | {"weakform.assemble", "stability.stability_gate"})
    speed = hostspeed.HostSpeed()
    with speed.sampling():
        data, setup_times = set_up(workload, args.seed, tracer, traced, speed)
        passes = run_passes(workload, data, args.seconds, traced, tracer, speed)
        # One pass compares nothing, so the cheapest cell runs again, untraced,
        # for the repeat check (and, in a traced run, for trace.overhead).
        repeat = {}
        if len(passes) == 1:
            cell = min(workload.cells, key=lambda c: passes[0][c].ref_seconds)
            with tracer.installed(CAPTURE):
                repeat[cell] = identify(data[cell], f"repeat:{cell.id}", tracer, speed)

    problems, failed, kkt = check_run(workload, data, passes, repeat, tracer)
    if traced:
        metrics, units = layer_metrics(tracer, passes[0], repeat, workload.setup_reps, kkt), LAYER_UNITS
    else:
        setup_s = statistics.median(import_times) + statistics.median(t.ref for t in setup_times)
        metrics, units = e2e_metrics(workload, passes, setup_s), E2E_UNITS
    probe_after = 1e6 * hostspeed.spot_probe_s()

    pass_times = [sum(o.seconds for o in p.values()) for p in passes]
    probe_us = 1e6 * statistics.median(speed.samples)
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:30s} {value:14.6g} {units[name]}")
    print(f"{args.workload:12s} passes {len(passes)}, wall seconds {[round(t, 3) for t in pass_times]}")
    print(f"{args.workload:12s} set-up wall seconds {[round(t.wall, 3) for t in setup_times]}")
    print(
        f"{args.workload:12s} probe_us before {probe_before:.1f} during {probe_us:.1f} after {probe_after:.1f}"
        f" (reference {1e6 * hostspeed.REF_PROBE_S:g})"
    )
    for m in problems:
        print(f"CHECK FAILED {m}", file=sys.stderr)
    for tag, err in failed.items():
        print(f"FAILED {tag}: {err}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(passes) * len(workload.cells) + len(repeat),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        eqod_version=eqod.__version__,
        probe_us={"before": probe_before, "during": probe_us, "after": probe_after},
        import_seconds=import_times,
        repeat_seconds={c.id: o.seconds for c, o in repeat.items()},
        setup_seconds=[dataclasses.asdict(t) for t in setup_times],
        pass_seconds=pass_times,
        problems=problems,
        failed_operations=failed,
        kkt_rel=kkt,
        cells={c.id: [describe(p[c]) for p in passes] for c in workload.cells},
    )
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
