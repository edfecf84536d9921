"""The paper's evaluation grid as a gate on the pipeline's answers.

8 laws x sigma in SIGMAS x seeds 0-4, M=3 trajectories on each law's
default 128 x 128 grid, with the run seed equal to the data seed. Each
run's mode, fallback, library and support must equal the recorded
baseline, and each coefficient must lie within COEF_RTOL of the run's
largest |coefficient|; the 32 cell-mean F1 values must equal theirs.

A change that moves answers on purpose rewrites the baseline in its own
diff:

    PYTHONPATH=src python tests/test_evaluation_gate.py

Before it writes, the command prints ``changes`` of the committed record:
every run whose mode, fallback, library or support moved, every cell whose
mean F1 moved and the largest coefficient deviation.
"""

import json
import pathlib

import numpy as np
import pytest

from eqod.core import NOISE_SEED_OFFSET, RngStream, TrajectorySet, f1_score
from eqod.pipeline import run_eqod
from eqod.solvers import PDES, add_noise, generate_set

BASELINE = pathlib.Path(__file__).parent / "data" / "evaluation_baseline.json"
LAWS = sorted(PDES)
SIGMAS = (0.0, 0.05, 0.1, 0.2)
SEEDS = range(5)
M = 3
COEF_RTOL = 1e-9
# The fields of a run that must equal the baseline's exactly.
RUN_FIELDS = ("mode", "fallback", "library", "support")


def noisy_sets(pde, seed):
    """generate_set(pde, grid, M, sigma, seed) for every sigma of SIGMAS
    from one clean solve: sigma only scales the noise, which is drawn
    after the solve from its own substreams."""
    clean = generate_set(pde, pde.default_grid(), M, 0.0, seed)
    noise = RngStream(seed + NOISE_SEED_OFFSET)
    return {
        sigma: TrajectorySet(tuple(add_noise(tr, sigma, noise.generator(i)) for i, tr in enumerate(clean)))
        for sigma in SIGMAS
    }


def run_key(law, sigma, seed):
    return f"{law}/{sigma}/{seed}"


def law_runs(law):
    """The JSON record of each of one law's runs, by run_key."""
    pde = PDES[law]
    truth = pde.true_support
    runs = {}
    for seed in SEEDS:
        for sigma, ts in noisy_sets(pde, seed).items():
            res = run_eqod(ts, seed)
            runs[run_key(law, sigma, seed)] = {
                "mode": res.mode,
                "fallback": res.fallback_triggered,
                "library": list(res.library_used.tags),
                "support": sorted(t.tag for t in res.support()),
                "coefficients": {t.tag: float(v) for t, v in zip(res.coeffs.terms, res.coeffs.values)},
                "f1": f1_score(res.support(), truth)[2],
            }
    return runs


def coefficient_deviation(run, ref):
    """(largest |coefficient - reference|, the reference's largest |coefficient|)."""
    coef = np.array(list(run["coefficients"].values()))
    ref_coef = np.array(list(ref["coefficients"].values()))
    return float(np.abs(coef - ref_coef).max()), float(np.abs(ref_coef).max())


def changes(old, new):
    """The lines that list how record ``new`` moved from record ``old``.

    One line per run whose RUN_FIELDS differ (old -> new, with its F1),
    one per cell whose mean F1 moved, and a last line with the largest
    coefficient deviation, relative to the run's largest |coefficient|,
    over the other runs, the ones the gate holds to COEF_RTOL.
    """
    lines = []
    worst, worst_key = 0.0, None
    for key, run in new["runs"].items():
        ref = old["runs"][key]
        moved = [f"{field} {ref[field]} -> {run[field]}" for field in RUN_FIELDS if run[field] != ref[field]]
        if moved:
            lines.append(f"{key}: {'; '.join(moved)}; F1 {ref['f1']:.3f} -> {run['f1']:.3f}")
        else:
            deviation, scale = coefficient_deviation(run, ref)
            relative = deviation / scale if scale else deviation
            if relative > worst or worst_key is None:
                worst, worst_key = relative, key
    for cell, mean in new["cell_mean_f1"].items():
        was = old["cell_mean_f1"][cell]
        if mean != was:
            lines.append(f"cell {cell}: mean F1 {was:.3f} -> {mean:.3f}")
    lines.append(f"largest coefficient deviation {worst:.3g} of the run's max |coef| ({worst_key})")
    return lines


def cell_means(runs):
    """Mean F1 over the seeds of each (law, sigma) cell, by 'law/sigma'."""
    return {
        f"{law}/{sigma}": float(np.mean([runs[run_key(law, sigma, seed)]["f1"] for seed in SEEDS]))
        for law in LAWS
        for sigma in SIGMAS
    }


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


@pytest.fixture(scope="module")
def runs():
    """Every law's runs, made on first use."""
    cache = {}

    def get(law):
        if law not in cache:
            cache[law] = law_runs(law)
        return cache[law]

    return get


@pytest.mark.parametrize("law", LAWS)
def test_runs_match_the_baseline(law, runs, baseline):
    got = runs(law)
    worst = 0.0
    for key, run in got.items():
        ref = baseline["runs"][key]
        for field in RUN_FIELDS:
            assert run[field] == ref[field], (key, field)
        assert list(run["coefficients"]) == list(ref["coefficients"]), key
        deviation, scale = coefficient_deviation(run, ref)
        assert deviation <= COEF_RTOL * scale, (key, deviation, scale)
        worst = max(worst, deviation / scale if scale else deviation)
    print(f"{law}: largest coefficient deviation {worst:.3g} of the run's max |coef|")


def test_cell_mean_f1(runs, baseline):
    got = {key: run for law in LAWS for key, run in runs(law).items()}
    assert len(got) == len(LAWS) * len(SIGMAS) * len(SEEDS) == 160
    assert cell_means(got) == baseline["cell_mean_f1"]


def hand_record(heat_support, heat_f1, kdv_coef):
    runs = {
        "heat/0.1/0": {
            "mode": "stability",
            "fallback": False,
            "library": ["u_xx"],
            "support": heat_support,
            "coefficients": {"u_x": 0.0, "u_xx": 0.1},
            "f1": heat_f1,
        },
        "kdv/0.1/0": {
            "mode": "symmetry",
            "fallback": False,
            "library": ["u_xxx", "u*u_x"],
            "support": ["u_xxx", "u*u_x"],
            "coefficients": {"u_xxx": -1.0, "u*u_x": kdv_coef},
            "f1": 1.0,
        },
    }
    return {"runs": runs, "cell_mean_f1": {"heat/0.1": heat_f1, "kdv/0.1": 1.0}}


class TestChanges:
    def test_lists_moved_runs_cells_and_the_largest_deviation(self):
        old = hand_record(["u_xx"], 1.0, -6.0)
        new = hand_record(["u_x", "u_xx"], 2 / 3, -6.0 + 3e-9)
        assert changes(old, new) == [
            "heat/0.1/0: support ['u_xx'] -> ['u_x', 'u_xx']; F1 1.000 -> 0.667",
            "cell heat/0.1: mean F1 1.000 -> 0.667",
            "largest coefficient deviation 5e-10 of the run's max |coef| (kdv/0.1/0)",
        ]

    def test_equal_records_list_only_the_deviation(self):
        record = hand_record(["u_xx"], 1.0, -6.0)
        assert changes(record, record) == [
            "largest coefficient deviation 0 of the run's max |coef| (heat/0.1/0)"
        ]

    def test_moved_runs_have_no_deviation(self):
        old = hand_record(["u_xx"], 1.0, -6.0)
        new = hand_record(["u_xx"], 1.0, -9.0)
        new["runs"]["kdv/0.1/0"]["library"] = ["u_xxx", "u*u_x", "u_x"]
        assert changes(old, new) == [
            "kdv/0.1/0: library ['u_xxx', 'u*u_x'] -> ['u_xxx', 'u*u_x', 'u_x']; F1 1.000 -> 1.000",
            "largest coefficient deviation 0 of the run's max |coef| (heat/0.1/0)",
        ]


@pytest.mark.parametrize("law", LAWS)
def test_one_solve_serves_every_noise_level(law):
    # the gate's noisy sets are bitwise the generate_set calls they stand for
    pde = PDES[law]
    for sigma, ts in noisy_sets(pde, 0).items():
        if not sigma:
            continue  # the clean set is generate_set's own
        ref = generate_set(pde, pde.default_grid(), M, sigma, 0)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(ts, ref))


if __name__ == "__main__":
    all_runs = {key: run for law in LAWS for key, run in law_runs(law).items()}
    record = {"runs": all_runs, "cell_mean_f1": cell_means(all_runs)}
    if BASELINE.exists():
        print(*changes(json.loads(BASELINE.read_text()), record), sep="\n")
    BASELINE.parent.mkdir(exist_ok=True)
    BASELINE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(all_runs)} runs to {BASELINE}")
