"""The paper's evaluation grid as a gate on the pipeline's answers.

8 laws x sigma in SIGMAS x seeds 0-4, M=3 trajectories on each law's
default 128 x 128 grid, with the run seed equal to the data seed. Each
run's mode, fallback, library and support must equal the recorded
baseline, and each coefficient must lie within COEF_RTOL of the run's
largest |coefficient|; the 32 cell-mean F1 values must equal theirs.

A change that moves answers on purpose rewrites the baseline in its own
diff:

    PYTHONPATH=src python tests/test_evaluation_gate.py
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
        for field in ("mode", "fallback", "library", "support"):
            assert run[field] == ref[field], (key, field)
        assert list(run["coefficients"]) == list(ref["coefficients"]), key
        coef = np.array(list(run["coefficients"].values()))
        ref_coef = np.array(list(ref["coefficients"].values()))
        scale = np.abs(ref_coef).max()
        deviation = np.abs(coef - ref_coef).max()
        assert deviation <= COEF_RTOL * scale, (key, deviation, scale)
        worst = max(worst, deviation / scale if scale else deviation)
    print(f"{law}: largest coefficient deviation {worst:.3g} of the run's max |coef|")


def test_cell_mean_f1(runs, baseline):
    got = {key: run for law in LAWS for key, run in runs(law).items()}
    assert len(got) == len(LAWS) * len(SIGMAS) * len(SEEDS) == 160
    assert cell_means(got) == baseline["cell_mean_f1"]


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
    BASELINE.parent.mkdir(exist_ok=True)
    BASELINE.write_text(json.dumps({"runs": all_runs, "cell_mean_f1": cell_means(all_runs)}, indent=1) + "\n")
    print(f"wrote {len(all_runs)} runs to {BASELINE}")
