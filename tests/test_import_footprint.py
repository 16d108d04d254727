"""scipy loads only when a model is fitted.

``repro.estimate.svr`` imports scipy's L-BFGS-B kernel inside
``_solve_dual`` and ``repro.estimate.tobit`` imports ``minimize`` and
``norm`` inside ``TobitRegressor.fit``, so importing the library and
running a day without an estimator never loads scipy (about 70 MB of
resident memory and over a second of start-up on a 2-CPU host).  Each
case runs in a fresh interpreter: in this one, some other test may
have loaded scipy already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import repro
from repro.estimate import TobitRegressor


def run_fresh(code: str, stdin: str = "") -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        input=stdin, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_library_and_slurm_day_load_no_scipy():
    result = run_fresh("""
        import json, sys
        import repro, repro.api, repro.cli
        from repro.api import run_simulation
        report = run_simulation(rm="slurm", n_nodes=32, n_jobs=20).report
        print(json.dumps({
            "completed": report.schedule.n_completed,
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        }))
    """)
    assert result["completed"] > 0
    assert result["scipy"] == []


def test_training_eslurm_day_loads_optimize_not_stats():
    result = run_fresh("""
        import json, sys
        from repro.api import run_simulation
        from repro.estimate import EslurmEstimator
        estimator = EslurmEstimator()
        run_simulation(rm="eslurm", n_nodes=32, n_jobs=100, estimator=estimator)
        print(json.dumps({
            "trainings": estimator.trainings,
            "optimize": "scipy.optimize" in sys.modules,
            "stats": "scipy.stats" in sys.modules,
        }))
    """)
    assert result["trainings"] >= 1
    assert result["optimize"] is True and result["stats"] is False


def test_tobit_fits_from_a_cold_start():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 2))
    y = X @ np.array([2.0, -1.0]) + 5.0 + rng.normal(scale=0.5, size=80)
    censored = y > 7.0
    y = np.minimum(y, 7.0)
    # JSON round-trips a float exactly, so both fits see the same bits
    problem = json.dumps([X.tolist(), y.tolist(), censored.tolist()])
    result = run_fresh("""
        import json, sys
        from repro.estimate import TobitRegressor
        before = "scipy" in sys.modules
        model = TobitRegressor().fit(*json.load(sys.stdin))
        print(json.dumps({
            "before": before,
            "stats": "scipy.stats" in sys.modules,
            "coef": model.coef_.tolist(),
            "intercept": model.intercept_,
            "sigma": model.sigma_,
        }))
    """, stdin=problem)
    warm = TobitRegressor().fit(X, y, censored)
    assert result["before"] is False and result["stats"] is True
    assert result["coef"] == warm.coef_.tolist()
    assert result["intercept"] == warm.intercept_
    assert result["sigma"] == warm.sigma_
