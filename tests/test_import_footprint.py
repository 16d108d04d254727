"""scipy loads only when a model is fitted, and an SVR fit loads only
L-BFGS-B's kernel.

``repro.estimate.svr._setulb`` loads the ``scipy.optimize._lbfgsb``
extension at the first SVR fit, without the ``scipy.optimize``
package, and ``repro.estimate.tobit`` imports ``minimize`` and ``norm``
inside ``TobitRegressor.fit``.  So importing the library and running a
day without an estimator never loads scipy, and an ESLURM day that
trains loads ``import scipy`` plus one extension module, not
``scipy.optimize`` (resident memory on a 2-CPU host: numpy alone
≈27 MB, with the kernel ≈30 MB, with the whole package ≈76 MB).  Each case runs in a fresh
interpreter: in this one, some other test may have loaded scipy
already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import repro
from repro.estimate import SVR, TobitRegressor
from tests.estimate.test_svr_driver import cluster_problem, minimize_result


def run_fresh(code: str, stdin: str = "", env: dict[str, str] | None = None) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it prints.

    ``env`` replaces this process's environment (``PYTHONPATH`` aside).
    """
    env = os.environ if env is None else env
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**env, "PYTHONPATH": path},
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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_import_pins_one_blas_thread_before_numpy():
    """``import repro`` sets one BLAS thread before numpy loads, so the
    setting reaches numpy; a value the user set wins."""
    code = f"""
        import json, os, sys
        import repro
        print(json.dumps({{
            "env": {{v: os.environ.get(v) for v in {BLAS_VARS!r}}},
            "numpy": "numpy" in sys.modules,
        }}))
    """
    # this interpreter imported repro already: start from an unpinned copy
    unpinned = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    one = dict.fromkeys(BLAS_VARS, "1")
    assert run_fresh(code, env=unpinned) == {"env": one, "numpy": False}
    user = run_fresh(code, env={**unpinned, "OPENBLAS_NUM_THREADS": "4"})
    assert user["env"] == {**one, "OPENBLAS_NUM_THREADS": "4"}


def test_training_eslurm_day_loads_lbfgsb_kernel_only():
    result = run_fresh("""
        import json, sys
        from repro.api import run_simulation
        from repro.estimate import EslurmEstimator
        estimator = EslurmEstimator()
        run_simulation(rm="eslurm", n_nodes=32, n_jobs=100, estimator=estimator)
        print(json.dumps({
            "trainings": estimator.trainings,
            "kernel": "scipy.optimize._lbfgsb" in sys.modules,
            "optimize": "scipy.optimize" in sys.modules,
            "stats": "scipy.stats" in sys.modules,
        }))
    """)
    assert result["trainings"] >= 1
    assert result["kernel"] is True
    assert result["optimize"] is False and result["stats"] is False


def tobit_problem():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 2))
    y = X @ np.array([2.0, -1.0]) + 5.0 + rng.normal(scale=0.5, size=80)
    censored = y > 7.0
    return X, np.minimum(y, 7.0), censored


def tobit_result(model: TobitRegressor) -> dict:
    return {"coef": model.coef_.tolist(), "intercept": model.intercept_,
            "sigma": model.sigma_}


def test_tobit_fits_from_a_cold_start():
    X, y, censored = tobit_problem()
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
    assert {k: result[k] for k in ("coef", "intercept", "sigma")} == tobit_result(warm)


def test_cold_svr_kernel_is_shared_with_scipy_optimize():
    """A cold SVR fit, then ``import scipy.optimize``, then a Tobit fit,
    all in one interpreter: the package adopts the kernel module the SVR
    loaded, and both fits match the warm ones."""
    svr_X, svr_y = cluster_problem(40, seed=7)
    X, y, censored = tobit_problem()
    problem = json.dumps([svr_X.tolist(), svr_y.tolist(),
                          [X.tolist(), y.tolist(), censored.tolist()]])
    result = run_fresh("""
        import json, sys
        from repro.estimate import SVR, TobitRegressor
        svr_X, svr_y, tobit = json.load(sys.stdin)
        svr = SVR(gamma=10.0 / 13).fit(svr_X, svr_y)
        kernel = sys.modules["scipy.optimize._lbfgsb"]
        optimize_after_fit = "scipy.optimize" in sys.modules
        import scipy.optimize
        shared = sys.modules["scipy.optimize._lbfgsb"] is kernel
        model = TobitRegressor().fit(*tobit)
        print(json.dumps({
            "optimize_after_fit": optimize_after_fit,
            "shared": shared,
            "beta": svr._beta.tolist(),
            "tobit": {"coef": model.coef_.tolist(), "intercept": model.intercept_,
                      "sigma": model.sigma_},
        }))
    """, stdin=problem)
    assert result["optimize_after_fit"] is False
    assert result["shared"] is True
    warm = SVR(gamma=10.0 / 13).fit(svr_X, svr_y)
    res = minimize_result(warm, svr_X, svr_y)
    n = len(svr_y)
    assert result["beta"] == (res.x[:n] - res.x[n:]).tolist()
    assert result["tobit"] == tobit_result(TobitRegressor().fit(X, y, censored))
