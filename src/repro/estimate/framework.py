"""The ESLURM job-runtime-estimation framework (Section V, Fig. 6).

Three cooperating modules, exactly as in the paper:

* **Estimation model generator** — every ``refresh_interval`` (default
  15 h, chosen from the job-correlation decay of Fig. 5b) it takes the
  last ``window`` jobs (default 700, from the job-ID-gap decay of
  Fig. 5c), clusters them with K-means++ (K by the elbow method, or a
  fixed K — the paper lands on 15), and trains one ε-SVR per cluster
  in log-runtime space.  A cluster's SVR is fitted when the first job
  is routed to it: a generation's unqueried clusters are never fitted,
  and the answers are the same as an eager fit's (the fit draws no
  random numbers and its inputs are fixed at the refresh).
* **Real-time estimation module** — event-driven: encodes a newly
  submitted job, matches the nearest cluster, predicts, multiplies by
  the slack α (Eq. 3, default 1.05) to penalise underestimation, and
  *gates on AEA*: when the user supplied an estimate, the model's
  value is used only if the matched cluster's average estimation
  accuracy exceeds ``aea_gate`` (90 %).
* **Record module** — on job completion, scores the model's (pre-slack)
  estimate with Eq. 4 and updates the owning cluster's running AEA
  (Eq. 5).
"""

from __future__ import annotations

import math
import typing as t
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, EstimationError
from repro.estimate.features import FeatureEncoder, FeatureKey, feature_key
from repro.estimate.kmeans import KMeans, elbow_k
from repro.estimate.metrics import estimation_accuracy
from repro.estimate.svr import SVR
from repro.sched.job import Job
from repro.telemetry import facade as telemetry

HOUR = 3600.0


#: ``EstimatorConfig`` fields that count jobs or clusters
_INT_FIELDS = ("window", "min_history", "k_clusters", "k_max", "min_cluster_size", "refresh_jobs")


@dataclass(frozen=True)
class EstimatorConfig:
    """Tunables of the ESLURM estimation framework.

    Defaults are the paper's production settings; ``slack`` is swept in
    Table VIII and ``window`` / ``refresh_interval_s`` are exposed to
    administrators just as the paper describes.
    """

    window: int = 700
    refresh_interval_s: float = 15 * HOUR
    #: the paper's elbow method gave K = 15 on its production trace; K
    #: should track the number of distinct job groups in the window
    #: (sweep it when the workload has many more applications).
    k_clusters: int | None = 15  # None -> elbow method
    k_max: int = 25
    slack: float = 1.05
    aea_gate: float = 0.90
    min_history: int = 30
    min_cluster_size: int = 3
    #: also retrain after this many completions, whichever comes first —
    #: keeps early models from going stale while history is still short.
    refresh_jobs: int = 50
    #: upward bias, in per-cluster log-residual standard deviations —
    #: tight clusters barely move, noisy clusters get a safety margin.
    #: This is the statistically-grounded half of "penalise
    #: underestimation"; Eq. 3's slack α is the flat half.
    q_sigma: float = 1.0
    #: lower bound on the per-cluster residual scale used for the
    #: uplift: in-sample residuals understate out-of-sample spread, and
    #: an uplift of zero would leave ~50 % of predictions underestimates.
    resid_floor: float = 0.1

    def __post_init__(self) -> None:
        # a float or NaN count slips past the range checks below and
        # fails later (deque(maxlen=...), KMeans) or turns a trigger off;
        # a numpy integer is stored as the int it equals
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and name == "k_clusters":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.window < self.min_history or self.min_history < 2:
            raise ConfigurationError("window must hold at least min_history >= 2 jobs")
        # NaN fails every comparison, so these checks are written to
        # pass only in range; an infinite interval means "never retrain
        # on time".
        if not self.refresh_interval_s > 0:
            raise ConfigurationError("refresh interval must be positive")
        if self.k_clusters is not None and self.k_clusters < 1:
            raise ConfigurationError("k_clusters must be >= 1")
        if self.k_max < 1:
            raise ConfigurationError("k_max must be >= 1")
        if self.min_cluster_size < 1:
            raise ConfigurationError("min_cluster_size must be >= 1")
        if self.refresh_jobs < 1:
            raise ConfigurationError("refresh_jobs must be >= 1")
        if not (0 <= self.q_sigma < math.inf and 0 <= self.resid_floor < math.inf):
            raise ConfigurationError("q_sigma and resid_floor must be finite and non-negative")
        if not 1.0 <= self.slack < math.inf:
            raise ConfigurationError("slack must be finite and >= 1 (it penalises underestimates)")
        if not 0.0 <= self.aea_gate <= 1.0:
            raise ConfigurationError("aea_gate must be a probability")


@dataclass
class _ClusterModel:
    fallback_s: float  # mean runtime of cluster members
    resid_std: float = 0.0  # log-space training residual std
    #: log-space envelope of the cluster's training runtimes; a cluster
    #: model must not extrapolate beyond (a margin around) what it saw —
    #: RBF kernels decay to a meaningless constant far from the data.
    y_lo: float = 0.0
    y_hi: float = 50.0
    svr: SVR | None = None  # None until the first query, or if too small to train
    #: a trainable cluster's (X, y, gamma) until its first query; None
    #: once fitted, and for clusters too small to train
    rows: tuple[np.ndarray, np.ndarray, float] | None = None

    def fitted_svr(self) -> SVR | None:
        """The cluster's SVR, fitted (and ``resid_std`` set) on first use;
        None for a cluster too small to train."""
        if self.rows is not None:
            X, y, gamma = self.rows
            self.svr = SVR(gamma=gamma).fit(X, y)
            self.resid_std = float(np.std(y - self.svr.train_pred_))
            self.rows = None
        return self.svr


class EslurmEstimator:
    """The paper's estimator; implements the online estimator protocol."""

    name = "eslurm"

    def __init__(self, config: EstimatorConfig | None = None, rng: np.random.Generator | None = None) -> None:
        self.config = config or EstimatorConfig()
        self.rng = rng or np.random.default_rng(0)
        self._history: deque[Job] = deque(maxlen=self.config.window)
        self._last_train: float | None = None
        self._encoder: FeatureEncoder | None = None
        self._kmeans: KMeans | None = None
        self._models: list[_ClusterModel] = []
        self._name_route: dict[str, int] = {}
        #: this generation's model answer per ``feature_key`` of a routed
        #: job, as (cluster, pre-slack estimate): the key fixes the
        #: encoded vector, the route, and so the cluster and its model.
        self._answers: dict[FeatureKey, tuple[int, float]] = {}
        #: record-module side memory: per-name runtime EWMA, updated on
        #: every completion.  Bridges the gap between a new application's
        #: first completions and the next model generation — the
        #: real-time module is event-driven, the generator is periodic.
        self._name_ewma: dict[str, float] = {}
        # Record-module state: per-cluster EA accumulators (Eq. 5).
        self._aea_sum: list[float] = []
        self._aea_n: list[int] = []
        #: job_id -> (cluster, pre-slack model estimate) awaiting completion
        self._pending: dict[int, tuple[int, float]] = {}
        self._jobs_since_train = 0
        self.trainings = 0

    # -- estimation model generator -----------------------------------------
    def _should_retrain(self, now: float) -> bool:
        if len(self._history) < self.config.min_history:
            return False
        if self._last_train is None:
            return True
        return (
            now - self._last_train >= self.config.refresh_interval_s
            or self._jobs_since_train >= self.config.refresh_jobs
        )

    def _retrain(self, now: float) -> None:
        jobs = list(self._history)
        encoder = FeatureEncoder()
        X = encoder.fit_transform(jobs)
        y = np.log1p([j.runtime_s for j in jobs])
        if self.config.k_clusters is not None:
            k = min(self.config.k_clusters, len(jobs))
        else:
            k = elbow_k(X, k_max=self.config.k_max, rng=self.rng)
        kmeans = KMeans(k, rng=self.rng).fit(X)
        labels = kmeans.labels_
        models: list[_ClusterModel] = []
        # RBF width from the *global* standardised feature scale; deriving
        # it from within-cluster variance makes tight clusters blind to
        # any point outside their hull.  The 10x factor sharpens the
        # kernel enough to separate different job names that share a
        # cluster (their hash signatures differ in a few dimensions).
        gamma = 10.0 / X.shape[1]
        for c in range(kmeans.n_clusters):
            mask = labels == c
            y_c = y[mask]
            members = len(y_c)
            fallback = float(np.expm1(y_c.mean())) if members else 1.0
            model = _ClusterModel(
                max(fallback, 1.0),
                y_lo=float(y_c.min()) if members else 0.0,
                y_hi=float(y_c.max()) if members else 50.0,
            )
            if members >= self.config.min_cluster_size:
                # Fitted by the cluster's first query: most clusters of a
                # generation are replaced before any job asks them.
                model.rows = (X[mask], y_c, gamma)
            elif members > 1:
                model.resid_std = float(np.std(y_c))
            models.append(model)
        # Cluster routing for known job names: the categorical part of
        # "match the closest cluster".  Each name seen in the window maps
        # to the cluster holding the majority of its training jobs; a
        # name absent from the map is one the model has never seen.
        name_votes: dict[str, Counter] = {}
        for job, label in zip(jobs, labels.tolist()):
            name_votes.setdefault(job.name, Counter())[label] += 1
        name_route = {name: votes.most_common(1)[0][0] for name, votes in name_votes.items()}
        self._encoder = encoder
        self._kmeans = kmeans
        self._models = models
        self._name_route = name_route
        self._answers = {}
        # Fresh clusters start with optimistic-but-unproven accuracy: the
        # paper seeds AEA from the previous generation's cluster scores;
        # we carry the global mean forward as each new cluster's prior.
        prior = self.average_estimation_accuracy()
        self._aea_sum = [prior] * kmeans.n_clusters
        self._aea_n = [1] * kmeans.n_clusters
        self._last_train = now
        self._jobs_since_train = 0
        self.trainings += 1
        telemetry.count("estimate.trainings")

    # -- real-time estimation module --------------------------------------
    def estimate(self, job: Job, now: float) -> float | None:
        """Estimate at submission (Eq. 3's slack applied).

        Returns ``None`` before any model exists *and* the user gave no
        estimate; otherwise the gated choice between model and user.
        """
        if self._should_retrain(now):
            self._retrain(now)
        if self._kmeans is None or self._encoder is None:
            return job.user_estimate_s
        routed = self._name_route.get(job.name)
        if routed is None:
            # A name absent from the last model generation.  Prefer the
            # record module's running per-name memory (it learns from the
            # very first completion); else the user, else the global mean.
            ewma = self._name_ewma.get(job.name)
            if ewma is not None:
                raw = ewma * float(np.exp(self.config.q_sigma * self.config.resid_floor))
                self._pending[job.job_id] = (-1, raw)
                job.model_estimate_s = raw
                return raw * self.config.slack
            if job.user_estimate_s is not None:
                return job.user_estimate_s
            return float(np.mean([j.runtime_s for j in self._history])) * self.config.slack
        # The EWMA path above reads memory that every completion moves;
        # a routed job's answer is fixed until the next generation.
        key = feature_key(job)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = self._model_answer(job, key, routed)
        self._pending[job.job_id] = answer
        cluster, raw = answer
        job.model_estimate_s = raw
        slacked = raw * self.config.slack  # Eq. 3
        if job.user_estimate_s is None:
            return slacked
        return slacked if self.cluster_aea(cluster) > self.config.aea_gate else job.user_estimate_s

    def _model_answer(self, job: Job, key: FeatureKey, routed: int) -> tuple[int, float]:
        """(cluster, pre-slack estimate) of a routed job, whose
        ``feature_key`` is ``key``, under the current generation; a pure
        function of that key."""
        model = self._models[routed]
        svr = model.fitted_svr()
        uplift = self.config.q_sigma * max(model.resid_std, self.config.resid_floor)
        if svr is not None:
            log_pred = svr.predict_one(self._encoder.transform_one(job, key))
            log_pred = min(max(log_pred, model.y_lo - 0.5), model.y_hi + 0.5)
            raw = float(np.expm1(log_pred + uplift))
        else:
            raw = model.fallback_s * float(np.exp(uplift))
        return routed, max(raw, 1.0)

    # -- record module -----------------------------------------------------
    def observe(self, job: Job, now: float) -> None:
        """Completed job: extend history, score pending estimate (Eq. 4/5)."""
        self._history.append(job)
        self._jobs_since_train += 1
        prev = self._name_ewma.get(job.name)
        self._name_ewma[job.name] = (
            job.runtime_s if prev is None else 0.7 * prev + 0.3 * job.runtime_s
        )
        pending = self._pending.pop(job.job_id, None)
        if pending is None:
            return
        cluster, raw = pending
        if 0 <= cluster < len(self._aea_sum):
            ea = estimation_accuracy(raw, job.runtime_s)
            self._aea_sum[cluster] += ea
            self._aea_n[cluster] += 1
            tel = telemetry.active()
            if tel is not None:
                tel.count("estimate.aea_updates")
                tel.observe("estimate.aea", ea)

    # -- accuracy bookkeeping ----------------------------------------------
    def cluster_aea(self, cluster: int) -> float:
        """Eq. 5 for one cluster."""
        if cluster >= len(self._aea_sum) or self._aea_n[cluster] == 0:
            raise EstimationError(f"no AEA data for cluster {cluster}")
        return self._aea_sum[cluster] / self._aea_n[cluster]

    def average_estimation_accuracy(self) -> float:
        """Mean AEA across clusters (0.8 prior before any data)."""
        total_n = sum(self._aea_n)
        if total_n == 0:
            return 0.8
        return sum(self._aea_sum) / total_n

    @property
    def trained(self) -> bool:
        return self._kmeans is not None
