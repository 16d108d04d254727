"""Feature encoding for runtime estimation (Table IV).

The paper's five features: job name, user name, required nodes,
required cores, and submission time (hour of day).  Categorical
features (name, user) are encoded with *signed feature hashing* — a
fixed-width vector of ±1 components drawn from salted stable hashes —
so that identical strings share a signature and different strings are
nearly orthogonal.  This is what lets Euclidean K-means form name-pure
clusters, which is the backbone of the paper's clustering + per-cluster
SVR design.  Node/core counts are log-scaled (job sizes are heavy
tailed); the hour of day is encoded cyclically (23:00 and 00:00 should
be near each other — long jobs cluster in the 18:00–24:00 window).
"""

from __future__ import annotations

import math
import typing as t
import zlib

import numpy as np

from repro.errors import EstimationError
from repro.sched.job import Job

#: hash-signature widths
NAME_DIMS = 6
USER_DIMS = 3
#: numeric features: log-nodes, log-cores, sin(hour), cos(hour)
NUMERIC_DIMS = 4
#: Encoded feature dimensionality.
N_FEATURES = NAME_DIMS + USER_DIMS + NUMERIC_DIMS

#: post-standardisation group weights: the job name is the paper's
#: dominant locality signal, so it gets the largest share of the
#: distance budget in clustering and kernels.
_WEIGHTS = np.concatenate(
    [
        np.full(NAME_DIMS, 1.5),
        np.full(USER_DIMS, 1.0),
        np.full(NUMERIC_DIMS, 0.7),
    ]
)

_TWO_PI = 2.0 * math.pi


#: signature cache: names/users recur constantly (the paper's 89.2 %
#: repeat rate) and the signatures are pure functions of the string.
_HASH_CACHE: dict[tuple[str, int], np.ndarray] = {}
_HASH_CACHE_MAX = 4096


def _signed_hash_vector(text: str, dims: int) -> np.ndarray:
    """Deterministic ±1 signature of a string (salted stable hashes)."""
    key = (text, dims)
    cached = _HASH_CACHE.get(key)
    if cached is not None:
        return cached
    data = text.encode("utf-8")
    bits = np.empty(dims)
    for i in range(dims):
        h = zlib.crc32(data, i + 1)
        bits[i] = 1.0 if h & 1 else -1.0
    bits.setflags(write=False)  # shared across callers via the cache
    if len(_HASH_CACHE) >= _HASH_CACHE_MAX:
        _HASH_CACHE.clear()
    _HASH_CACHE[key] = bits
    return bits


def submission_hour(job: Job) -> int:
    """Hour-of-day (0-23) of a job's submission time."""
    return int(job.submit_time // 3600) % 24


#: (name, user, n_nodes, cores_per_node, submission hour)
FeatureKey = tuple[str, str, int, int, int]


def feature_key(job: Job) -> FeatureKey:
    """The job fields ``FeatureEncoder.raw`` reads: jobs with equal keys
    encode to the same vector under any one fit."""
    return (job.name, job.user, job.n_nodes, job.cores_per_node, submission_hour(job))


def _encode(key: FeatureKey) -> np.ndarray:
    """The unstandardised feature vector (Table IV) of a ``feature_key``."""
    name, user, n_nodes, cores_per_node, hour = key
    angle = _TWO_PI * hour / 24.0
    numeric = np.array(
        [
            math.log2(n_nodes + 1),
            math.log2(n_nodes * cores_per_node + 1),
            math.sin(angle),
            math.cos(angle),
        ]
    )
    return np.concatenate(
        [
            _signed_hash_vector(name, NAME_DIMS),
            _signed_hash_vector(user, USER_DIMS),
            numeric,
        ]
    )


class FeatureEncoder:
    """Encodes jobs into fixed-length numeric vectors and standardises.

    ``fit`` learns per-dimension mean/std on a training set; callers
    must fit before transforming (clusters and kernels are scale
    sensitive).  Group weights are applied after standardisation.
    """

    def __init__(self) -> None:
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        #: ``transform_one`` results of this fit, keyed by ``feature_key``:
        #: most submits repeat a recent (name, user, size, hour).
        #: Read-only, like the signature cache.
        self._one_cache: dict[FeatureKey, np.ndarray] = {}

    @staticmethod
    def raw(job: Job) -> np.ndarray:
        """Unstandardised feature vector for one job (Table IV)."""
        return _encode(feature_key(job))

    @classmethod
    def raw_matrix(cls, jobs: t.Sequence[Job]) -> np.ndarray:
        """``np.stack([raw(j) for j in jobs])``, encoding each distinct
        ``feature_key`` once and gathering the rows."""
        if not jobs:
            return np.empty((0, N_FEATURES))
        row_of: dict[FeatureKey, int] = {}
        rows = [row_of.setdefault(feature_key(j), len(row_of)) for j in jobs]
        return np.stack([_encode(key) for key in row_of])[rows]

    # -- standardisation --------------------------------------------------
    def _fit_raw(self, jobs: t.Sequence[Job]) -> np.ndarray:
        """Learn the standardisation from ``jobs``; their raw matrix."""
        if not jobs:
            raise EstimationError("cannot fit encoder on an empty job set")
        X = self.raw_matrix(jobs)
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0  # constant dimensions pass through
        self._std = std
        self._one_cache = {}
        return X

    def fit(self, jobs: t.Sequence[Job]) -> "FeatureEncoder":
        self._fit_raw(jobs)
        return self

    def fit_transform(self, jobs: t.Sequence[Job]) -> np.ndarray:
        """``fit(jobs).transform(jobs)`` from one raw matrix."""
        return (self._fit_raw(jobs) - self._mean) / self._std * _WEIGHTS

    def transform(self, jobs: t.Sequence[Job]) -> np.ndarray:
        if self._mean is None or self._std is None:
            raise EstimationError("encoder not fitted")
        return (self.raw_matrix(jobs) - self._mean) / self._std * _WEIGHTS

    def transform_one(self, job: Job, key: FeatureKey | None = None) -> np.ndarray:
        """One job's encoded vector (read-only; shared by repeat jobs);
        ``key`` is the job's ``feature_key`` when the caller has it."""
        if self._mean is None or self._std is None:
            raise EstimationError("encoder not fitted")
        if key is None:
            key = feature_key(job)
        x = self._one_cache.get(key)
        if x is None:
            x = (_encode(key) - self._mean) / self._std * _WEIGHTS
            x.setflags(write=False)
            self._one_cache[key] = x
        return x
