"""User and application behaviour models behind the synthetic traces.

Applications live in a *global pool* with Zipf popularity — production
machines run a handful of community codes (CFD solvers, MD engines)
for many different users, which is what gives random long-ID-gap job
pairs their residual correlation floor in Fig. 5c.  Each user samples a
small repertoire from the pool; young machines' users *drift* —
swapping repertoire entries over time — which is what drives the
long-interval correlation of Fig. 5b to zero on NG-Tianhe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.draws import choice_cdf, rank_cdf, weighted_index

#: Application families the paper lists for its production systems.
APP_FAMILIES = (
    "cfd",
    "electromag",
    "combustion",
    "nonlinear-flow",
    "bioinfo",
    "mech-strength",
    "climate",
    "md",
)

SIX_HOURS = 6 * 3600.0
DAY = 24 * 3600.0

#: ``sample_nodes``' size factors, drawn uniformly: usually the standard
#: size, occasionally a scale-down or scale-up run
_SIZE_FACTORS = (1.0,) * 8 + (0.5, 2.0)


@dataclass(frozen=True)
class AppSpec:
    """One application's globally shared job shape.

    Attributes:
        name: job-script name, shared by every user of the code.
        runtime_scale_s: median runtime.
        runtime_sigma: lognormal sigma of run-to-run variation (small:
            the same input deck runs for about the same time).
        n_nodes: typical allocation size.
        long_running: whether jobs usually exceed 6 h (these get the
            evening submission bias).
    """

    name: str
    runtime_scale_s: float
    runtime_sigma: float
    n_nodes: int
    long_running: bool

    #: strong-scaling exponent: doubling nodes cuts runtime by ~2^-0.7
    SCALING_ALPHA = 0.7

    def sample_runtime(self, rng: np.random.Generator, n_nodes: int | None = None) -> float:
        """Runtime for one run, strong-scaled to the allocation size.

        The same input deck on more nodes finishes faster (imperfectly:
        exponent ``SCALING_ALPHA``); models that ignore the node count
        — per-name averages like Last-2/PREP — pay for it here, exactly
        as they do on real machines.
        """
        base = float(self.runtime_scale_s * rng.lognormal(0.0, self.runtime_sigma))
        if n_nodes is None or n_nodes == self.n_nodes:
            return base
        return base * float((self.n_nodes / max(n_nodes, 1)) ** self.SCALING_ALPHA)

    def sample_nodes(self, rng: np.random.Generator, max_nodes: int) -> int:
        # One ``rng.integers(10)`` is the draw ``rng.choice`` over the
        # ten factors makes, so the trace keeps its stream.
        factor = _SIZE_FACTORS[rng.integers(10)]
        return min(max(round(self.n_nodes * factor), 1), max_nodes)


class AppPool:
    """Global application library with Zipf popularity."""

    def __init__(
        self,
        n_apps: int,
        max_nodes: int,
        long_job_fraction: float,
        rng: np.random.Generator,
        zipf_s: float = 1.1,
    ) -> None:
        if n_apps < 1:
            raise ConfigurationError("app pool needs at least one application")
        self.apps: list[AppSpec] = []
        for a in range(n_apps):
            family = APP_FAMILIES[a % len(APP_FAMILIES)]
            long_running = rng.random() < long_job_fraction
            if long_running:
                scale = float(rng.uniform(SIX_HOURS, 4 * SIX_HOURS))
            else:
                scale = float(rng.uniform(60.0, SIX_HOURS / 2))
            n_nodes = max(1, int(2 ** rng.uniform(0, np.log2(max(max_nodes, 2)))))
            self.apps.append(
                AppSpec(
                    name=f"{family}_{a:03d}.sh",
                    runtime_scale_s=scale,
                    runtime_sigma=float(rng.uniform(0.05, 0.2)),
                    n_nodes=n_nodes,
                    long_running=long_running,
                )
            )
        ranks = np.arange(1, n_apps + 1, dtype=float)
        weights = ranks**-zipf_s
        self._cdf = choice_cdf(weights / weights.sum())

    def sample(self, rng: np.random.Generator) -> AppSpec:
        """Popularity-weighted draw."""
        return self.apps[weighted_index(self._cdf, rng)]


@dataclass
class UserModel:
    """A user: repertoire + recent submissions for the repeat behaviour.

    Users work in *sessions*: a stretch of activity on one project,
    followed by idle time.  A new session resets the repeat chain
    (``recent``), so the same-app streaks that dominate short-interval
    correlation die out on the session timescale — the mechanism behind
    Fig. 5b's decay.
    """

    name: str
    apps: list[AppSpec]
    #: (submit_time, app) pairs from the user's last day
    recent: list[tuple[float, AppSpec]] = field(default_factory=list)
    active_until: float = 0.0
    idle_until: float = 0.0

    def ensure_session(
        self,
        now: float,
        session_s: float,
        gap_s: float,
        rng: np.random.Generator,
    ) -> bool:
        """Return whether the user is active now, starting a session if due."""
        if now < self.active_until:
            return True
        if now < self.idle_until:
            return False
        # New session: fresh project focus, old repeat chain forgotten.
        self.active_until = now + float(rng.exponential(session_s))
        self.idle_until = self.active_until + float(rng.exponential(gap_s))
        self.recent.clear()
        return True

    def pick_app(self, now: float, repeat_prob: float, rng: np.random.Generator) -> AppSpec:
        """With ``repeat_prob``, rerun something from the last 24 h.

        Fresh picks are Zipf-weighted within the repertoire: most users
        have one workhorse code and a tail of occasional ones.

        ``now`` must not decrease from one call to the next: ``recent``
        is then in submit order, so the window needs a rebuild only
        once its oldest entry has left it.
        """
        day_ago = now - DAY
        recent = self.recent
        if recent and recent[0][0] < day_ago:
            recent = self.recent = [(ts, app) for ts, app in recent if ts >= day_ago]
        if recent and rng.random() < repeat_prob:
            # Mostly rerun the *latest* thing (iterating on one problem),
            # occasionally something else from the day.
            if rng.random() < 0.7:
                _, app = recent[-1]
            else:
                _, app = recent[int(rng.integers(len(recent)))]
        else:
            app = self.apps[weighted_index(rank_cdf(len(self.apps)), rng)]
        recent.append((now, app))
        return app

    def drift(self, pool: AppPool, rng: np.random.Generator) -> None:
        """Swap one repertoire entry for a fresh pool draw (young-machine
        users exploring new codes; breaks long-range self-correlation)."""
        idx = int(rng.integers(len(self.apps)))
        self.apps[idx] = pool.sample(rng)


def make_users(
    n_users: int,
    apps_per_user: int,
    pool: AppPool,
    rng: np.random.Generator,
    name_base: int = 0,
) -> list[UserModel]:
    """Build the user population, repertoires drawn from the pool."""
    if n_users < 1 or apps_per_user < 1:
        raise ConfigurationError("need at least one user and one app each")
    users = []
    for u in range(n_users):
        apps = [pool.sample(rng) for _ in range(apps_per_user)]
        users.append(UserModel(name=f"user{name_base + u:04d}", apps=apps))
    return users
