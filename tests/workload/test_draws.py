"""The trace generator's draw helpers against the numpy calls they
stand for.

Each helper must return what the numpy call returns *and* leave the
generator in the state the numpy call leaves it in: one extra or
missing draw shifts every later job of the trace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.draws import choice_cdf, rank_cdf, uniform, weighted_index
from repro.workload.users import AppSpec

seeds = st.integers(0, 2**32 - 1)


def assert_twins(seed: int, old, new, draws: int = 8) -> None:
    """``draws`` successive calls of ``old`` and ``new``, each on its own
    generator of ``seed``, agree on every result and every state."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    for _ in range(draws):
        x, y = old(a), new(b)
        assert x == y
        assert type(y) is type(x)
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 64), seed=seeds)
def test_rank_draw_matches_choice(n, seed):
    weights = 1.0 / np.arange(1, n + 1)
    weights /= weights.sum()
    assert_twins(
        seed,
        lambda rng: int(rng.choice(n, p=weights)),
        lambda rng: weighted_index(rank_cdf(n), rng),
    )


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 64), zipf_s=st.floats(0.5, 3.0), seed=seeds)
def test_pool_draw_matches_choice(n, zipf_s, seed):
    weights = np.arange(1, n + 1, dtype=float) ** -zipf_s
    weights = weights / weights.sum()
    cdf = choice_cdf(weights)
    assert_twins(
        seed,
        lambda rng: int(rng.choice(n, p=weights)),
        lambda rng: weighted_index(cdf, rng),
    )


@settings(max_examples=150, deadline=None)
@given(
    low=st.floats(-1e6, 1e6),
    width=st.floats(0.0, 1e6),
    seed=seeds,
)
def test_uniform_matches_generator_uniform(low, width, seed):
    high = low + width
    assert_twins(
        seed,
        lambda rng: float(rng.uniform(low, high)),
        lambda rng: uniform(rng, low, high),
    )


def test_uniform_pinned_ranges():
    # the trace generator's own ranges, then the submit retry backoff
    for low, high in ((1.0, 30.0), (0.0, 24.0), (18.0, 24.0), (0.55, 1.0), (600.0, 3600.0)):
        assert_twins(
            0,
            lambda rng: float(rng.uniform(low, high)),
            lambda rng: uniform(rng, low, high),
            draws=2000,
        )


def old_sample_nodes(app: AppSpec, rng: np.random.Generator, max_nodes: int) -> int:
    factor = rng.choice([1.0] * 8 + [0.5, 2.0])
    return int(np.clip(round(app.n_nodes * factor), 1, max_nodes))


@settings(max_examples=200, deadline=None)
@given(
    n_nodes=st.one_of(st.just(1), st.integers(1, 1 << 17)),
    max_nodes=st.one_of(st.just(1), st.integers(1, 1 << 17)),
    seed=seeds,
)
def test_sample_nodes_matches_choice_and_clip(n_nodes, max_nodes, seed):
    app = AppSpec("x.sh", 600.0, 0.1, n_nodes, False)
    assert_twins(
        seed,
        lambda rng: old_sample_nodes(app, rng, max_nodes),
        lambda rng: app.sample_nodes(rng, max_nodes),
        draws=12,
    )


def test_sample_nodes_pinned_edges():
    # one node, a cap below the request, and half-size ties (3 and 5 * 0.5)
    for n_nodes, max_nodes in ((1, 1), (1, 64), (64, 8), (3, 1024), (5, 7)):
        app = AppSpec("x.sh", 600.0, 0.1, n_nodes, False)
        assert_twins(
            0,
            lambda rng: old_sample_nodes(app, rng, max_nodes),
            lambda rng: app.sample_nodes(rng, max_nodes),
            draws=200,
        )
