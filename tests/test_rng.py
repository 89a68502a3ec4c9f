"""Batched stream fills against the per-run reference streams.

``rng.demand_stream``/``rng.policy_stream`` define what each run draws;
the estimators fill whole blocks of runs by re-keying one Philox
generator per row.  Every row of a block must equal its run's own stream.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multinv as mi
from multinv import rng
from multinv.model import (DemandModel, DiscreteMarginal, UniformMarginal,
                           transform_uniform_draws)
from multinv import sim as sim_mod
from multinv.sim import SimConfig, _keyed_draws


def reference_uniforms(seed, states, runs, tag, crn, shape, purpose):
    rows = []
    for s in states:
        for run in range(runs):
            if purpose == "demand":
                gen = rng.demand_stream(seed, s, run, tag, crn)
            else:
                gen = rng.policy_stream(seed, s, run, tag)
            rows.append(gen.random(shape))
    return np.stack(rows)


def whole_horizon(problem, policy, cfg, states):
    """A chunk's draws for a horizon that fits in one block, as one block."""
    return _keyed_draws(problem, policy, cfg, states)(0, problem.periods)


def filled(seed, states, runs, tag, crn, shape, purpose):
    if purpose == "demand":
        keys = rng.demand_keys(seed, states, runs, tag, crn)
    else:
        keys = rng.policy_keys(seed, states, runs, tag)
    return rng.fill_streams(np.empty((len(keys),) + shape), keys)


class TestKeys:
    def test_batched_keys_equal_single_keys(self):
        parts = [(3, "demand", s, r, "t") for s in range(4) for r in range(3)]
        keys = rng.demand_keys(3, range(4), 3, "t", crn=False)
        assert keys.shape == (12, 2) and keys.dtype == np.uint64
        for row, p in zip(keys, parts):
            assert np.array_equal(row, rng.derive_key(*p))

    def test_crn_keys_ignore_the_tag(self):
        a = rng.demand_keys(5, range(2), 3, "a", crn=True)
        b = rng.demand_keys(5, range(2), 3, "b", crn=True)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, rng.demand_keys(5, range(2), 3, "a", crn=False))

    @pytest.mark.parametrize("runs", [range(0, 3), range(2, 5), range(4, 5)])
    def test_run_range_keys_are_rows_of_the_full_keys(self, runs):
        # a chunk of part of a state's runs keys each run as the whole
        # state's call does
        for crn in (False, True):
            full = rng.demand_keys(7, range(2, 4), 5, "t", crn).reshape(2, 5, 2)
            part = rng.demand_keys(7, range(2, 4), runs, "t", crn)
            assert np.array_equal(part, full[:, runs.start:runs.stop].reshape(-1, 2))
        full = rng.policy_keys(7, range(2, 4), 5, "t").reshape(2, 5, 2)
        part = rng.policy_keys(7, range(2, 4), runs, "t")
        assert np.array_equal(part, full[:, runs.start:runs.stop].reshape(-1, 2))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.one_of(st.integers(-2 ** 70, 2 ** 70),
                          st.sampled_from([-1, 0, 2 ** 63, -2 ** 63 - 1, 10 ** 40])),
           tag=st.one_of(st.text(max_size=12),
                         st.sampled_from(["'", '"', "\\", "|", "a|b", "'|\"",
                                          "\\'", "\u00e9\u4e2d|\U0001f600",
                                          "\ud800", ""])),
           first=st.integers(0, 10 ** 6),
           n_states=st.integers(1, 3),
           runs=st.integers(1, 4),
           crn=st.booleans())
    @example(seed=-2 ** 63 - 1, tag="'|\\", first=7, n_states=2, runs=1, crn=False)
    def test_property_block_keys_equal_derive_key(self, seed, tag, first,
                                                  n_states, runs, crn):
        # the block path hashes each state's prefix once and extends copies
        # of it per run; the bytes hashed must still be derive_key's
        states = range(first, first + n_states)
        pairs = [(s, r) for s in states for r in range(runs)]
        demand = rng.demand_keys(seed, states, runs, tag, crn)
        policy = rng.policy_keys(seed, states, runs, tag)
        assert demand.shape == policy.shape == (len(pairs), 2)
        dtag = rng.CRN_TAG if crn else tag
        for row, (s, r) in enumerate(pairs):
            assert np.array_equal(demand[row], rng.derive_key(seed, "demand", s, r, dtag))
            assert np.array_equal(policy[row], rng.derive_key(seed, "policy", s, r, tag))


class TestFillStreams:
    @pytest.mark.parametrize("crn", [False, True])
    def test_chunk_over_several_states(self, crn):
        shape = (6, 2)
        got = filled(11, range(3, 7), 5, "base_stock:abc", crn, shape, "demand")
        ref = reference_uniforms(11, range(3, 7), 5, "base_stock:abc", crn, shape, "demand")
        assert np.array_equal(got, ref)

    def test_policy_streams(self):
        shape = (4, 3)
        got = filled(2, range(0, 3), 4, "balancing:x", False, shape, "policy")
        ref = reference_uniforms(2, range(0, 3), 4, "balancing:x", False, shape, "policy")
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 1), (5, 3), (7,)])
    def test_block_sizes_off_the_philox_buffer(self, shape):
        # Philox yields 4 words per counter block; a row that ends inside
        # a block must not leak its leftover words into the next row
        got = filled(0, range(2), 3, "t", False, shape, "demand")
        ref = reference_uniforms(0, range(2), 3, "t", False, shape, "demand")
        assert np.array_equal(got, ref)

    def test_rejects_key_count_mismatch(self):
        with pytest.raises(ValueError):
            rng.fill_streams(np.empty((3, 2)), rng.policy_keys(1, range(2), 1, "t"))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1),
           tag=st.text(max_size=12),
           first=st.integers(0, 10_000),
           n_states=st.integers(1, 3),
           runs=st.integers(1, 4),
           periods=st.integers(1, 9),
           m=st.integers(1, 3),
           crn=st.booleans(),
           purpose=st.sampled_from(["demand", "policy"]))
    def test_property_rows_equal_reference_streams(self, seed, tag, first, n_states,
                                                   runs, periods, m, crn, purpose):
        states = range(first, first + n_states)
        got = filled(seed, states, runs, tag, crn, (periods, m), purpose)
        ref = reference_uniforms(seed, states, runs, tag, crn, (periods, m), purpose)
        assert np.array_equal(got, ref)


def mixed_demand_problem():
    p = mi.instances.build("fig1_linear")
    return replace(p, demand=DemandModel(marginals=(
        DiscreteMarginal((0.0, 1.0, 2.0), (0.2, 0.5, 0.3)),
        UniformMarginal(0.25, 1.75))))


class TestDrawRuns:
    @pytest.mark.parametrize("crn", [False, True])
    def test_rows_equal_per_run_streams(self, crn):
        p = mixed_demand_problem()
        policy = mi.make_balancing_policy(p, K=2.0)
        assert policy.uses_randomness
        cfg = SimConfig(runs=3, seed=17, crn=crn)
        demand, uniforms = whole_horizon(p, policy, cfg, range(4, 7))
        shape = (p.periods, p.m)
        for row, (s, run) in enumerate((s, r) for s in range(4, 7) for r in range(3)):
            raw = rng.demand_stream(17, s, run, policy.tag, crn).random(shape)
            assert np.array_equal(demand[row], transform_uniform_draws(p.demand, raw))
            pol = rng.policy_stream(17, s, run, policy.tag).random(shape)
            assert np.array_equal(uniforms[row], pol)

    def test_deterministic_policy_draws_no_uniforms(self):
        p = mixed_demand_problem()
        _, uniforms = whole_horizon(p, mi.BaseStockPolicy(np.zeros(2)),
                                    SimConfig(runs=2), range(1))
        assert uniforms is None


class TestTransformInPlace:
    def test_in_place_equals_fresh_output(self):
        p = mixed_demand_problem()
        raw = np.random.default_rng(0).random((6, 5, 2))
        fresh = transform_uniform_draws(p.demand, raw)
        block = raw.copy()
        assert transform_uniform_draws(p.demand, block, out=block) is block
        assert np.array_equal(block, fresh)

    def test_continuous_values_match_the_affine_map(self):
        d = DemandModel(marginals=(UniformMarginal(0.3, 2.9),))
        raw = np.random.default_rng(1).random((50, 1))
        assert np.array_equal(transform_uniform_draws(d, raw),
                              0.3 + raw * (2.9 - 0.3))


def chunk_problem(m, periods):
    """fig1_linear widened to m locations whose demand alternates between
    a discrete and a uniform marginal, over ``periods`` periods."""
    p = mi.instances.build("fig1_linear")
    marginals = (DiscreteMarginal((0.0, 1.0, 2.0), (0.2, 0.5, 0.3)),
                 UniformMarginal(0.25, 1.75))
    return replace(p, m=m, horizon=mi.model.Finite(periods),
                   holding=mi.model.HoldingBacklogCost((1.0,) * m, (10.0,) * m),
                   demand=DemandModel(tuple(marginals[i % 2] for i in range(m))))


class TestKeyedDrawChunks:
    """``_keyed_draws`` fills a block a chunk of runs at a time through a
    scratch of ``_FILL_DOUBLES`` doubles; every block must still equal the
    runs' own streams, however the rows fall into chunks."""

    def check(self, m, periods, states, runs, draw_periods, fill_doubles=None,
              chunk=None):
        p = chunk_problem(m, periods)
        policy = mi.make_balancing_policy(p, K=2.0)
        assert policy.uses_randomness
        cfg = SimConfig(runs=runs, seed=29)
        shape = (periods, m)
        demand_ref = transform_uniform_draws(p.demand, reference_uniforms(
            29, states, runs, policy.tag, False, shape, "demand"))
        policy_ref = reference_uniforms(29, states, runs, policy.tag, False, shape, "policy")
        span = min(periods, draw_periods)
        if fill_doubles is None:
            fill_doubles = chunk * span * m
        with mock.patch.object(sim_mod, "_DRAW_PERIODS", draw_periods), \
                mock.patch.object(sim_mod, "_FILL_DOUBLES", fill_doubles), \
                mock.patch.object(sim_mod, "transform_uniform_draws",
                                  wraps=sim_mod.transform_uniform_draws) as spy:
            draws = _keyed_draws(p, policy, cfg, states)
            for k0 in range(0, periods, draw_periods):
                n = min(draw_periods, periods - k0)
                calls = spy.call_count
                demand, uniforms = draws(k0, n)
                assert demand.shape == uniforms.shape == (len(states) * runs, n, m)
                assert np.array_equal(demand, demand_ref[:, k0:k0 + n])
                assert np.array_equal(uniforms, policy_ref[:, k0:k0 + n])
                for k in range(n):
                    assert demand[:, k].flags.f_contiguous
                    assert uniforms[:, k].flags.f_contiguous
                rows_per_chunk = max(1, min(len(demand), fill_doubles // (span * m)))
                assert spy.call_count - calls == -(-len(demand) // rows_per_chunk)

    @pytest.mark.parametrize("runs", [7, 8, 9])
    @pytest.mark.parametrize("m", [1, 3])
    def test_rows_around_a_multiple_of_the_chunk(self, runs, m):
        # chunks of 4 rows: 2 states x runs rows is 14, 16 or 18
        self.check(m, 6, range(3, 5), runs, draw_periods=1024, chunk=4)

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_row_chunks(self, m):
        self.check(m, 5, range(2), 3, draw_periods=1024, fill_doubles=1)

    @pytest.mark.parametrize("m", [1, 3])
    def test_later_blocks_and_a_short_last_block(self, m):
        # blocks of 4, 4 and 2 periods, each filled in chunks of 3 rows
        self.check(m, 10, range(1, 3), 5, draw_periods=4, chunk=3)

    @pytest.mark.parametrize("rows", [1023, 1024, 1025])
    def test_default_chunk_size(self, rows):
        # 16 periods x 2 locations make chunks of 1024 rows at the default
        self.check(2, 16, range(1), rows, draw_periods=1024,
                   fill_doubles=sim_mod._FILL_DOUBLES)
