import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import multinv as mi
from multinv.balancing import (BalancingState, _discrete_table, _partial_sum_atoms,
                               _stage_tables, _table, make_balancing_policy)
from multinv.model import DiscreteMarginal


def reference_atoms(values, probs, horizon):
    """The per-horizon accumulation: every horizon convolved from scratch."""
    base = {}
    for v, p in zip(values, probs):
        key = round(v, 9)
        base[key] = base.get(key, 0.0) + p
    merged = {}
    current = dict(base)
    for _ in range(horizon):
        for s, ps in current.items():
            merged[s] = merged.get(s, 0.0) + ps
        nxt = {}
        for s, ps in current.items():
            for v, p in base.items():
                key = round(s + v, 9)
                nxt[key] = nxt.get(key, 0.0) + ps * p
        current = nxt
    out_vals = np.array(sorted(merged))
    return out_vals, np.array([merged[v] for v in out_vals])


def assert_same(got, ref):
    assert got[0].dtype == ref[0].dtype and got[1].dtype == ref[1].dtype
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_every_horizon_bit_identical():
    values, probs = (0.0, 0.5, 1.0, 1.5), (0.125, 0.375, 0.375, 0.125)
    tables = _partial_sum_atoms(values, probs, 20)
    assert len(tables) == 21
    for r, got in enumerate(tables):
        assert_same(got, reference_atoms(values, probs, r))


def stage_tables_by_hand(st):
    """Every stage's (hold, back, balance), each built on its own from the
    per-horizon reference atoms."""
    values, probs = st.marginal.sorted_pmf()
    return [_discrete_table(values, probs, *reference_atoms(tuple(values), tuple(probs),
                                                            st.periods - k), st.a, st.b)
            for k in range(st.periods)]


def assert_same_tables(got, want):
    for f, g in zip(got, want):
        for name in ("knots", "value", "slope", "curv"):
            assert np.array_equal(getattr(f, name), getattr(g, name))


def test_threads_sharing_the_cache_get_the_serial_tables():
    st = BalancingState(periods=30, a=0.3, b=4.0, variant="cumulative",
                        marginal=DiscreteMarginal((0.0, 0.25, 1.0), (0.2, 0.5, 0.3)))
    refs = stage_tables_by_hand(st)
    orders = []
    for seed in range(8):
        order = list(range(st.periods))
        random.Random(seed).shuffle(order)
        orders.append(order)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _stage_tables.cache_clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda o: [(k, _table(st, k)) for k in o], order)
                       for order in orders]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    for result in results:
        for k, got in result:
            assert_same_tables(got, refs[k])


def test_filling_every_stage_is_one_cache_miss():
    problem = mi.instances.build("affine_sim")
    st = make_balancing_policy(problem, variant="cumulative").states[0]
    assert st.periods == 20
    _stage_tables.cache_clear()
    for k in range(st.periods):
        _table(st, k)
    info = _stage_tables.cache_info()
    assert (info.misses, info.hits) == (1, 19)
