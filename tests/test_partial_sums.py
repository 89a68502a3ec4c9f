import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from multinv.balancing import _PARTIAL_SUMS, _partial_sum_atoms


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


def test_every_horizon_bit_identical_in_any_request_order():
    values, probs = (0.0, 0.5, 1.0, 1.5), (0.125, 0.375, 0.375, 0.125)
    refs = {r: reference_atoms(values, probs, r) for r in range(0, 21)}
    for order in (range(20, -1, -1), range(0, 21), (7, 3, 20, 0, 12)):
        _PARTIAL_SUMS.pop((values, probs), None)
        for r in order:
            assert_same(_partial_sum_atoms(values, probs, r), refs[r])


def test_threads_sharing_the_cache_get_the_serial_atoms():
    values, probs = (0.0, 0.25, 1.0), (0.2, 0.5, 0.3)
    refs = {r: reference_atoms(values, probs, r) for r in range(1, 31)}
    orders = []
    for seed in range(8):
        order = list(refs)
        random.Random(seed).shuffle(order)
        orders.append(order)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _PARTIAL_SUMS.pop((values, probs), None)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda o: [(r, _partial_sum_atoms(values, probs, r))
                                              for r in o], order) for order in orders]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(previous)
    for result in results:
        for r, got in result:
            assert_same(got, refs[r])
