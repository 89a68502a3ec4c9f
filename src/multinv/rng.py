"""Counter-based random stream derivation.

Every Monte Carlo run owns its own stream, derived purely from
(master seed, initial-state index, run index, policy tag, purpose) by
hashing the tuple into a Philox key.  Streams are therefore independent
of scheduling, worker count, and of which other policies were simulated
in the same session: adding a policy never perturbs existing streams.

Two purposes are kept separate so that demand draws can be shared
across policies (common random numbers) while policy-internal
randomness stays policy-specific:

* ``demand``  -- the demand sample path of a run,
* ``policy``  -- randomness consumed by randomized policies.

``demand_stream``/``policy_stream`` hand out one run's stream as a
fresh ``Generator``: they are the reference definition of the streams,
and no simulation path draws from them.  The estimators draw the very
same numbers through ``fill_streams``: the keys of a whole block of runs
are derived in one pass, and a single Philox generator is re-keyed for
each run, so every row equals what that run's own ``Generator`` would
produce; the key words are handed to the generator as Python ints.
A fill may start part-way into the streams (at any multiple of 4
uniforms, by the Philox counter), so a long horizon is drawn one block
of periods at a time into a buffer of bounded size.  In the key pass
each state's key prefix (seed, purpose, state) is hashed once and every
run extends a copy of that hash with its own (run, tag) suffix; the
bytes hashed are exactly those of ``derive_key``, so the keys are
unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np

CRN_TAG = "__crn__"


def _key_text(parts) -> bytes:
    """The hashed text of ``parts``: the single definition of a key."""
    return "|".join(repr(p) for p in parts).encode("utf-8")


def _key_bytes(parts) -> bytes:
    """The 16 key bytes of ``parts``."""
    return hashlib.sha256(_key_text(parts)).digest()[:16]


def derive_key(*parts) -> np.ndarray:
    """Hash arbitrary parts into a 128-bit Philox key (two uint64 words)."""
    return np.frombuffer(_key_bytes(parts), dtype=np.uint64).copy()


def stream(*parts) -> np.random.Generator:
    """A fresh Generator whose state is a pure function of ``parts``."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def _demand_tag(policy_tag, crn):
    return CRN_TAG if crn else policy_tag


def _run_keys(master_seed, purpose, states, runs, tag) -> np.ndarray:
    """Keys of (master_seed, purpose, s, r, tag) for s in ``states`` and
    r in ``runs`` (a range of run indices, or a count for ``range(runs)``),
    state-major, shape (len(states) * len(runs), 2).  Since
    "|".join(a + b) == "|".join(a) + "|" + "|".join(b), the call's prefix
    (master_seed, purpose) is hashed once, a copy of that hash is
    extended by each state, and a copy of the state's hash by each run's
    suffix: the bytes hashed, and so the keys, are ``derive_key``'s, and
    a run's key does not depend on which other runs share the call."""
    if not isinstance(runs, range):
        runs = range(runs)
    tails = [b"|" + _key_text((r, tag)) for r in runs]
    keys = bytearray()
    root = hashlib.sha256(_key_text((master_seed, purpose)) + b"|")
    for s in states:
        head = root.copy()
        head.update(_key_text((s,)))
        for tail in tails:
            h = head.copy()
            h.update(tail)
            keys += h.digest()[:16]
    return np.frombuffer(keys, dtype=np.uint64).reshape(-1, 2)


def demand_stream(master_seed: int, state_index: int, run_index: int,
                  policy_tag: str, crn: bool) -> np.random.Generator:
    """Demand stream of one run.

    With common random numbers on, the policy tag is replaced by a
    shared constant so competing policies see identical sample paths.
    """
    return stream(master_seed, "demand", state_index, run_index,
                  _demand_tag(policy_tag, crn))


def policy_stream(master_seed: int, state_index: int, run_index: int,
                  policy_tag: str) -> np.random.Generator:
    """Policy-randomness stream of one run (never shared across policies)."""
    return stream(master_seed, "policy", state_index, run_index, policy_tag)


def demand_keys(master_seed: int, states: range, runs: int | range, policy_tag: str,
                crn: bool) -> np.ndarray:
    """Keys of the demand streams of the runs in ``runs`` (a range, or a
    count for ``range(runs)``) for each state index in ``states``,
    state-major, shape (len(states) * len(runs), 2)."""
    return _run_keys(master_seed, "demand", states, runs,
                     _demand_tag(policy_tag, crn))


def policy_keys(master_seed: int, states: range, runs: int | range,
                policy_tag: str) -> np.ndarray:
    """Keys of the policy streams, laid out like ``demand_keys``."""
    return _run_keys(master_seed, "policy", states, runs, policy_tag)


def fill_streams(out: np.ndarray, keys: np.ndarray, start: int = 0) -> np.ndarray:
    """Fill ``out[r]`` with uniforms ``start, start + 1, ...`` of the
    stream keyed by ``keys[r]``: row r equals ``Generator(Philox(key=
    keys[r])).random(start + n)[start:]`` for the row's n = out[r].size
    entries, reshaped to ``out.shape[1:]``.  One generator is re-keyed per
    row, so a call is safe to run alongside others on different threads.

    Philox turns one counter value into four uniforms and increments the
    counter before each use, so a zero counter with an empty buffer starts
    at uniform 0, and counter word 0 set to ``start // 4`` starts at
    uniform ``start``; ``start`` must therefore be a multiple of 4.

    The re-key template holds every word as a Python int: the Philox
    ``state`` setter reads each word, and a word read from a uint64 array
    makes a numpy scalar, which slows the setter (numpy 2.4.6).  The
    stream is the same either way.  Each row's key pair is written into
    the template's inner ``state`` dict in place.  The caller bounds the
    size of ``keys``, and so of its ``tolist``: the estimators pass one
    fill chunk at a time (``sim._FILL_DOUBLES``)."""
    if out.shape[0] != keys.shape[0]:
        raise ValueError("need one key per output row")
    if start < 0 or start % 4:
        raise ValueError(f"start must be a nonnegative multiple of 4, got {start}")
    # A fixed seed skips the OS entropy read of an unseeded constructor;
    # the first re-key overwrites the whole state anyway.
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    inner = {"counter": [start // 4, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, key in zip(out, keys.tolist()):
        inner["key"] = key
        bits.state = state
        gen.random(out=row)
    return out
