"""Span recording and the per-layer summary, on stand-in functions.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import time

import numpy as np
import pytest

from tracing import Recorder, summarize


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _trace():
    rec = Recorder()
    rank = rec.wrap("linalg.rank", lambda: _busy(0.002))

    def sample():
        rank()  # rejected
        rank()  # accepted
        _busy(0.002)

    sample = rec.wrap("autgroup.random_stabilizer_element", sample)

    def subspaces():
        for i in range(3):
            _busy(0.001)
            yield i

    subspaces = rec.wrap_generator("subspace.enumerate_k_subspaces", subspaces)

    def fails():
        raise ValueError("bad input")

    fails = rec.wrap("geometry.f_map", fails)

    def main():
        sample()
        for _ in subspaces():
            _busy(0.01)  # consumer time: not the generator's
        with pytest.raises(ValueError):
            fails()
        _busy(0.002)

    main = rec.wrap("cli.main", main)
    main()
    main()
    return rec, np.frombuffer(rec.spans, dtype=np.float64).reshape(-1, 6)


def test_spans_nest_and_share_the_call_id():
    rec, spans = _trace()
    sid, parent, nid, call = (spans[:, i].astype(int) for i in range(4))
    main_id = rec.names.index("cli.main")
    mains = sid[nid == main_id]
    assert len(mains) == 2 and set(parent[nid == main_id]) == {0}
    assert set(call) == set(mains)
    for m in mains:
        inside = call == m
        start, end = spans[sid == m, 4][0], spans[sid == m, 5][0]
        assert (spans[inside, 4] >= start).all() and (spans[inside, 5] <= end).all()


def test_summary_counts_and_self_times():
    rec, spans = _trace()
    m = summarize(spans, rec.names, rec.counts, rec.errors)
    assert m["linalg.rank.calls"] == 4
    assert m["autgroup.sample_accept_ratio"] == 0.5
    assert m["subspace.enumerate_k_subspaces.items"] == 6
    assert rec.counts["subspace.enumerate_k_subspaces.calls"] == 2
    assert m["geometry.errors"] == 2 and m["cli.errors"] == 0
    # Resumptions are timed alone: 3 ms per pass inside the generator,
    # against 30 ms per pass in the consumer between resumptions.
    assert 0.006 <= m["subspace.enumerate_k_subspaces.s"] < 0.03
    # Self times partition the top-level spans.
    self_total = sum(v for k, v in m.items() if k.endswith("self_s"))
    assert self_total == pytest.approx(m["trace.spanned_s"], rel=1e-9)
    assert m["cli.main.self_s"] >= 2 * (0.03 + 0.002)


def test_summary_rejects_an_open_span():
    rec, spans = _trace()
    with pytest.raises(ValueError):
        summarize(spans[1:], rec.names, rec.counts, rec.errors)
