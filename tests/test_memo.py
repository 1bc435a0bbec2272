"""The in-process memo rule under threads.

Every memo is a plain dict in which the first value stored for a key
wins, so concurrent callers all get one object per key (an Ext table's
dims are copied out of it); the resolution memo alone holds a lock, so
that each resolution is built once.  The
switch interval is cut short so that the threads interleave as often as
the interpreter allows.
"""

import sys
import threading

from spfext import functors, homology, tensorspace
from spfext.functors import evaluate
from spfext.homology import clear_resolution_memo, resolve_expression
from spfext.tensorspace import get_space

THREADS = 8


def _in_threads(fetch) -> list:
    """Results of THREADS concurrent calls of fetch, released together."""
    barrier = threading.Barrier(THREADS)
    results = []

    def run():
        barrier.wait(timeout=30)
        results.append(fetch())

    threads = [threading.Thread(target=run) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == THREADS
    return results


def test_concurrent_resolves_build_once(monkeypatch):
    calls = []
    resolve = homology.resolve

    def counting(*args, **kwargs):
        calls.append(args)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(homology, "resolve", counting)
    clear_resolution_memo()
    try:
        results = _in_threads(lambda: resolve_expression("twist(I,1)", 2, 3))
    finally:
        clear_resolution_memo()
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


def test_concurrent_get_space_shares_one_space(monkeypatch):
    monkeypatch.setattr(tensorspace, "_SPACES", {})
    results = _in_threads(lambda: get_space(2, 6, 6))
    assert all(r is results[0] for r in results)
    assert get_space(2, 6, 6) is results[0]


def test_concurrent_evaluate_shares_one_module(monkeypatch):
    monkeypatch.setattr(functors, "_eval_cache", {})
    monkeypatch.setattr(functors, "_shape_cache", {})
    for expr in ("weyl(2,2)", "simple(2,1)", "S(2)*L(2)"):
        for _ in range(3):
            functors._eval_cache.clear()
            functors._shape_cache.clear()
            results = _in_threads(lambda: evaluate(expr, 3))
            assert all(r is results[0] for r in results), expr
            assert evaluate(expr, 3) is results[0]


def test_concurrent_ext_dims_keep_one_table():
    """Threads asking one resolution for one table all get its dims, each
    in a list of its own, and the resolution keeps one entry."""
    res = homology.resolve(evaluate("twist(I*I,1)", 2), 5)
    target = evaluate("schur(2,2)", 2)
    want = homology.assemble_ext(res, target)
    results = _in_threads(lambda: homology.ext_dims(res, target))
    assert all(r == want for r in results)
    assert len({id(r) for r in results}) == THREADS
    assert list(res._ext_dims) == [target]
