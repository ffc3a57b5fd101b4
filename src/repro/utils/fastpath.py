"""The fast-path default shared by every optimised hot loop.

The fast-path simulation engine (docs/performance.md) is a set of
independently guarded, *behaviour-preserving* optimisations: under a fixed
seed the fast and reference paths produce byte-identical traces
(tests/test_fastpath_differential.py is the proof obligation). Every
optimised component takes an explicit ``fast_path`` argument; tests, the
perf gate and the ledger pin each lane by passing ``True``/``False``.
"""

from __future__ import annotations


def fastpath_enabled(fast_path: "bool | None") -> bool:
    """A component's ``fast_path`` argument resolved: ``None`` means on."""
    return fast_path is None or bool(fast_path)
