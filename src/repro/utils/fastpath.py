"""The fast-path default shared by the simulator's two lanes.

``fast_path`` selects lanes, nothing else (docs/performance.md): the
engine's armed batch (``GpuEngine._arms``) and bulk decode run
(``GpuEngine._offsets``) and the cross-engine merge lane
(``repro.cluster.vector``). With it off the simulator plans every step
and runs one event per step. Memos, the one-heap event loop and the one
step price are unconditional. Under a fixed seed both paths produce
byte-identical traces (tests/test_fastpath_differential.py is the proof
obligation). ``GpuEngine`` and ``ClusterSimulator`` take an explicit
``fast_path`` argument; tests, the perf gate and the ledger pin each path
by passing ``True``/``False``.
"""

from __future__ import annotations


def fastpath_enabled(fast_path: "bool | None") -> bool:
    """A component's ``fast_path`` argument resolved: ``None`` means on."""
    return fast_path is None or bool(fast_path)
