"""The bulk decode-run lane: vectorized steady-decode merge (gen-2 fast path).

The one client of the engine's bulk API (``steady_ready`` /
``steady_run_stage`` / ``commit_steady_run``). When several GPUs are
mid-decode their step events interleave densely: each engine's next tick
lands before any other engine finishes one, so the gen-1 inline
continuation (strictly-before-``peek`` coalescing) never gets a window
wider than one step. This module commits whole runs anyway by *replaying
the event queue's own pop order* over every steady engine's priced
decode run — a lone engine's run is simply a merge with one lane:

1. Each steady-armed engine prices its future step latencies in one set
   of array ops (:meth:`~repro.runtime.engine.GpuEngine.steady_run_stage`),
   capped so no step inside the run could finish a request, evict, or
   exhaust KvCache headroom — i.e. every step is provably a pure tick.
2. The lane computes the merge *horizon*: the first pending event that
   is not one of those decode ticks (an arrival, fault, migration or
   prefetch tick, a non-steady engine's step, the run's ``until``).
3. A private heap replays the exact ``(time, seq)`` pop order the real
   queue would produce: consumed real events keep their scheduling
   ``seq``; successor ticks created mid-merge get virtual keys above
   every pending ``seq``, assigned in creation order — exactly the order
   the reference loop would have assigned them.
4. Committed runs are applied per engine in bulk, metrics and — when a
   tracer is attached — one trace run block covering every engine's
   ``DECODE_STEP`` events are recorded in pop order, each request's run
   goes to the simulator's token sink as one chunk, the loop's
   clock/processed count advance by the replay,
   and each engine's one outstanding successor event is materialized as
   a real scheduled event *in creation order*, so every relative
   ``(time, seq)`` comparison any future event can make is unchanged.

The relative-order argument is the same one that justifies the gen-1
inline lane: coalescing may shift absolute ``seq`` values, but the
relative scheduling order of any two events that ever coexist in the
queue — and therefore every tie-break — is preserved. The differential
equivalence harness (``tests/test_fastpath_differential.py``) pins the
end-to-end claim byte-for-byte.
"""

from __future__ import annotations

import heapq

import numpy as np


class VectorDecodeLane:
    """Merge-replay driver bound to one :class:`ClusterSimulator`."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.merges = 0
        self.merged_steps = 0

    def try_merge(self, e0_gpu: str, e0_engine, end: float, entry: bool = False) -> int:
        """Attempt a merge of one or more engines' decode runs; returns
        steps committed (0 = no-op).

        Two call modes share the replay machinery:

        * ``entry=False`` (window tail): ``e0_engine`` just finished a
          step at ``end`` (its next tick's start); that tick is *unpaid*
          — the reference path would schedule and later pop it, so the
          replay accounts every pop including E0's first.
        * ``entry=True`` (window start): E0's step event at ``end`` just
          *fired* — the loop already popped and paid for it, and the
          caller has not yet executed the step. The replay commits that
          tick as its guaranteed first pop (it was the queue minimum, or
          it would not have fired) without re-accounting it.

        On success the committed prefix of every participating engine's
        run has been applied, the loop advanced, and every engine's next
        step event scheduled — the caller's step action must simply
        return. On failure nothing observable changed and the caller
        falls back to the per-step path.
        """
        sim = self.sim
        loop = sim.loop
        info = loop.merge_info()
        if info is None:
            return 0
        until, budget, vbase = info
        if until is not None and end > until:
            return 0
        prepaid = 1 if entry else 0
        if budget is not None and budget <= -prepaid:
            return 0

        # Stage E0 first: it is the cheapest disqualifier (a request
        # finishing next tick, no headroom) and staging has no observable
        # side effects, so bailing here costs nothing. The priced length
        # is the finish/headroom cap, which the per-arm cache serves
        # sliced; the replay below never walks past its horizon anyway.
        staged0 = e0_engine.steady_run_stage(end)
        if staged0 is None:
            return 0

        # Collect the other engines whose pending events are candidate
        # decode ticks. Anything that fails the cheap gate keeps its
        # event in the queue, where it bounds the horizon like any other
        # foreign event.
        engines = sim.scheduler.engines
        others = []
        skip_ids = set()
        for gid, handle in list(sim._step_handles.items()):
            if handle.cancelled:
                del sim._step_handles[gid]
                continue
            eng = engines.get(gid)
            if (
                eng is None
                or not getattr(eng, "alive", True)
                or not eng.fast_path
                or not eng.steady_ready()
            ):
                continue
            others.append((gid, handle, eng))
            skip_ids.add(id(handle))

        horizon = loop.peek_time_excluding(skip_ids)
        if horizon is not None and horizon <= end:
            return 0

        # Stage the rest. A candidate that fails staging (a finish next
        # tick, no headroom) keeps its real event, which clamps the
        # replay horizon below it.
        gids = [e0_gpu]
        lane = [e0_engine]
        handles: "list[object | None]" = [None]
        ends_np = [staged0[0]]
        batches = [staged0[1]]
        h_dyn = horizon
        for gid, handle, eng in others:
            staged = eng.steady_run_stage(handle.time)
            if staged is None:
                if h_dyn is None or handle.time < h_dyn:
                    h_dyn = handle.time
                continue
            gids.append(gid)
            lane.append(eng)
            handles.append(handle)
            ends_np.append(staged[0])
            batches.append(staged[1])
        if h_dyn is not None and h_dyn <= end:
            return 0

        n_eng = len(lane)
        ends = [a.tolist() for a in ends_np]
        avail = [len(e) - 1 for e in ends]
        fbatch = [float(b) for b in batches]
        committed = [0] * n_eng
        # E0's initial event is virtual (creation index 0, due at ``end``);
        # if the replay stops before it pops, it must still materialize —
        # every other engine keeps its real queued event instead.
        succ_time = [0.0] * n_eng
        succ_time[0] = end
        succ_order = [0] * n_eng

        # Replay the queue's pop order. E0's (virtual) initial event is
        # creation index 0 — the reference path schedules it before any
        # of the window's pops; consumed real events compare by their
        # true seq, which every virtual key exceeds, as in the reference.
        # In entry mode E0's event already fired as the queue minimum, so
        # a below-every-seq key reproduces that it pops first.
        heap: "list[tuple[float, int, int]]" = [(end, -1 if entry else vbase, 0)]
        for i in range(1, n_eng):
            heap.append((ends[i][0], handles[i].seq, i))
        heapq.heapify(heap)
        next_idx = 1
        pops = 0
        merged_t: "list[float]" = []
        merged_b: "list[float]" = []
        merged_i: "list[int]" = []
        while heap:
            t, _key, i = heap[0]
            if h_dyn is not None and t >= h_dyn:
                break
            if until is not None and t > until:
                break
            if budget is not None and pops >= budget + prepaid:
                break
            heapq.heappop(heap)
            handle = handles[i]
            if handle is not None:
                handle.cancel()
                handles[i] = None
            merged_t.append(t)
            merged_b.append(fbatch[i])
            merged_i.append(i)
            ki = committed[i] + 1
            committed[i] = ki
            pops += 1
            nxt = ends[i][ki]
            succ_time[i] = nxt
            succ_order[i] = next_idx
            if ki >= avail[i]:
                # Run exhausted: the successor might finish a request or
                # need the general path, so it must fire as a real event —
                # nothing may be replayed past it.
                if h_dyn is None or nxt < h_dyn:
                    h_dyn = nxt
            else:
                heapq.heappush(heap, (nxt, vbase + next_idx, i))
            next_idx += 1
        if pops == 0:
            return 0

        # Apply each engine's committed prefix in bulk, then account the
        # replay and materialize successors in creation order so their
        # relative seqs match what the reference loop assigned.
        per_gpu = []
        # Under the simulator's tracer every engine hands its trace lane
        # back, for one block in pop order.
        tracer = sim.tracer
        trace_lanes: "list | None" = [] if tracer is not None else None
        sink = sim.token_sink
        lane_of = [0] * n_eng
        for i in range(n_eng):
            n = committed[i]
            if n == 0:
                continue
            lane_of[i] = len(per_gpu)
            lane[i].commit_steady_run(n, trace_lanes)
            per_gpu.append((gids[i], ends_np[i][:n + 1], batches[i]))
            if sink is not None:
                # One chunk per request of the run, each token stamped
                # with the end of its step. The armed batch is the whole
                # working set, and none of it holds a token: only a
                # handoff holds one, and handoff simulations never merge.
                times = tuple(ends[i][1:n + 1])
                for req in lane[i].all_requests():
                    sink(req.request_id, tuple(req.generated_tokens[-n:]), times)
        if trace_lanes:
            tracer.decode_run(trace_lanes, [lane_of[i] for i in merged_i])
        sim.metrics.record_step_merge(
            np.array(merged_t), np.array(merged_b), per_gpu
        )
        loop.consume_merged(pops - prepaid, merged_t[-1])
        order = sorted(
            (i for i in range(n_eng) if committed[i] or i == 0),
            key=succ_order.__getitem__,
        )
        for i in order:
            h = loop.schedule(succ_time[i], sim._step_action(gids[i]))
            sim._step_handles[gids[i]] = h
        self.merges += 1
        self.merged_steps += pops
        return pops
