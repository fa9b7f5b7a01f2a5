"""The serial TWGR orchestrator.

:class:`GlobalRouter` runs the five TWGR steps end-to-end on a *clone* of
the input circuit (feedthrough insertion mutates rows and pin positions,
so the caller's circuit stays pristine).  Each step's randomness comes
from a named sub-stream of the config seed, making runs reproducible and
letting the parallel algorithms reuse the exact same streams where their
structure matches the serial one.

Observability: each step runs inside a tracing span (see
:mod:`repro.obs`) named ``step1_steiner`` … ``step5_switch``; the
default :data:`~repro.obs.tracer.NULL_TRACER` makes every hook a no-op,
and tracing is passive — it consumes no randomness and mutates nothing,
so traced and untraced runs are bit-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.circuits.model import Circuit
from repro.gcutil import gc_paused
from repro.grid.channels import build_state
from repro.grid.coarse import CoarseGrid
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perfmodel.counter import FanoutCounter, WorkCounter, NULL_COUNTER
from repro.steiner.tree import build_net_tree
from repro.twgr.coarse_step import coarse_route, collect_segments
from repro.twgr.config import RouterConfig
from repro.twgr.connect import connect_nets
from repro.twgr.feedthrough import assign_feedthroughs, insert_feedthroughs
from repro.twgr.metrics import compute_result
from repro.twgr.result import RoutingResult, StepArtifacts
from repro.twgr.switchable import optimize_switchable


class GlobalRouter:
    """Serial TimberWolfSC-style global router (paper §2)."""

    def __init__(self, config: Optional[RouterConfig] = None) -> None:
        self.config = config or RouterConfig()
        self.config.validate()

    def route(
        self,
        circuit: Circuit,
        counter: WorkCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
    ) -> RoutingResult:
        """Route ``circuit`` and return quality metrics."""
        result, _ = self.route_with_artifacts(circuit, counter, tracer)
        return result

    def route_with_artifacts(
        self,
        circuit: Circuit,
        counter: WorkCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
    ) -> Tuple[RoutingResult, StepArtifacts]:
        """Route ``circuit``, also returning every intermediate product."""
        # The routing working set is cycle-free (trees, pools, flip records
        # and span sets hold no back references), so every cyclic-GC pass
        # taken mid-route scans tens of thousands of live objects and
        # reclaims nothing.  Suspend collection for the bounded routing
        # phase; see repro.gcutil for the restore guarantees.
        with gc_paused():
            return self._route_with_artifacts(circuit, counter, tracer)

    def _route_with_artifacts(
        self,
        circuit: Circuit,
        counter: WorkCounter,
        tracer: Tracer,
    ) -> Tuple[RoutingResult, StepArtifacts]:
        cfg = self.config
        fan = FanoutCounter(counter)
        tally = fan.tally
        # With the null tracer this is `fan` itself — zero added cost on
        # the charging hot path; a live tracer attributes ops per step.
        cnt = tracer.wrap_counter(fan)
        work = circuit.clone()
        art = StepArtifacts()

        with tracer.span("route", algorithm="serial", circuit=circuit.name):
            # Step 1 — approximate Steiner trees.
            with tracer.span("step1_steiner", step=1):
                for net in work.nets:
                    art.trees[net.id] = build_net_tree(
                        net.id,
                        work.net_points(net.id),
                        row_pitch=cfg.row_pitch,
                        refine=cfg.refine_steiner,
                        counter=cnt,
                    )

            # Step 2 — coarse global routing.
            with tracer.span("step2_coarse", step=2):
                ncols = max(1, -(-max(work.max_row_width(), 1) // cfg.col_width))
                grid = CoarseGrid(
                    ncols=ncols, nrows=work.num_rows, col_width=cfg.col_width,
                    weights=cfg.weights, strict=cfg.strict_kernels,
                )
                pool = collect_segments(art.trees)
                art.pool_size = len(pool)
                coarse_route(
                    pool, grid, cfg.rng(2, 0), passes=cfg.coarse_passes, counter=cnt
                )
                art.grid = grid

            # Step 2b/3 — feedthrough insertion and assignment.
            with tracer.span("step3_feedthrough", step=3):
                art.feed_plan = insert_feedthroughs(work, grid, counter=cnt)
                art.bound_feeds = assign_feedthroughs(
                    work, grid, art.feed_plan, counter=cnt
                )

            # Step 4 — net connection.
            with tracer.span("step4_connect", step=4):
                spans, stats = connect_nets(
                    work,
                    range(len(work.nets)),
                    row_pitch=cfg.row_pitch,
                    skip_row_penalty=cfg.skip_row_penalty,
                    counter=cnt,
                )
                art.spans = spans
                art.connect_stats = stats

            # Step 5 — switchable segment optimization.
            with tracer.span("step5_switch", step=5):
                state = build_state(spans, 0, work.num_rows)
                flips = optimize_switchable(
                    spans, state, cfg.rng(5, 0), passes=cfg.switch_passes,
                    counter=cnt, pass_stats=art.switch_stats,
                )
                art.state = state

            result = compute_result(
                work,
                state,
                spans,
                stats,
                num_feeds=art.feed_plan.total,
                flips=flips,
                config=cfg,
                algorithm="serial",
                nprocs=1,
                counter=cnt,
                work_units=dict(tally.units),
            )
        return result, art
