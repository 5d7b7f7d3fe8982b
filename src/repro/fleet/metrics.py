"""Prometheus instruments of the fleet coordinator, declared on one :class:`Registry`.

Counters track coordinator decisions (placements by node, sheds, reroutes, proxy
errors); membership and fleet-wide load are gauges read at scrape time from the live
node table — the per-node queue depths come from heartbeat gossip, so the
coordinator's ``/metrics`` page is a one-stop load view of the whole fleet.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..obs.metrics import Registry


class FleetMetrics(Registry):
    """All coordinator instrumentation, rendered as one Prometheus text page.

    ``node_rows()`` returns the node table as rows carrying ``id``/``alive`` plus the
    gossiped ``health`` document (:meth:`NodeState.to_dict` form).
    """

    def __init__(self, node_rows: Callable[[], List[Dict]]) -> None:
        super().__init__()

        def alive_rows() -> List[Dict]:
            return [row for row in node_rows() if row["alive"]]

        self.gauge(
            "repro_fleet_nodes", "Worker nodes currently registered",
            lambda: len(node_rows()),
        )
        self.gauge(
            "repro_fleet_nodes_alive", "Registered nodes with a fresh heartbeat",
            lambda: len(alive_rows()),
        )
        for stat, help_text in (
            ("queue_depth", "Fleet-wide queued jobs (sum of per-node gossip)"),
            ("in_flight", "Fleet-wide executing jobs (sum of per-node gossip)"),
            ("workers", "Fleet-wide worker-pool slots (sum of per-node gossip)"),
        ):
            self.gauge(
                f"repro_fleet_{stat}", help_text,
                lambda stat=stat: sum(
                    int(row["health"].get(stat, 0)) for row in alive_rows()
                ),
            )
        self.gauge(
            "repro_fleet_node_queue_depth", "Queued jobs per node (gossip)",
            lambda: {
                row["id"]: int(row["health"].get("queue_depth", 0)) for row in node_rows()
            },
            label="node",
        )
        self.gauge(
            "repro_fleet_node_up", "Node liveness (1 = fresh heartbeat)",
            lambda: {row["id"]: int(row["alive"]) for row in node_rows()},
            label="node",
        )
        self.requests = self.counter(
            "repro_fleet_http_requests_total",
            "HTTP requests served by the coordinator, by route and status code",
        )
        self.placements = self.counter(
            "repro_fleet_placements_total",
            "Jobs placed onto worker nodes, by node id",
        )
        self.sheds = self.counter(
            "repro_fleet_sheds_total",
            "Submissions shed with 429 because every alive owner was saturated",
        )
        self.reroutes = self.counter(
            "repro_fleet_reroutes_total",
            "Jobs resubmitted to a surviving node after their node died",
        )
        self.proxy_errors = self.counter(
            "repro_fleet_proxy_errors_total",
            "Forward/proxy attempts that failed at the transport level, by node id",
        )
        self.heartbeats = self.counter(
            "repro_fleet_heartbeats_total", "Heartbeats accepted, by node id"
        )
        self.registrations = self.counter(
            "repro_fleet_registrations_total", "Node registrations accepted"
        )
        self.forward_seconds = self.histogram(
            "repro_fleet_forward_seconds",
            "Wall time of forwarded job submissions (place + node admission)",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0),
        )
