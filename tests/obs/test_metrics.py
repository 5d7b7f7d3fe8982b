"""The one metrics plane: registry rendering, page conformance, label escaping.

``repro.obs.metrics`` is the only code that writes Prometheus text, so these tests pin
the page shape every ``/metrics`` endpoint serves: the registry's own contract on
hand-built registries, then a conformance check over the live pages of a thread-pool
server, a fleet coordinator and a fleet node.
"""

import re
import time
from collections import defaultdict

import pytest

from repro import QuantumCircuit, Target, TranspileOptions
from repro.client import ReproClient, ServerError
from repro.fleet import FleetCoordinator, FleetWorkerServer
from repro.fleet.metrics import FleetMetrics
from repro.obs import COUNTERS, Registry, hit_rate, parse_metric
from repro.obs.metrics import _escape_label_value, _labels
from repro.server import ReproServer
from repro.server.http import ThreadedServer
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue
from repro.service.cache import ResultCache

SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$")
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def small_circuit(name: str) -> QuantumCircuit:
    circuit = QuantumCircuit(3, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.cx(0, 2)
    return circuit


def linear_target() -> Target:
    return Target.from_topology("linear", 5)


def assert_conformant(text: str) -> dict:
    """Check one page against the exposition rules; returns ``{sample key: value}``."""
    helps, kinds = set(), {}
    values = {}
    buckets = defaultdict(list)  # (family, labels without le) -> [(le, value)]
    counts = {}
    family = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert name not in helps, f"family {name} has two HELP lines"
            helps.add(name)
            family = None
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name in helps, f"TYPE of {name} precedes its HELP"
            assert name not in kinds, f"family {name} has two TYPE lines"
            kinds[name] = kind
            family = name
        else:
            match = SAMPLE_LINE.match(line)
            assert match, f"unparseable sample line {line!r}"
            sample, labels, value = match.group(1), match.group(2) or "", match.group(3)
            key = sample + labels
            assert key not in values, f"sample {key} appears twice"
            values[key] = float(value)
            # Every sample sits under its own family's HELP/TYPE header.
            assert family is not None, f"sample {key} precedes any family header"
            if kinds[family] == "histogram":
                suffix = sample[len(family):]
                assert sample.startswith(family) and suffix in HISTOGRAM_SUFFIXES, key
                pairs = LABEL_PAIR.findall(labels)
                if suffix == "_bucket":
                    assert pairs and pairs[-1][0] == "le", f"{key}: le must be last"
                    buckets[family, tuple(pairs[:-1])].append((pairs[-1][1], float(value)))
                elif suffix == "_count":
                    counts[family, tuple(pairs)] = float(value)
            else:
                assert sample == family, f"sample {key} outside its family {family}"
                assert not sample.endswith(HISTOGRAM_SUFFIXES), key
    assert helps == set(kinds), "every family needs both HELP and TYPE"
    for series, points in buckets.items():
        les = [float(le) for le, _ in points]
        cumulative = [value for _, value in points]
        assert les == sorted(les) and points[-1][0] == "+Inf", series
        assert cumulative == sorted(cumulative), f"{series} is not cumulative"
        assert points[-1][1] == counts[series], f"{series}: +Inf bucket != _count"
    assert set(counts) == set(buckets)
    return values


def assert_bridges_counters(text: str, snapshot: dict) -> None:
    for name in snapshot:
        key = f'repro_obs_counter{{name="{_escape_label_value(name)}"}}'
        hits = [line for line in text.splitlines() if line.rsplit(" ", 1)[0] == key]
        assert len(hits) == 1, f"{name} bridged {len(hits)} times"


class TestRegistry:
    def test_families_render_in_declaration_order(self):
        registry = Registry()
        registry.gauge("repro_b", "b", lambda: 1)
        registry.counter("repro_a_total", "a")
        registry.histogram("repro_c_seconds", "c", buckets=[1.0])
        names = [line.split(" ")[2] for line in registry.render().splitlines()
                 if line.startswith("# TYPE")]
        assert names == ["repro_b", "repro_a_total", "repro_c_seconds"]

    def test_duplicate_family_is_rejected(self):
        registry = Registry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", "x again", lambda: 0)

    def test_empty_instruments(self):
        registry = Registry()
        registry.counter("repro_idle_total", "idle")
        registry.histogram("repro_plain_seconds", "plain", buckets=[1.0])
        registry.histogram(
            "repro_pass_seconds", "per pass", buckets=[1.0], labelnames=("pass",)
        )
        registry.gauge("repro_node_up", "per node", dict, label="node")
        text = registry.render()
        values = assert_conformant(text)
        assert values == {
            "repro_idle_total": 0.0,
            'repro_plain_seconds_bucket{le="1"}': 0.0,
            'repro_plain_seconds_bucket{le="+Inf"}': 0.0,
            "repro_plain_seconds_sum": 0.0,
            "repro_plain_seconds_count": 0.0,
        }
        assert "# TYPE repro_pass_seconds histogram" in text
        assert "# TYPE repro_node_up gauge" in text

    def test_labelled_histogram_keeps_label_before_le(self):
        registry = Registry()
        histogram = registry.histogram(
            "repro_pass_seconds", "per pass", buckets=[0.1, 1.0], labelnames=("pass",)
        )
        histogram.observe(0.5, **{"pass": "Sabre"})
        histogram.observe(0.05, **{"pass": "Sabre"})
        text = registry.render()
        assert 'repro_pass_seconds_bucket{pass="Sabre",le="0.1"} 1' in text
        assert 'repro_pass_seconds_bucket{pass="Sabre",le="1"} 2' in text
        assert 'repro_pass_seconds_bucket{pass="Sabre",le="+Inf"} 2' in text
        assert parse_metric(text, "repro_pass_seconds_count", {"pass": "Sabre"}) == 2
        total = parse_metric(text, "repro_pass_seconds_sum", {"pass": "Sabre"})
        assert total == pytest.approx(0.55)

    def test_gauges_are_read_at_scrape_time(self):
        state = {"depth": 1, "nodes": {"b": 0, "a": 1}}
        registry = Registry()
        registry.gauge("repro_depth", "depth", lambda: state["depth"])
        registry.gauge("repro_up", "up", lambda: state["nodes"], label="node")
        assert parse_metric(registry.render(), "repro_depth") == 1
        state["depth"] = 7
        text = registry.render()
        assert parse_metric(text, "repro_depth") == 7
        assert text.index('repro_up{node="a"}') < text.index('repro_up{node="b"}')

    def test_counter_bridge_uses_the_shared_hit_rate(self):
        registry = Registry()
        registry.bridge_counters()
        COUNTERS.inc("cache.metrics_test.hits", 3)
        COUNTERS.inc("cache.metrics_test.misses", 1)
        snapshot = COUNTERS.snapshot()
        text = registry.render()
        assert_conformant(text)
        assert_bridges_counters(text, snapshot)
        assert parse_metric(
            text, "repro_obs_cache_hit_rate", {"cache": "cache.metrics_test"}
        ) == hit_rate(snapshot, "cache.metrics_test") == 0.75

    def test_idle_server_and_coordinator_pages_conform(self):
        queue, cache = JobQueue(), ResultCache()
        assert_conformant(ServerMetrics(queue, cache).render())
        assert_conformant(FleetMetrics(list).render())


@pytest.fixture(scope="module")
def server_page():
    handle = ReproServer(port=0, use_processes=False, max_workers=2).run_in_thread()
    try:
        client = handle.client()
        circuit = small_circuit("conformance")
        for seed in (0, 1):
            client.submit(circuit, linear_target(), TranspileOptions(seed=seed)).result(
                timeout=120
            )
        again = client.submit(circuit, linear_target(), TranspileOptions(seed=0))
        assert again.status()["from_cache"]
        with pytest.raises(ServerError):
            client.job("no-such-job")  # a 404 adds a non-2xx request series
        snapshot = COUNTERS.snapshot()  # keys only grow, so all must be on the page
        yield client.metrics_text(), snapshot
    finally:
        handle.stop(drain=False, timeout=5)


@pytest.fixture(scope="module")
def fleet_pages():
    coordinator = ThreadedServer(FleetCoordinator(port=0)).start()
    worker = ThreadedServer(FleetWorkerServer(
        coordinator.url, node_id="conformance-node", port=0,
        use_processes=False, max_workers=2,
    )).start()
    try:
        client = ReproClient(coordinator.url)
        deadline = time.monotonic() + 10
        while client.healthz().get("nodes_alive", 0) < 1:
            assert time.monotonic() < deadline, "worker never registered"
            time.sleep(0.05)
        client.submit(
            small_circuit("fleet-conformance"), linear_target(), TranspileOptions(seed=3)
        ).result(timeout=120)
        snapshot = COUNTERS.snapshot()
        yield {
            "coordinator": client.metrics_text(),
            "node": ReproClient(worker.url).metrics_text(),
            "snapshot": snapshot,
        }
    finally:
        worker.stop(drain=False, timeout=5)
        coordinator.stop(timeout=5)


class TestPageConformance:
    def test_server_page(self, server_page):
        text, snapshot = server_page
        values = assert_conformant(text)
        assert values["repro_jobs_finished_total{outcome=\"cached\"}"] == 1
        assert any(key.startswith("repro_pass_seconds_bucket{pass=") for key in values)
        assert_bridges_counters(text, snapshot)

    def test_server_page_has_no_duplicated_series(self, server_page):
        text, _snapshot = server_page
        # The result cache shows only as repro_cache_*, queue wait only once.
        assert "repro_server_queue_wait_seconds" not in text
        assert 'name="cache.result.' not in text
        assert 'cache="cache.result"' not in text
        assert parse_metric(text, "repro_job_queue_wait_seconds_count") == 2
        assert parse_metric(text, "repro_cache_hits") == 1

    def test_coordinator_page(self, fleet_pages):
        values = assert_conformant(fleet_pages["coordinator"])
        assert values['repro_fleet_node_up{node="conformance-node"}'] in (0, 1)
        assert values['repro_fleet_placements_total{node="conformance-node"}'] == 1
        assert "repro_obs_counter" not in fleet_pages["coordinator"]

    def test_node_page(self, fleet_pages):
        text = fleet_pages["node"]
        assert_conformant(text)
        assert_bridges_counters(text, fleet_pages["snapshot"])


class TestLabelEscaping:
    @pytest.mark.parametrize(
        "hostile,expected",
        [
            ('with"quote', 'with\\"quote'),
            ("back\\slash", "back\\\\slash"),
            ("new\nline", "new\\nline"),
            ('all\\"of\nthem', 'all\\\\\\"of\\nthem'),
        ],
        ids=["quote", "backslash", "newline", "all"],
    )
    def test_escape_label_value(self, hostile, expected):
        assert _escape_label_value(hostile) == expected

    def test_labels_render_is_single_line_and_parseable(self):
        rendered = _labels({"pass": 'Evil"Pass\\Name\nInjected'}.items())
        assert "\n" not in rendered
        assert rendered == '{pass="Evil\\"Pass\\\\Name\\nInjected"}'

    def test_counter_with_hostile_label_round_trips(self):
        registry = Registry()
        counter = registry.counter("repro_test_total", "test")
        counter.inc(outcome='we"ird\\label\nvalue')
        text = registry.render()
        for line in text.splitlines():
            assert line.startswith("#") or len(line.split(" ")) == 2
        assert parse_metric(text, "repro_test_total",
                            {"outcome": 'we"ird\\label\nvalue'}) == 1.0

    def test_labeled_histogram_escapes_pass_names(self):
        registry = Registry()
        histogram = registry.histogram(
            "repro_test_seconds", "test", buckets=[1.0], labelnames=("pass",)
        )
        histogram.observe(0.5, **{"pass": 'Pass"With\nHostile\\Chars'})
        text = registry.render()
        assert "\n\n" not in text
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            # Every sample line must still be "<name+labels> <value>".
            assert len(line.rsplit(" ", 1)) == 2
        assert 'pass="Pass\\"With\\nHostile\\\\Chars"' in text

    def test_render_page_with_hostile_pass_name(self):
        metrics = ServerMetrics(JobQueue(), ResultCache())
        metrics.observe_pass_timings([('Weird"Pass\nName', 0.01)])
        page = metrics.render()
        # The hostile name must not produce an unparseable or multi-sample line.
        for line in page.splitlines():
            if not line or line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])
        assert_conformant(page)
