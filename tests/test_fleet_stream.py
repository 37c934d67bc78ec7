"""Fleet stream v2: the batch-native fleet and its chunk invariance.

The Syrian fleet filters requests a chunk at a time and consumes
exactly ten uniforms of the fleet rng per request, so:

* any split of a request stream into chunks — one request at a time
  included — emits the same records and the same ``--metrics``
  counters (Hypothesis-driven, over the user-slice days, the July
  SG-42-only days, Tor components, and the stateful LRU cache);
* ``PolicyEngine.evaluate_many`` equals evaluating each view, for
  every rule type the repository ships;
* the regimes without a batch fleet (Pakistan, Turkmenistan) still
  write the exact bytes they wrote before the stream changed;
* a ledger written without the ``fleet_stream`` facet refuses to
  resume, naming the facet.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.engine import simulate_to_logs
from repro.engine.simulate import scenario_context
from repro.frame.batch import concat_batches
from repro.metrics import MetricsRegistry, use_registry
from repro.net.ip import parse_network
from repro.pipeline import FleetStage, Pipeline, RecordListSink
from repro.policy import PolicyEngine, RequestView
from repro.policy.cache import LruProxyCache
from repro.policy.extensions import (
    BrowserTypeRule,
    CategoryRule,
    ExtensionRule,
    PortRule,
    TimeOfDayRule,
)
from repro.policy.rules import (
    DomainBlacklistRule,
    FacebookPageRule,
    HostBlacklistRule,
    IPBlacklistRule,
    KeywordRule,
    RedirectHostRule,
    TorBlockSchedule,
    TorOnionRule,
)
from repro.proxy import ProxyFleet
from repro.proxy.sg9000 import DRAW_COLUMNS
from repro.regimes.pakistan import BlockpageRule, DnsInjectionRule
from repro.regimes.turkmenistan import DpiKeywordRule, SubnetRstRule
from repro.runstate import RunCheckpoint, config_digest, run_fingerprint
from repro.timeline import day_epoch
from repro.workload.config import ScenarioConfig, small_config

#: Same tiny scenario as test_batch_equivalence/test_engine, so the
#: cached per-process scenario context is shared across modules.
TINY = small_config(6_000, seed=5)

#: A user-slice day, a July SG-42-only day and a full-fleet August day
#: with Tor traffic.
DAYS = ("2011-07-22", "2011-07-31", "2011-08-03")


@pytest.fixture(scope="module")
def stream():
    """Requests from every interesting kind of day, in stream order."""
    context = scenario_context(TINY)
    requests = []
    for index, day in enumerate(DAYS):
        rng = np.random.default_rng(index)
        requests.extend(context.generator.generate_day(day, rng)[:150])
    components = {request.component for request in requests}
    assert {"tor-onion", "tor-http"} & components
    return requests


def _fleet(lru: bool) -> ProxyFleet:
    policy = scenario_context(TINY).policy
    if lru:
        return ProxyFleet(policy, cache=LruProxyCache(capacity=40))
    return ProxyFleet(policy)


def _run(fleet, requests, cuts, seed):
    """Filter *requests* chunked at *cuts*; returns (batch, counters)."""
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    bounds = [0, *sorted(set(cuts)), len(requests)]
    with use_registry(registry):
        batches = [
            fleet.process_batch(requests[start:stop], rng)
            for start, stop in zip(bounds, bounds[1:])
        ]
    return concat_batches(batches), registry.counters


class TestChunkInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 450), max_size=12),
        seed=st.integers(0, 2**32 - 1),
        lru=st.booleans(),
    )
    def test_any_chunking_gives_the_same_records_and_counters(
        self, stream, cuts, seed, lru
    ):
        whole, whole_counters = _run(_fleet(lru), stream, [], seed)
        chunked, chunked_counters = _run(_fleet(lru), stream, cuts, seed)
        assert chunked == whole
        assert chunked_counters == whole_counters
        assert whole_counters["fleet.requests"] == len(stream)

    @pytest.mark.parametrize("lru", [False, True])
    def test_one_request_at_a_time_matches_the_batch(self, stream, lru):
        whole, whole_counters = _run(_fleet(lru), stream, [], 7)
        rng = np.random.default_rng(7)
        fleet = _fleet(lru)
        registry = MetricsRegistry()
        with use_registry(registry):
            records = [fleet.process(request, rng) for request in stream]
        assert records == whole.to_records()
        assert registry.counters == whole_counters

    def test_every_request_consumes_ten_uniforms(self, stream):
        rng = np.random.default_rng(3)
        _fleet(False).process_batch(stream[:37], rng)
        reference = np.random.default_rng(3)
        reference.random(37 * len(DRAW_COLUMNS))
        assert rng.random() == reference.random()

    def test_stream_covers_every_branch(self, stream):
        whole, counters = _run(_fleet(False), stream, [], 11)
        assert {"OBSERVED", "DENIED"} <= set(whole.col("sc_filter_result"))
        assert any(name.startswith("proxy.requests.SG-4") for name in counters)
        assert counters["proxy.requests.SG-42"] > 150  # the July days

    def test_fleet_seconds_timer_counts_chunks(self, stream):
        registry = MetricsRegistry()
        fleet = _fleet(False)
        with use_registry(registry):
            Pipeline(
                stream, (FleetStage(fleet, np.random.default_rng(5)),)
            ).run(RecordListSink(), 100)
        assert registry.timers["fleet.seconds"].count == -(-len(stream) // 100)

    def test_fleet_seconds_reaches_the_metrics_report(self, tmp_path):
        import json

        from repro.metrics import metrics_to_markdown
        from repro.metrics.registry import TimerStats

        assert main([
            "simulate", "--requests", "2000", "--seed", "3",
            "--out", str(tmp_path / "out"),
            "--metrics", str(tmp_path / "metrics.json"),
        ]) == 0
        document = json.loads((tmp_path / "metrics.json").read_text())
        timer = document["timers"]["fleet.seconds"]
        assert timer["count"] >= 9  # at least one chunk per log-day
        registry = MetricsRegistry()
        registry.timers["fleet.seconds"] = TimerStats(
            timer["count"], timer["total_seconds"]
        )
        assert "fleet.seconds" in metrics_to_markdown(registry)


# -- evaluate_many -------------------------------------------------------------


def _views() -> list[RequestView]:
    epoch = day_epoch("2011-08-03")
    hosts = [
        "www.facebook.com", "www.metacafe.com", "upload.youtube.com",
        "news.example.co.il", "84.229.3.4", "212.150.13.20", "10.0.0.1",
        "messenger.live.com", "proxy.example.net", "www.example.com",
    ]
    views = []
    for index, host in enumerate(hosts * 3):
        views.append(RequestView(
            host=host,
            path=("/Syrian.Revolution", "/setup.EXE", "/a/b.html")[index % 3],
            query=("ref=ts", "", "q=proxy")[index % 3],
            port=(80, 443, 9001)[index % 3],
            scheme=("http", "https", "tcp")[index % 3],
            method=("GET", "CONNECT", "POST")[index % 3],
            epoch=epoch + index * 3_600,
            user_agent=("Mozilla/5.0", "UltraSurf/9", "-")[index % 3],
        ))
    return views


def _rules():
    schedule = TorBlockSchedule(
        [(day_epoch("2011-08-03"), day_epoch("2011-08-04"), 0.6)]
    )

    class Unannotated:
        """A rule without ``reads``: keyed on the whole view."""

        def evaluate(self, request):
            if request.epoch % 7_200 == 0 and request.port == 443:
                return HostBlacklistRule([request.host]).evaluate(request)
            return None

    return [
        KeywordRule(["proxy", "israel"]),
        DomainBlacklistRule(["metacafe.com"], suffixes=[".il"]),
        HostBlacklistRule(["messenger.live.com"]),
        RedirectHostRule(["upload.youtube.com"]),
        FacebookPageRule(["Syrian.Revolution"], ["www.facebook.com"],
                         ["ref=ts"]),
        IPBlacklistRule([parse_network("84.229.0.0/16")], ["212.150.13.20"]),
        TorOnionRule([("10.0.0.1", 443)], schedule),
        CategoryRule(["News"], lambda host, path: (
            "News" if host.startswith("news.") else "Other"
        )),
        PortRule([9001]),
        TimeOfDayRule(HostBlacklistRule(["www.example.com"]), 22, 6),
        TimeOfDayRule(Unannotated(), 0, 12),
        BrowserTypeRule(["ultrasurf"]),
        ExtensionRule(["exe"]),
        DnsInjectionRule(["metacafe.com"]),
        BlockpageRule(["www.example.com"]),
        DpiKeywordRule(["proxy"]),
        SubnetRstRule([parse_network("212.150.0.0/16")]),
        Unannotated(),
    ]


class TestEvaluateMany:
    @pytest.mark.parametrize(
        "rule", _rules(), ids=lambda rule: type(rule).__name__
    )
    def test_single_rule(self, rule):
        engine = PolicyEngine([rule])
        views = _views()
        assert engine.evaluate_many(views) == [
            engine.evaluate(view) for view in views
        ]

    def test_full_rule_chain_and_its_reverse(self):
        views = _views()
        for rules in (_rules(), _rules()[::-1]):
            engine = PolicyEngine(rules)
            verdicts = engine.evaluate_many(views)
            assert verdicts == [engine.evaluate(view) for view in views]
            assert {verdict.exception_id for verdict in verdicts} != {"-"}

    def test_reads_union_and_fallback(self):
        assert PolicyEngine([HostBlacklistRule([])]).reads == ("host",)
        assert PolicyEngine(
            [KeywordRule([]), PortRule([])]
        ).reads == ("host", "path", "query", "port")
        assert PolicyEngine(
            [_rules()[-1]]
        ).reads == RequestView._fields
        assert PolicyEngine([]).evaluate_many(_views()[:3]) == [
            PolicyEngine([]).evaluate(view) for view in _views()[:3]
        ]


# -- regimes without a batch fleet, and versioning -------------------------------


#: SHA-256 of ``simulate --requests 4000 --seed 3 --regime NAME``'s
#: proxies.log, as written before fleet stream v2: these regimes keep
#: their per-record fleets, so their bytes must never move.
GOLDEN = {
    "pakistan":
        "579df2d3d563751130bee3250ed542c17e5860c100cb048053811882c3d1ebd1",
    "turkmenistan":
        "a4af1f28b49279c965d6d7df542f8375e73c708d16a5bcf40b9265341453f108",
}


class TestUnchangedRegimes:
    @pytest.mark.parametrize("regime", sorted(GOLDEN))
    def test_simulate_bytes_match_the_golden_digest(self, tmp_path, regime):
        assert main([
            "simulate", "--requests", "4000", "--seed", "3",
            "--regime", regime, "--out", str(tmp_path / "cli"),
        ]) == 0
        config = ScenarioConfig(total_requests=4000, seed=3, regime=regime)
        simulate_to_logs(config, tmp_path / "batch1", batch_size=1)
        for out in ("cli", "batch1"):
            data = (tmp_path / out / "proxies.log").read_bytes()
            assert hashlib.sha256(data).hexdigest() == GOLDEN[regime], out


class TestFleetStreamFingerprint:
    def test_v1_ledger_refuses_resume_naming_the_facet(self, tmp_path):
        config = ScenarioConfig(total_requests=2000, seed=3)
        v1 = run_fingerprint(
            "simulate", config=config_digest(config), regime="syria",
            per_proxy=False, per_day=False, compress=False,
        )
        ledger = RunCheckpoint(tmp_path / "ledger", v1)
        ledger.begin([f"day:{day}" for day in config.days])
        ledger.close()
        with pytest.raises(SystemExit, match="fleet_stream"):
            main([
                "simulate", "--requests", "2000", "--seed", "3",
                "--out", str(tmp_path / "out"),
                "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            ])

    def test_simulate_and_distributed_fingerprints_agree(self, tmp_path):
        from repro.dispatch import simulate_job_for
        from repro.engine import simulate_fingerprint

        config = ScenarioConfig(total_requests=2000, seed=3)
        job = simulate_job_for(config, tmp_path, per_day=True)
        assert job.fingerprint() == simulate_fingerprint(
            config, per_day=True
        )
        assert job.fingerprint()["fleet_stream"] == 2
