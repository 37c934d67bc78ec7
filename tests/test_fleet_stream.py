"""Fleet streams: the batch-native fleets and their chunk invariance.

Every fleet filters requests a chunk at a time and consumes a fixed
number of uniforms of the fleet rng per request — the Syrian fleet
ten (fleet stream v2), the Pakistan and Turkmenistan gateway six
(gateway stream 3) — so:

* any split of a request stream into chunks — one request at a time
  included — emits the same records and the same ``--metrics``
  counters (Hypothesis-driven, over the user-slice days, the July
  SG-42-only days, Tor components, and the stateful LRU cache, and
  through both gateways);
* ``PolicyEngine.evaluate_many`` equals evaluating each view, for
  every rule type the repository ships, and so do the column verdicts
  of every shipped engine over random views and random chunkings;
* the Pakistan and Turkmenistan regimes write the pinned bytes of
  gateway stream 3 at every batch size and worker count;
* a ledger written without the ``fleet_stream`` or the
  ``workload_stream`` facet, or under another regime's fleet stream,
  refuses to resume, naming the facet.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.facebook import (
    BLOCKED_QUERY_FORMS,
    CUSTOM_CATEGORY_PAGES,
    ESCAPING_QUERY_FORM,
    PAGE_HOSTS,
)
from repro.cli import main
from repro.engine import simulate_fingerprint, simulate_to_logs
from repro.engine.simulate import scenario_context
from repro.frame.batch import concat_batches
from repro.metrics import MetricsRegistry, use_registry
from repro.net.ip import parse_network
from repro.net.url import registered_domain
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
from repro.regimes import PAKISTAN, TURKMENISTAN
from repro.regimes.gateway import DRAW_COLUMNS as GATEWAY_DRAW_COLUMNS
from repro.regimes.pakistan import (
    BlockpageRule,
    DnsInjectionRule,
    build_pakistan_policy,
)
from repro.regimes.turkmenistan import (
    DpiKeywordRule,
    SubnetRstRule,
    build_turkmenistan_policy,
)
from repro.runstate import RunCheckpoint, config_digest, run_fingerprint
from repro.timeline import day_epoch
from repro.traffic import RequestBatch
from repro.workload.config import ScenarioConfig, small_config
from repro.workload.stream import WORKLOAD_STREAM

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
    requests = RequestBatch.from_requests([
        request
        for index, day in enumerate(DAYS)
        for request in context.generator.generate_day(
            day, np.random.default_rng(index)
        )[:150]
    ])
    assert {"tor-onion", "tor-http"} & set(requests.col("component"))
    return requests


def _fleet(lru: bool) -> ProxyFleet:
    policy = scenario_context(TINY).policy
    if lru:
        return ProxyFleet(policy, cache=LruProxyCache(capacity=40))
    return ProxyFleet(policy)


#: The regimes that deploy a gateway, by name.
GATEWAY_REGIMES = {"pakistan": PAKISTAN, "turkmenistan": TURKMENISTAN}


def _gateway(regime: str):
    """The gateway *regime* deploys over TINY's universe, built through
    its profile."""
    profile = GATEWAY_REGIMES[regime]
    return profile.build_fleet(
        profile.build_policy(scenario_context(TINY).generator)
    )


@pytest.fixture(scope="module")
def gateway_stream(stream):
    """The stream with every 50th request re-aimed by a plain-HTTP GET
    at a Pakistani block-page host outside the DNS blacklist, so every
    censor signature of every gateway shows up."""
    policy = PAKISTAN.build_policy(scenario_context(TINY).generator)
    host = min(
        host for host in policy.blockpage_hosts
        if registered_domain(host) not in policy.dns_blocked_domains
    )
    return RequestBatch.from_requests([
        dataclasses.replace(
            request, host=host, path="/", query="", scheme="http",
            port=80, method="GET", content_type="text/html",
        ) if index % 50 == 0 else request
        for index, request in enumerate(stream)
    ])


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

    @pytest.mark.parametrize("regime", sorted(GATEWAY_REGIMES))
    @settings(max_examples=25, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 450), max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_chunking_gives_the_same_gateway_records_and_counters(
        self, gateway_stream, regime, cuts, seed
    ):
        whole, whole_counters = _run(
            _gateway(regime), gateway_stream, [], seed
        )
        chunked, chunked_counters = _run(
            _gateway(regime), gateway_stream, cuts, seed
        )
        assert chunked == whole
        assert chunked_counters == whole_counters
        assert whole_counters["fleet.requests"] == len(gateway_stream)

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

    @pytest.mark.parametrize("regime", sorted(GATEWAY_REGIMES))
    def test_every_gateway_request_consumes_six_uniforms(
        self, gateway_stream, regime
    ):
        rng = np.random.default_rng(3)
        _gateway(regime).process_batch(gateway_stream[:37], rng)
        reference = np.random.default_rng(3)
        reference.random(37 * len(GATEWAY_DRAW_COLUMNS))
        assert len(GATEWAY_DRAW_COLUMNS) == 6
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("regime", sorted(GATEWAY_REGIMES))
    def test_gateway_stream_covers_every_branch(
        self, gateway_stream, regime
    ):
        whole, counters = _run(_gateway(regime), gateway_stream, [], 11)
        exceptions = set(whole.col("x_exception_id"))
        assert {"-", "tcp_error"} <= exceptions
        assert GATEWAY_REGIMES[regime].censor_exceptions <= exceptions
        assert counters["fleet.verdict.DENIED"] > 0

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
                [stream], (FleetStage(fleet, np.random.default_rng(5)),)
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

    def test_rules_keep_their_own_reads(self):
        rules = {type(rule).__name__: rule for rule in _rules()}
        assert rules["HostBlacklistRule"].reads == ("host",)
        assert rules["DnsInjectionRule"].reads == ("host",)
        assert rules["TorOnionRule"].reads == (
            "host", "port", "method", "epoch"
        )
        assert TimeOfDayRule(PortRule([]), 0, 1).reads == ("epoch", "port")
        assert TimeOfDayRule(rules["Unannotated"], 0, 1).reads is None
        assert PolicyEngine([]).evaluate_many(_views()[:3]) == [
            PolicyEngine([]).evaluate(view) for view in _views()[:3]
        ]


def _scenario_engines() -> dict[str, PolicyEngine]:
    """The engines the shipped regimes deploy over TINY's universe."""
    context = scenario_context(TINY)
    policy = context.policy
    return {
        "syria-base": policy.base_engine,
        "syria-SG-44": policy.engine_for("SG-44"),
        "pakistan": build_pakistan_policy(context.generator).engine,
        "turkmenistan": build_turkmenistan_policy(context.generator).engine,
        "every-rule-type": PolicyEngine(_rules()),
    }


def _view_fields():
    """Field pools that reach every branch of the shipped rules."""
    context = scenario_context(TINY)
    policy = context.policy
    relays = sorted(context.generator.tor_directory.or_endpoints())[:6]
    hosts = [
        *[host for host, _ in PAGE_HOSTS], "WWW.Facebook.com",
        *sorted(policy.blocked_hosts)[:3], *sorted(policy.blocked_domains)[:3],
        "www." + sorted(policy.blocked_domains)[0], "upload.youtube.com",
        "news.example.co.il", "84.229.3.4", "212.150.13.20", "10.0.0.1",
        *policy.blocked_addresses[:3], *[ip for ip, _ in relays],
        "tracker-proxy.furk.net", "www.example.com", "vpn.example.org",
        "WWW.ISRAEL-news.com", "",
    ]
    start = day_epoch("2011-08-03")
    return {
        "host": st.sampled_from(hosts),
        "path": st.sampled_from([
            "", "/", *[f"/{page}" for page in sorted(CUSTOM_CATEGORY_PAGES)[:3]],
            "/Syrian.revolution", "/setup.EXE", "/a/b.html", "/proxy.pac",
        ]),
        "query": st.sampled_from([
            *BLOCKED_QUERY_FORMS, ESCAPING_QUERY_FORM, "q=UltraSurf", "x=1",
        ]),
        "port": st.sampled_from(
            [80, 443, 9001, 6969, *[port for _, port in relays]]
        ),
        "scheme": st.sampled_from(["http", "https", "tcp"]),
        "method": st.sampled_from(["GET", "CONNECT", "POST"]),
        "epoch": st.integers(start - 86_400, start + 2 * 86_400),
        "user_agent": st.sampled_from(["Mozilla/5.0", "UltraSurf/9", "-"]),
    }


class TestColumnVerdicts:
    """Column verdicts equal the scalar reference, chunk by chunk."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_views_any_chunking_match_evaluate(self, data):
        views = data.draw(
            st.lists(st.builds(RequestView, **_view_fields()), max_size=80)
        )
        cuts = data.draw(st.lists(st.integers(0, len(views)), max_size=6))
        bounds = [0, *sorted(set(cuts)), len(views)]
        for name, engine in _scenario_engines().items():
            chunked = [
                verdict
                for start, stop in zip(bounds, bounds[1:])
                for verdict in engine.evaluate_many(views[start:stop])
            ]
            assert chunked == [engine.evaluate(view) for view in views], name

    def test_codes_index_distinct_verdicts(self):
        engine = _scenario_engines()["every-rule-type"]
        views = _views() * 2
        codes, verdicts = engine.evaluate_columns({
            field: np.array([getattr(view, field) for view in views],
                            dtype=object)
            for field in RequestView._fields
        })
        assert len(set(verdicts)) == len(verdicts)
        assert [verdicts[code] for code in codes] == [
            engine.evaluate(view) for view in views
        ]


# -- the gateway regimes' bytes, and versioning --------------------------------


#: SHA-256 of ``simulate --requests 4000 --seed 3 --regime NAME``'s
#: proxies.log under workload stream v2 and gateway stream 3.  The
#: bytes move with the workload stream (``WORKLOAD_STREAM``) and the
#: gateway's (``GATEWAY_STREAM``), never with the Syrian fleet's.
GOLDEN = {
    "pakistan":
        "feb5f9242aa842e0e4b2292600d82d10f9d59db81454da6d7b2e79d237b6fcd5",
    "turkmenistan":
        "f9530e60a4df316fae2378df694baa06b0b33106ab749706cf1b27f110550972",
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
        simulate_to_logs(config, tmp_path / "workers2", workers=2)
        for out in ("cli", "batch1", "workers2"):
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

    def test_fleet_stream_2_gateway_ledger_refuses_resume(self, tmp_path):
        """A Pakistan ledger fingerprinted before the gateway (fleet
        stream 2) refuses; Syria's fingerprint did not move."""
        config = ScenarioConfig(total_requests=2000, seed=3, regime="pakistan")
        before = run_fingerprint(
            "simulate", config=config_digest(config), regime="pakistan",
            per_proxy=False, per_day=False, compress=False, fleet_stream=2,
            workload_stream=2,
        )
        ledger = RunCheckpoint(tmp_path / "ledger", before)
        ledger.begin([f"day:{day}" for day in config.days])
        ledger.close()
        with pytest.raises(SystemExit, match="fleet_stream"):
            main([
                "simulate", "--requests", "2000", "--seed", "3",
                "--regime", "pakistan", "--out", str(tmp_path / "out"),
                "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            ])
        syria = ScenarioConfig(total_requests=2000, seed=3)
        assert simulate_fingerprint(syria) == run_fingerprint(
            "simulate", config=config_digest(syria), regime="syria",
            per_proxy=False, per_day=False, compress=False, fleet_stream=2,
            workload_stream=2,
        )

    def test_workload_v1_ledger_refuses_resume_naming_the_facet(
        self, tmp_path
    ):
        """A ledger of fleet stream v2 over workload stream v1."""
        config = ScenarioConfig(total_requests=2000, seed=3)
        v1 = run_fingerprint(
            "simulate", config=config_digest(config), regime="syria",
            per_proxy=False, per_day=False, compress=False, fleet_stream=2,
        )
        ledger = RunCheckpoint(tmp_path / "ledger", v1)
        ledger.begin([f"day:{day}" for day in config.days])
        ledger.close()
        with pytest.raises(SystemExit, match="workload_stream"):
            main([
                "simulate", "--requests", "2000", "--seed", "3",
                "--out", str(tmp_path / "out"),
                "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            ])

    def test_report_fingerprint_names_both_streams(self, tmp_path):
        config = ScenarioConfig(total_requests=2000, seed=3)
        v1 = run_fingerprint(
            "report", config=config_digest(config), regime="syria",
            fleet_stream=2,
        )
        ledger = RunCheckpoint(tmp_path / "ledger", v1)
        ledger.begin([f"day:{day}" for day in config.days])
        ledger.close()
        with pytest.raises(SystemExit, match="workload_stream"):
            main([
                "report", "--requests", "2000", "--seed", "3",
                "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            ])

    def test_simulate_and_distributed_fingerprints_agree(self, tmp_path):
        from repro.dispatch import simulate_job_for

        config = ScenarioConfig(total_requests=2000, seed=3)
        job = simulate_job_for(config, tmp_path, per_day=True)
        assert job.fingerprint() == simulate_fingerprint(
            config, per_day=True
        )
        assert job.fingerprint()["fleet_stream"] == 2
        assert job.fingerprint()["workload_stream"] == WORKLOAD_STREAM == 2
