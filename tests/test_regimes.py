"""Tests for the pluggable censorship-regime profiles (repro.regimes).

Three layers:

* **registry** — lookup, failure modes, registration guards;
* **rule models** — the Pakistani DNS-injection/block-page rules and
  the Turkmen DPI/subnet rules at the verdict level;
* **end-to-end** — each regime through the real build path, pinning
  the distinct log signatures, the sharded/batched byte-identity, and
  the regime-aware checkpoint fingerprint.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import build_scenario
from repro.engine import simulate_to_logs
from repro.logmodel.classify import CENSOR_EXCEPTIONS
from repro.policy.rules import Action, RequestView
from repro.regimes import (
    PAKISTAN,
    SYRIA,
    TURKMENISTAN,
    RegimeProfile,
    RuleRecovery,
    UnknownRegimeError,
    available_regimes,
    get_regime,
    register_regime,
)
from repro.regimes.pakistan import (
    BLOCKPAGE,
    BLOCKPAGE_HOST,
    DNS_INJECTED,
    BlockpageRule,
    DnsInjectionRule,
)
from repro.regimes.turkmenistan import (
    RST_TEARDOWN,
    TM_KEYWORDS,
    DpiKeywordRule,
    SubnetRstRule,
    recover_blocked_prefixes,
    widen_to_prefixes,
)
from repro.traffic import Request, RequestBatch
from repro.workload.config import small_config

#: Same tiny scenario as test_engine/test_chaos_engine, so the cached
#: per-process scenario context is shared across modules.
TINY = small_config(6_000, seed=5)
TINY_PK = replace(TINY, regime="pakistan")
TINY_TM = replace(TINY, regime="turkmenistan")


def view(**kw) -> RequestView:
    defaults = dict(host="example.com", path="/")
    defaults.update(kw)
    return RequestView(**defaults)


def _one_record(fleet, host: str):
    """The record *fleet* logs for one plain-HTTP GET of *host*."""
    requests = RequestBatch.from_requests([
        Request(epoch=1312329600, c_ip="10.0.0.1", user_agent="UA",
                host=host),
    ])
    return fleet.process_batch(
        requests, np.random.default_rng(0)
    ).to_records()[0]


# -- registry ----------------------------------------------------------------

class TestRegistry:
    def test_all_three_regimes_registered(self):
        names = available_regimes()
        assert {"syria", "pakistan", "turkmenistan"} <= set(names)
        assert names == tuple(sorted(names))

    def test_get_regime_returns_registered_profiles(self):
        assert get_regime("syria") is SYRIA
        assert get_regime("pakistan") is PAKISTAN
        assert get_regime("turkmenistan") is TURKMENISTAN

    def test_unknown_regime_names_the_alternatives(self):
        with pytest.raises(UnknownRegimeError, match="pakistan"):
            get_regime("atlantis")

    def test_reregistering_same_object_is_idempotent(self):
        assert register_regime(SYRIA) is SYRIA
        assert get_regime("syria") is SYRIA

    def test_replacing_under_existing_name_requires_opt_in(self):
        impostor = replace(SYRIA, description="not the real one")
        with pytest.raises(ValueError, match="replace=True"):
            register_regime(impostor)
        try:
            assert register_regime(impostor, replace=True) is impostor
            assert get_regime("syria") is impostor
        finally:
            register_regime(SYRIA, replace=True)

    def test_censor_exceptions_are_classifiable(self):
        """Every signature a profile emits must be a member of the
        shared CENSOR_EXCEPTIONS set, or classify would miscount it."""
        for name in available_regimes():
            profile = get_regime(name)
            assert profile.censor_exceptions <= CENSOR_EXCEPTIONS, name

    def test_profile_is_frozen(self):
        with pytest.raises(AttributeError):
            SYRIA.name = "syria-2"


class TestRuleRecovery:
    def test_precision_and_recall(self):
        recovery = RuleRecovery(
            kind="k", recovered=("a", "b", "x"), truth=("a", "b", "c", "d")
        )
        assert recovery.true_positives == 2
        assert recovery.precision == pytest.approx(2 / 3)
        assert recovery.recall == pytest.approx(2 / 4)

    def test_empty_recovered_has_perfect_precision(self):
        recovery = RuleRecovery(kind="k", recovered=(), truth=("a",))
        assert recovery.precision == 1.0
        assert recovery.recall == 0.0

    def test_empty_truth_has_perfect_recall(self):
        recovery = RuleRecovery(kind="k", recovered=("a",), truth=())
        assert recovery.precision == 0.0
        assert recovery.recall == 1.0


# -- rule models -------------------------------------------------------------

class TestPakistanRules:
    rule = DnsInjectionRule({"banned.com"})

    def test_dns_injection_matches_registered_domain(self):
        verdict = self.rule.evaluate(view(host="www.banned.com"))
        assert verdict is not None
        assert verdict.action is Action.DENY
        assert verdict.exception_id == DNS_INJECTED

    def test_dns_injection_applies_to_https_too(self):
        verdict = self.rule.evaluate(
            view(host="banned.com", scheme="https", method="CONNECT")
        )
        assert verdict is not None and verdict.exception_id == DNS_INJECTED

    def test_raw_ip_requests_bypass_dns(self):
        assert self.rule.evaluate(view(host="10.1.2.3")) is None

    def test_blockpage_redirects_plain_http_only(self):
        rule = BlockpageRule({"page.banned.com"})
        verdict = rule.evaluate(view(host="page.banned.com"))
        assert verdict is not None
        assert verdict.action is Action.REDIRECT
        assert verdict.exception_id == BLOCKPAGE
        assert rule.evaluate(
            view(host="page.banned.com", scheme="https", method="CONNECT")
        ) is None

    def test_unlisted_hosts_pass(self):
        assert self.rule.evaluate(view(host="fine.org")) is None
        assert BlockpageRule({"x.com"}).evaluate(view(host="fine.org")) is None


class TestTurkmenistanRules:
    def test_dpi_keyword_matches_host_path_and_query(self):
        rule = DpiKeywordRule(TM_KEYWORDS)
        for request in (
            view(host="myproxy.example.com"),
            view(path="/get-vpn-now"),
            view(path="/dl", query="tool=psiphon"),
        ):
            verdict = rule.evaluate(request)
            assert verdict is not None
            assert verdict.exception_id == RST_TEARDOWN

    def test_dpi_keyword_case_insensitive_and_abstains(self):
        rule = DpiKeywordRule(["VPN"])
        assert rule.evaluate(view(host="vpn.example.com")) is not None
        assert rule.evaluate(view(host="plain.example.com")) is None

    def test_widen_to_prefixes_canonicalizes_and_dedups(self):
        prefixes = widen_to_prefixes(
            ["77.160.10.5", "77.160.200.9", "212.150.1.1"]
        )
        assert tuple(str(p) for p in prefixes) == (
            "77.160.0.0/16", "212.150.0.0/16"
        )

    def test_subnet_rule_blocks_the_whole_sixteen(self):
        rule = SubnetRstRule(widen_to_prefixes(["77.160.10.5"]))
        verdict = rule.evaluate(view(host="77.160.250.1"))
        assert verdict is not None
        assert verdict.exception_id == RST_TEARDOWN
        assert rule.evaluate(view(host="77.161.0.1")) is None
        assert rule.evaluate(view(host="named.example.com")) is None


# -- end to end --------------------------------------------------------------

@pytest.fixture(scope="module")
def pakistan_datasets():
    return build_scenario(TINY_PK)


@pytest.fixture(scope="module")
def turkmenistan_datasets():
    return build_scenario(TINY_TM)


class TestPakistanEndToEnd:
    def test_censor_signature_is_regime_specific(self, pakistan_datasets):
        exceptions = set(pakistan_datasets.full.col("x_exception_id"))
        censored = exceptions & CENSOR_EXCEPTIONS
        assert censored
        assert censored <= {DNS_INJECTED, BLOCKPAGE}

    def test_no_cache_means_no_proxied_rows(self, pakistan_datasets):
        results = pakistan_datasets.full.col("sc_filter_result")
        assert not np.any(results == "PROXIED")

    def test_no_categorizer_means_dash_categories(self, pakistan_datasets):
        assert set(pakistan_datasets.full.col("cs_categories")) == {"-"}

    def test_nxdomain_rows_carry_the_injector_signature(
        self, pakistan_datasets
    ):
        frame = pakistan_datasets.full
        mask = frame.col("x_exception_id") == DNS_INJECTED
        assert mask.any()
        assert set(frame.col("sc_status")[mask]) == {0}
        assert set(frame.col("s_action")[mask]) == {"DNS_INJECT_NXDOMAIN"}

    def test_blockpage_rows_redirect_to_the_notice_host(
        self, pakistan_datasets
    ):
        frame = pakistan_datasets.full
        mask = frame.col("x_exception_id") == BLOCKPAGE
        assert mask.any()
        assert set(frame.col("sc_status")[mask]) == {302}
        assert set(frame.col("s_action")[mask]) == {"TCP_BLOCKPAGE_REDIRECT"}
        assert set(frame.col("cs_uri_scheme")[mask]) == {"http"}

    def test_blockpage_record_names_the_supplier(self, pakistan_datasets):
        """Record-level fields the frame doesn't materialize: the 302
        is served by the notice host, with an HTML body."""
        policy = pakistan_datasets.policy
        host = sorted(policy.blockpage_hosts)[0]
        record = _one_record(PAKISTAN.build_fleet(policy), host)
        assert record.x_exception_id == BLOCKPAGE
        assert record.s_supplier_name == BLOCKPAGE_HOST
        assert record.rs_content_type == "text/html"
        assert record.sc_status == 302

    def test_recovery_is_exact_on_observed_rules(self, pakistan_datasets):
        recoveries = PAKISTAN.recover_rules(
            pakistan_datasets.full, pakistan_datasets.policy
        )
        by_kind = {r.kind: r for r in recoveries}
        assert set(by_kind) == {"dns-domains", "blockpage-hosts"}
        for recovery in recoveries:
            # Every recovered name really is in the deployed blocklist
            # (the mechanisms identify themselves in the logs).
            assert recovery.precision == 1.0
            assert recovery.recovered


class TestTurkmenistanEndToEnd:
    def test_censor_signature_is_regime_specific(
        self, turkmenistan_datasets
    ):
        exceptions = set(turkmenistan_datasets.full.col("x_exception_id"))
        censored = exceptions & CENSOR_EXCEPTIONS
        assert censored == {RST_TEARDOWN}

    def test_rst_rows_have_no_response(self, turkmenistan_datasets):
        frame = turkmenistan_datasets.full
        mask = frame.col("x_exception_id") == RST_TEARDOWN
        assert mask.any()
        assert set(frame.col("sc_status")[mask]) == {0}
        assert set(frame.col("s_action")[mask]) == {"TCP_RST_INJECT"}

    def test_rst_record_serves_zero_bytes(self, turkmenistan_datasets):
        fleet = TURKMENISTAN.build_fleet(turkmenistan_datasets.policy)
        record = _one_record(fleet, "ultrasurf.example.com")
        assert record.x_exception_id == RST_TEARDOWN
        assert record.sc_bytes == 0
        assert record.sc_status == 0

    def test_keyword_rows_contain_a_keyword(self, turkmenistan_datasets):
        frame = turkmenistan_datasets.full
        mask = frame.col("x_exception_id") == RST_TEARDOWN
        for host, path, query in zip(
            frame.col("cs_host")[mask],
            frame.col("cs_uri_path")[mask],
            frame.col("cs_uri_query")[mask],
        ):
            text = f"{host}{path}{query}".lower()
            matched = any(keyword in text for keyword in TM_KEYWORDS)
            blocked_ip = SubnetRstRule(
                turkmenistan_datasets.policy.blocked_prefixes
            ).evaluate(view(host=host)) is not None
            assert matched or blocked_ip, host

    def test_recovered_keywords_are_deployed_keywords(
        self, turkmenistan_datasets
    ):
        recoveries = TURKMENISTAN.recover_rules(
            turkmenistan_datasets.full, turkmenistan_datasets.policy
        )
        by_kind = {r.kind: r for r in recoveries}
        assert set(by_kind) == {"dpi-keywords", "blocked-prefixes"}
        keywords = by_kind["dpi-keywords"]
        assert keywords.recovered
        assert keywords.precision == 1.0

    def test_prefix_recovery_never_names_a_clean_sixteen(
        self, turkmenistan_datasets
    ):
        """Recovered prefixes are always a subset of the truth — the
        recovery refuses a /16 with any allowed raw-IP traffic, which
        is exactly the overblocking shadow."""
        recovered = recover_blocked_prefixes(turkmenistan_datasets.full)
        truth = {
            str(p) for p in turkmenistan_datasets.policy.blocked_prefixes
        }
        assert set(recovered) <= truth


class TestSyriaUnchanged:
    def test_default_regime_emits_only_sgos_signatures(self):
        datasets = build_scenario(TINY)
        censored = set(datasets.full.col("x_exception_id")) & CENSOR_EXCEPTIONS
        assert censored <= {"policy_denied", "policy_redirect"}
        assert datasets.config.regime == "syria"

    def test_syria_profile_matches_direct_construction(self):
        from repro.policy.syria import SyrianPolicy
        from repro.proxy import ProxyFleet

        generator = SYRIA.build_workload(TINY)
        policy = SYRIA.build_policy(generator)
        fleet = SYRIA.build_fleet(policy)
        assert isinstance(policy, SyrianPolicy)
        assert isinstance(fleet, ProxyFleet)


class TestShardedAndBatchedIdentity:
    @pytest.mark.parametrize("config", [TINY_PK, TINY_TM],
                             ids=["pakistan", "turkmenistan"])
    def test_workers_and_batch_size_leave_no_fingerprint(
        self, tmp_path, config
    ):
        simulate_to_logs(config, tmp_path / "serial", workers=1)
        simulate_to_logs(
            config, tmp_path / "sharded", workers=2, batch_size=64
        )
        assert (tmp_path / "sharded" / "proxies.log").read_bytes() == (
            tmp_path / "serial" / "proxies.log"
        ).read_bytes()


class TestRegimeCheckpointing:
    def test_resume_refuses_cross_regime_ledger(self, tmp_path):
        assert main([
            "simulate", "--requests", "2000", "--seed", "3",
            "--out", str(tmp_path / "a"),
            "--checkpoint-dir", str(tmp_path / "ledger"),
        ]) == 0
        with pytest.raises(SystemExit, match="regime"):
            main([
                "simulate", "--requests", "2000", "--seed", "3",
                "--regime", "pakistan",
                "--out", str(tmp_path / "b"),
                "--checkpoint-dir", str(tmp_path / "ledger"), "--resume",
            ])

    def test_verify_run_reports_the_regime_fingerprint(
        self, tmp_path, capsys
    ):
        assert main([
            "simulate", "--requests", "2000", "--seed", "3",
            "--regime", "turkmenistan", "--out", str(tmp_path / "logs"),
            "--checkpoint-dir", str(tmp_path / "ledger"),
        ]) == 0
        assert main(["verify-run", str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out
        assert "regime=turkmenistan" in out
        assert "command=simulate" in out

    def test_unknown_regime_is_a_clean_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown regime"):
            main([
                "simulate", "--requests", "100", "--regime", "atlantis",
                "--out", str(tmp_path),
            ])


class TestRegimeProfileShape:
    def test_register_requires_a_profile_like_object(self):
        """The registry stores RegimeProfile instances; the dataclass
        is frozen so registered entries cannot drift."""
        profile = get_regime("pakistan")
        assert isinstance(profile, RegimeProfile)
        assert profile.mechanisms == ("dns-injection", "http-blockpage")
        assert get_regime("turkmenistan").mechanisms == (
            "keyword-dpi", "rst-teardown", "subnet-overblocking"
        )


class TestSyriaDifferentialPin:
    """`--regime syria` is the pre-regime engine, pinned differentially:
    same bytes as the flagless default at every worker count and batch
    size, and the same --metrics document modulo timing."""

    ARGS = ["simulate", "--requests", "2000", "--seed", "3"]

    @staticmethod
    def _stable(path):
        import json

        document = json.loads(path.read_text())
        return {
            "command": document["command"],
            "counters": document["counters"],
            "schema": document["schema"],
            "totals": {
                key: value
                for key, value in document["totals"].items()
                if "seconds" not in key and "per_sec" not in key
            },
        }

    def test_flag_is_byte_identical_to_default(self, tmp_path):
        assert main([*self.ARGS, "--out", str(tmp_path / "default")]) == 0
        for workers, batch in ((1, 1), (2, 64), (4, 64)):
            out = tmp_path / f"syria-w{workers}-b{batch}"
            assert main([
                *self.ARGS, "--regime", "syria", "--out", str(out),
                "--workers", str(workers), "--batch-size", str(batch),
            ]) == 0
            assert (out / "proxies.log").read_bytes() == (
                tmp_path / "default" / "proxies.log"
            ).read_bytes(), (workers, batch)

    def test_metrics_modulo_timers_match_default(self, tmp_path):
        assert main([
            *self.ARGS, "--out", str(tmp_path / "default"),
            "--metrics", str(tmp_path / "default.json"),
        ]) == 0
        assert main([
            *self.ARGS, "--regime", "syria", "--workers", "2",
            "--batch-size", "64", "--out", str(tmp_path / "flagged"),
            "--metrics", str(tmp_path / "flagged.json"),
        ]) == 0
        assert self._stable(tmp_path / "flagged.json") == self._stable(
            tmp_path / "default.json"
        )
