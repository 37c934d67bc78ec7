"""Tests for the additional SGOS rule types (policy.extensions)."""

import pytest

from repro.catalog.categories import Category as C
from repro.categorizer import TrustedSourceCategorizer
from repro.policy import Action, PolicyEngine, RequestView
from repro.policy.extensions import (
    BrowserTypeRule,
    CategoryRule,
    ExtensionRule,
    PortRule,
    TimeOfDayRule,
)
from repro.timeline import day_epoch


def view(**kw) -> RequestView:
    defaults = dict(host="example.com", path="/")
    defaults.update(kw)
    return RequestView(**defaults)


class TestCategoryRule:
    def make_rule(self):
        categorizer = TrustedSourceCategorizer()
        categorizer.add_host("games.example.com", C.GAMES)
        categorizer.add_host("news.example.com", C.GENERAL_NEWS)
        return CategoryRule([C.GAMES], categorizer.categorize)

    def test_blocks_category(self):
        verdict = self.make_rule().evaluate(view(host="games.example.com"))
        assert verdict is not None
        assert verdict.action is Action.DENY
        assert C.GAMES in verdict.rule

    def test_allows_other_categories(self):
        assert self.make_rule().evaluate(view(host="news.example.com")) is None

    def test_composes_with_engine(self):
        engine = PolicyEngine([self.make_rule()])
        assert engine.evaluate(view(host="games.example.com")).action is Action.DENY


class TestPortRule:
    rule = PortRule([1080, 6667])

    def test_blocks_listed_port(self):
        assert self.rule.evaluate(view(port=1080)) is not None

    def test_allows_other_ports(self):
        assert self.rule.evaluate(view(port=80)) is None


class TestTimeOfDayRule:
    inner = PortRule([1080])

    def test_applies_inside_window(self):
        rule = TimeOfDayRule(self.inner, 8, 18)
        epoch = day_epoch("2011-08-03") + 10 * 3600
        assert rule.evaluate(view(port=1080, epoch=epoch)) is not None

    def test_abstains_outside_window(self):
        rule = TimeOfDayRule(self.inner, 8, 18)
        epoch = day_epoch("2011-08-03") + 3 * 3600
        assert rule.evaluate(view(port=1080, epoch=epoch)) is None

    def test_midnight_wrapping_window(self):
        rule = TimeOfDayRule(self.inner, 22, 6)
        late = day_epoch("2011-08-03") + 23 * 3600
        early = day_epoch("2011-08-03") + 2 * 3600
        midday = day_epoch("2011-08-03") + 12 * 3600
        assert rule.evaluate(view(port=1080, epoch=late)) is not None
        assert rule.evaluate(view(port=1080, epoch=early)) is not None
        assert rule.evaluate(view(port=1080, epoch=midday)) is None

    def test_inner_must_still_match(self):
        rule = TimeOfDayRule(self.inner, 0, 24)
        assert rule.evaluate(view(port=80)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeOfDayRule(self.inner, 5, 5)
        with pytest.raises(ValueError):
            TimeOfDayRule(self.inner, -1, 5)


class TestBrowserTypeRule:
    rule = BrowserTypeRule(["skype", "bittorrent"])

    def test_blocks_marked_agent(self):
        verdict = self.rule.evaluate(view(user_agent="Skype WISPr"))
        assert verdict is not None

    def test_case_insensitive(self):
        assert self.rule.evaluate(view(user_agent="BitTorrent/7.2")) is not None

    def test_allows_browsers(self):
        assert self.rule.evaluate(view(user_agent="Mozilla/5.0")) is None

    def test_abstains_without_agent(self):
        assert self.rule.evaluate(view()) is None


class TestExtensionRule:
    rule = ExtensionRule([".exe", "torrent"])

    def test_blocks_extension(self):
        assert self.rule.evaluate(view(path="/dl/setup.exe")) is not None
        assert self.rule.evaluate(view(path="/files/movie.TORRENT")) is not None

    def test_allows_other_extensions(self):
        assert self.rule.evaluate(view(path="/page.html")) is None
        assert self.rule.evaluate(view(path="/no-extension")) is None


class TestBatchedPathEquivalence:
    """CategoryRule / TimeOfDayRule under column-batch execution.

    The extension rules run inside the fleet stage; ``Pipeline.run``
    must produce exactly the same stream at every batch size, and
    the rules must actually fire (the curfew adds denials that the
    baseline policy does not have), with every added denial inside
    the configured window.
    """

    START_HOUR, END_HOUR = 18, 23

    @classmethod
    def _frames(cls):
        import numpy as np

        from repro.pipeline import (
            BATCH_SIZE,
            AnonymizeStage,
            FleetStage,
            FrameSink,
            Pipeline,
            RecordsSource,
        )
        from repro.proxy import ProxyFleet
        from repro.regimes import get_regime
        from repro.scenarios import streaming_curfew
        from repro.timeline import USER_SLICE_DAYS, day_span
        from repro.workload.config import small_config
        from tests.helpers import day_streams

        if hasattr(cls, "_cache"):
            return cls._cache
        config = small_config(2_000, seed=11)
        profile = get_regime("syria")
        generator = profile.build_workload(config)
        baseline_policy = profile.build_policy(generator)
        curfew_policy = streaming_curfew(baseline_policy, generator)
        requests = [day_requests for _, day_requests in day_streams(generator)]
        spans = [day_span(day) for day in USER_SLICE_DAYS]

        def run(policy, batch_size):
            pipeline = Pipeline(
                RecordsSource(requests),
                (
                    FleetStage(ProxyFleet(policy), np.random.default_rng(3)),
                    AnonymizeStage(spans),
                ),
            )
            return pipeline.run(FrameSink(), batch_size).frame()

        cls._cache = (
            run(baseline_policy, BATCH_SIZE),
            run(curfew_policy, BATCH_SIZE),
            {size: run(curfew_policy, size) for size in (1, 7, 64)},
        )
        return cls._cache

    def test_batched_equals_scalar_at_every_batch_size(self):
        _, scalar, batched = self._frames()
        for size, frame in batched.items():
            assert len(frame) == len(scalar), size
            for column in (
                "sc_filter_result", "x_exception_id", "sc_status",
                "s_action", "cs_host", "epoch", "c_ip",
            ):
                assert (frame.col(column) == scalar.col(column)).all(), (
                    size, column
                )

    def test_curfew_rules_fired_only_inside_the_window(self):
        baseline, curfew, _ = self._frames()
        base_exceptions = baseline.col("x_exception_id")
        curfew_exceptions = curfew.col("x_exception_id")
        added = (curfew_exceptions == "policy_denied") & (
            base_exceptions == "-"
        )
        assert added.any()  # CategoryRule × TimeOfDayRule really ran
        hours = (curfew.col("epoch")[added] % 86_400) // 3_600
        assert ((hours >= self.START_HOUR) & (hours < self.END_HOUR)).all()
