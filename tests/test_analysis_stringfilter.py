"""Tests for the Section 5.4 recovery algorithms — the core methodology.

These are known-answer tests: the Syrian policy that generated the
scenario is ground truth, and the recovery must re-derive it from the
logs alone.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.common import (
    censored_mask,
    observed_allowed_mask,
    proxied_mask,
)
from repro.analysis.stringfilter import (
    AllowedTokens,
    categorize_suspected,
    keyword_stats,
    recover_censored_domains,
    recover_censored_hosts,
    recover_keywords,
    recover_policy,
)
from repro.analysis.weather import keyword_weather
from repro.catalog.categories import Category as C
from repro.categorizer import TrustedSourceCategorizer
from repro.datasets import build_scenario
from repro.policy.syria import KEYWORDS
from repro.workload.config import small_config
from tests.helpers import (
    DEFAULT_EPOCH,
    allowed_row,
    censored_row,
    error_row,
    make_frame,
    proxied_row,
)


@pytest.fixture(scope="module")
def news_scenario():
    """Twice the shared scenario's volume.  At 50 K requests General
    News reaches the evidence threshold with 0–5 suspected domains
    (seeds 1–12); at 100 K it has 4–9 at every one of those seeds."""
    return build_scenario(small_config(100_000, seed=11))


class TestDomainRecovery:
    def test_bare_request_evidence(self):
        frame = make_frame(
            [censored_row(cs_host="www.blocked.com", cs_uri_path="/")] * 3
            + [allowed_row(cs_host="www.other.com")]
        )
        recovered = recover_censored_domains(frame)
        assert [r.domain for r in recovered] == ["blocked.com"]
        assert recovered[0].censored == 3
        assert recovered[0].allowed == 0

    def test_domain_with_allowed_traffic_not_suspected(self):
        frame = make_frame([
            censored_row(cs_host="www.mixed.com", cs_uri_path="/"),
            censored_row(cs_host="www.mixed.com", cs_uri_path="/"),
            censored_row(cs_host="www.mixed.com", cs_uri_path="/"),
            allowed_row(cs_host="www.mixed.com"),
        ])
        assert recover_censored_domains(frame) == []

    def test_min_censored_threshold(self):
        frame = make_frame([censored_row(cs_host="www.rare.com")])
        assert recover_censored_domains(frame, min_censored=3) == []
        assert len(recover_censored_domains(frame, min_censored=1)) == 1

    def test_proxied_rows_do_not_count_as_allowed(self):
        frame = make_frame(
            [censored_row(cs_host="www.blocked.com", cs_uri_path="/")] * 3
            + [proxied_row(cs_host="www.blocked.com")]
        )
        recovered = recover_censored_domains(frame)
        assert recovered[0].domain == "blocked.com"
        assert recovered[0].proxied == 1

    def test_token_attribution_fallback(self):
        """A domain with no bare request is still recovered when its
        censored URLs contain only tokens present in allowed traffic
        (no keyword could explain the censorship)."""
        frame = make_frame(
            [censored_row(cs_host="media.blocked.org",
                          cs_uri_path="/images/common/banner.jpg")] * 3
            + [allowed_row(cs_host="www.other.com",
                           cs_uri_path="/images/common/banner.jpg")] * 2
        )
        assert [r.domain for r in recover_censored_domains(frame)] == [
            "blocked.org"
        ]

    def test_keyword_censored_domain_with_unique_tokens_not_recovered(self):
        """Censored requests whose URLs carry tokens never seen in
        allowed traffic could be keyword-censored — no bare evidence,
        no recovery."""
        frame = make_frame(
            [censored_row(cs_host="cdn.vendor.net",
                          cs_uri_path="/secretword/update.bin")] * 3
            + [allowed_row(cs_host="www.other.com")]
        )
        assert recover_censored_domains(frame) == []

    def test_ip_hosts_excluded(self):
        frame = make_frame(
            [censored_row(cs_host="84.229.1.1", cs_uri_path="/")] * 5
        )
        assert recover_censored_domains(frame) == []

    def test_scenario_recovers_ground_truth(self, scenario):
        """Known-answer: recovered ⊇ every blocked domain with traffic,
        and every recovered domain is genuinely never allowed."""
        recovered = {r.domain for r in recover_censored_domains(scenario.full)}
        # every sufficiently-visited blocked domain is found
        from repro.analysis.common import censored_mask, domain_column

        domains = domain_column(scenario.full)
        censored = censored_mask(scenario.full)
        for blocked in scenario.policy.blocked_domains:
            count = int(((domains == blocked) & censored).sum())
            if count >= 5:
                assert blocked in recovered, blocked

    def test_scenario_recovery_is_sound(self, scenario):
        """No recovered domain ever has an allowed request."""
        from repro.analysis.common import domain_column, observed_allowed_mask

        recovered = {r.domain for r in recover_censored_domains(scenario.full)}
        domains = domain_column(scenario.full)
        allowed = observed_allowed_mask(scenario.full)
        for domain in recovered:
            assert int(((domains == domain) & allowed).sum()) == 0


class TestHostRecovery:
    def test_blocked_host_on_allowed_domain(self):
        frame = make_frame(
            [censored_row(cs_host="messenger.live.com", cs_uri_path="/")] * 3
            + [allowed_row(cs_host="mail.live.com")] * 2
        )
        recovered = recover_censored_hosts(frame)
        assert [r.host for r in recovered] == ["messenger.live.com"]

    def test_suspected_domains_excluded(self):
        frame = make_frame(
            [censored_row(cs_host="www.metacafe.com", cs_uri_path="/")] * 3
        )
        assert recover_censored_hosts(
            frame, exclude_domains={"metacafe.com"}
        ) == []

    def test_scenario_finds_messenger_gateway(self, scenario):
        suspected = {r.domain for r in recover_censored_domains(scenario.full)}
        hosts = {
            r.host
            for r in recover_censored_hosts(
                scenario.full, exclude_domains=suspected
            )
        }
        assert "messenger.live.com" in hosts


class TestKeywordRecovery:
    def test_simple_recovery(self):
        frame = make_frame(
            [censored_row(cs_host="site.com", cs_uri_path="/a",
                          cs_uri_query=f"x=proxy&n={i}") for i in range(8)]
            + [allowed_row(cs_host="site.com", cs_uri_path="/a")] * 4
        )
        recovered = recover_keywords(frame, min_coverage=5)
        assert [k.keyword for k in recovered] == ["proxy"]
        assert recovered[0].coverage == 8

    def test_tokens_seen_in_allowed_are_not_keywords(self):
        frame = make_frame(
            [censored_row(cs_host="site.com", cs_uri_query="x=proxy&y=video")] * 8
            + [allowed_row(cs_host="site.com", cs_uri_query="y=video")] * 4
        )
        recovered = recover_keywords(frame, min_coverage=5)
        assert [k.keyword for k in recovered] == ["proxy"]

    def test_greedy_prefers_cross_host_keyword(self):
        """'proxy' explains plugin requests AND toolbar requests; the
        correlated single-host tokens ('plugins', 'channel') must not
        win, and once 'proxy' is chosen they cover nothing."""
        rows = [
            censored_row(cs_host="fb.com", cs_uri_path="/plugins/like.php",
                         cs_uri_query=f"channel=xd_proxy.php&i={i}")
            for i in range(10)
        ]
        rows += [
            censored_row(cs_host="google.com", cs_uri_path="/tbproxy/af/query")
            for _ in range(3)
        ]
        # both domains also serve allowed traffic: the keyword evidence
        # comes from the censored/allowed contrast within each domain
        rows += [allowed_row(cs_host="fb.com", cs_uri_path="/home.php")] * 2
        rows += [allowed_row(cs_host="google.com", cs_uri_path="/search")] * 2
        rows += [allowed_row(cs_host="x.com")] * 3
        recovered = recover_keywords(make_frame(rows), min_coverage=5)
        assert [k.keyword for k in recovered] == ["proxy"]

    def test_empty_censored_set(self):
        frame = make_frame([allowed_row()])
        assert recover_keywords(frame) == []

    def test_scenario_recovers_proxy_keyword(self, scenario):
        suspected = {
            r.domain
            for r in recover_censored_domains(scenario.full, min_censored=1)
        }
        hosts = {
            r.host
            for r in recover_censored_hosts(
                scenario.full, exclude_domains=suspected, min_censored=1
            )
        }
        recovered = recover_keywords(
            scenario.full, exclude_domains=suspected, exclude_hosts=hosts
        )
        keywords = [k.keyword for k in recovered]
        assert keywords  # something recovered
        assert keywords[0] == "proxy"  # the paper's dominant keyword
        # no false positives outside the policy's keyword list
        assert set(keywords) <= set(KEYWORDS)


class TestKeywordStats:
    def test_table10_counts(self):
        frame = make_frame(
            [censored_row(cs_uri_query="u=proxy")] * 3
            + [censored_row(cs_uri_path="/israel-news")]
            + [allowed_row()] * 2
            + [proxied_row(cs_uri_query="u=proxy")]
        )
        rows = keyword_stats(frame, ("proxy", "israel"))
        by_keyword = {row.keyword: row for row in rows}
        assert by_keyword["proxy"].censored == 3
        assert by_keyword["proxy"].proxied == 1
        assert by_keyword["israel"].censored == 1
        assert by_keyword["proxy"].allowed == 0

    def test_first_match_attribution(self):
        frame = make_frame([
            censored_row(cs_uri_query="u=proxy&t=israel"),
        ])
        rows = keyword_stats(frame, ("proxy", "israel"))
        by_keyword = {row.keyword: row for row in rows}
        assert by_keyword["proxy"].censored == 1
        assert by_keyword["israel"].censored == 0

    def test_scenario_keywords_never_allowed(self, scenario):
        """Ground truth: a blacklisted keyword never appears in
        OBSERVED-allowed traffic."""
        rows = keyword_stats(scenario.full, KEYWORDS)
        for row in rows:
            assert row.allowed == 0, row.keyword

    def test_scenario_proxy_dominates(self, scenario):
        rows = keyword_stats(scenario.full, KEYWORDS)
        assert rows[0].keyword == "proxy"
        # the paper: 53.6 % of censored traffic matches 'proxy'
        assert 30.0 < rows[0].censored_share_pct < 75.0


class TestTable9:
    def test_categorization(self):
        categorizer = TrustedSourceCategorizer()
        categorizer.add_host("news1.example.com", C.GENERAL_NEWS)
        categorizer.add_host("news2.example.org", C.GENERAL_NEWS)
        categorizer.add_host("shop.example.net", C.ONLINE_SHOPPING)
        frame = make_frame(
            [censored_row(cs_host="news1.example.com", cs_uri_path="/")] * 4
            + [censored_row(cs_host="news2.example.org", cs_uri_path="/")] * 3
            + [censored_row(cs_host="shop.example.net", cs_uri_path="/")] * 3
        )
        suspected = recover_censored_domains(frame)
        rows = categorize_suspected(suspected, categorizer, total_censored=10)
        assert rows[0].category == C.GENERAL_NEWS
        assert rows[0].domain_count == 2
        assert rows[0].censored_requests == 7

    def test_scenario_news_heavy(self, news_scenario):
        """Table 9: General News has the most suspected domains."""
        suspected = recover_censored_domains(news_scenario.full)
        rows = categorize_suspected(
            suspected, news_scenario.categorizer, total_censored=1
        )
        by_category = {row.category: row.domain_count for row in rows}
        assert by_category.get(C.GENERAL_NEWS, 0) >= 3


# -- the fast passes against naive references -------------------------
#
# Small frames over a small alphabet, so tokens repeat and runs join:
# upper case, '-', '/', empty cells, paths that start with [a-z0-9],
# U+212A KELVIN SIGN (lowers to ASCII 'k'), U+0130 (lowers to two
# characters, 'i' and a combining dot) and the Greek capital sigma
# (whose lowercase depends on its neighbours).
_CHARS = "abkpAK01-/.=\u212a\u0130\u03a3"
_cells = st.text(alphabet=_CHARS, max_size=9)
_ROW_KINDS = {
    "censored": censored_row,
    "allowed": allowed_row,
    "proxied": proxied_row,
    "error": error_row,
}
_rows = st.lists(
    st.builds(
        lambda kind, host, path, query, day: _ROW_KINDS[kind](
            cs_host=host, cs_uri_path=path, cs_uri_query=query,
            epoch=DEFAULT_EPOCH + day * 86400,
        ),
        st.sampled_from(sorted(_ROW_KINDS)),
        st.sampled_from(
            ["ka.com", "m.ka.com", "Ab.K0m", "b.pp", "10.0.0.1", "kk"]
        ) | _cells,
        st.sampled_from(["/", "-", "", "/pa/b", "kab1"]) | _cells,
        st.sampled_from(["", "-", "p=kk"]) | _cells,
        st.integers(0, 2),
    ),
    min_size=1, max_size=12,
)
# Rows over a few hosts, two of them under one domain, and a token
# ('kapp0') that only censored rows carry, so that the recovery finds
# domains, single hosts and keywords.
_recovery_rows = st.lists(
    st.sampled_from(["censored", "censored", "allowed", "proxied"]).flatmap(
        lambda kind: st.builds(
            lambda host, path, query: _ROW_KINDS[kind](
                cs_host=host, cs_uri_path=path, cs_uri_query=query,
            ),
            st.sampled_from(["ka.com", "m.ka.com", "b.pp", "x.b.pp",
                             "10.0.0.1"]),
            st.sampled_from(["/", "-", "/pa/b"]),
            st.sampled_from(
                ["", "-", "q=zz11"]
                + (["p=kapp0"] * 3 if kind == "censored" else [])
            ),
        )
    ),
    min_size=3, max_size=40,
)
_TOKEN_CHARS = re.compile(r"[a-z0-9]+")


def _texts(frame, mask=None):
    """The lowered matchable texts, built row by row."""
    rows = range(len(frame)) if mask is None else np.flatnonzero(mask)
    hosts = frame.col("cs_host")
    paths = frame.col("cs_uri_path")
    queries = frame.col("cs_uri_query")
    return [f"{hosts[i]}{paths[i]}?{queries[i]}".lower() for i in rows]


def _every_token(texts):
    """Every [a-z0-9]{4,24} substring of the texts."""
    tokens = set()
    for text in texts:
        for run in _TOKEN_CHARS.findall(text):
            for start in range(len(run)):
                for stop in range(start + 4, min(len(run), start + 24) + 1):
                    tokens.add(run[start:stop])
    return tokens


def _four_call_recovery(frame):
    """The recovery spelled out as four calls of the public functions:
    the reference :func:`recover_policy` must equal."""
    table8 = recover_censored_domains(frame, min_censored=3)
    exclusion = {
        row.domain for row in recover_censored_domains(frame, min_censored=1)
    }
    hosts = recover_censored_hosts(
        frame, exclude_domains=exclusion, min_censored=1
    )
    keywords = recover_keywords(
        frame,
        exclude_domains=exclusion,
        exclude_hosts={row.host for row in hosts},
    )
    return table8, hosts, keywords


class TestAgainstNaiveReferences:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=_rows,
        drawn=st.lists(st.from_regex(r"[a-z0-9]{4,24}", fullmatch=True),
                       max_size=4),
    )
    def test_allowed_tokens_equal_a_corpus_scan(self, rows, drawn):
        frame = make_frame(rows)
        corpus = "\n".join(_texts(frame, observed_allowed_mask(frame)))
        index = AllowedTokens(frame)
        for token in sorted(_every_token(_texts(frame)) | set(drawn)):
            assert (token in index) == (token in corpus), token

    @settings(max_examples=150, deadline=None)
    @given(
        rows=_rows,
        keywords=st.lists(
            st.text(alphabet="abkp01/?.=\u03c3\u03c2", max_size=4),
            max_size=4,
        ).map(tuple),
    )
    def test_keyword_tables_equal_a_row_loop(self, rows, keywords):
        frame = make_frame(rows)
        censored = censored_mask(frame)
        allowed = observed_allowed_mask(frame)
        proxied = proxied_mask(frame)
        days = frame.col("epoch") // 86400
        day_index = {day: j for j, day in enumerate(sorted(set(days)))}
        counts = {k: [0, 0, 0] for k in keywords}
        weather = np.zeros((len(keywords), len(day_index)), dtype=np.int64)
        for i, text in enumerate(_texts(frame)):
            for k, keyword in enumerate(keywords):
                if keyword in text:
                    if censored[i]:
                        counts[keyword][0] += 1
                        weather[k][day_index[days[i]]] += 1
                    elif proxied[i]:
                        counts[keyword][2] += 1
                    elif allowed[i]:
                        counts[keyword][1] += 1
                    break
        stats = keyword_stats(frame, keywords)
        assert {row.keyword: [row.censored, row.allowed, row.proxied]
                for row in stats} == counts
        assert len(stats) == len(counts)
        result = keyword_weather(frame, keywords)
        assert result.counts.tolist() == weather.tolist()
        assert result.censored_totals.tolist() == [
            int((censored & (days == day)).sum()) for day in day_index
        ]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.tuples(_recovery_rows, _rows).map(
        lambda parts: parts[0] * 2 + parts[1]
    ))
    def test_recover_policy_equals_the_four_calls(self, rows):
        frame = make_frame(rows)
        recovery = recover_policy(frame)
        assert (
            recovery.suspected_domains(), recovery.hosts, recovery.keywords
        ) == _four_call_recovery(frame)
        for min_censored in (-1, 0, 1, 2, 4):
            assert recovery.suspected_domains(min_censored) == (
                recover_censored_domains(frame, min_censored=min_censored)
            )

    def test_scenario_recovery_equals_the_four_calls(self, scenario):
        recovery = recover_policy(scenario.full)
        assert (
            recovery.suspected_domains(), recovery.hosts, recovery.keywords
        ) == _four_call_recovery(scenario.full)
        assert recovery.keywords
