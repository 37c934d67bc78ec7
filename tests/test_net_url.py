"""Tests for repro.net.url."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.url import (
    URL,
    extension_of,
    is_ip_like,
    parse_url,
    registered_domain,
    registered_domains,
)


class TestParseUrl:
    def test_basic(self):
        url = parse_url("http://www.example.com/path/page.php?q=1")
        assert url.host == "www.example.com"
        assert url.path == "/path/page.php"
        assert url.query == "q=1"
        assert url.scheme == "http"
        assert url.ext == "php"

    def test_no_scheme_defaults_http(self):
        url = parse_url("example.com/")
        assert url.scheme == "http"
        assert url.effective_port == 80

    def test_explicit_port(self):
        url = parse_url("http://tracker.example.com:6969/announce?x=1")
        assert url.port == 6969
        assert url.effective_port == 6969

    def test_https_default_port(self):
        assert parse_url("https://example.com/").effective_port == 443

    def test_bare_host_gets_root_path(self):
        url = parse_url("http://example.com")
        assert url.path == "/"
        assert url.query == ""

    def test_host_is_lowercased(self):
        assert parse_url("http://ExAmPle.COM/").host == "example.com"

    @pytest.mark.parametrize("bad", ["http:///nopath", "http://host:bad/"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_url(bad)

    def test_full_roundtrip(self):
        text = "http://example.com:8080/a/b.gif?x=1"
        assert parse_url(text).full() == text

    def test_matchable_text_is_host_path_query(self):
        url = URL(host="h.com", path="/p", query="q=2")
        assert url.matchable_text() == "h.com/p?q=2"


class TestRegisteredDomain:
    @pytest.mark.parametrize(
        "host,expected",
        [
            ("www.facebook.com", "facebook.com"),
            ("ar-ar.facebook.com", "facebook.com"),
            ("facebook.com", "facebook.com"),
            ("upload.youtube.com", "youtube.com"),
            ("www.bbc.co.uk", "bbc.co.uk"),
            ("www.panet.co.il", "panet.co.il"),
            ("www.mtn.com.sy", "mtn.com.sy"),
            ("profile.ak.fbcdn.net", "fbcdn.net"),
            ("plus.google.com", "google.com"),
            ("localhost", "localhost"),
        ],
    )
    def test_known_cases(self, host, expected):
        assert registered_domain(host) == expected

    def test_ip_hosts_map_to_themselves(self):
        assert registered_domain("84.229.1.2") == "84.229.1.2"

    def test_case_insensitive(self):
        assert registered_domain("WWW.Example.COM") == "example.com"

    def test_trailing_dot_is_stripped(self):
        assert registered_domain("www.facebook.com.") == "facebook.com"

    def test_spelling_variants_share_one_cache_entry(self):
        """The lru_cache used to key on the raw host, so case and
        trailing-dot variants each burned their own slot."""
        from repro.net.url import _registered_domain

        _registered_domain.cache_clear()
        variants = ["WWW.Facebook.COM", "www.facebook.com",
                    "www.facebook.com.", "WWW.FACEBOOK.COM."]
        assert {registered_domain(v) for v in variants} == {"facebook.com"}
        assert _registered_domain.cache_info().currsize == 1


class TestRegisteredDomainsBatch:
    """The array fast path used by the batched analyses — it must be
    an exact broadcast of the scalar function, including lowercase and
    trailing-dot normalization, and must not fall back to one cached
    call per row."""

    def test_matches_scalar_map(self):
        hosts = np.array(
            ["www.facebook.com", "ar-ar.facebook.com", "www.bbc.co.uk",
             "84.229.1.2", "localhost", "www.mtn.com.sy"],
            dtype=object,
        )
        result = registered_domains(hosts)
        assert result.dtype == object
        assert result.tolist() == [registered_domain(h) for h in hosts]

    def test_normalization_matches_scalar(self):
        """Regression: the batch path once skipped the lowercase /
        trailing-dot normalization the scalar path applies, splitting
        one domain across several counter keys."""
        hosts = np.array(
            ["WWW.Facebook.COM", "www.facebook.com.",
             "WWW.FACEBOOK.COM.", "www.facebook.com"],
            dtype=object,
        )
        assert registered_domains(hosts).tolist() == ["facebook.com"] * 4

    def test_distinct_spellings_share_one_cache_slot(self):
        from repro.net.url import _registered_domain

        _registered_domain.cache_clear()
        hosts = np.array(
            ["WWW.Example.COM", "www.example.com", "www.example.com."],
            dtype=object,
        )
        registered_domains(hosts)
        assert _registered_domain.cache_info().currsize == 1

    def test_each_spelling_is_reduced_once_per_process(self, monkeypatch):
        """The host -> domain map outlives the batch: a spelling seen
        in an earlier batch is not reduced again."""
        from repro.net import url

        reduced = []
        scalar = url.registered_domain
        monkeypatch.setattr(url, "registered_domain",
                            lambda host: reduced.append(host) or scalar(host))
        url._DOMAINS.clear()
        first = ["www.a.com", "b.a.com", "www.a.com"]
        assert registered_domains(first).tolist() == ["a.com"] * 3
        assert registered_domains(["b.a.com", "WWW.A.COM"]).tolist() == [
            "a.com", "a.com"
        ]
        assert reduced == ["www.a.com", "b.a.com", "WWW.A.COM"]

    def test_the_map_stays_within_its_bound(self, monkeypatch):
        from repro.net import url

        monkeypatch.setattr(url, "_MEMO_SIZE", 4)
        url._DOMAINS.clear()
        hosts = [f"h{i}.example.org" for i in range(6)]
        assert registered_domains(hosts).tolist() == ["example.org"] * 6
        assert len(url._DOMAINS) <= 4
        assert registered_domains(hosts[:3]).tolist() == ["example.org"] * 3
        assert len(url._DOMAINS) == 3

    def test_results_are_native_strings(self):
        """Counter keys and their JSON must not become numpy scalars."""
        result = registered_domains(np.array(["www.a.com"], dtype=object))
        assert type(result[0]) is str

    def test_empty_input(self):
        result = registered_domains(np.empty(0, dtype=object))
        assert result.dtype == object and len(result) == 0
        assert registered_domains([]).tolist() == []

    def test_accepts_plain_lists(self):
        assert registered_domains(["www.a.com", "b.co.uk"]).tolist() == [
            "a.com", "b.co.uk"
        ]

    @given(st.lists(st.sampled_from([
        "www.a.com", "A.COM", "sub.b.co.uk", "b.co.uk.", "10.0.0.1",
        "localhost", "deep.sub.domain.example.org",
    ])))
    def test_broadcast_equals_scalar_property(self, hosts):
        result = registered_domains(np.array(hosts, dtype=object))
        assert result.tolist() == [registered_domain(h) for h in hosts]


class TestExtension:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/a/b.gif", "gif"),
            ("/watch", ""),
            ("/", ""),
            ("/archive.tar.gz", "gz"),
            ("/dir.d/file", ""),
        ],
    )
    def test_cases(self, path, expected):
        assert extension_of(path) == expected


class TestIsIpLike:
    def test_positive(self):
        assert is_ip_like("1.2.3.4")

    def test_negative(self):
        assert not is_ip_like("a.b.c.d")
        assert not is_ip_like("1.2.3")


@given(
    st.from_regex(r"[a-z]{1,10}(\.[a-z]{2,5}){1,3}", fullmatch=True),
    st.from_regex(r"(/[a-z0-9]{0,8}){0,4}", fullmatch=True),
)
def test_parse_url_roundtrip_property(host, path):
    text = f"http://{host}{path or '/'}"
    url = parse_url(text)
    assert url.host == host
    reparsed = parse_url(url.full())
    assert reparsed == url
