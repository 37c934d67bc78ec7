"""URL model matching the Blue Coat log decomposition.

The SG-9000 logs decompose each requested URL into separate fields:
``cs-uri-scheme``, ``cs-host``, ``cs-uri-port``, ``cs-uri-path``,
``cs-uri-query`` and ``cs-uri-ext``.  The :class:`URL` type mirrors that
decomposition so that workload generation, policy evaluation and log
serialization all share a single representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21, "tcp": 0}


@dataclass(frozen=True, slots=True)
class URL:
    """A request URL in Blue Coat field decomposition.

    ``query`` includes no leading ``?`` (matching the logs, where the
    query field is logged without the separator but rendered with it in
    examples); :meth:`full` re-assembles a display URL.
    """

    host: str
    path: str = "/"
    query: str = ""
    scheme: str = "http"
    port: int | None = None
    ext: str = ""

    @property
    def effective_port(self) -> int:
        """The port the connection targets (explicit or scheme default)."""
        if self.port is not None:
            return self.port
        return DEFAULT_PORTS.get(self.scheme, 80)

    def matchable_text(self) -> str:
        """The text the Blue Coat string-matching engine scans.

        Per Section 5.4 of the paper, keyword filtering matches against
        the ``cs-host``, ``cs-uri-path`` and ``cs-uri-query`` fields.
        """
        return f"{self.host}{self.path}?{self.query}"

    def full(self) -> str:
        """Re-assemble a display URL."""
        port = f":{self.port}" if self.port is not None else ""
        query = f"?{self.query}" if self.query else ""
        return f"{self.scheme}://{self.host}{port}{self.path}{query}"

    def with_query(self, query: str) -> "URL":
        """A copy of this URL with the query replaced."""
        return replace(self, query=query)

    def registered_domain(self) -> str:
        """Best-effort eTLD+1 used by the per-domain analyses.

        The paper aggregates hosts by registered domain (e.g. both
        ``www.facebook.com`` and ``ar-ar.facebook.com`` count towards
        ``facebook.com``).  We implement the common-case heuristic:
        the last two labels, or the last three when the TLD is a
        two-part country-code suffix such as ``co.uk`` or ``com.sy``.
        """
        return registered_domain(self.host)


# Two-part public suffixes that appear in the paper's domain tables
# (e.g. bbc.co.uk, mtn.com.sy, panet.co.il, alquds.co.uk).
_TWO_PART_SUFFIXES = frozenset(
    {
        "co.uk",
        "co.il",
        "com.sy",
        "net.sy",
        "org.sy",
        "gov.sy",
        "com.eg",
        "com.sa",
        "co.jp",
        "com.au",
        "org.uk",
        "ac.uk",
        "net.il",
        "org.il",
    }
)


def registered_domain(host: str) -> str:
    """Reduce *host* to its registered domain (eTLD+1 heuristic).

    Normalizes first (lowercase, trailing dot stripped) so the spelling
    variants ``WWW.Facebook.COM``, ``www.facebook.com`` and
    ``www.facebook.com.`` share one slot in the memo cache below rather
    than occupying three.
    """
    return _registered_domain(host.lower().rstrip("."))


def registered_domains(hosts) -> np.ndarray:
    """Array-in/array-out :func:`registered_domain` for batch columns.

    The scalar function's per-call shape — normalize, then an
    ``lru_cache`` lookup — costs a Python call chain per row even on a
    cache hit, which defeats vectorization in the analysis hot path.
    This fast path reduces the work to one scalar call per *distinct*
    host in the batch (hostnames repeat massively in log traffic) and
    broadcasts the results back with a fancy index.  Normalization
    (lowercase, trailing dot) is identical: each distinct spelling
    routes through :func:`registered_domain` itself.
    """
    hosts = np.asarray(hosts, dtype=object)
    if not len(hosts):
        return np.empty(0, dtype=object)
    spellings = hosts.tolist()
    mapping = {
        host: registered_domain(host) for host in dict.fromkeys(spellings)
    }
    return np.array(list(map(mapping.__getitem__, spellings)), dtype=object)


@lru_cache(maxsize=65536)
def _registered_domain(host: str) -> str:
    """The memoized core; *host* is already normalized.

    Memoized: hostnames repeat massively in log traffic, and the
    function sits in the routing and analysis hot paths.
    """
    if not host or host[0].isdigit() and is_ip_like(host):
        return host
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _TWO_PART_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def is_ip_like(host: str) -> bool:
    """Cheap check that *host* looks like a dotted-quad address."""
    if not host[-1:].isdigit():  # the common case: a hostname
        return False
    parts = host.split(".")
    return len(parts) == 4 and all(part.isdigit() for part in parts)


def extension_of(path: str) -> str:
    """Derive the ``cs-uri-ext`` field from a path.

    Matches Blue Coat behaviour: the extension is the suffix after the
    final dot of the final path segment, empty when the segment has no
    dot or the path ends with a slash.
    """
    segment = path.rsplit("/", 1)[-1]
    if "." not in segment:
        return ""
    return segment.rsplit(".", 1)[-1]


def parse_url(text: str) -> URL:
    """Parse a display URL into Blue Coat decomposition.

    Only the subset of URL syntax that appears in proxy logs is
    supported (no userinfo, no fragments — proxies never see fragments).
    """
    scheme = "http"
    rest = text
    if "://" in text:
        scheme, _, rest = text.partition("://")
        scheme = scheme.lower()
    rest, _, query = rest.partition("?")
    hostport, slash, path = rest.partition("/")
    path = slash + path if slash else "/"
    port: int | None = None
    if ":" in hostport:
        host, _, port_text = hostport.partition(":")
        if not port_text.isdigit():
            raise ValueError(f"invalid port in URL: {text!r}")
        port = int(port_text)
    else:
        host = hostport
    if not host:
        raise ValueError(f"URL has no host: {text!r}")
    return URL(
        host=host.lower(),
        path=path,
        query=query,
        scheme=scheme,
        port=port,
        ext=extension_of(path),
    )
