"""The 26-field ELFF schema of the leaked SG-9000 logs.

The leaked files are comma-separated with a W3C-style ``#Fields``
directive.  Field names follow Blue Coat's ELFF conventions; the subset
that the paper's analysis relies on is documented in its Table 2.
"""

from __future__ import annotations

# Order matters: it is the column order of the leaked CSV files.
FIELDS: tuple[str, ...] = (
    "date",  # GMT date, YYYY-MM-DD
    "time",  # GMT time, HH:MM:SS
    "time-taken",  # milliseconds spent processing the request
    "c-ip",  # client IP (zeroed or hashed by Telecomix before release)
    "cs-username",  # authenticated user name ('-' throughout the leak)
    "cs-auth-group",  # authentication group ('-' throughout the leak)
    "x-exception-id",  # exception raised, '-' when none
    "sc-filter-result",  # OBSERVED / PROXIED / DENIED
    "cs-categories",  # URL categories assigned by the content filter
    "cs-referer",  # Referer request header
    "sc-status",  # HTTP status code returned to the client
    "s-action",  # what the appliance did (TCP_NC_MISS, TCP_DENIED, ...)
    "cs-method",  # HTTP method (GET/POST/CONNECT/...)
    "rs-content-type",  # Content-Type of the origin response
    "cs-uri-scheme",  # scheme of the requested URL
    "cs-host",  # hostname or IP address of the requested URL
    "cs-uri-port",  # port of the requested URL
    "cs-uri-path",  # path of the requested URL
    "cs-uri-query",  # query of the requested URL
    "cs-uri-ext",  # extension of the requested URL
    "cs-user-agent",  # User-Agent request header
    "s-ip",  # IP address of the proxy that processed the request
    "sc-bytes",  # bytes sent to the client
    "cs-bytes",  # bytes received from the client
    "x-virus-id",  # virus scanner verdict ('-' throughout the leak)
    "s-supplier-name",  # upstream host the proxy contacted
)

assert len(FIELDS) == 26, "the leaked schema has exactly 26 fields"


# IP range of the seven proxies; the paper names each proxy SG-<suffix>.
PROXY_IP_PREFIX = "82.137.200."
PROXY_SUFFIXES: tuple[int, ...] = (42, 43, 44, 45, 46, 47, 48)
PROXY_NAMES: tuple[str, ...] = tuple(f"SG-{suffix}" for suffix in PROXY_SUFFIXES)


def proxy_ip(suffix: int) -> str:
    """The ``s-ip`` of proxy SG-*suffix*."""
    if suffix not in PROXY_SUFFIXES:
        raise ValueError(f"unknown proxy suffix: {suffix}")
    return f"{PROXY_IP_PREFIX}{suffix}"


def proxy_name_from_ip(s_ip: str) -> str:
    """Map an ``s-ip`` value back to the paper's SG-NN name."""
    if not s_ip.startswith(PROXY_IP_PREFIX):
        raise ValueError(f"not a proxy address: {s_ip}")
    suffix = int(s_ip[len(PROXY_IP_PREFIX):])
    if suffix not in PROXY_SUFFIXES:
        raise ValueError(f"not a proxy address: {s_ip}")
    return f"SG-{suffix}"
