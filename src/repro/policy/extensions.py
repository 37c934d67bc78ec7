"""Additional SGOS rule types.

Blue Coat's documentation (Section 3.2 of the paper) lists filtering
criteria beyond what the Syrian deployment used: website categories,
content type, browser type, and date/time of day.  These rule types
complete the appliance model; they plug into the same
:class:`~repro.policy.engine.PolicyEngine` and are exercised by the
tests and the extension examples, but the canonical Syrian
configuration does not enable them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.policy.rules import Action, RequestView, Verdict

_DENIED = "policy_denied"


class CategoryRule:
    """Deny requests whose URL categorizes into a blocked category.

    Takes a ``categorize(host, path) -> str`` callable — normally
    :meth:`repro.categorizer.TrustedSourceCategorizer.categorize` — so
    the rule stays decoupled from any specific database.
    """

    reads = ("host", "path")

    def __init__(
        self,
        blocked_categories: Iterable[str],
        categorize: Callable[[str, str], str],
        name: str = "category",
    ):
        self.blocked = frozenset(blocked_categories)
        self.categorize = categorize
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        category = self.categorize(request.host, request.path)
        if category in self.blocked:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:{category}")
        return None


class PortRule:
    """Deny connections to blacklisted destination ports (e.g. closing
    SOCKS or IRC egress)."""

    reads = ("port",)

    def __init__(self, blocked_ports: Iterable[int], name: str = "port"):
        self.blocked = frozenset(int(port) for port in blocked_ports)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        if request.port in self.blocked:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:{request.port}")
        return None


class TimeOfDayRule:
    """Apply an inner rule only inside a daily time window.

    SGOS supports schedule-conditioned policy; this combinator wraps
    any rule with an [start hour, end hour) local-time guard.  Windows
    may wrap midnight (start > end).
    """

    def __init__(self, inner: object, start_hour: int, end_hour: int):
        if not (0 <= start_hour <= 24 and 0 <= end_hour <= 24):
            raise ValueError("hours must be within 0..24")
        if start_hour == end_hour:
            raise ValueError("empty time window")
        self.inner = inner
        self.start_hour = start_hour
        self.end_hour = end_hour
        self.name = f"time:{start_hour:02d}-{end_hour:02d}"

    @property
    def reads(self) -> tuple[str, ...] | None:
        inner = getattr(self.inner, "reads", None)
        return None if inner is None else ("epoch", *inner)

    def _in_window(self, epoch: int) -> bool:
        hour = (epoch % 86400) // 3600
        if self.start_hour < self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour

    def evaluate(self, request: RequestView) -> Verdict | None:
        if not self._in_window(request.epoch):
            return None
        return self.inner.evaluate(request)


class BrowserTypeRule:
    """Deny requests from blacklisted user-agent substrings.

    Matching is substring-based like the keyword engine; the rule
    abstains when the request view carries no user agent (the field is
    optional on :class:`RequestView`).
    """

    reads = ("user_agent",)

    def __init__(self, blocked_markers: Iterable[str], name: str = "browser"):
        self.markers = tuple(marker.lower() for marker in blocked_markers)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        agent = getattr(request, "user_agent", "") or ""
        lowered = agent.lower()
        for marker in self.markers:
            if marker in lowered:
                return Verdict(Action.DENY, _DENIED, f"{self.name}:{marker}")
        return None


class ExtensionRule:
    """Deny requests for blacklisted file extensions (``cs-uri-ext``),
    e.g. blocking executable downloads."""

    reads = ("path",)

    def __init__(self, blocked_extensions: Iterable[str], name: str = "ext"):
        self.blocked = frozenset(ext.lower().lstrip(".") for ext in blocked_extensions)
        self.name = name

    def evaluate(self, request: RequestView) -> Verdict | None:
        segment = request.path.rsplit("/", 1)[-1]
        if "." not in segment:
            return None
        extension = segment.rsplit(".", 1)[-1].lower()
        if extension in self.blocked:
            return Verdict(Action.DENY, _DENIED, f"{self.name}:{extension}")
        return None
