"""Pluggable censorship-regime profiles.

A regime profile (:class:`~repro.regimes.base.RegimeProfile`) bundles
a policy-rule builder, an appliance/fleet behaviour model, a workload
spec, and the recovery analyses that re-derive the regime's rules
from its own logs.  Every fleet filters request batches through one
contract, ``process_batch`` (:class:`~repro.regimes.base.
ApplianceFleet`).  Three deployments ship registered:

``syria``
    The paper's Blue Coat SG-9000 proxy fleet (the default; output is
    byte-identical to the pre-regime engine).
``pakistan``
    ISP-level DNS NXDOMAIN injection plus HTTP 302 block pages, no
    proxy cache ("The Anatomy of Web Censorship in Pakistan").
``turkmenistan``
    Keyword DPI with RST teardown and /16-wide overblocking
    ("Measuring and Evading Turkmenistan's Internet Censorship").

The last two share one appliance model, the single-chokepoint
:class:`~repro.regimes.gateway.Gateway`, each with a table of its own
censor signatures.

Importing this package registers all three.  ``repro compare`` (see
:mod:`repro.regimes.compare`) runs one workload through N regimes and
tabulates them side by side.
"""

from repro.regimes.base import (
    ApplianceFleet,
    RegimeProfile,
    RuleRecovery,
    UnknownRegimeError,
    available_regimes,
    get_regime,
    register_regime,
)
from repro.regimes.pakistan import PAKISTAN
from repro.regimes.syria import SYRIA
from repro.regimes.turkmenistan import TURKMENISTAN

__all__ = [
    "ApplianceFleet",
    "RegimeProfile",
    "RuleRecovery",
    "UnknownRegimeError",
    "available_regimes",
    "get_regime",
    "register_regime",
    "SYRIA",
    "PAKISTAN",
    "TURKMENISTAN",
]
