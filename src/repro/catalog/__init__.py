"""Shared data catalogs.

The catalogs define the *universe* the simulator draws from: the domain
population with per-domain URL profiles and popularity weights, the
Facebook page and social-plugin inventories, the social-network list of
Section 6, and the anonymizer services of Section 7.2.

Both the workload generator (which samples requests from the catalogs)
and the categorizer (which labels URLs) build on this package, keeping
a single source of truth for every host the simulation knows about.
"""

from repro.catalog.categories import Category
from repro.catalog.domains import UrlTemplate, build_domain_universe

__all__ = ["Category", "UrlTemplate", "build_domain_universe"]
