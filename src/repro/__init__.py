"""Reproduction of "Censorship in the Wild: Analyzing Internet Filtering in
Syria" (Chaabane et al., IMC 2014).

The package simulates the censorship ecosystem the paper measured — seven
Blue Coat SG-9000 filtering proxies deployed on the Syrian backbone — and
implements the paper's complete analysis pipeline on top of the simulated
logs.

High-level entry points:

``repro.datasets.build_scenario``
    Generate the four datasets the paper analyzes (D_full, D_sample,
    D_user, D_denied) from a synthetic-traffic scenario.  It is the one
    scenario builder — the sharded engine's, the one ``repro report``
    runs — and a config's ``policy_transform`` names a what-if policy
    from ``repro.scenarios``.

``repro.analysis``
    One module per paper section; each analysis consumes a
    :class:`repro.frame.LogFrame` of log records and returns a plain
    result object that mirrors a table or figure from the paper.

``repro.reporting``
    Renders analysis results as the ASCII tables/series printed by the
    examples and benchmark harness.
"""

from repro.version import __version__

__all__ = ["__version__"]
