"""Analytic prong: queueing models, order statistics, and the paper's
distilled formulas (sections 3 and 6).

Import from the submodules (``repro.core.topology``,
``repro.core.protocol_models``, ...); the package re-exports nothing, so
importing one model loads only what it needs.
"""
