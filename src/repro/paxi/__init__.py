"""Python port of the Paxi prototyping framework (paper section 4).

Paxi factors strongly-consistent replication protocols into shared building
blocks — configuration, quorum systems, networking, a multi-version
key-value store, a client library, and a benchmarker — so that a protocol
implementation only supplies its message types and replica logic.  This
package reproduces that architecture on top of :mod:`repro.sim`.

Import from the submodules (``repro.paxi.config``,
``repro.paxi.deployment``, ...); the package re-exports nothing.
"""
