"""Offline correctness checkers: linearizability, consensus, and the
relaxed-consistency guarantees (bounded staleness, session).

Import from the submodules (``repro.checkers.linearizability``, ...); the
package re-exports nothing.
"""
