"""Discrete-event simulation substrate.

This subpackage replaces the paper's AWS EC2 deployment with a deterministic
discrete-event simulator.  It provides:

- :mod:`repro.sim.clock` — the virtual clock and event loop,
- :mod:`repro.sim.random` — seeded random-number streams,
- :mod:`repro.sim.network` — message transit with per-site-pair latency
  distributions, bandwidth accounting, and fault injection,
- :mod:`repro.sim.server` — a simulated machine with a single CPU+NIC
  processing queue (the abstraction the paper's model assumes, section 3.2),
- :mod:`repro.sim.cluster` — assembly of servers, network, and topology.

Import from the submodules; the package re-exports nothing.
"""
