"""Protocol implementations over the Paxi framework.

One module per protocol the paper evaluates; :data:`PROTOCOLS` maps the
paper's names to classes for registries and CLIs.  It is built on first
access, so importing one protocol (``repro.protocols.paxos``) does not
import the other seven.
"""

from importlib import import_module

#: Paper name -> (module under ``repro.protocols``, class name).
_REGISTRY = {
    "Paxos": ("paxos", "MultiPaxos"),
    "FPaxos": ("fpaxos", "FPaxos"),
    "Raft": ("raft", "Raft"),
    "EPaxos": ("epaxos", "EPaxos"),
    "WPaxos": ("wpaxos", "WPaxos"),
    "WanKeeper": ("wankeeper", "WanKeeper"),
    "VPaxos": ("vpaxos", "VPaxos"),
    "Mencius": ("mencius", "Mencius"),
}


def __getattr__(name: str):
    if name != "PROTOCOLS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global PROTOCOLS
    PROTOCOLS = {
        paper: getattr(import_module(f"{__name__}.{module}"), cls)
        for paper, (module, cls) in _REGISTRY.items()
    }
    return PROTOCOLS


__all__ = ["PROTOCOLS"]
