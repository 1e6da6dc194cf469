"""Protocol implementations over the Paxi framework.

One module per protocol the paper evaluates; :data:`PROTOCOLS` maps the
paper's names to classes for registries and CLIs.  It is built on first
access, so importing one protocol (``repro.protocols.paxos``) does not
import the other seven.
"""

from importlib import import_module

from repro.errors import ConfigError

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


def canonical_name(name: object) -> str:
    """``name`` as the registry spells it, matched case-insensitively
    (``"paxos"`` -> ``"Paxos"``); imports no protocol."""
    if isinstance(name, str):
        for paper in _REGISTRY:
            if paper.lower() == name.lower():
                return paper
    raise ConfigError(
        f"unknown protocol {name!r}; valid protocols are {sorted(_REGISTRY)}"
    )


__all__ = ["PROTOCOLS", "canonical_name"]
