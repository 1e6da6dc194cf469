"""The engine and the analytic model sit below everything that uses them.

``repro.sim`` (event loop, network, servers) and ``repro.core`` (queueing
formulas) must not import the layers built on top of them — not at module
level and not inside a function, where such an import is easy to miss.
"""

import ast
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
UPPER_LAYERS = ("paxi", "protocols", "bench", "shard", "experiments")


def _imported_modules(path: Path) -> set[str]:
    """Absolute dotted names of everything ``path`` imports, at any depth."""
    package = path.relative_to(SRC.parent).parts[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[: len(package) - node.level + 1]
                base = ".".join([*parent, *([base] if base else [])])
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("layer", ["sim", "core"])
def test_lower_layer_does_not_import_upward(layer):
    modules = sorted((SRC / layer).rglob("*.py"))
    assert modules, f"no modules found under {SRC / layer}"
    offenders = []
    for path in modules:
        for name in sorted(_imported_modules(path)):
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in UPPER_LAYERS:
                offenders.append(f"{path.relative_to(SRC.parent)} imports {name}")
    assert not offenders, "\n".join(offenders)


def test_the_package_imports_only_the_standard_library_and_itself():
    """``repro`` has no third-party runtime dependency (``pyproject.toml``
    ``dependencies = []``): it runs on a bare interpreter."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for name in sorted(_imported_modules(path)):
            top = name.split(".")[0]
            if top and top != "repro" and top not in sys.stdlib_module_names:
                offenders.append(f"{path.relative_to(SRC.parent)} imports {name}")
    assert not offenders, "\n".join(offenders)


# ----------------------------------------------------------------------
# One leader-log layer: the read paths, election timing and the planned
# handoff live in repro.protocols.leaderlog, not in each protocol.
# ----------------------------------------------------------------------

PROTOCOLS_DIR = SRC / "protocols"

#: Mechanisms LeaderLog owns; a protocol class body defining one of them
#: has pasted a copy back.
SHARED_MECHANISMS = {
    "_try_lease_read", "_lease_valid", "_serve_read_from_store",
    "_serve_local_read", "_drain_read_waiters", "_start_quorum_read",
    "_read_targets", "on_read_query", "on_read_reply", "_finish_quorum_read",
    "_drain_read_backlog", "_reset_election_timer", "_election_delay",
    "_election_expired", "_observe_leader", "on_handoff_request",
    "_begin_handoff", "_handoff_drain_expired", "_complete_handoff",
    "_retransmit_handoff", "on_handoff", "on_request",
}  # fmt: skip
#: Protocol/Replica extension points both protocols legitimately override.
EXTENSION_POINTS = {"propose_batch", "snapshot_payload", "_recover", "_become_leader"}


def test_leaderlog_sits_below_the_protocols_built_on_it():
    upward = {f"repro.protocols.{name}" for name in ("paxos", "raft", "fpaxos")}
    imported = _imported_modules(PROTOCOLS_DIR / "leaderlog.py")
    assert not imported & upward, sorted(imported & upward)
    assert "repro.protocols.raft" not in _imported_modules(PROTOCOLS_DIR / "paxos.py")
    assert "repro.protocols.paxos" not in _imported_modules(PROTOCOLS_DIR / "raft.py")


def test_paxos_and_raft_share_only_the_leaderlog_interface():
    from repro.protocols.leaderlog import LeaderLog
    from repro.protocols.paxos import MultiPaxos
    from repro.protocols.raft import Raft

    both = {
        name
        for name in vars(MultiPaxos).keys() & vars(Raft).keys()
        if not (name.startswith("__") and name.endswith("__")) and name != "_abc_impl"
    }
    assert not both & SHARED_MECHANISMS, sorted(both & SHARED_MECHANISMS)
    assert len(both) <= 12, sorted(both)
    # Whatever both define is a hook declared on the base, or an extension point.
    declared = vars(LeaderLog).keys() | LeaderLog.__annotations__.keys() | EXTENSION_POINTS
    assert both <= declared, sorted(both - declared)


# ----------------------------------------------------------------------
# One at-most-once table: every protocol's replica gets ``self.replies``
# (a repro.paxi.replies.ReplyTable) from ``Protocol``; none keeps a reply
# cache of its own keyed by ``(client, request_id)``.
# ----------------------------------------------------------------------

#: ``(x.client, x.request_id)`` tuples a protocol may still build, and why.
REQUEST_KEY_USES = {
    # _ObjectState.forwarded: which requests this node passed on to the
    # owner, for the steal streak.  Entries leave when the P2a comes back.
    "wpaxos.py": 2,
}


def _is_request_key(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Tuple)
        and [getattr(e, "attr", None) for e in node.elts] == ["client", "request_id"]
    )


def test_the_reply_table_is_the_only_request_cache():
    offenders = []
    for path in sorted(PROTOCOLS_DIR.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        names = {getattr(n, "attr", None) or getattr(n, "id", None) for n in nodes}
        for name in sorted(n for n in names if n and "request_cache" in n):
            offenders.append(f"{path.name} keeps its own {name}")
        if "ReplyTable" in names:
            offenders.append(f"{path.name} builds a ReplyTable beside Protocol.replies")
        keys = sum(_is_request_key(n) for n in nodes)
        if keys > REQUEST_KEY_USES.get(path.name, 0):
            offenders.append(f"{path.name} builds {keys} (client, request_id) cache keys")
    assert not offenders, "\n".join(offenders)


# ----------------------------------------------------------------------
# One slot log: MultiPaxos, WPaxos, GroupEngine and Mencius keep their
# slots in repro.protocols.log.CommandLog, whose execute() is the only
# in-order execute loop.
# ----------------------------------------------------------------------


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def test_only_the_slot_log_executes_and_keeps_slot_records():
    """Outside ``protocols/log.py`` no protocol advances an ``execute_index``
    of its own or defines a per-slot record (a dataclass with both
    ``committed`` and ``executed`` fields)."""
    offenders = []
    for path in sorted(PROTOCOLS_DIR.glob("*.py")):
        if path.name == "log.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.AugAssign):
                name = getattr(node.target, "attr", None) or getattr(node.target, "id", "")
                if name.endswith("execute_index"):
                    offenders.append(f"{path.name}:{node.lineno} advances {name}")
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = {
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                }
                if {"committed", "executed"} <= fields:
                    offenders.append(f"{path.name}:{node.lineno} defines slot record {node.name}")
    assert not offenders, "\n".join(offenders)


# ----------------------------------------------------------------------
# One proposer-side slot lifecycle: CommandLog stamps what a leader
# proposed, counts its votes and finds what is due again; the hosts only
# build their own accept message for it.
# ----------------------------------------------------------------------

PROPOSER_HOSTS = ("paxos.py", "wpaxos.py", "group.py", "mencius.py")


def _is_now(node: ast.AST) -> bool:
    """``now``, ``self.now``, ``self.replica.now`` and the like."""
    return getattr(node, "id", None) == "now" or getattr(node, "attr", None) == "now"


def _names_a_retransmit_timeout(node: ast.AST) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return "retransmit" in name.lower() or "grace" in name.lower()


@pytest.mark.parametrize("host", PROPOSER_HOSTS)
def test_only_the_slot_log_stamps_and_times_out_proposals(host):
    """No host keeps a ``slot -> sent at`` record (a subscripted store of
    the current time) or times a proposal out itself (``now - stamp``
    compared with a retransmit timeout): ``CommandLog.propose`` stamps and
    ``CommandLog.due`` decides."""
    path = PROTOCOLS_DIR / host
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assign) and _is_now(node.value):
            if any(isinstance(t, ast.Subscript) for t in node.targets):
                offenders.append(f"{host}:{node.lineno} stamps a slot with the current time")
        elif isinstance(node, ast.Compare):
            left = node.left
            aged = isinstance(left, ast.BinOp) and isinstance(left.op, ast.Sub) and _is_now(left.left)
            if aged and any(_names_a_retransmit_timeout(c) for c in node.comparators):
                offenders.append(f"{host}:{node.lineno} times a proposal out")
    assert not offenders, "\n".join(offenders)
