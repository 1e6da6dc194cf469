"""Tests for configuration and deployment wiring."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.paxi.config import PARAMS, Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID, grid_ids
from repro.paxi.message import ClientReply, ClientRequest, Command
from repro.paxi.node import Replica
from repro.core import topology as topo


class Echo(Replica):
    """Minimal protocol: executes every request locally and replies."""

    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.register(ClientRequest, self.on_request)

    def on_request(self, src, m):
        value = self.store.execute(m.command)
        self.send(
            m.client,
            ClientReply(request_id=m.request_id, ok=True, value=value, replied_by=self.id),
        )


class TestConfig:
    def test_lan_builder(self):
        cfg = Config.lan(3, 3)
        assert cfg.n == 9
        assert cfg.zones == [1, 2, 3]
        assert cfg.site_of(NodeID(2, 2)) == "LAN"

    def test_wan_builder_zone_sites(self):
        cfg = Config.wan(("VA", "OH", "CA"), 3)
        assert cfg.zone_site(1) == "VA"
        assert cfg.zone_site(3) == "CA"
        assert cfg.ids_in_site("OH") == [NodeID(2, n) for n in (1, 2, 3)]

    def test_params_passthrough(self):
        cfg = Config.lan(1, 3, q2_size=2)
        assert cfg.param("q2_size") == 2
        assert cfg.param("fz") == PARAMS["fz"][0]  # unset: the declared default
        with pytest.raises(ConfigError, match="unknown protocol param"):
            cfg.param("missing")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Config.lan(1, 3, lease_durration=0.5),
            lambda: Config(topo.lan(3), grid_ids(1, 3), params={"lease_durration": 0.5}),
            lambda: Config.from_dict({"params": {"lease_durration": 0.5}}),
        ],
        ids=["keyword", "direct", "json"],
    )
    def test_misspelt_param_rejected_on_every_route(self, build):
        with pytest.raises(ConfigError, match="lease_durration"):
            build()

    @pytest.mark.parametrize(
        "params, match",
        [
            (dict(lease_duration=0.1, max_clock_skew=0.2), "lease window"),
            (dict(max_clock_skew=0.01), "lease_duration is unset"),
            (dict(q2_size=4), "q2_size"),
        ],
    )
    def test_param_conflicts_rejected_on_every_route(self, params, match):
        with pytest.raises(ConfigError, match=match):
            Config.lan(1, 3, **params)
        with pytest.raises(ConfigError, match=match):
            Config(topo.lan(3), grid_ids(1, 3), params=params)
        with pytest.raises(ConfigError, match=match):
            Config.from_dict({"zones": 1, "params": params})

    def test_keyword_route_splits_typed_fields_from_params(self):
        cfg = Config.lan(1, 3, 7, batch_size=4, queue_limit=8, fz=1)
        assert (cfg.seed, cfg.batch_size, cfg.queue_limit) == (7, 4, 8)
        assert cfg.params == {"fz": 1}

    def test_mismatched_ids_and_topology(self):
        with pytest.raises(ConfigError):
            Config(topology=topo.lan(3), node_ids=grid_ids(1, 2))

    def test_duplicate_ids_rejected(self):
        ids = (NodeID(1, 1), NodeID(1, 1))
        with pytest.raises(ConfigError):
            Config(topology=topo.lan(2), node_ids=ids)

    def test_ids_in_zone(self):
        cfg = Config.lan(2, 2)
        assert cfg.ids_in_zone(2) == [NodeID(2, 1), NodeID(2, 2)]

    def test_zone_site_unknown_zone(self):
        with pytest.raises(ConfigError):
            Config.lan(2, 2).zone_site(9)


class TestDeployment:
    def test_start_builds_all_replicas(self):
        dep = Deployment(Config.lan(2, 2)).start(Echo)
        assert set(dep.replicas) == set(grid_ids(2, 2))

    def test_double_start_rejected(self):
        dep = Deployment(Config.lan(1, 2)).start(Echo)
        with pytest.raises(SimulationError):
            dep.start(Echo)

    def test_round_trip_through_echo(self):
        dep = Deployment(Config.lan(1, 3)).start(Echo)
        client = dep.new_client()
        replies = []
        client.invoke(Command.put("k", "v"), on_done=lambda r, lat: replies.append((r.value, lat)))
        dep.run_for(0.05)
        assert len(replies) == 1
        value, latency = replies[0]
        assert value == "v"
        assert 0.0001 < latency < 0.002  # ~ one local RTT

    def test_client_site_round_robin(self):
        dep = Deployment(Config.wan(("VA", "OH"), 1)).start(Echo)
        sites = [dep.new_client().site for _ in range(4)]
        assert sites == ["VA", "OH", "VA", "OH"]

    def test_client_by_zone(self):
        dep = Deployment(Config.wan(("VA", "OH"), 1)).start(Echo)
        assert dep.new_client(zone=2).site == "OH"

    def test_client_unknown_site(self):
        dep = Deployment(Config.lan(1, 1)).start(Echo)
        with pytest.raises(ConfigError):
            dep.new_client(site="Atlantis")

    def test_nearest_nodes_sorted_by_distance(self):
        dep = Deployment(Config.wan(("VA", "OH", "CA"), 1)).start(Echo)
        ranked = dep.nearest_nodes("CA")
        assert dep.config.site_of(ranked[0]) == "CA"
        assert dep.config.site_of(ranked[1]) == "OH"  # OH-CA 52 < VA-CA 62

    def test_clients_spread_over_equidistant_nodes(self):
        dep = Deployment(Config.lan(1, 4)).start(Echo)
        firsts = {dep.new_client()._preferred[0] for _ in range(4)}
        assert len(firsts) == 4

    def test_determinism_same_seed_same_history(self):
        def run(seed):
            dep = Deployment(Config.lan(1, 3, seed=seed)).start(Echo)
            client = dep.new_client()
            for i in range(5):
                client.invoke(Command.put("k", f"v{i}"))
            dep.run_for(0.1)
            return [(op.value, op.returned_at) for op in dep.history.operations]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestReplicaRuntime:
    def test_duplicate_handler_rejected(self):
        from repro.errors import ProtocolError

        dep = Deployment(Config.lan(1, 1))

        class Bad(Echo):
            def __init__(self, deployment, node_id):
                super().__init__(deployment, node_id)
                self.register(ClientRequest, self.on_request)

        with pytest.raises(ProtocolError):
            dep.start(Bad)

    def test_unhandled_message_raises(self):
        from repro.errors import ProtocolError

        class Mute(Replica):
            pass

        dep = Deployment(Config.lan(1, 2)).start(Mute)
        ids = dep.config.node_ids
        dep.replicas[ids[0]].send(ids[1], ClientRequest())
        with pytest.raises(ProtocolError):
            dep.run_for(0.01)

    def test_zone_peers(self):
        dep = Deployment(Config.lan(2, 3)).start(Echo)
        replica = dep.replicas[NodeID(1, 2)]
        assert replica.zone_peers() == [NodeID(1, 1), NodeID(1, 3)]
        assert len(replica.peers) == 5

    def test_broadcast_reaches_everyone_once(self):
        received = []

        class Gossip(Replica):
            def __init__(self, deployment, node_id):
                super().__init__(deployment, node_id)
                self.register(ClientRequest, self.on_request)

            def on_request(self, src, m):
                received.append(self.id)

        dep = Deployment(Config.lan(1, 4)).start(Gossip)
        ids = dep.config.node_ids
        dep.replicas[ids[0]].broadcast(ClientRequest())
        dep.run_for(0.05)
        assert sorted(received) == sorted(ids[1:])

    def test_local_work_charges_queue(self):
        dep = Deployment(Config.lan(1, 1)).start(Echo)
        replica = dep.replicas[NodeID(1, 1)]
        done = []
        replica.local_work(0.5, lambda: done.append(dep.now))
        dep.run_for(1.0)
        assert done == [0.5]
