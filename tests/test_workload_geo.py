"""The WAN model: topology shape, capacity, attribution."""

import pytest

from repro.sim.metrics import LinkTraffic, canonical_edge
from repro.sim.transport import LinkCapacityLedger
from repro.workload.geo import (
    DatacenterSpec,
    WanConfig,
    WanLinkSpec,
    WanNetwork,
    link_name,
    three_datacenters,
)


def _two_dc(capacity=None):
    return WanConfig(
        datacenters=(DatacenterSpec("east", 2), DatacenterSpec("west", 3)),
        links=(WanLinkSpec("east", "west", capacity=capacity),),
    )


class TestSpecs:
    def test_link_name_is_order_independent(self):
        assert link_name("b", "a") == link_name("a", "b") == "wan:a<->b"

    def test_link_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WanLinkSpec("east", "east")

    def test_config_rejects_unknown_datacenter(self):
        with pytest.raises(ValueError):
            WanConfig(
                datacenters=(DatacenterSpec("a", 1), DatacenterSpec("b", 1)),
                links=(WanLinkSpec("a", "nowhere"),),
            )

    def test_config_rejects_duplicate_links(self):
        with pytest.raises(ValueError):
            WanConfig(
                datacenters=(DatacenterSpec("a", 1), DatacenterSpec("b", 1)),
                links=(WanLinkSpec("a", "b"), WanLinkSpec("b", "a")),
            )

    def test_config_rejects_single_datacenter(self):
        with pytest.raises(ValueError):
            WanConfig(datacenters=(DatacenterSpec("a", 1),), links=())

    def test_three_datacenters_stock_shape(self):
        config = three_datacenters((4, 5, 6), capacity=32.0)
        assert config.site_count == 15
        assert [dc.name for dc in config.datacenters] == [
            "us-east", "eu-west", "ap-south",
        ]
        assert all(link.capacity == 32.0 for link in config.links)


class TestTopology:
    def test_sites_numbered_in_datacenter_order(self):
        net = WanNetwork(_two_dc())
        assert net.site_count == 5
        assert net.site_ids == [0, 1, 2, 3, 4]
        assert net.sites_of("east") == [0, 1]
        assert net.sites_of("west") == [2, 3, 4]
        assert net.dc_of(0) == "east"
        assert net.dc_of(4) == "west"

    def test_gateways_are_not_sites(self):
        net = WanNetwork(_two_dc())
        east, west = net.gateway_of("east"), net.gateway_of("west")
        assert {east, west} == {5, 6}
        assert set(net.topology.sites) == {0, 1, 2, 3, 4}

    def test_wan_edges_are_labeled(self):
        net = WanNetwork(_two_dc())
        assert set(net.wan_edges) == {"wan:east<->west"}
        edge = net.wan_edges["wan:east<->west"]
        assert edge == canonical_edge(
            net.gateway_of("east"), net.gateway_of("west")
        )


class TestCapacityLedger:
    def test_uncapped_edges_are_free(self):
        ledger = LinkCapacityLedger({})
        assert ledger.would_admit([(0, 1)], cost=1e9)
        ledger.charge([(0, 1)], cost=1e9)
        assert ledger.used((0, 1)) == 0.0

    def test_budget_enforced_and_refusals_counted(self):
        edge = (0, 1)
        ledger = LinkCapacityLedger({edge: 2.0})
        assert ledger.would_admit([edge])
        ledger.charge([edge])
        ledger.charge([edge])
        assert not ledger.would_admit([edge])
        assert ledger.refusals == 1
        ledger.reset()
        assert ledger.would_admit([edge])

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LinkCapacityLedger({(0, 1): 0.0})


class TestConversationAdmission:
    def test_intra_dc_always_allowed(self):
        net = WanNetwork(_two_dc(capacity=1.0))
        for __ in range(10):
            assert net.conversation_allowed(0, 1)
            net.note_conversation(0, 1)

    def test_saturated_wan_link_refuses_cross_dc(self):
        net = WanNetwork(_two_dc(capacity=2.0))
        net.reset_cycle()
        assert net.conversation_allowed(0, 2)
        net.note_conversation(0, 2)
        net.note_conversation(1, 3)
        assert not net.conversation_allowed(0, 4)
        net.reset_cycle()
        assert net.conversation_allowed(0, 4)

    def test_note_updates_charges_the_route(self):
        net = WanNetwork(_two_dc(capacity=10.0))
        net.reset_cycle()
        net.note_updates(0, 2, 9.0)
        assert net.conversation_allowed(0, 2)
        net.note_updates(0, 2, 1.0)
        assert not net.conversation_allowed(0, 2)


class TestLinkReport:
    def test_rows_cover_wan_links_and_intra_rollups(self):
        net = WanNetwork(_two_dc())
        traffic = LinkTraffic()
        gateway_east = net.gateway_of("east")
        gateway_west = net.gateway_of("west")
        # One cross-DC conversation crossing every edge on the route.
        for a, b in ((0, gateway_east), (gateway_east, gateway_west),
                     (gateway_west, 2)):
            traffic.compare.add_edge(a, b)
            traffic.update.add_edge(a, b, 3.0)
            traffic.useful_update.add_edge(a, b, 2.0)
        rows = {row["link"]: row for row in net.link_report(traffic)}
        assert set(rows) == {"wan:east<->west", "intra:east", "intra:west"}
        wan = rows["wan:east<->west"]
        assert wan["conversations"] == 1
        assert wan["updates"] == 3.0
        assert wan["useful_updates"] == 2.0
        assert rows["intra:east"]["conversations"] == 1
        assert rows["intra:west"]["updates"] == 3.0
