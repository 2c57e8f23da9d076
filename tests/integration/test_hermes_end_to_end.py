"""Integration tests: the full HERMES stack under realistic workloads."""

import statistics

import pytest

from repro.core.config import HermesConfig
from repro.core.protocol import HermesSystem
from repro.mempool.blocks import build_block
from repro.mempool.transaction import Transaction
from repro.net.faults import Behavior, FaultPlan


@pytest.fixture(scope="module")
def system80(physical80, overlay_family80):
    overlays, _ranks = overlay_family80
    config = HermesConfig(f=1, num_overlays=4, gossip_fallback_enabled=False)
    system = HermesSystem(physical80, config, overlays=overlays, seed=31)
    system.start()
    origins = [3, 17, 42, 60, 71, 8, 25, 55]
    txs = []
    for index, origin in enumerate(origins):
        tx = Transaction.create(origin=origin, created_at=0.0)
        txs.append(tx)
        system.simulator.schedule_at(
            index * 50.0, lambda o=origin, t=tx: system.submit(o, t)
        )
    system.run(until_ms=15_000)
    return system, txs


class TestWorkload:
    def test_every_transaction_reaches_everyone(self, system80, physical80):
        system, txs = system80
        for tx in txs:
            assert len(system.stats.deliveries[tx.tx_id]) == physical80.num_nodes

    def test_no_violations_in_honest_run(self, system80):
        system, _txs = system80
        assert len(system.violation_log) == 0

    def test_sequences_assigned_in_order(self, system80):
        system, txs = system80
        by_origin: dict[int, int] = {}
        for tx in txs:
            by_origin[tx.origin] = by_origin.get(tx.origin, 0) + 1
        for origin, count in by_origin.items():
            assert system.nodes[origin].trs_client.next_sequence == count

    def test_mempools_converge(self, system80, physical80):
        system, txs = system80
        expected = {tx.tx_id for tx in txs}
        for node in system.nodes.values():
            assert expected <= set(node.mempool.known_ids())

    def test_block_building_from_any_proposer(self, system80):
        system, txs = system80
        block = build_block(system.nodes[50].mempool, system.simulator.now)
        assert set(tx.tx_id for tx in txs) <= set(block.tx_ids)

    def test_latency_reasonable(self, system80):
        system, _txs = system80
        latencies = system.stats.all_delivery_latencies()
        assert statistics.mean(latencies) < 1_000.0


class TestSequenceGapDetection:
    def test_skipped_sequence_flagged(self, physical80, overlay_family80):
        """An origin disseminating seq 2 while seq 1 never appears is accused."""

        overlays, _ranks = overlay_family80
        config = HermesConfig(
            f=1,
            num_overlays=4,
            gossip_fallback_enabled=False,
            sequence_gap_timeout_ms=400.0,
        )
        system = HermesSystem(physical80, config, overlays=overlays, seed=31)
        system.start()

        from repro.core.dissemination import DISSEMINATE_KIND, DisseminationEnvelope
        from repro.net.events import Message
        from repro.trs.committee import trs_binding

        origin = 9

        def forge(sequence):
            tx = Transaction.create(origin=origin, created_at=0.0)
            binding = trs_binding(origin, sequence, tx.digest())
            partials = [
                system.backend.partial_sign(m, binding) for m in system.committee[:3]
            ]
            signature = system.backend.combine(binding, partials)
            overlay_id = system.backend.seed_from_signature(signature, 4)
            return DisseminationEnvelope(
                tx=tx, origin=origin, sequence=sequence,
                signature=signature, overlay_id=overlay_id,
            )

        # Disseminate sequence 0, then skip to sequence 2.
        for sequence in (0, 2):
            envelope = forge(sequence)
            overlay = system.overlays[envelope.overlay_id]
            node = system.nodes[origin]
            for entry in overlay.entry_points:
                if entry == origin:
                    continue
                node.send(
                    entry, Message(DISSEMINATE_KIND, envelope, 350)
                )
        system.run(until_ms=8_000)
        gap_violations = [
            v
            for v in system.violation_log.against(origin)
            if v.kind.value == "sequence-gap"
        ]
        assert gap_violations, "the skipped sequence number must be flagged"


class TestByzantineMix:
    def test_mixed_faults_do_not_stop_dissemination(self, physical80, overlay_family80):
        overlays, _ranks = overlay_family80
        behaviors = {}
        nodes = physical80.nodes()
        behaviors[nodes[5]] = Behavior.CRASH
        behaviors[nodes[12]] = Behavior.DROP_RELAY
        behaviors[nodes[33]] = Behavior.DROP_RELAY
        plan = FaultPlan(behaviors=behaviors)
        config = HermesConfig(f=1, num_overlays=4, gossip_fallback_enabled=True,
                              gossip_fallback_delay_ms=400.0, gossip_period_ms=200.0)
        system = HermesSystem(
            physical80, config, fault_plan=plan, overlays=overlays, seed=31
        )
        system.start()
        tx = Transaction.create(origin=nodes[0], created_at=0.0)
        system.submit(nodes[0], tx)
        system.run(until_ms=6_000)
        coverage = system.stats.coverage(tx.tx_id, system.honest_node_ids())
        assert coverage == 1.0
