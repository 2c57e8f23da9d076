"""The mempool layer: transactions, per-node mempools, block formation.

HERMES and the baselines are *dissemination* protocols; this package supplies
the objects they disseminate (250-byte transactions, §VIII-A), the accountable
mempool that stores them (with L∅-style commitments), and the block-formation
logic used to adjudicate front-running attacks: a proposer orders transactions
by local arrival time, so an attack succeeds exactly when the adversarial
transaction reached the proposer first (§VIII-F).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "blocks": ("Block", "build_block"),
        "mempool": ("Mempool", "MempoolPolicy"),
        "ordering": ("FrontRunVerdict", "judge_front_running"),
        "transaction": ("TX_SIZE_BYTES", "Transaction"),
    },
)
