"""Cryptographic substrate for HERMES, implemented from scratch.

The paper requires three primitives:

* ordinary signatures so nodes can authenticate messages and overlay encodings
  (we implement Schnorr signatures over a prime-order subgroup of ``Z_p^*``);
* a ``(2f+1)``-of-``(3f+1)`` threshold signature whose combined value acts as
  the *Threshold Random Seed* (we implement a discrete-log DVRF: Shamir shares
  of a secret ``x``, partial signatures ``H(m)^{x_i}`` with Chaum–Pedersen DLEQ
  proofs, combined by Lagrange interpolation in the exponent);
* collision-resistant hashing (SHA-256 from the standard library).

Two backends expose the same interface (:class:`~repro.crypto.backend.CryptoBackend`):
:class:`~repro.crypto.backend.RealCryptoBackend` runs the genuine mathematics,
while :class:`~repro.crypto.backend.FastCryptoBackend` replaces signatures with
keyed hashes so that 10,000-node simulations stay tractable.  Both produce the
*same* deterministic seed for a given message, which is the property the HERMES
protocol logic depends on.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backend": ("CryptoBackend", "FastCryptoBackend", "RealCryptoBackend"),
        "dleq": ("DleqProof", "prove_dleq", "verify_dleq"),
        "group": ("SchnorrGroup", "default_group", "toy_group"),
        "hashing": ("hash_bytes", "hash_to_int", "sha256_hex"),
        "keys": ("KeyPair", "KeyRegistry"),
        "schnorr": ("SchnorrSignature", "schnorr_sign", "schnorr_verify"),
        "shamir": ("ShamirShare", "recover_secret", "split_secret"),
        "threshold": (
            "PartialSignature",
            "ThresholdPublicKey",
            "ThresholdSignature",
            "ThresholdSigner",
            "combine_partials",
            "threshold_keygen",
        ),
    },
)
