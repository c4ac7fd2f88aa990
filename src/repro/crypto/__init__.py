"""Cryptographic primitives used by PrivApprox and its comparators.

PrivApprox itself only needs the XOR one-time-pad scheme (:mod:`repro.crypto.xor`)
driven by a seeded pseudo-random generator (:mod:`repro.crypto.prng`).  The
public-key schemes — RSA, Goldwasser-Micali and Paillier — are implemented from
scratch so that Table 2 of the paper ("computational overhead of crypto
operations") can be regenerated: they are the schemes used by the prior systems
PrivApprox compares against.

All schemes expose an ``encrypt``/``decrypt`` pair over byte strings or small
integers and a ``keygen`` routine; see each module for details.
"""

from repro.crypto.prng import KeystreamGenerator, secure_random_bytes
from repro.crypto.xor import (
    split_message,
    join_shares,
    xor_bytes,
)
from repro.crypto.rsa import RSAKeyPair, generate_rsa_keypair
from repro.crypto.goldwasser_micali import GMKeyPair, generate_gm_keypair
from repro.crypto.paillier import PaillierKeyPair, generate_paillier_keypair

__all__ = [
    "KeystreamGenerator",
    "secure_random_bytes",
    "split_message",
    "join_shares",
    "xor_bytes",
    "RSAKeyPair",
    "generate_rsa_keypair",
    "GMKeyPair",
    "generate_gm_keypair",
    "PaillierKeyPair",
    "generate_paillier_keypair",
]
