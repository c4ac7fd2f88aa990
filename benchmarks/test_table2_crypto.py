"""Table 2: computational overhead of crypto operations (ops/sec).

The paper compares XOR (PrivApprox) with RSA, Goldwasser-Micali and Paillier
(prior systems), each with 1024-bit keys, on a phone, a laptop and a server.
We cannot measure those devices, so the benchmark does two things:

1. measures the *real* pure-Python implementations on this machine
   (pytest-benchmark groups ``table2-local``) to confirm the scheme ordering
   on an actual code path, and
2. prints the device-calibrated table from the cost model
   (:mod:`repro.netsim.devices`), which reproduces the paper's per-device
   numbers and ratios.

Expected shape: XOR is orders of magnitude faster than every public-key
scheme on every device; Paillier is the slowest.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import (
    generate_gm_keypair,
    generate_paillier_keypair,
    generate_rsa_keypair,
    split_message,
)
from repro.crypto.prng import KeystreamGenerator
from repro.netsim import DeviceProfile, OperationKind

KEY_BITS = 1024
MESSAGE = bytes(range(64))  # a 512-bit answer message


@pytest.fixture(scope="module")
def rsa_keys():
    return generate_rsa_keypair(KEY_BITS, seed=1)


@pytest.fixture(scope="module")
def gm_keys():
    return generate_gm_keypair(KEY_BITS, seed=2)


@pytest.fixture(scope="module")
def paillier_keys():
    return generate_paillier_keypair(KEY_BITS, seed=3)


@pytest.mark.benchmark(group="table2-local")
def test_xor_encryption_local(benchmark):
    keystream = KeystreamGenerator(seed=b"bench")
    result = benchmark(split_message, MESSAGE, 2, keystream)
    assert len(result) == 2


@pytest.mark.benchmark(group="table2-local")
def test_rsa_encryption_local(benchmark, rsa_keys):
    message_int = int.from_bytes(MESSAGE, "big")
    ciphertext = benchmark(rsa_keys.public.encrypt_int, message_int)
    assert rsa_keys.private.decrypt_int(ciphertext) == message_int


@pytest.mark.benchmark(group="table2-local")
def test_goldwasser_micali_encryption_local(benchmark, gm_keys):
    rng = random.Random(7)
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    ciphertexts = benchmark(gm_keys.public.encrypt_bits, bits, rng)
    assert gm_keys.private.decrypt_bits(ciphertexts) == bits


@pytest.mark.benchmark(group="table2-local")
def test_paillier_encryption_local(benchmark, paillier_keys):
    rng = random.Random(9)
    ciphertext = benchmark(paillier_keys.public.encrypt, 123456, rng)
    assert paillier_keys.private.decrypt(ciphertext) == 123456


@pytest.mark.benchmark(group="table2")
def test_table2_device_calibrated_report(benchmark, report):
    """Regenerate the full device table and assert the scheme ordering."""

    def build_rows():
        rows = []
        schemes = [
            ("RSA", OperationKind.RSA_ENCRYPT, OperationKind.RSA_DECRYPT),
            ("Goldwasser-Micali", OperationKind.GM_ENCRYPT, OperationKind.GM_DECRYPT),
            ("Paillier", OperationKind.PAILLIER_ENCRYPT, OperationKind.PAILLIER_DECRYPT),
        ]
        devices = DeviceProfile.all_devices()
        for name, enc_op, dec_op in schemes:
            row = [name]
            for device in devices:
                row.append(round(device.ops_per_second(enc_op)))
            for device in devices:
                row.append(round(device.ops_per_second(dec_op)))
            rows.append(row)
        xor_row = ["PrivApprox (XOR)"]
        for device in devices:
            xor_row.append(round(device.ops_per_second(OperationKind.XOR_ENCRYPTION)))
        for device in devices:
            xor_row.append(round(device.xor_decrypt_ops_per_second()))
        rows.append(xor_row)
        return rows

    rows = benchmark(build_rows)

    report.title("Table 2: crypto operations per second (1024-bit keys)")
    report.table(
        [
            "scheme",
            "enc phone",
            "enc laptop",
            "enc server",
            "dec phone",
            "dec laptop",
            "dec server",
        ],
        rows,
    )
    report.note(
        "Paper: XOR reaches 15K/944K/1.35M enc ops/sec vs 937/2,770/4,909 for "
        "RSA; the XOR advantage spans 2-4 orders of magnitude."
    )

    xor = rows[-1]
    for public_key_row in rows[:-1]:
        for column in range(1, 7):
            assert xor[column] > public_key_row[column], (
                "XOR must beat every public-key scheme on every device/operation"
            )
    # Paillier is the slowest encryption on every device.
    paillier = rows[2]
    rsa = rows[0]
    gm = rows[1]
    for column in range(1, 4):
        assert paillier[column] < rsa[column]
        assert paillier[column] < gm[column]
