"""32-bit content checksums for the durable file formats.

WAL segments and snapshot files seal their bytes with a 32-bit CRC so
recovery can *detect* corruption instead of replaying it.  Two
algorithms are registered and every durable file records which one
sealed it (a single flag byte in its header), so files written on one
machine verify on any other:

* ``ALG_CRC32`` (0) — zlib's CRC-32 (IEEE 802.3 polynomial).  Always
  available at C speed from the standard library.
* ``ALG_CRC32C`` (1) — CRC-32C (Castagnoli polynomial, the checksum
  used by iSCSI/ext4/LevelDB).  Preferred when a native implementation
  (the ``crc32c`` wheel) is importable; the table-driven pure-Python
  fallback below is ~20x slower per byte, which is fine for the
  read/verify side (once per recovery) but would blow the append
  path's framing budget — hence the writer-side preference logic in
  :data:`PREFERRED_ALG` rather than an unconditional CRC-32C.

Checksums are *error-detecting*, not cryptographic: the threat model is
torn writes, bit rot, and truncation, not an adversary forging records.
"""

from __future__ import annotations

import zlib
from typing import Callable

__all__ = [
    "ALG_CRC32",
    "ALG_CRC32C",
    "ALG_NAMES",
    "PREFERRED_ALG",
    "checksum",
    "checksum_fn",
    "crc32c",
]

ALG_CRC32 = 0
ALG_CRC32C = 1

ALG_NAMES = {ALG_CRC32: "crc32", ALG_CRC32C: "crc32c"}

# ----------------------------------------------------------------------
# CRC-32C (Castagnoli), reflected polynomial 0x82F63B78
# ----------------------------------------------------------------------

def _build_crc32c_table() -> "tuple[int, ...]":
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _build_crc32c_table()


def _crc32c_py(data: bytes, value: int = 0) -> int:
    """Pure-Python CRC-32C (the verify-side fallback)."""
    crc = value ^ 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


try:  # pragma: no cover - exercised only where the wheel is installed
    from crc32c import crc32c as _crc32c_native  # type: ignore

    def crc32c(data: bytes, value: int = 0) -> int:
        return _crc32c_native(data, value)

    _HAVE_NATIVE_CRC32C = True
except ImportError:
    crc32c = _crc32c_py
    _HAVE_NATIVE_CRC32C = False


#: the algorithm new files are sealed with: CRC-32C when it runs at C
#: speed, else zlib's CRC-32 (readers handle both via the header flag)
PREFERRED_ALG = ALG_CRC32C if _HAVE_NATIVE_CRC32C else ALG_CRC32

_FUNCTIONS: "dict[int, Callable[[bytes, int], int]]" = {
    # zlib.crc32 is already unsigned 32-bit on Python 3: register the
    # C function itself, so a hot loop pays no Python-level wrapper call
    ALG_CRC32: zlib.crc32,
    ALG_CRC32C: crc32c,
}


def checksum(alg: int, data: bytes, value: int = 0) -> int:
    """The 32-bit checksum of ``data`` under registered algorithm ``alg``.

    ``value`` chains partial checksums (running CRC over streamed
    chunks).  Unknown algorithm ids raise ``ValueError`` — a file
    claiming an unregistered checksum is unreadable, not silently
    trusted.
    """
    try:
        fn = _FUNCTIONS[alg]
    except KeyError:
        raise ValueError(f"unknown checksum algorithm id {alg}") from None
    return fn(data, value)


def checksum_fn(alg: int) -> Callable[[bytes, int], int]:
    """The registered function for ``alg`` — resolve once, call in a hot
    loop without the per-call registry lookup."""
    try:
        return _FUNCTIONS[alg]
    except KeyError:
        raise ValueError(f"unknown checksum algorithm id {alg}") from None
