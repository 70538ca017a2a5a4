"""Optimised pure-Python crypto kernels (the ``fast`` engine's core).

These implement the exact same primitives as :mod:`repro.crypto.salsa20`,
:mod:`repro.crypto.aes`, :mod:`repro.crypto.gcm` and
:mod:`repro.crypto.cmac` -- byte-identical outputs, same error types --
but optimised for CPython instead of mirroring the specifications:

- **Salsa20**: multi-block messages run the 20-round core *once* for all
  blocks simultaneously, packing one 32-bit state word per block into
  64-bit lanes of a single wide Python integer (a poor man's SIMD: one
  ``+``/``^``/rotate on the wide integer advances every block at once;
  the 64-bit lane leaves headroom so per-lane 32-bit adds never carry
  across lanes).  Single blocks use a fully unrolled scalar core over
  sixteen local variables.  The plaintext/keystream XOR is one
  wide-integer operation instead of a per-byte generator.  Lanes carry
  their own key, nonce and counter, so :func:`_salsa_many` encrypts a
  batch of one-time-key messages in one pass.
- **AES-128**: each round is sixteen lookups in 256-entry byte-position
  tables, XORed on a 128-bit integer state.  The tables fuse SubBytes +
  ShiftRows + MixColumns per state-byte position (derived from the
  classic four 256-entry T-tables, pre-rotated to their output column),
  so a whole round is ``M0[b0]^M1[b1]^...^M15[b15]^rk``.  At a few
  hundred KB total they stay cache-resident under a real request mix,
  which beats wider two-byte "pair" tables (~50 MB) that thrash the
  cache on varied inputs.  They are key-independent, built lazily once
  per process, and shared by every key; the key schedule is expanded
  once per key and cached.
- **Lane AES-128** (:func:`_lane_aes`): the batch kernel.  L blocks,
  each under its own key if need be, run through one pass with the
  state held as sixteen byte planes: SubBytes and the MixColumns
  multiples are ``bytes.translate`` tables, ShiftRows and MixColumns
  are slices and row rotations, AddRoundKey is one XOR on a wide
  integer.  It serves every batch API: GCM ``seal_many``/``open_many``
  counter and J0 blocks, and CMAC chains run across messages
  (:func:`_cmac_many`) together with their one-time keys' schedules
  (:func:`_lane_schedule`) and subkeys.  Batches under
  :data:`_LANE_MIN` blocks take the scalar kernel instead.
- **GCM**: GHASH uses a per-key 256-entry multiplication table (Shoup's
  method, byte-at-a-time Horner with a shared 256-entry reduction
  table) instead of the spec's 128-iteration bit loop; CTR keystream
  blocks run on the block kernel and are XORed against the
  message with one wide-integer op.  ``seal_many``/``open_many`` batch
  whole message sets through one lane-AES pass and a grouped GHASH
  pass, byte-identical to per-message ``seal``/``open``.
- **CMAC**: the AES key schedule and the RFC 4493 subkeys are derived
  once per key and cached, and the serial CBC chain is a single
  loop over the byte tables with the whole message pre-split
  into 128-bit words.  :func:`_cmac_many` runs many messages' chains
  side by side on the lane kernel, one lane per message.

Everything stays within the Python standard library; the cross-engine
parity checks in :mod:`repro.crypto.engine` guarantee these kernels can
never silently diverge from the spec-mirroring reference code.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict, List, Tuple

from repro.crypto.aes import SBOX
from repro.crypto.gcm import GcmFailure
from repro.errors import ConfigurationError

__all__ = ["FastSalsa20", "FastAES128", "FastAesGcm", "FastCmac"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# Upper bound on lanes (blocks) per pass of the Salsa20 and AES lane
# kernels; bounds the big integers to a few KB each while keeping
# per-pass fixed costs amortised.
_LANE_BATCH = 512

# ---------------------------------------------------------------------------
# AES-128 with byte-position round tables on a 128-bit integer state
# ---------------------------------------------------------------------------


def _build_t_tables() -> Tuple[tuple, tuple, tuple, tuple]:
    """Fuse SubBytes + ShiftRows + MixColumns into four lookup tables."""
    t0, t1, t2, t3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        e = SBOX[x]
        e2 = ((e << 1) ^ 0x11B if e & 0x80 else e << 1) & 0xFF
        e3 = e2 ^ e
        t0[x] = (e2 << 24) | (e << 16) | (e << 8) | e3
        t1[x] = (e3 << 24) | (e2 << 16) | (e << 8) | e
        t2[x] = (e << 24) | (e3 << 16) | (e2 << 8) | e
        t3[x] = (e << 24) | (e << 16) | (e3 << 8) | e2
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_T0, _T1, _T2, _T3 = _build_t_tables()

# Byte-position round tables: with the state as one 128-bit integer
# (columns s0..s3 most significant first), byte position p (0 = most
# significant) contributes ``M[p][byte]`` to the next state, where
# ``M[p]`` folds SubBytes + ShiftRows + MixColumns for that position
# (derived from the classic T-tables, pre-rotated to its column's
# 32-bit slot), so one middle round is ``M0[b0]^M1[b1]^...^M15[b15]^rk``.
# The N tables do the same for the final round (SubBytes + ShiftRows
# only).  Thirty-two 256-entry tables of 128-bit integers come to a few
# hundred KB -- small enough to stay cache-resident under a real request
# mix, which on varied inputs beats wider tables that fuse two bytes
# per lookup but thrash the cache (measured ~2x per block).
_M0 = _M1 = _M2 = _M3 = _M4 = _M5 = _M6 = _M7 = None
_M8 = _M9 = _M10 = _M11 = _M12 = _M13 = _M14 = _M15 = None
_N0 = _N1 = _N2 = _N3 = _N4 = _N5 = _N6 = _N7 = None
_N8 = _N9 = _N10 = _N11 = _N12 = _N13 = _N14 = _N15 = None


def _ensure_round_tables() -> None:
    """Build the thirty-two 256-entry round tables once per process."""
    global _M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7
    global _M8, _M9, _M10, _M11, _M12, _M13, _M14, _M15
    global _N0, _N1, _N2, _N3, _N4, _N5, _N6, _N7
    global _N8, _N9, _N10, _N11, _N12, _N13, _N14, _N15
    if _M0 is not None:
        return
    t_tables = (_T0, _T1, _T2, _T3)
    s = SBOX
    # Scatter of T0..T3 (and the final round's SBOX byte) for column 0;
    # columns 1..3 are the same tables rotated right by 32 bits each.
    mid_shifts = (96, 0, 32, 64)
    fin_shifts = (120, 16, 40, 64)
    mid = []
    fin = []
    for pos in range(16):
        col, within = divmod(pos, 4)
        rot = 32 * col
        inv = 128 - rot
        t = t_tables[within]
        mshift = mid_shifts[within]
        fshift = fin_shifts[within]
        mtab = [0] * 256
        ftab = [0] * 256
        for x in range(256):
            v = t[x] << mshift
            mtab[x] = ((v >> rot) | (v << inv)) & _MASK128
            fv = s[x] << fshift
            ftab[x] = ((fv >> rot) | (fv << inv)) & _MASK128
        mid.append(tuple(mtab))
        fin.append(tuple(ftab))
    (
        _M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7,
        _M8, _M9, _M10, _M11, _M12, _M13, _M14, _M15,
    ) = mid
    (
        _N0, _N1, _N2, _N3, _N4, _N5, _N6, _N7,
        _N8, _N9, _N10, _N11, _N12, _N13, _N14, _N15,
    ) = fin


# Prebound callable for the hot block loops: skips the bound-method
# creation on every round.
_TOB = int.to_bytes

_RCON_WORDS = (
    0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
    0x20000000, 0x40000000, 0x80000000, 0x1B000000, 0x36000000,
)

# Key schedules are tiny (44 ints); cache them so re-keying a session
# cipher or re-MACing under the same key never re-expands.
_SCHEDULE_CACHE: dict = {}
_SCHEDULE_CACHE_MAX = 1024
_SCHEDULE128_CACHE: Dict[bytes, tuple] = {}


def _expand_key_words(key: bytes) -> List[int]:
    """FIPS-197 key expansion to 44 big-endian 32-bit words."""
    cached = _SCHEDULE_CACHE.get(key)
    if cached is not None:
        return cached
    s = SBOX
    w = list(struct.unpack(">4I", key))
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            # RotWord + SubWord + Rcon, on a 32-bit word.
            t = (
                (s[(t >> 16) & 0xFF] << 24)
                | (s[(t >> 8) & 0xFF] << 16)
                | (s[t & 0xFF] << 8)
                | s[(t >> 24) & 0xFF]
            ) ^ _RCON_WORDS[i // 4 - 1]
        w.append(w[i - 4] ^ t)
    if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
        _SCHEDULE_CACHE.clear()
    _SCHEDULE_CACHE[key] = w
    return w


def _expand_key_128(key: bytes) -> tuple:
    """The key schedule as eleven 128-bit round-key integers."""
    cached = _SCHEDULE128_CACHE.get(key)
    if cached is not None:
        return cached
    w = _expand_key_words(key)
    rk = tuple(
        (w[4 * r] << 96) | (w[4 * r + 1] << 64) | (w[4 * r + 2] << 32) | w[4 * r + 3]
        for r in range(11)
    )
    if len(_SCHEDULE128_CACHE) >= _SCHEDULE_CACHE_MAX:
        _SCHEDULE128_CACHE.clear()
    _SCHEDULE128_CACHE[key] = rk
    return rk


def _encrypt_int(rk: tuple, st: int) -> int:
    """One AES-128 block on a 128-bit integer state (``st`` is the raw
    plaintext block; this applies the ``rk[0]`` whitening itself)."""
    tb = _TOB
    st ^= rk[0]
    for r in rk[1:10]:
        w = tb(st, 16, "big")
        st = (
            _M0[w[0]] ^ _M1[w[1]] ^ _M2[w[2]] ^ _M3[w[3]]
            ^ _M4[w[4]] ^ _M5[w[5]] ^ _M6[w[6]] ^ _M7[w[7]]
            ^ _M8[w[8]] ^ _M9[w[9]] ^ _M10[w[10]] ^ _M11[w[11]]
            ^ _M12[w[12]] ^ _M13[w[13]] ^ _M14[w[14]] ^ _M15[w[15]]
            ^ r
        )
    w = tb(st, 16, "big")
    return (
        _N0[w[0]] ^ _N1[w[1]] ^ _N2[w[2]] ^ _N3[w[3]]
        ^ _N4[w[4]] ^ _N5[w[5]] ^ _N6[w[6]] ^ _N7[w[7]]
        ^ _N8[w[8]] ^ _N9[w[9]] ^ _N10[w[10]] ^ _N11[w[11]]
        ^ _N12[w[12]] ^ _N13[w[13]] ^ _N14[w[14]] ^ _N15[w[15]]
        ^ rk[10]
    )


def _cbc_chain(rk: tuple, message: bytes, x: int = 0) -> int:
    """CBC-MAC chain over a block-aligned ``message``, fully unrolled.

    Returns the running 128-bit CBC state after absorbing every 16-byte
    block of ``message`` (which must be a multiple of 16 bytes long).
    This is the serial hot loop of CMAC: everything -- round keys, the
    thirty-two byte tables, the message as pre-combined 128-bit words --
    is a local.
    """
    tb = _TOB
    m0, m1, m2, m3 = _M0, _M1, _M2, _M3
    m4, m5, m6, m7 = _M4, _M5, _M6, _M7
    m8, m9, m10, m11 = _M8, _M9, _M10, _M11
    m12, m13, m14, m15 = _M12, _M13, _M14, _M15
    n0, n1, n2, n3 = _N0, _N1, _N2, _N3
    n4, n5, n6, n7 = _N4, _N5, _N6, _N7
    n8, n9, n10, n11 = _N8, _N9, _N10, _N11
    n12, n13, n14, n15 = _N12, _N13, _N14, _N15
    rk0 = rk[0]
    rounds = rk[1:10]
    # Folding rk0 into the final-round key keeps the chain whitened for
    # the next block without a separate XOR per block.
    r10_0 = rk[10] ^ rk0
    nb = len(message) // 16
    it = iter(struct.unpack(">%dQ" % (2 * nb), message))
    mwords = [(a << 64) | b for a, b in zip(it, it)]
    x ^= rk0
    for m in mwords:
        st = x ^ m
        for r in rounds:
            w = tb(st, 16, "big")
            st = (
                m0[w[0]] ^ m1[w[1]] ^ m2[w[2]] ^ m3[w[3]]
                ^ m4[w[4]] ^ m5[w[5]] ^ m6[w[6]] ^ m7[w[7]]
                ^ m8[w[8]] ^ m9[w[9]] ^ m10[w[10]] ^ m11[w[11]]
                ^ m12[w[12]] ^ m13[w[13]] ^ m14[w[14]] ^ m15[w[15]]
                ^ r
            )
        w = tb(st, 16, "big")
        x = (
            n0[w[0]] ^ n1[w[1]] ^ n2[w[2]] ^ n3[w[3]]
            ^ n4[w[4]] ^ n5[w[5]] ^ n6[w[6]] ^ n7[w[7]]
            ^ n8[w[8]] ^ n9[w[9]] ^ n10[w[10]] ^ n11[w[11]]
            ^ n12[w[12]] ^ n13[w[13]] ^ n14[w[14]] ^ n15[w[15]]
            ^ r10_0
        )
    return x ^ rk0


# ---------------------------------------------------------------------------
# Lane AES-128: one pass encrypts L independent blocks, each under its own key
# ---------------------------------------------------------------------------
#
# The state of L blocks is sixteen *planes*: plane q = 4*row + col holds
# state byte (row, col) -- block byte 4*col + row -- of every lane, L
# bytes each, and the sixteen planes concatenated form one 16L-byte
# string (or one big-endian integer, for XOR).  Row r is then the
# contiguous 4L-byte run of planes 4r..4r+3, so
#
# - SubBytes is one ``bytes.translate`` over the whole state, and the
#   MixColumns multiples 2*S(x) and 3*S(x) are two more translate tables;
# - ShiftRows rotates row r left by r planes: seven slices;
# - MixColumns is ``2*a[i] ^ 3*a[i+1] ^ a[i+2] ^ a[i+3]`` per row i, i.e.
#   the 2*S state XOR three whole-state *row rotations* of the 3*S and
#   S states -- slices of the state concatenated with itself;
# - AddRoundKey XORs a round-key integer in the same plane layout, so
#   every lane may carry its own key (one-time CMAC keys) or all lanes
#   share one (a broadcast session key).
#
# A round is ~25 C-level operations whatever L is, against sixteen
# table lookups per block per round in the scalar kernel.


def _xtime(b: int) -> int:
    """Multiply a byte by x (i.e. 2) in AES's GF(2^8)."""
    return ((b << 1) ^ 0x11B) if b & 0x80 else b << 1


_SUB = bytes(SBOX)
_SUB2 = bytes(_xtime(s) for s in SBOX)
_SUB3 = bytes(_xtime(s) ^ s for s in SBOX)

#: Block byte held by each plane, in plane order (row-major).
_PLANE_BYTES = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)

_RCON_BYTES = tuple(w >> 24 for w in _RCON_WORDS)

#: Fewest blocks worth a lane pass.  Below it the scalar block kernel
#: (:func:`_encrypt_int`) is faster: a lane pass over a few blocks costs
#: about three scalar blocks on CPython 3.11 (x86-64), so the lanes win
#: from 4 blocks on (measurements in ``docs/PERFORMANCE.md``).
_LANE_MIN = 4


def _to_planes(blocks: bytes, stride: int = 16, offset: int = 0) -> bytes:
    """Transpose lane-major blocks (``stride`` bytes apart) into planes."""
    return b"".join([blocks[offset + k :: stride] for k in _PLANE_BYTES])


def _from_planes(value: int, lanes: int) -> bytearray:
    """Transpose a plane-layout integer back into lane-major 16-byte blocks."""
    planes = value.to_bytes(16 * lanes, "big")
    out = bytearray(16 * lanes)
    start = 0
    for k in _PLANE_BYTES:
        end = start + lanes
        out[k::16] = planes[start:end]
        start = end
    return out


def _broadcast_tables(rk: tuple) -> tuple:
    """Per round key, the 256-byte table that maps plane index -> key byte."""
    pad = bytes(240)
    tables = []
    for r in rk:
        raw = r.to_bytes(16, "big")
        tables.append(bytes([raw[k] for k in _PLANE_BYTES]) + pad)
    return tuple(tables)


@functools.lru_cache(maxsize=16)
def _broadcast_keys(tables: tuple, lanes: int) -> tuple:
    """One shared key schedule as plane-layout round keys for ``lanes``.

    Plane q of the pattern is ``lanes`` copies of the byte q, so
    translating it through a round key's table broadcasts that key to
    every lane.  Cached: a session key meets the same few lane counts
    again and again (4 or 5 blocks for a one-frame drain cycle, a fixed
    window's worth for ``put_many``), and the broadcast is about a fifth
    of a small pass.  Sixteen entries hold at most 1.4 MiB.
    """
    pattern = b"".join([bytes((q,)) * lanes for q in range(16)])
    fb = int.from_bytes
    return tuple([fb(pattern.translate(t), "big") for t in tables])


def _lane_schedule(key: int, lanes: int) -> list:
    """FIPS-197 key expansion of ``lanes`` keys at once.

    ``key`` is the plane-layout integer of the lanes' 16-byte keys;
    returns the eleven plane-layout round keys.  Per round: RotWord +
    SubWord of every row's last column is one row rotation and one
    translate, the word recurrence ``w[i] = w[i-4] ^ w[i-1]`` is a
    prefix XOR along each row (two shift-and-mask steps), and the
    rotated word is spread over the row's four columns by two more.
    """
    n = 16 * lanes
    R = 4 * lanes
    col = 8 * lanes
    col2 = 2 * col
    fb = int.from_bytes
    # Byte masks by column (each pattern repeats in all four rows).
    last_col = fb((bytes(3 * lanes) + b"\xff" * lanes) * 4, "big")
    not_first = fb((bytes(lanes) + b"\xff" * (3 * lanes)) * 4, "big")
    last_two = fb((bytes(2 * lanes) + b"\xff" * (2 * lanes)) * 4, "big")
    row0 = fb(b"\x01" * R + bytes(3 * R), "big")
    sub = _SUB
    rks = [key]
    for rcon in _RCON_BYTES:
        p = key.to_bytes(n, "big")
        # Row r takes the last column of row r+1 (RotWord), S-boxed.
        t = fb((p + p)[R : R + n].translate(sub), "big") & last_col
        t |= t << col
        t = t ^ (t << col2) ^ rcon * row0
        key ^= (key >> col) & not_first
        key ^= ((key >> col2) & last_two) ^ t
        rks.append(key)
    return rks


def _lane_aes(x: int, rks, lanes: int) -> int:
    """AES-128 of ``lanes`` blocks in plane layout under plane round keys."""
    n = 16 * lanes
    L = lanes
    R = 4 * L
    # ShiftRows slice bounds: row r rotates left by r planes (r*L bytes).
    a1, b1, c1 = R, R + L, 2 * R
    a2, b2, c2 = 2 * R, 2 * R + 2 * L, 3 * R
    a3, b3 = 3 * R, 3 * R + 3 * L
    r1, r2, r3 = R, 2 * R, 3 * R
    e1, e2, e3 = R + n, 2 * R + n, 3 * R + n
    fb = int.from_bytes
    sub, sub2, sub3 = _SUB, _SUB2, _SUB3
    x ^= rks[0]
    for rk in rks[1:10]:
        p = x.to_bytes(n, "big")
        y = b"".join(
            (p[:a1], p[b1:c1], p[a1:b1], p[b2:c2], p[a2:b2], p[b3:], p[a3:b3])
        )
        yy = y + y
        t1 = yy.translate(sub)
        x = (
            fb(y.translate(sub2), "big")
            ^ fb(yy[r1:e1].translate(sub3), "big")
            ^ fb(t1[r2:e2], "big")
            ^ fb(t1[r3:e3], "big")
            ^ rk
        )
    p = x.to_bytes(n, "big")
    y = b"".join(
        (p[:a1], p[b1:c1], p[a1:b1], p[b2:c2], p[a2:b2], p[b3:], p[a3:b3])
    )
    return fb(y.translate(sub), "big") ^ rks[10]


def _aes_blocks(rk: tuple, tables: tuple, blocks: bytes) -> bytes:
    """AES-128 under one key over lane-major 16-byte ``blocks``.

    Batches of at least :data:`_LANE_MIN` blocks run through the lane
    kernel (at most :data:`_LANE_BATCH` lanes per pass, which bounds the
    working set); smaller ones through the scalar block kernel.
    ``tables`` is :func:`_broadcast_tables` of ``rk``.
    """
    count = len(blocks) // 16
    fb = int.from_bytes
    if count < _LANE_MIN:
        enc = _encrypt_int
        return b"".join(
            [
                enc(rk, fb(blocks[i : i + 16], "big")).to_bytes(16, "big")
                for i in range(0, 16 * count, 16)
            ]
        )
    pieces = []
    for start in range(0, count, _LANE_BATCH):
        lanes = min(count - start, _LANE_BATCH)
        chunk = blocks[16 * start : 16 * (start + lanes)]
        x = _lane_aes(
            fb(_to_planes(chunk), "big"), _broadcast_keys(tables, lanes), lanes
        )
        pieces.append(_from_planes(x, lanes))
    return b"".join(pieces)


def _plane_prefix(value: int, lanes: int, keep: int) -> int:
    """The first ``keep`` lanes of a plane-layout integer of ``lanes``."""
    p = value.to_bytes(16 * lanes, "big")
    return int.from_bytes(
        b"".join([p[q : q + keep] for q in range(0, 16 * lanes, lanes)]), "big"
    )


class FastAES128:
    """Byte-position-table AES-128 forward cipher; drop-in for :class:`AES128`."""

    BLOCK_SIZE = 16
    KEY_SIZE = 16
    ROUNDS = 10

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise ConfigurationError(
                f"AES-128 key must be 16 bytes, got {len(key)}"
            )
        _ensure_round_tables()
        self._rk = _expand_key_128(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ConfigurationError(
                f"block must be 16 bytes, got {len(block)}"
            )
        return _encrypt_int(self._rk, int.from_bytes(block, "big")).to_bytes(
            16, "big"
        )


# ---------------------------------------------------------------------------
# GCM with table-driven GHASH
# ---------------------------------------------------------------------------

_R_POLY = 0xE1000000000000000000000000000000


def _mulx(v: int) -> int:
    """Multiply by the formal variable in GCM's bit-reflected basis."""
    return (v >> 1) ^ _R_POLY if v & 1 else v >> 1


def _build_reduction_table() -> tuple:
    """Key-independent table: ``R[b]`` = ``b`` shifted out by 8 bits,
    folded back through the GHASH reduction polynomial."""
    table = [0] * 256
    for b in range(256):
        v = b
        for _ in range(8):
            v = (v >> 1) ^ _R_POLY if v & 1 else v >> 1
        table[b] = v
    return tuple(table)


_RED8 = _build_reduction_table()


def _build_ghash_table(h: int) -> tuple:
    """Per-key table ``T[b]`` = (byte ``b`` as an 8-term polynomial) x H."""
    table = [0] * 256
    v = h
    table[0x80] = v
    for bit in (0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01):
        v = (v >> 1) ^ _R_POLY if v & 1 else v >> 1
        table[bit] = v
    for i in range(2, 256):
        if i & (i - 1):  # not a single bit: combine linearly
            lsb = i & -i
            table[i] = table[lsb] ^ table[i ^ lsb]
    return tuple(table)


def _counter_blocks(iv: bytes, nblocks: int) -> bytes:
    """J0 (counter 1) then the ``nblocks`` CTR counter blocks (2, 3, ...)."""
    return iv + iv.join([struct.pack(">I", c) for c in range(1, nblocks + 2)])


class FastAesGcm:
    """AES-128-GCM, byte-compatible with :class:`repro.crypto.gcm.AesGcm`.

    The AES key schedule, the hash subkey H and the 256-entry GHASH
    multiplication table are all derived once at construction time, so a
    cached instance amortises every per-message key-setup cost the
    reference implementation pays on each seal/open.
    """

    IV_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes):
        self._aes = FastAES128(key)
        self._tables = _broadcast_tables(self._aes._rk)
        h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._table = _build_ghash_table(h)

    def _ghash(self, data: bytes) -> int:
        table = self._table
        red = _RED8
        y = 0
        for i in range(0, len(data), 16):
            block = data[i : i + 16]
            if len(block) < 16:
                block = block + b"\x00" * (16 - len(block))
            w = (y ^ int.from_bytes(block, "big")).to_bytes(16, "big")
            # Horner over the 16 bytes, most significant last.
            z = table[w[15]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[14]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[13]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[12]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[11]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[10]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[9]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[8]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[7]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[6]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[5]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[4]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[3]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[2]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[1]]
            z = (z >> 8) ^ red[z & 255] ^ table[w[0]]
            y = z
        return y

    def _ctr(self, iv: bytes, data: bytes, start_counter: int = 2) -> bytes:
        n = len(data)
        if n == 0:
            return b""
        rk = self._aes._rk
        enc = _encrypt_int
        base = (int.from_bytes(iv, "big") << 32) | start_counter
        keystream = b"".join(
            enc(rk, base + i).to_bytes(16, "big")
            for i in range((n + 15) // 16)
        )[:n]
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
        ).to_bytes(n, "big")

    def _tag(self, iv: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        pad_a = (-len(aad)) % 16
        pad_c = (-len(ciphertext)) % 16
        digest = self._ghash(
            aad
            + b"\x00" * pad_a
            + ciphertext
            + b"\x00" * pad_c
            + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        )
        ek_j0 = int.from_bytes(
            self._aes.encrypt_block(iv + b"\x00\x00\x00\x01"), "big"
        )
        return (digest ^ ek_j0).to_bytes(16, "big")

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(iv) != self.IV_SIZE:
            raise ConfigurationError(
                f"IV must be {self.IV_SIZE} bytes, got {len(iv)}"
            )
        ciphertext = self._ctr(iv, plaintext)
        return ciphertext + self._tag(iv, aad, ciphertext)

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || tag``; raises on tampering."""
        if len(iv) != self.IV_SIZE:
            raise ConfigurationError(
                f"IV must be {self.IV_SIZE} bytes, got {len(iv)}"
            )
        if len(sealed) < self.TAG_SIZE:
            raise GcmFailure("message shorter than the authentication tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        expected = self._tag(iv, aad, ciphertext)
        # Constant-time comparison: accumulate differences before deciding.
        diff = 0
        for a, b in zip(expected, tag):
            diff |= a ^ b
        if diff != 0:
            raise GcmFailure("authentication tag mismatch")
        return self._ctr(iv, ciphertext)

    def seal_many(self, items) -> list:
        """Seal a batch of ``(iv, plaintext, aad)`` triples, in order.

        Phase-grouped kernel: every AES block of the batch -- each
        message's J0 tag mask and CTR counter blocks -- runs through one
        lane-AES pass (:func:`_aes_blocks`), then the tag pass runs while
        the GHASH table is hot.  Nothing about the per-message math
        changes: outputs are byte-identical to calling :meth:`seal` once
        per item.
        """
        iv_size = self.IV_SIZE
        runs = []
        metas = []
        for iv, plaintext, aad in items:
            if len(iv) != iv_size:
                raise ConfigurationError(
                    f"IV must be {iv_size} bytes, got {len(iv)}"
                )
            n = len(plaintext)
            nblocks = (n + 15) // 16
            runs.append(_counter_blocks(iv, nblocks))
            metas.append((aad, plaintext, n, nblocks))
        # Lane-major output: per message, E_K(J0) then its keystream.
        blocks = _aes_blocks(self._aes._rk, self._tables, b"".join(runs))
        fb = int.from_bytes
        staged = []
        pos = 0
        for aad, plaintext, n, nblocks in metas:
            if n:
                ks = blocks[pos + 16 : pos + 16 + n]
                ciphertext = (
                    fb(plaintext, "big") ^ fb(ks, "big")
                ).to_bytes(n, "big")
            else:
                ciphertext = b""
            staged.append((aad, ciphertext, fb(blocks[pos : pos + 16], "big")))
            pos += 16 * (nblocks + 1)
        # Phase 2: all tags while the GHASH table is hot.
        ghash = self._ghash
        pack = struct.pack
        return [
            ciphertext
            + (
                ghash(
                    aad
                    + b"\x00" * ((-len(aad)) % 16)
                    + ciphertext
                    + b"\x00" * ((-len(ciphertext)) % 16)
                    + pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
                )
                ^ ek_j0
            ).to_bytes(16, "big")
            for aad, ciphertext, ek_j0 in staged
        ]

    def open_many(self, items) -> list:
        """Open a batch of ``(iv, sealed, aad)`` triples, in order.

        Phase-grouped like :meth:`seal_many`: one lane-AES pass, then
        every tag is verified while the GHASH table is hot and the
        survivors decrypt from the already-computed keystream.  Returns
        the plaintext per entry, or ``None`` where authentication failed
        -- a tampered message never poisons its batch-mates.
        """
        iv_size = self.IV_SIZE
        tag_size = self.TAG_SIZE
        # Keystream computed for a message that then fails
        # authentication is simply discarded -- unauthenticated plaintext
        # is never materialised, and on the fault-free fast path every
        # block is needed anyway.
        entries = []
        runs = []
        for iv, sealed, aad in items:
            if len(iv) != iv_size:
                raise ConfigurationError(
                    f"IV must be {iv_size} bytes, got {len(iv)}"
                )
            if len(sealed) < tag_size:
                entries.append(None)
                continue
            ciphertext = sealed[:-tag_size]
            n = len(ciphertext)
            nblocks = (n + 15) // 16
            runs.append(_counter_blocks(iv, nblocks))
            entries.append((ciphertext, sealed[-tag_size:], aad, n, nblocks))
        blocks = _aes_blocks(self._aes._rk, self._tables, b"".join(runs))
        fb = int.from_bytes
        ghash = self._ghash
        pack = struct.pack
        out = []
        pos = 0
        for entry in entries:
            if entry is None:
                out.append(None)
                continue
            ciphertext, tag, aad, n, nblocks = entry
            ek_j0 = fb(blocks[pos : pos + 16], "big")
            expected = (
                ghash(
                    aad
                    + b"\x00" * ((-len(aad)) % 16)
                    + ciphertext
                    + b"\x00" * ((-len(ciphertext)) % 16)
                    + pack(">QQ", len(aad) * 8, n * 8)
                )
                ^ ek_j0
            ).to_bytes(16, "big")
            # Constant-time comparison, same as the scalar path.
            diff = 0
            for a, b in zip(expected, tag):
                diff |= a ^ b
            if diff != 0:
                out.append(None)
            elif n:
                ks = blocks[pos + 16 : pos + 16 + n]
                out.append(
                    (fb(ciphertext, "big") ^ fb(ks, "big")).to_bytes(n, "big")
                )
            else:
                out.append(b"")
            pos += 16 * (nblocks + 1)
        return out


# ---------------------------------------------------------------------------
# Salsa20 with 64-bit lanes: one wide integer advances every block at once
# ---------------------------------------------------------------------------

_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_TAU = (0x61707865, 0x3120646E, 0x79622D36, 0x6B206574)

# Per-lane-count constants for the wide-integer core: _ONES broadcasts a
# scalar to every 64-bit lane by multiplication; _RAMP is 0,1,2,... in
# successive lanes (sequential block counters).  Keyed by lane count.
_ONES: Dict[int, int] = {}
_RAMPS: Dict[int, int] = {}


def _salsa_state(key: bytes, nonce: bytes) -> tuple:
    """The sixteen-word initial state (spec layout, counter words 0)."""
    if len(key) not in FastSalsa20.KEY_SIZES:
        raise ConfigurationError(f"key must be 16 or 32 bytes, got {len(key)}")
    if len(nonce) != FastSalsa20.NONCE_SIZE:
        raise ConfigurationError(
            f"nonce must be {FastSalsa20.NONCE_SIZE} bytes, got {len(nonce)}"
        )
    if len(key) == 32:
        k0 = struct.unpack("<4I", key[:16])
        k1 = struct.unpack("<4I", key[16:])
        const = _SIGMA
    else:
        k0 = struct.unpack("<4I", key)
        k1 = k0
        const = _TAU
    n0, n1 = struct.unpack("<2I", nonce)
    # Positions 8/9 take the block counter.
    return (
        const[0], k0[0], k0[1], k0[2],
        k0[3], const[1], n0, n1,
        0, 0, const[2], k1[0],
        k1[1], k1[2], k1[3], const[3],
    )


def _lane_blocks(words, lanes: int) -> bytes:
    """``lanes`` 64-byte Salsa20 blocks via the wide-integer core.

    ``words`` are the sixteen initial state words as wide integers, with
    word ``w`` of block ``b`` in 64-bit lane ``b`` -- so every lane may
    carry its own key, nonce and counter (one-time payload keys share a
    pass).  32-bit adds cannot carry past bit 33, so lanes never
    interfere; one add/xor/rotate on the wide integer is one SIMD
    instruction across every block.  Returns the blocks in lane order.
    """
    M = _MASK32 * _lane_ones(lanes)
    (s0, s1, s2, s3, s4, s5, s6, s7,
     s8, s9, s10, s11, s12, s13, s14, s15) = words
    x0, x1, x2, x3 = s0, s1, s2, s3
    x4, x5, x6, x7 = s4, s5, s6, s7
    x8, x9, x10, x11 = s8, s9, s10, s11
    x12, x13, x14, x15 = s12, s13, s14, s15
    for _ in range(10):
        # columnround
        t = (x0 + x12) & M; x4 ^= ((t << 7) | (t >> 25)) & M
        t = (x4 + x0) & M; x8 ^= ((t << 9) | (t >> 23)) & M
        t = (x8 + x4) & M; x12 ^= ((t << 13) | (t >> 19)) & M
        t = (x12 + x8) & M; x0 ^= ((t << 18) | (t >> 14)) & M
        t = (x5 + x1) & M; x9 ^= ((t << 7) | (t >> 25)) & M
        t = (x9 + x5) & M; x13 ^= ((t << 9) | (t >> 23)) & M
        t = (x13 + x9) & M; x1 ^= ((t << 13) | (t >> 19)) & M
        t = (x1 + x13) & M; x5 ^= ((t << 18) | (t >> 14)) & M
        t = (x10 + x6) & M; x14 ^= ((t << 7) | (t >> 25)) & M
        t = (x14 + x10) & M; x2 ^= ((t << 9) | (t >> 23)) & M
        t = (x2 + x14) & M; x6 ^= ((t << 13) | (t >> 19)) & M
        t = (x6 + x2) & M; x10 ^= ((t << 18) | (t >> 14)) & M
        t = (x15 + x11) & M; x3 ^= ((t << 7) | (t >> 25)) & M
        t = (x3 + x15) & M; x7 ^= ((t << 9) | (t >> 23)) & M
        t = (x7 + x3) & M; x11 ^= ((t << 13) | (t >> 19)) & M
        t = (x11 + x7) & M; x15 ^= ((t << 18) | (t >> 14)) & M
        # rowround
        t = (x0 + x3) & M; x1 ^= ((t << 7) | (t >> 25)) & M
        t = (x1 + x0) & M; x2 ^= ((t << 9) | (t >> 23)) & M
        t = (x2 + x1) & M; x3 ^= ((t << 13) | (t >> 19)) & M
        t = (x3 + x2) & M; x0 ^= ((t << 18) | (t >> 14)) & M
        t = (x5 + x4) & M; x6 ^= ((t << 7) | (t >> 25)) & M
        t = (x6 + x5) & M; x7 ^= ((t << 9) | (t >> 23)) & M
        t = (x7 + x6) & M; x4 ^= ((t << 13) | (t >> 19)) & M
        t = (x4 + x7) & M; x5 ^= ((t << 18) | (t >> 14)) & M
        t = (x10 + x9) & M; x11 ^= ((t << 7) | (t >> 25)) & M
        t = (x11 + x10) & M; x8 ^= ((t << 9) | (t >> 23)) & M
        t = (x8 + x11) & M; x9 ^= ((t << 13) | (t >> 19)) & M
        t = (x9 + x8) & M; x10 ^= ((t << 18) | (t >> 14)) & M
        t = (x15 + x14) & M; x12 ^= ((t << 7) | (t >> 25)) & M
        t = (x12 + x15) & M; x13 ^= ((t << 9) | (t >> 23)) & M
        t = (x13 + x12) & M; x14 ^= ((t << 13) | (t >> 19)) & M
        t = (x14 + x13) & M; x15 ^= ((t << 18) | (t >> 14)) & M
    # Feedforward, then pack adjacent word pairs so every 64-bit lane
    # holds 8 consecutive output bytes of its block.
    p0 = ((x0 + s0) & M) | (((x1 + s1) & M) << 32)
    p1 = ((x2 + s2) & M) | (((x3 + s3) & M) << 32)
    p2 = ((x4 + s4) & M) | (((x5 + s5) & M) << 32)
    p3 = ((x6 + s6) & M) | (((x7 + s7) & M) << 32)
    p4 = ((x8 + s8) & M) | (((x9 + s9) & M) << 32)
    p5 = ((x10 + s10) & M) | (((x11 + s11) & M) << 32)
    p6 = ((x12 + s12) & M) | (((x13 + s13) & M) << 32)
    p7 = ((x14 + s14) & M) | (((x15 + s15) & M) << 32)
    # Transpose the 8 x lanes matrix of 8-byte cells into per-block
    # order: unpack each register into per-lane 64-bit words, then
    # re-pack interleaved (struct does the byte shuffling in C).
    fmt = "<%dQ" % lanes
    unpack = struct.unpack
    flat = [
        v
        for tup in zip(
            unpack(fmt, p0.to_bytes(8 * lanes, "little")),
            unpack(fmt, p1.to_bytes(8 * lanes, "little")),
            unpack(fmt, p2.to_bytes(8 * lanes, "little")),
            unpack(fmt, p3.to_bytes(8 * lanes, "little")),
            unpack(fmt, p4.to_bytes(8 * lanes, "little")),
            unpack(fmt, p5.to_bytes(8 * lanes, "little")),
            unpack(fmt, p6.to_bytes(8 * lanes, "little")),
            unpack(fmt, p7.to_bytes(8 * lanes, "little")),
        )
        for v in tup
    ]
    return struct.pack("<%dQ" % (8 * lanes), *flat)


def _salsa_many(items) -> list:
    """Salsa20 over ``(key, nonce, data)`` triples from block counter 0.

    Every 64-byte block of every message becomes one lane, carrying its
    message's key, nonce and block counter, so a window of one-time-key
    payloads runs the 20-round core once per :data:`_LANE_BATCH` blocks
    instead of once per message.  A batch of a single block takes the
    scalar core, as :meth:`FastSalsa20.keystream` does.
    """
    items = list(items)
    lane_states: list = []
    counters: list = []
    for key, nonce, data in items:
        nblocks = (len(data) + 63) // 64
        lane_states += [_salsa_state(key, nonce)] * nblocks
        counters += range(nblocks)
    total = len(lane_states)
    if total < 2:
        return [FastSalsa20(k, n).encrypt(d) for k, n, d in items]
    pack = struct.pack
    fb = int.from_bytes
    pieces = []
    for start in range(0, total, _LANE_BATCH):
        lanes = min(total - start, _LANE_BATCH)
        fmt = "<%dQ" % lanes
        columns = list(zip(*lane_states[start : start + lanes]))
        # Counters start at 0 per message, so the high word stays 0.
        columns[8] = counters[start : start + lanes]
        pieces.append(
            _lane_blocks([fb(pack(fmt, *c), "little") for c in columns], lanes)
        )
    stream = b"".join(pieces)
    out = []
    pos = 0
    for _key, _nonce, data in items:
        n = len(data)
        ks = fb(stream[pos : pos + n], "little")
        out.append((fb(data, "little") ^ ks).to_bytes(n, "little"))
        pos += 64 * ((n + 63) // 64)
    return out


def _lane_ones(lanes: int) -> int:
    """``1`` in each 64-bit lane (broadcast multiplier)."""
    v = _ONES.get(lanes)
    if v is None:
        v = _ONES[lanes] = int.from_bytes(
            b"\x01\x00\x00\x00\x00\x00\x00\x00" * lanes, "little"
        )
    return v


def _lane_ramp(lanes: int) -> int:
    """``0, 1, 2, ...`` in successive 64-bit lanes."""
    v = _RAMPS.get(lanes)
    if v is None:
        acc = 0
        for b in range(lanes):
            acc |= b << (64 * b)
        v = _RAMPS[lanes] = acc
    return v


class FastSalsa20:
    """Salsa20 stream cipher, drop-in for :class:`repro.crypto.salsa20.Salsa20`.

    Multi-block keystream requests pack one 32-bit state word per block
    into the 64-bit lanes of a single wide integer and run the 20-round
    core once for every block simultaneously; single blocks use a fully
    unrolled scalar core.  ``encrypt`` XORs plaintext and keystream as
    two big integers.
    """

    NONCE_SIZE = 8
    KEY_SIZES = (16, 32)

    def __init__(self, key: bytes, nonce: bytes):
        self._state = _salsa_state(key, nonce)

    def _scalar_block(self, counter: int) -> bytes:
        """One 64-byte keystream block via the unrolled scalar core."""
        M = _MASK32
        (s0, s1, s2, s3, s4, s5, s6, s7,
         _, _, s10, s11, s12, s13, s14, s15) = self._state
        s8 = counter & M
        s9 = (counter >> 32) & M
        x0, x1, x2, x3 = s0, s1, s2, s3
        x4, x5, x6, x7 = s4, s5, s6, s7
        x8, x9, x10, x11 = s8, s9, s10, s11
        x12, x13, x14, x15 = s12, s13, s14, s15
        for _ in range(10):
            # columnround
            t = (x0 + x12) & M; x4 ^= ((t << 7) | (t >> 25)) & M
            t = (x4 + x0) & M; x8 ^= ((t << 9) | (t >> 23)) & M
            t = (x8 + x4) & M; x12 ^= ((t << 13) | (t >> 19)) & M
            t = (x12 + x8) & M; x0 ^= ((t << 18) | (t >> 14)) & M
            t = (x5 + x1) & M; x9 ^= ((t << 7) | (t >> 25)) & M
            t = (x9 + x5) & M; x13 ^= ((t << 9) | (t >> 23)) & M
            t = (x13 + x9) & M; x1 ^= ((t << 13) | (t >> 19)) & M
            t = (x1 + x13) & M; x5 ^= ((t << 18) | (t >> 14)) & M
            t = (x10 + x6) & M; x14 ^= ((t << 7) | (t >> 25)) & M
            t = (x14 + x10) & M; x2 ^= ((t << 9) | (t >> 23)) & M
            t = (x2 + x14) & M; x6 ^= ((t << 13) | (t >> 19)) & M
            t = (x6 + x2) & M; x10 ^= ((t << 18) | (t >> 14)) & M
            t = (x15 + x11) & M; x3 ^= ((t << 7) | (t >> 25)) & M
            t = (x3 + x15) & M; x7 ^= ((t << 9) | (t >> 23)) & M
            t = (x7 + x3) & M; x11 ^= ((t << 13) | (t >> 19)) & M
            t = (x11 + x7) & M; x15 ^= ((t << 18) | (t >> 14)) & M
            # rowround
            t = (x0 + x3) & M; x1 ^= ((t << 7) | (t >> 25)) & M
            t = (x1 + x0) & M; x2 ^= ((t << 9) | (t >> 23)) & M
            t = (x2 + x1) & M; x3 ^= ((t << 13) | (t >> 19)) & M
            t = (x3 + x2) & M; x0 ^= ((t << 18) | (t >> 14)) & M
            t = (x5 + x4) & M; x6 ^= ((t << 7) | (t >> 25)) & M
            t = (x6 + x5) & M; x7 ^= ((t << 9) | (t >> 23)) & M
            t = (x7 + x6) & M; x4 ^= ((t << 13) | (t >> 19)) & M
            t = (x4 + x7) & M; x5 ^= ((t << 18) | (t >> 14)) & M
            t = (x10 + x9) & M; x11 ^= ((t << 7) | (t >> 25)) & M
            t = (x11 + x10) & M; x8 ^= ((t << 9) | (t >> 23)) & M
            t = (x8 + x11) & M; x9 ^= ((t << 13) | (t >> 19)) & M
            t = (x9 + x8) & M; x10 ^= ((t << 18) | (t >> 14)) & M
            t = (x15 + x14) & M; x12 ^= ((t << 7) | (t >> 25)) & M
            t = (x12 + x15) & M; x13 ^= ((t << 9) | (t >> 23)) & M
            t = (x13 + x12) & M; x14 ^= ((t << 13) | (t >> 19)) & M
            t = (x14 + x13) & M; x15 ^= ((t << 18) | (t >> 14)) & M
        return struct.pack(
            "<16I",
            (x0 + s0) & M, (x1 + s1) & M, (x2 + s2) & M, (x3 + s3) & M,
            (x4 + s4) & M, (x5 + s5) & M, (x6 + s6) & M, (x7 + s7) & M,
            (x8 + s8) & M, (x9 + s9) & M, (x10 + s10) & M, (x11 + s11) & M,
            (x12 + s12) & M, (x13 + s13) & M, (x14 + s14) & M, (x15 + s15) & M,
        )

    def _lane_words(self, counter: int, lanes: int) -> list:
        """Lane words for ``lanes`` consecutive blocks from ``counter``:
        this key and nonce broadcast to every lane, sequential counters."""
        M32 = _MASK32
        B = _lane_ones(lanes)
        words = [w * B for w in self._state]
        if counter + lanes <= (1 << 32):
            # Sequential counters all share a zero high word.
            words[8] = counter * B + _lane_ramp(lanes)
        else:
            s8 = 0
            s9 = 0
            for b in range(lanes):
                c = counter + b
                s8 |= (c & M32) << (64 * b)
                s9 |= ((c >> 32) & M32) << (64 * b)
            words[8] = s8
            words[9] = s9
        return words

    def keystream(self, length: int, counter: int = 0) -> bytes:
        """Generate ``length`` keystream bytes starting at block ``counter``."""
        if length < 0:
            raise ConfigurationError(f"negative length: {length}")
        if length == 0:
            return b""
        total = (length + 63) // 64
        if total == 1:
            return self._scalar_block(counter)[:length]
        pieces = []
        done = 0
        while done < total:
            lanes = min(total - done, _LANE_BATCH)
            pieces.append(
                _lane_blocks(self._lane_words(counter + done, lanes), lanes)
            )
            done += lanes
        return b"".join(pieces)[:length]

    def encrypt(self, plaintext: bytes, counter: int = 0) -> bytes:
        """XOR ``plaintext`` with the keystream; decryption is identical."""
        n = len(plaintext)
        if n == 0:
            return b""
        stream = self.keystream(n, counter)
        return (
            int.from_bytes(plaintext, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(n, "little")

    # Stream ciphers are symmetric: decrypt is the same operation.
    decrypt = encrypt


# ---------------------------------------------------------------------------
# CMAC: cached subkeys on the scalar chain; lane chains across messages
# ---------------------------------------------------------------------------


class FastCmac:
    """AES-128-CMAC with the key schedule and RFC 4493 subkeys cached.

    One instance per (folded) key; :meth:`mac` then runs the serial CBC
    chain of :func:`_cbc_chain` -- one unrolled byte-position-table AES
    block per 16 message bytes and nothing else.
    """

    BLOCK = 16

    def __init__(self, key: bytes):
        if len(key) == 32:
            key = (
                int.from_bytes(key[:16], "big") ^ int.from_bytes(key[16:], "big")
            ).to_bytes(16, "big")
        elif len(key) != 16:
            raise ConfigurationError(
                f"CMAC key must be 16 or 32 bytes, got {len(key)}"
            )
        self._aes = FastAES128(key)
        self._rk = self._aes._rk
        l = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        k1 = ((l << 1) & _MASK128) ^ (0x87 if l >> 127 else 0)
        k2 = ((k1 << 1) & _MASK128) ^ (0x87 if k1 >> 127 else 0)
        self._k1 = k1
        self._k2 = k2

    def mac(self, message: bytes) -> bytes:
        """Compute the 16-byte AES-CMAC of ``message``."""
        n = len(message)
        n_blocks = max(1, (n + 15) // 16)
        last = message[(n_blocks - 1) * 16 :]
        if n > 0 and n % 16 == 0:
            last_int = int.from_bytes(last, "big") ^ self._k1
        else:
            padded = last + b"\x80" + b"\x00" * (15 - len(last))
            last_int = int.from_bytes(padded, "big") ^ self._k2
        rk = self._rk
        x = _cbc_chain(rk, message[: (n_blocks - 1) * 16])
        return _encrypt_int(rk, x ^ last_int).to_bytes(16, "big")


_ZERO16 = bytes(16)
_FF16 = b"\xff" * 16


def _cmac_many(items) -> list:
    """AES-CMAC over ``(key, message)`` pairs, each under its own key.

    One CBC chain is inherently serial, but the chains of different
    messages are independent: they run side by side through the lane
    kernel, one lane per message, step ``j`` absorbing block ``j`` of
    every message still running.  The lanes' key schedules and RFC 4493
    subkeys (``L = E_K(0)``) come out of the same lane passes, so a
    window of one-time keys never touches the scalar key expansion.
    """
    items = list(items)
    out: list = []
    for start in range(0, len(items), _LANE_BATCH):
        out += _cmac_lanes(items[start : start + _LANE_BATCH])
    return out


def _cmac_lanes(items) -> list:
    count = len(items)
    if count < _LANE_MIN:
        return [FastCmac(key).mac(message) for key, message in items]
    _ensure_round_tables()  # the scalar tail below
    fb = int.from_bytes
    # Lanes ordered by block count, longest first (stable): chains that
    # end early drop off the tail, so the running lanes stay a prefix.
    nblocks = [max(1, (len(message) + 15) // 16) for _key, message in items]
    order = sorted(range(count), key=nblocks.__getitem__, reverse=True)
    lens = [nblocks[i] for i in order]
    keys = []
    padded = []
    complete = []
    for i in order:
        key, message = items[i]
        if len(key) == 16:
            key += _ZERO16  # folds to itself
        elif len(key) != 32:
            raise ConfigurationError(
                f"CMAC key must be 16 or 32 bytes, got {len(key)}"
            )
        keys.append(key)
        n = len(message)
        if n and n % 16 == 0:
            padded.append(message)
            complete.append(_FF16)
        else:
            padded.append(message + b"\x80" + bytes(15 - n % 16))
            complete.append(_ZERO16)
    lanes = count
    kb = b"".join(keys)
    rks = _lane_schedule(
        fb(_to_planes(kb, 32), "big") ^ fb(_to_planes(kb, 32, 16), "big"), lanes
    )
    # Subkeys, doubled in GF(2^128) on a lane-major integer: each lane's
    # top bit leaves through the mask and re-enters as the 0x87 fold.
    ell = fb(_from_planes(_lane_aes(0, rks, lanes), lanes), "big")
    ones = fb((bytes(15) + b"\x01") * lanes, "big")
    keep = (_MASK128 - 1) * ones
    k1 = ((ell << 1) & keep) ^ (((ell >> 127) & ones) * 0x87)
    k2 = ((k1 << 1) & keep) ^ (((k1 >> 127) & ones) * 0x87)
    sel = fb(b"".join(complete), "big")
    sub = (k2 ^ ((k1 ^ k2) & sel)).to_bytes(16 * lanes, "big")

    macs: list = [None] * count
    x = 0
    active = lanes
    step = 0
    while active:
        if active < _LANE_MIN:
            # Too few chains left for a lane pass: finish each on the
            # scalar chain under its own round keys.  Only a batch of
            # uneven message lengths gets here before its last step.
            state = _from_planes(x, active)
            lane_rks = [_from_planes(rk, active) for rk in rks]
            for lane in range(active):
                lo, hi = 16 * lane, 16 * lane + 16
                rk = tuple(fb(r[lo:hi], "big") for r in lane_rks)
                block = padded[lane]
                chained = _cbc_chain(
                    rk, block[16 * step : -16], fb(state[lo:hi], "big")
                )
                last = fb(block[-16:], "big") ^ fb(sub[lo:hi], "big")
                macs[lane] = _encrypt_int(rk, chained ^ last).to_bytes(16, "big")
            break
        # Chains whose last block is this step form the tail [ending, active).
        ending = active
        while ending and lens[ending - 1] == step + 1:
            ending -= 1
        lo = 16 * step
        block = b"".join([p[lo : lo + 16] for p in padded[:active]])
        if ending < active:
            block = (
                fb(block, "big") ^ fb(sub[16 * ending : 16 * active], "big")
            ).to_bytes(16 * active, "big")
        x = _lane_aes(x ^ fb(_to_planes(block), "big"), rks, active)
        step += 1
        if ending < active:
            done = _from_planes(x, active)
            for lane in range(ending, active):
                macs[lane] = bytes(done[16 * lane : 16 * lane + 16])
            if ending:
                x = _plane_prefix(x, active, ending)
                rks = [_plane_prefix(rk, active, ending) for rk in rks]
            active = ending
    out: list = [None] * count
    for lane, i in enumerate(order):
        out[i] = macs[lane]
    return out
