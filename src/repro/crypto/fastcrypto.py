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
  across lanes).  A single block turns the same trick sideways: its
  state sits in four such integers, one per diagonal, so each step of
  the core advances four quarter-rounds.  The plaintext/keystream XOR
  is one wide-integer operation instead of a per-byte generator.  Lanes
  carry their own key, nonce and counter, so :func:`_salsa_many`
  encrypts a batch of one-time-key messages in one pass.
- **AES-128**: each middle round is sixteen lookups in 256-entry
  byte-position tables, XORed on a 128-bit integer state.  The tables
  fuse SubBytes + ShiftRows + MixColumns per state-byte position
  (derived from the classic four 256-entry T-tables, pre-rotated to
  their output column), so a whole round is
  ``M0[b0]^M1[b1]^...^M15[b15]^rk``, with the state's sixteen bytes
  unpacked into locals once per round rather than subscripted one by
  one; the final round is one ``bytes.translate`` and one byte
  permutation.  At ~200 KB the tables stay cache-resident under a real
  request mix, which beats wider two-byte "pair" tables (~50 MB) that
  thrash the cache on varied inputs.  They are key-independent, built
  lazily once per process, and shared by every key.  The key schedule
  is ten steps on one 128-bit integer, run once per cipher object.
- **Lane AES-128** (:func:`_lane_aes`): the batch kernel.  L blocks,
  each under its own key if need be, run through one pass with the
  state held as sixteen byte planes: SubBytes and the MixColumns
  multiples are ``bytes.translate`` tables, ShiftRows and MixColumns
  are slices and row rotations, AddRoundKey is one XOR on a wide
  integer.  It serves every batch API: the J0 and counter blocks of
  GCM ``masks`` (four or more blocks), and CMAC chains run across messages
  (:func:`_cmac_many`) together with their one-time keys' schedules
  (:func:`_lane_schedule`) and subkeys.  Batches under
  :data:`_LANE_MIN` blocks take the scalar kernel instead.
- **GCM**: GHASH uses sixteen per-key 256-entry tables, one per byte
  position of a block (Shoup's method, with the byte-at-a-time Horner
  reduction folded into the tables), so a block costs one unpack of its
  sixteen bytes, sixteen lookups and their XOR instead of the spec's
  128-iteration bit loop.  Each cipher keeps the GHASH state its AADs
  leave (a handful, cleared when full), so a session's messages hash
  only their own blocks.  Every seal and open is one body: ``masks``
  runs the AES blocks of any number of IVs (E_K(J0) and the CTR
  keystream) through one :func:`_aes_blocks` pass, then the message is
  XORed with one wide-integer op and the tag GHASHed.
  ``seal_many``/``open_many`` cover a whole message set with one such
  pass; the transport's keystream reservoirs run it ahead of the
  messages.
- **CMAC**: the AES key schedule and the RFC 4493 subkeys are derived
  once per cipher object (the engine caches those per key), and a MAC
  is one serial CBC chain: a loop over the byte tables with the whole
  message, its subkey-masked last block included, pre-split into
  128-bit words.  :func:`_cmac_many` runs many messages' chains side by
  side on the lane kernel, one lane per message.

Everything stays within the Python standard library; the cross-engine
parity checks in :mod:`repro.crypto.engine` guarantee these kernels can
never silently diverge from the spec-mirroring reference code.
"""

from __future__ import annotations

import functools
import hmac
import operator
import struct
from typing import Dict, Optional, Tuple

from repro.crypto.aes import SBOX
from repro.crypto.gcm import GcmFailure
from repro.errors import ConfigurationError

__all__ = ["FastSalsa20", "FastAES128", "FastAesGcm", "FastCmac"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MASK192 = (1 << 192) - 1

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
# The final round (SubBytes + ShiftRows only) needs no tables of its
# own: one ``bytes.translate`` and one byte permutation.  Sixteen
# 256-entry tables of 128-bit integers come to ~200 KB -- small enough
# to stay cache-resident under a real request mix, which on varied
# inputs beats wider tables that fuse two bytes per lookup but thrash
# the cache (measured ~2x per block).  Each table's ints are copied
# once built, so that they sit next to each other in memory rather
# than among the build loop's temporaries: a chain that starts with
# the tables evicted reloads ~2.8k cache lines instead of ~3.8k.
_M0 = _M1 = _M2 = _M3 = _M4 = _M5 = _M6 = _M7 = None
_M8 = _M9 = _M10 = _M11 = _M12 = _M13 = _M14 = _M15 = None


def _ensure_round_tables() -> None:
    """Build the sixteen 256-entry round tables once per process."""
    global _M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7
    global _M8, _M9, _M10, _M11, _M12, _M13, _M14, _M15
    if _M0 is not None:
        return
    t_tables = (_T0, _T1, _T2, _T3)
    # Scatter of T0..T3 for column 0; columns 1..3 are the same tables
    # rotated right by 32 bits each.
    mid_shifts = (96, 0, 32, 64)
    mid = []
    for pos in range(16):
        col, within = divmod(pos, 4)
        rot = 32 * col
        inv = 128 - rot
        t = t_tables[within]
        mshift = mid_shifts[within]
        mtab = [0] * 256
        for x in range(256):
            v = t[x] << mshift
            mtab[x] = ((v >> rot) | (v << inv)) & _MASK128
        mid.append(mtab)
    # ``v ^ 0`` is a fresh int: the copies are allocated back to back.
    (
        _M0, _M1, _M2, _M3, _M4, _M5, _M6, _M7,
        _M8, _M9, _M10, _M11, _M12, _M13, _M14, _M15,
    ) = [tuple([v ^ 0 for v in mtab]) for mtab in mid]


# Prebound callable for the hot block loops: skips the bound-method
# creation on every round.
_TOB = int.to_bytes

# SubBytes as a ``bytes.translate`` table.
_SUB = bytes(SBOX)

# ShiftRows on a block's bytes (column-major: byte 4*col + row): output
# byte 4*c + r is input byte 4*((c + r) % 4) + r.
_SHIFT_ROWS = operator.itemgetter(
    0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11
)

_RCON_WORDS = (
    0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
    0x20000000, 0x40000000, 0x80000000, 0x1B000000, 0x36000000,
)

# Multiplier that copies a 32-bit word into all four words of a block.
_WORD_BROADCAST = 0x00000001000000010000000100000001


def _expand_key_128(key: bytes) -> tuple:
    """FIPS-197 key expansion as eleven 128-bit round-key integers.

    Round key r+1 is three steps on round key r: RotWord + SubWord +
    Rcon of its low word; the word recurrence ``w[i] = w[i-4] ^ w[i-1]``
    as a prefix XOR across the four words (two shift-and-XORs); and one
    XOR of the first step's word broadcast to all four.  Not cached:
    every repeated key is cached one level up, as a cipher object.
    """
    fb = int.from_bytes
    sub = _SUB
    k = fb(key, "big")
    rks = [k]
    for rcon in _RCON_WORDS:
        t = fb((k & _MASK32).to_bytes(4, "big").translate(sub), "big")
        t = (((t << 8) | (t >> 24)) & _MASK32) ^ rcon
        k ^= k >> 32
        k ^= k >> 64
        k ^= t * _WORD_BROADCAST
        rks.append(k)
    return tuple(rks)


def _encrypt_int(rk: tuple, st: int) -> int:
    """One AES-128 block on a 128-bit integer state (``st`` is the raw
    plaintext block; this applies the ``rk[0]`` whitening itself).

    Each middle round unpacks the state's sixteen bytes into locals
    once: CPython 3.11 does not specialise ``bytes`` subscripts, so one
    unpack is cheaper than sixteen generic lookups.
    """
    tb = _TOB
    m0, m1, m2, m3 = _M0, _M1, _M2, _M3
    m4, m5, m6, m7 = _M4, _M5, _M6, _M7
    m8, m9, m10, m11 = _M8, _M9, _M10, _M11
    m12, m13, m14, m15 = _M12, _M13, _M14, _M15
    st ^= rk[0]
    for r in rk[1:10]:
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = tb(st, 16, "big")
        st = (
            m0[b0] ^ m1[b1] ^ m2[b2] ^ m3[b3]
            ^ m4[b4] ^ m5[b5] ^ m6[b6] ^ m7[b7]
            ^ m8[b8] ^ m9[b9] ^ m10[b10] ^ m11[b11]
            ^ m12[b12] ^ m13[b13] ^ m14[b14] ^ m15[b15]
            ^ r
        )
    w = tb(st, 16, "big").translate(_SUB)
    return int.from_bytes(bytes(_SHIFT_ROWS(w)), "big") ^ rk[10]


def _cbc_chain(rk: tuple, message: bytes, x: int = 0) -> int:
    """CBC-MAC chain over a block-aligned ``message``.

    Returns the running 128-bit CBC state after absorbing every 16-byte
    block of ``message`` (which must be a multiple of 16 bytes long).
    This is the serial hot loop of CMAC: everything -- round keys, the
    sixteen byte tables, the final round's S-box and ShiftRows, the
    message as pre-combined 128-bit words -- is a local, and each block
    loops over its nine middle rounds as :func:`_encrypt_int` does,
    unpacking the state's bytes into locals once per round.
    """
    tb = _TOB
    fb = int.from_bytes
    m0, m1, m2, m3 = _M0, _M1, _M2, _M3
    m4, m5, m6, m7 = _M4, _M5, _M6, _M7
    m8, m9, m10, m11 = _M8, _M9, _M10, _M11
    m12, m13, m14, m15 = _M12, _M13, _M14, _M15
    sub = _SUB
    shift_rows = _SHIFT_ROWS
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
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = tb(st, 16, "big")
            st = (
                m0[b0] ^ m1[b1] ^ m2[b2] ^ m3[b3]
                ^ m4[b4] ^ m5[b5] ^ m6[b6] ^ m7[b7]
                ^ m8[b8] ^ m9[b9] ^ m10[b10] ^ m11[b11]
                ^ m12[b12] ^ m13[b13] ^ m14[b14] ^ m15[b15]
                ^ r
            )
        w = tb(st, 16, "big").translate(sub)
        x = fb(bytes(shift_rows(w)), "big") ^ r10_0
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
            v = _mulx(v)
        table[b] = v
    return tuple(table)


_RED8 = _build_reduction_table()


def _build_ghash_tables(h: int) -> tuple:
    """Per-key tables ``P[j][b]`` = (byte ``b`` at block position ``j``) x H.

    ``P[0][b]`` multiplies the 8-term polynomial ``b`` by H; each further
    table is the previous one times x^8 (one 8-bit shift, folded back
    through :data:`_RED8`), so a block's product is sixteen lookups and
    their XOR.  Shoup's 64 KB-per-key variant in the GCM specification.
    """
    table = [0] * 256
    v = h
    table[0x80] = v
    for bit in (0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01):
        v = _mulx(v)
        table[bit] = v
    for i in range(2, 256):
        if i & (i - 1):  # not a single bit: combine linearly
            lsb = i & -i
            table[i] = table[lsb] ^ table[i ^ lsb]
    tables = [tuple(table)]
    red = _RED8
    for _ in range(15):
        tables.append(tuple([(v >> 8) ^ red[v & 255] for v in tables[-1]]))
    return tuple(tables)


@functools.lru_cache(maxsize=64)
def _counter_words(nblocks: int) -> tuple:
    """The 32-bit counters 1 (J0) to ``nblocks + 1``, packed."""
    return tuple([struct.pack(">I", c) for c in range(1, nblocks + 2)])


def _keystream_blocks(size: int) -> int:
    """CTR blocks a ``size``-byte message needs (none for ``size <= 0``)."""
    return (size + 15) // 16 if size > 0 else 0


def _xor(data: bytes, mask: bytes) -> bytes:
    """``data`` XOR the keystream after ``mask``'s E_K(J0) block."""
    n = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(mask[16 : 16 + n], "big")
    ).to_bytes(n, "big")


#: GHASH's final block: the AAD and ciphertext lengths in bits.
_GHASH_LENGTHS = struct.Struct(">QQ")

#: Post-AAD GHASH states one cipher keeps.  A transport session key
#: meets two AADs (its requests' and its replies'), so a handful is
#: plenty; the map is cleared when full, as the engine's key caches are.
_AAD_STATES = 8


class FastAesGcm:
    """AES-128-GCM, byte-compatible with :class:`repro.crypto.gcm.AesGcm`.

    The AES key schedule, the hash subkey H and the sixteen 256-entry
    GHASH tables (:func:`_build_ghash_tables`, under a millisecond and
    ~210 KB per key) are all derived once at construction time, so a cached instance
    amortises every per-message key-setup cost the reference
    implementation pays on each seal/open.

    Every operation runs one body.  A message's AES work depends only on
    the key and its IV, so :meth:`masks` does it first -- E_K(J0) and the
    keystream blocks of any number of IVs in one :func:`_aes_blocks`
    pass -- then the messages are XORed and :meth:`_tags` GHASHes every
    tag of the batch in one loop.  The transport's keystream reservoirs
    (:class:`~repro.crypto.keys.KeystreamReservoir`) call :meth:`masks`
    before the messages exist, and :meth:`seal_masked`/:meth:`open_masked`
    once they do.
    """

    IV_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes):
        self._aes = FastAES128(key)
        self._tables = _broadcast_tables(self._aes._rk)
        h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._ghash_tables = _build_ghash_tables(h)
        # AAD -> GHASH state after its blocks (see :meth:`_tags`).
        self._after_aad: Dict[bytes, int] = {}

    def masks(self, ivs, nblocks) -> list:
        """Per IV, E_K(J0) then its first keystream blocks: one AES pass.

        ``nblocks[i]`` counts the keystream blocks of ``ivs[i]``.  Returns
        one ``16 * (1 + nblocks[i])``-byte mask per IV, in order.
        """
        iv_size = self.IV_SIZE
        for iv in ivs:
            if len(iv) != iv_size:
                raise ConfigurationError(
                    f"IV must be {iv_size} bytes, got {len(iv)}"
                )
        # Per IV: J0 (counter 1), then the CTR counter blocks 2, 3, ...
        blocks = _aes_blocks(
            self._aes._rk,
            self._tables,
            b"".join(
                [iv + iv.join(_counter_words(n)) for iv, n in zip(ivs, nblocks)]
            ),
        )
        out = []
        pos = 0
        for n in nblocks:
            end = pos + 16 * (n + 1)
            out.append(blocks[pos:end])
            pos = end
        return out

    def _tags(self, masks, aads, ciphertexts) -> list:
        """Per message, GHASH over its AAD and ciphertext masked with its
        E_K(J0): the tags of a whole batch in one loop, with the sixteen
        tables unpacked once and each block's sixteen bytes unpacked into
        locals once.

        GHASH starts from zero, so its state after the AAD blocks depends
        on H and the AAD alone.  The cipher keeps that state per AAD
        across calls -- at most :data:`_AAD_STATES` of them, cleared when
        full -- so a session's requests or replies, which all carry one
        AAD, hash only their ciphertext and lengths blocks.  Two threads
        that race on a new AAD both compute the same state.
        """
        (p0, p1, p2, p3, p4, p5, p6, p7,
         p8, p9, p10, p11, p12, p13, p14, p15) = self._ghash_tables
        fb = int.from_bytes
        lengths = _GHASH_LENGTHS.pack
        zeros = b"\x00" * 15
        after_aad = self._after_aad
        tags = []
        for mask, aad, ciphertext in zip(masks, aads, ciphertexts):
            body = b"".join((
                ciphertext,
                zeros[: -len(ciphertext) % 16],
                lengths(len(aad) * 8, len(ciphertext) * 8),
            ))
            y = after_aad.get(aad)
            if y is None:
                # Hash the AAD blocks too, noting the state they leave.
                if len(after_aad) >= _AAD_STATES:
                    after_aad.clear()
                head = aad + zeros[: -len(aad) % 16]
                data, y, cut = head + body, 0, len(head)
            else:
                data, cut = body, -1
            for i in range(0, len(data), 16):
                if i == cut:
                    after_aad[aad] = y
                (b0, b1, b2, b3, b4, b5, b6, b7,
                 b8, b9, b10, b11, b12, b13, b14, b15) = (
                    y ^ fb(data[i : i + 16], "big")
                ).to_bytes(16, "big")
                y = (
                    p0[b0] ^ p1[b1] ^ p2[b2] ^ p3[b3]
                    ^ p4[b4] ^ p5[b5] ^ p6[b6] ^ p7[b7]
                    ^ p8[b8] ^ p9[b9] ^ p10[b10] ^ p11[b11]
                    ^ p12[b12] ^ p13[b13] ^ p14[b14] ^ p15[b15]
                )
            tags.append((y ^ fb(mask[:16], "big")).to_bytes(16, "big"))
        return tags

    def seal_masked(self, mask: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Seal under one :meth:`masks` entry; returns ``ciphertext || tag``.

        The entry must hold every keystream block ``plaintext`` needs.
        """
        ciphertext = _xor(plaintext, mask)
        return ciphertext + self._tags((mask,), (aad,), (ciphertext,))[0]

    def open_masked(
        self, mask: bytes, sealed: bytes, aad: bytes = b""
    ) -> Optional[bytes]:
        """Verify and decrypt ``ciphertext || tag`` under one :meth:`masks` entry.

        Returns ``None`` when the tag does not verify or ``sealed`` is
        shorter than a tag.  The tag is compared in constant time, and
        no plaintext exists before it verifies.
        """
        tag_size = self.TAG_SIZE
        if len(sealed) < tag_size:
            return None
        ciphertext = sealed[:-tag_size]
        (tag,) = self._tags((mask,), (aad,), (ciphertext,))
        if not hmac.compare_digest(tag, sealed[-tag_size:]):
            return None
        return _xor(ciphertext, mask)

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        return self.seal_many([(iv, plaintext, aad)])[0]

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || tag``; raises on tampering."""
        (plaintext,) = self.open_many([(iv, sealed, aad)])
        if plaintext is None:
            raise GcmFailure(
                "message shorter than the authentication tag"
                if len(sealed) < self.TAG_SIZE
                else "authentication tag mismatch"
            )
        return plaintext

    def seal_many(self, items) -> list:
        """Seal a batch of ``(iv, plaintext, aad)`` triples, in order.

        One :meth:`masks` pass covers the J0 and counter blocks of every
        message and one :meth:`_tags` loop every tag; outputs are
        byte-identical to one :meth:`seal` per item.
        """
        items = list(items)
        masks = self.masks(
            [iv for iv, _plaintext, _aad in items],
            [_keystream_blocks(len(plaintext)) for _iv, plaintext, _aad in items],
        )
        ciphertexts = [
            _xor(plaintext, mask)
            for mask, (_iv, plaintext, _aad) in zip(masks, items)
        ]
        tags = self._tags(masks, [aad for _iv, _pt, aad in items], ciphertexts)
        return [c + t for c, t in zip(ciphertexts, tags)]

    def open_many(self, items) -> list:
        """Open a batch of ``(iv, sealed, aad)`` triples, in order.

        One :meth:`masks` pass, then each message's tag is verified
        before it decrypts.  Returns the plaintext per entry, or ``None``
        where authentication failed: a tampered message never poisons
        its batch-mates, and its plaintext is never materialised.
        """
        items = list(items)
        tag_size = self.TAG_SIZE
        masks = self.masks(
            [iv for iv, _sealed, _aad in items],
            [
                _keystream_blocks(len(sealed) - tag_size)
                for _iv, sealed, _aad in items
            ],
        )
        ciphertexts = [sealed[:-tag_size] for _iv, sealed, _aad in items]
        tags = self._tags(masks, [aad for _iv, _sealed, aad in items], ciphertexts)
        compare = hmac.compare_digest
        return [
            _xor(ciphertext, mask)
            if len(sealed) >= tag_size and compare(tag, sealed[-tag_size:])
            else None
            for mask, (_iv, sealed, _aad), ciphertext, tag in zip(
                masks, items, ciphertexts, tags
            )
        ]


# ---------------------------------------------------------------------------
# Salsa20 with 64-bit lanes: one wide integer advances every block at once
# ---------------------------------------------------------------------------

_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_TAU = (0x61707865, 0x3120646E, 0x79622D36, 0x6B206574)

# The single-block core's diagonal layout (FastSalsa20._scalar_block):
# the low 32 bits of each of four 64-bit lanes, and the 32-bit slot of
# each state word x0..x15 once the diagonals a, b, c, d are concatenated
# (slot 8 * diagonal + 2 * lane).
_DIAG_MASK = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * 4, "little")
_DIAG_WORDS = operator.itemgetter(
    0, 26, 20, 14, 8, 2, 28, 22, 16, 10, 4, 30, 24, 18, 12, 6
)

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
    core once for every block simultaneously (:func:`_lane_blocks`); a
    single block runs :meth:`_scalar_block`, which packs its own four
    diagonals into such lanes.  ``encrypt`` XORs plaintext and keystream
    as two big integers.
    """

    NONCE_SIZE = 8
    KEY_SIZES = (16, 32)

    def __init__(self, key: bytes, nonce: bytes):
        self._state = _salsa_state(key, nonce)

    def _scalar_block(self, counter: int) -> bytes:
        """One 64-byte keystream block, four quarter-rounds per step.

        The state sits in the diagonal layout of SIMD Salsa20 code, one
        diagonal per integer of four 64-bit lanes: a = [x0, x5, x10, x15],
        b = [x4, x9, x14, x3], c = [x8, x13, x2, x7] and d = [x12, x1, x6,
        x11], the counter's low word in c's lane 0 and its high word in
        b's lane 1.  Each of a half-round's four steps then advances all
        four quarter-rounds at once, with per-lane 32-bit masks as in
        :func:`_lane_blocks`.  Turning d one lane down into b, b one lane
        up into d and c by two lays the rows out as the columns were, so
        every half-round is the same four steps.
        """
        M = _DIAG_MASK
        M64, M128, M192 = _MASK64, _MASK128, _MASK192
        (s0, s1, s2, s3, s4, s5, s6, s7,
         _, _, s10, s11, s12, s13, s14, s15) = self._state
        a = a0 = s0 | s5 << 64 | s10 << 128 | s15 << 192
        b = b0 = s4 | ((counter >> 32) & _MASK32) << 64 | s14 << 128 | s3 << 192
        c = c0 = (counter & _MASK32) | s13 << 64 | s2 << 128 | s7 << 192
        d = d0 = s12 | s1 << 64 | s6 << 128 | s11 << 192
        for _ in range(20):
            t = (a + d) & M; b ^= ((t << 7) | (t >> 25)) & M
            t = (b + a) & M; c ^= ((t << 9) | (t >> 23)) & M
            t = (c + b) & M; d ^= ((t << 13) | (t >> 19)) & M
            t = (d + c) & M; a ^= ((t << 18) | (t >> 14)) & M
            b, c, d = (
                (d >> 64) | ((d & M64) << 192),
                (c >> 128) | ((c & M128) << 128),
                ((b & M192) << 64) | (b >> 192),
            )
        # Feedforward; a word's carry lands in the unused upper half of
        # its lane, which the word order below skips.
        out = (a + a0) | (b + b0) << 256 | (c + c0) << 512 | (d + d0) << 768
        return struct.pack(
            "<16I", *_DIAG_WORDS(struct.unpack("<32I", out.to_bytes(128, "little")))
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

    One instance per (folded) key; :meth:`mac` masks the last block with
    its subkey and then runs the whole message as one :func:`_cbc_chain`
    -- one byte-position-table AES block per 16 message bytes, one
    kernel setup per MAC and nothing else.
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
        _ensure_round_tables()
        self._rk = rk = _expand_key_128(bytes(key))
        l_int = _encrypt_int(rk, 0)
        k1 = ((l_int << 1) & _MASK128) ^ (0x87 if l_int >> 127 else 0)
        k2 = ((k1 << 1) & _MASK128) ^ (0x87 if k1 >> 127 else 0)
        self._k1 = k1
        self._k2 = k2

    def mac(self, message: bytes) -> bytes:
        """Compute the 16-byte AES-CMAC of ``message``."""
        n = len(message)
        if n and not n % 16:
            cut = n - 16
            last = int.from_bytes(message[cut:], "big") ^ self._k1
        else:
            cut = n - n % 16
            padded = message[cut:] + b"\x80" + bytes(15 - n % 16)
            last = int.from_bytes(padded, "big") ^ self._k2
        return _cbc_chain(
            self._rk, message[:cut] + last.to_bytes(16, "big")
        ).to_bytes(16, "big")


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
                last = fb(block[-16:], "big") ^ fb(sub[lo:hi], "big")
                macs[lane] = _cbc_chain(
                    rk,
                    block[16 * step : -16] + last.to_bytes(16, "big"),
                    fb(state[lo:hi], "big"),
                ).to_bytes(16, "big")
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
