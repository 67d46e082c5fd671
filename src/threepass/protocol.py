"""State machines for the two three-pass QKD protocols, plus a Monte-Carlo harness.

One round exchanges three qubits over a bidirectional channel:

1. Alice prepares a random bit in a random basis (Z or X) and sends it.
2. Bob measures in a random basis and re-prepares his result as the return
   qubit.
3. Alice measures the return qubit in her preparation basis.  Across many
   rounds the outcome orthogonal to her prepared state appears with
   probability 1/4 on a noiseless channel; a deviation beyond a tolerance
   aborts (the sb1 check of :func:`run_simulation`).
4. Bob sends a second qubit carrying the same bit value in the other basis.
5. Alice measures it in the other basis if step 3 returned her own state,
   else in the same basis.

Protocol 1 sifts on Bob's announced basis index J; Protocol 2 sifts on the
announced two-element partition M ({|0>,|+>} vs {|1>,|->}), which keeps every
round at the price of an inherent 1/16 error rate on a noiseless channel.

The channel model is an independent basis-preserving bit flip with
probability ``e`` per transmission, the simplest operational model with a
symmetric QBER in both bases.  The intercept-resend eavesdropper measures
every transit qubit in a uniformly random basis and forwards her outcome.

Monte-Carlo rounds are independent.  :func:`run_simulation` draws them from
one RNG stream spawned from the seed, cut into chunks of :data:`CHUNK` rounds
with their own spawned streams, so a report is bit-for-bit reproducible from
its seed.  The chunks run in turn on the calling thread, and memory stays
O(CHUNK) however many rounds are asked for.  A chunk only histograms each
round's (s_a, y, r1, r2) code; sift fraction, QBER and the orthogonal
fraction follow from per-code tables built by the scalar
:func:`sift_p1`/:func:`sift_p2`, so the sifting rules live in one place.

The simulator is bit-sliced after Biham, "A fast new DES implementation in
software" (FSE 1997): every per-round quantity is a uint64 array carrying 64
rounds a word, its random bits taken straight from the bit generator, and a
measurement is one word-wide select.  A chunk is stratified by Alice's and
Bob's three choice bits: exact Binomial(m, 1/2) halvings split its rounds
into the 8 (basis_a, bits_a, basis_b) classes, laid out one after another
and each padded to whole words, so the choice planes are constant words.
The rounds are independent, so this leaves the law of the histogram as it
was; it changed every per-seed output once, when it was introduced.  The
channel flips a round with probability e exactly by comparing a uniform with
the binary digits of e, and drawing nothing at e = 0.  Each class counts its
8 (y, r1, r2) patterns from 7 popcounts of ANDed planes, so a chunk holds
about 2.5 MB at 2^20 rounds.  The exact branch enumeration in
``tests/enum_oracle.py`` is the independent reference that the kernel and the
tables are tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Optional

import numpy as np

from .qmath import in_range


class Basis(enum.IntEnum):
    """The two mutually unbiased bases; J = 0 for Z, J = 1 for X."""

    Z = 0
    X = 1

    @property
    def other(self) -> "Basis":
        return Basis(1 - int(self))


class PureState(enum.IntEnum):
    """The four signal states, indexed as 2*basis + bit."""

    ZERO = 0   # |0> = |+z>
    ONE = 1    # |1> = |-z>
    PLUS = 2   # |+> = |+x>
    MINUS = 3  # |-> = |-x>

    @property
    def basis(self) -> Basis:
        return Basis(int(self) >> 1)

    @property
    def bit(self) -> int:
        return int(self) & 1

    @property
    def orthogonal(self) -> "PureState":
        return PureState(int(self) ^ 1)

    @property
    def m_value(self) -> int:
        """Partition label: 0 for {|0>, |+>}, 1 for {|1>, |->}."""
        return int(self) & 1

    def __str__(self) -> str:
        return ("|0>", "|1>", "|+>", "|->")[int(self)]


class Eavesdropper(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"


class ProtocolId(enum.Enum):
    P1 = "p1"
    P2 = "p2"


# Tolerance on |orthogonal fraction - 1/4| in the step-3 abort test; equals
# the basis-announced tolerable error limit of the return-pass key rate.
DEFAULT_SB1_TOLERANCE = 0.0617


def prepare(bit: int, basis: Basis) -> PureState:
    """Encode a classical bit in the given basis."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return PureState(2 * int(basis) + bit)


@dataclass(frozen=True)
class SimulationConfig:
    protocol: ProtocolId
    n_rounds: int
    channel_qber: float = 0.0
    eve: Eavesdropper = Eavesdropper.NONE
    rng_seed: int = 0
    sb1_tolerance: float = DEFAULT_SB1_TOLERANCE

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")
        in_range("QBER must lie", self.channel_qber, 0.0, 0.5)
        if not self.sb1_tolerance >= 0.0:
            raise ValueError(f"sb1 tolerance must be >= 0, got {self.sb1_tolerance}")


def sift_p1(s_a: PureState, y: PureState, r1: PureState,
            r2: PureState) -> Optional[tuple[int, PureState]]:
    """Protocol 1 sifting of a round in which Alice prepared ``s_a``, Bob
    measured ``y``, and Alice measured ``r1`` and ``r2``: (key_bit,
    determined state) or None to discard.

    Conclusive without Bob's announced basis index J = ``y.basis`` when the
    return-pass result is orthogonal to Alice's state; conclusive with
    matching J values when it equals her state and the second result carries
    the same bit in the other basis.  Every other pattern is discarded.
    """
    if r1 == s_a.orthogonal:
        # r2 was measured in Alice's own basis.
        bit = s_a.bit if r2 == s_a else 1 - s_a.bit
        determined = prepare(bit, s_a.basis.other)
        return determined.bit, determined
    if r1 == s_a and r2 == prepare(s_a.bit, s_a.basis.other) and y.basis == s_a.basis:
        return s_a.bit, s_a
    return None


def sift_p2(s_a: PureState, y: PureState, r1: PureState,
            r2: PureState) -> Optional[tuple[int, PureState]]:
    """Protocol 2 sifting on Bob's announced partition label m = ``y.m_value``,
    with the arguments of :func:`sift_p1`.

    When m differs from Alice's bit the determination is immediate; otherwise
    one of three measurement patterns determines the result and the rest are
    discarded.
    """
    a, other = s_a.bit, s_a.basis.other
    if y.m_value != a:
        determined = prepare(y.m_value, other)
        return determined.bit, determined
    if r1 == s_a and r2 == prepare(1 - a, other):
        determined = prepare(a, other)
    elif r1 == s_a.orthogonal and r2 == s_a:
        determined = prepare(a, other)
    elif r1 == s_a and r2 == prepare(a, other):
        determined = s_a
    else:
        return None
    return determined.bit, determined


def _table1_branches() -> list[tuple[PureState, PureState, PureState, PureState, Fraction]]:
    """The 28 noiseless branches: (alice state, bob result, first and second
    measurement results, probability).  Row order follows the published
    encoding/decoding table.
    """
    rows = []
    for s_a in (PureState.ZERO, PureState.ONE, PureState.PLUS, PureState.MINUS):
        a, basis = s_a.bit, s_a.basis
        ob = basis.other
        # Bob measured in Alice's basis: certain echo, second qubit certain.
        rows.append((s_a, s_a, s_a, prepare(a, ob), Fraction(1, 8)))
        for y_bit in (0, 1):
            y = prepare(y_bit, ob)
            # Alice's return measurement echoes her own state (prob 1/2),
            # then the second measurement in the other basis is uniform.
            rows.append((s_a, y, s_a, prepare(0, ob), Fraction(1, 64)))
            rows.append((s_a, y, s_a, prepare(1, ob), Fraction(1, 64)))
            # Or it lands on the orthogonal state; the second qubit is then
            # measured in Alice's own basis and echoes Bob's bit exactly.
            rows.append((s_a, y, s_a.orthogonal, prepare(y_bit, basis), Fraction(1, 32)))
    return rows


TABLE1_BRANCHES = _table1_branches()


@dataclass(frozen=True)
class SimulationReport:
    protocol: ProtocolId
    n_rounds: int
    channel_qber: float
    eve: Eavesdropper
    rng_seed: int
    sb1_tolerance: float
    sift_fraction: float
    sifted_qber: float
    sb1_orthogonal_fraction: float
    sb1_check_passed: bool
    branch_counts: tuple[int, ...]   # 28 noiseless branches, table order
    other_count: int = 0
    sifted_count: int = 0
    error_count: int = 0

    def __post_init__(self) -> None:
        if len(self.branch_counts) != len(TABLE1_BRANCHES):
            raise ValueError("branch_counts must cover all table branches")
        if sum(self.branch_counts) + self.other_count != self.n_rounds:
            raise ValueError("branch counts must sum to n_rounds")

    def to_text(self) -> str:
        lines = [
            f"protocol:                {self.protocol.value}",
            f"rounds:                  {self.n_rounds}",
            f"channel qber:            {self.channel_qber:.6g}",
            f"eavesdropper:            {self.eve.value}",
            f"seed:                    {self.rng_seed}",
            f"sift fraction:           {self.sift_fraction:.6g}",
            f"sifted qber:             {self.sifted_qber:.6g}",
            f"sb1 orthogonal fraction: {self.sb1_orthogonal_fraction:.6g}",
            f"sb1 check (tol {self.sb1_tolerance:.6g}): "
            + ("pass" if self.sb1_check_passed else "FAIL"),
            f"off-table rounds:        {self.other_count}",
        ]
        return "\n".join(lines)


#: Rounds per chunk: each chunk draws from its own spawned stream and holds
#: bit arrays of at most CHUNK / 64 + 7 words (its 8 classes, each padded to
#: whole words) only, so peak memory is O(CHUNK), about 2.5 MB.
CHUNK = 2**20


@cache
def _sift_tables() -> tuple[dict[ProtocolId, np.ndarray], dict[ProtocolId, np.ndarray],
                            np.ndarray]:
    """Per-code 0/1 tables (KEPT[protocol], ERR[protocol], ORTH) from the
    scalar sifting rules: a round is kept, kept with a wrong determination,
    or has its return-pass result orthogonal to Alice's state."""
    kept = {pid: np.zeros(256, dtype=np.int64) for pid in ProtocolId}
    err = {pid: np.zeros(256, dtype=np.int64) for pid in ProtocolId}
    orth = np.zeros(256, dtype=np.int64)
    for code in range(256):
        # The (s_a, y, r1, r2) states, as 2*basis + bit, pack into
        # code = ((s_a * 4 + y) * 4 + r1) * 4 + r2.
        s_a, y, r1, r2 = (PureState((code >> shift) & 3) for shift in (6, 4, 2, 0))
        orth[code] = r1 == s_a.orthogonal
        for pid, sift in ((ProtocolId.P1, sift_p1), (ProtocolId.P2, sift_p2)):
            determined = sift(s_a, y, r1, r2)
            if determined is not None:
                kept[pid][code] = 1
                err[pid][code] = determined[1] != y
    for table in (*kept.values(), *err.values(), orth):
        table.setflags(write=False)
    return kept, err, orth


_ONES = np.uint64(2**64 - 1)


def _pattern_codes() -> np.ndarray:
    """The round code of each of the 64 reachable (basis_a, bits_a, basis_b,
    y, r1, r2) patterns, indexed by the pattern read as a 6-bit number.

    basis_a fills both its code bits, and Alice measures r2 in basis
    mb = basis_a ^ (r1 == bits_a), so the other 192 codes never occur."""
    codes = np.empty(64, dtype=np.intp)
    for pattern in range(64):
        basis_a, bits_a, basis_b, y, r1, r2 = ((pattern >> s) & 1 for s in range(5, -1, -1))
        mb = basis_a ^ (r1 == bits_a)
        codes[pattern] = (basis_a << 7 | bits_a << 6 | basis_b << 5 | y << 4
                          | basis_a << 3 | r1 << 2 | mb << 1 | r2)
    return codes


_PATTERN_CODES = _pattern_codes()

# The (basis_a, bits_a, basis_b) words of class c = basis_a << 2 | bits_a << 1
# | basis_b: row k is all ones in the classes whose bit 2 - k is set.
_CLASS_WORDS = np.array([[_ONES if c >> (2 - k) & 1 else 0 for c in range(8)]
                         for k in range(3)], dtype=np.uint64)


def _tail_mask(m: int) -> np.uint64:
    """The lanes of the last of ceil(m / 64) words that hold one of m rounds."""
    return _ONES >> np.uint64(-m % 64)


def _class_sizes(n: int, raw) -> list[int]:
    """The rounds of each (basis_a, bits_a, basis_b) class among ``n``.

    Three levels of exact Binomial(m, 1/2) halvings, basis_a, then bits_a,
    then basis_b, each child of a level split in turn, 0-child first: a
    halving draws ceil(m / 64) words and its 1-child takes the popcount of
    their first m bits.  Nothing is drawn at m = 0.
    """
    sizes = [n]
    for _ in range(3):
        halves = []
        for m in sizes:
            ones = 0
            if m:
                u = raw(-(-m // 64))
                u[-1] &= _tail_mask(m)
                ones = int(np.bitwise_count(u).sum())
            halves += [m - ones, ones]
        sizes = halves
    return sizes


def _qber_digits(e: float) -> str:
    """The binary digits d1 d2 ... of e = 0.d1d2..., through its last 1-digit
    (every float is a dyadic rational); empty for e = 0."""
    num, den = float(e).as_integer_ratio()
    return format(num, f"0{den.bit_length() - 1}b") if num else ""


def _flip_mask(digits: str, words: int, raw) -> np.ndarray:
    """Word mask of the rounds whose channel flips, each with probability e.

    Every round compares a uniform U = 0.u1u2... with e = 0.d1d2... digit by
    digit, 64 rounds a word: ``lt`` marks the rounds already below e, and
    ``eq`` those whose digits still equal e's in the ``live`` words.  Only
    live words draw the next digit; they are gathered whenever at most a
    quarter of them still hold an equal round.  A round flips when U < e, which has
    probability e exactly.  The comparison stops after e's last 1-digit (U = e
    then has probability 0), or earlier once no round is still equal.
    """
    lt = np.zeros(words, dtype=np.uint64)
    live = np.arange(words)
    eq = np.full(words, _ONES)
    for d in digits:
        u = raw(eq.size)
        if d == "1":
            np.bitwise_and(u, eq, out=u)    # u_i = 1: still equal
            np.bitwise_xor(eq, u, out=eq)   # u_i = 0: below e
            if eq.size == words:  # not gathered yet: skip the indexing
                lt |= eq
            else:
                lt[live] |= eq
            eq = u
        else:
            np.invert(u, out=u)
            eq &= u                         # u_i = 1: above e
        n_eq = np.count_nonzero(eq)
        if not n_eq:
            break
        if 4 * n_eq <= eq.size:
            keep = np.flatnonzero(eq)
            live, eq = live[keep], eq[keep]
    return lt


def _count_patterns(sizes: list[int], planes: tuple[np.ndarray, ...]) -> np.ndarray:
    """int64[64] count of each (basis_a, bits_a, basis_b, y, r1, r2) pattern,
    where the (y, r1, r2) planes hold the rounds of class c, ``sizes[c]`` of
    them, in the next ceil(sizes[c] / 64) words.

    Class c counts its 8 patterns 8c..8c+7 from its size and the popcounts
    of the ANDs of the 7 nonempty subsets of the planes over its words (the
    lanes past its last round are first zeroed in place), then a Moebius
    difference on each axis: a pattern with plane p at 0 is the count with p
    left free less the count with p at 1.
    """
    y, r1, r2 = planes
    lengths = np.array([-(-m // 64) for m in sizes])
    ends = np.cumsum(lengths)
    full = np.flatnonzero(lengths)
    last, tails = ends[full] - 1, np.array([_tail_mask(sizes[c]) for c in full])
    for plane in planes:
        plane[last] &= tails
    # Row t - 1: the popcounts of the AND of the planes of subset
    # t = y << 2 | r1 << 1 | r2, built one at a time in one array; subset 7
    # ANDs r2 into the y & r1 that subset 6 left there.
    popcounts = np.empty((7, ends[-1]), dtype=np.uint8)
    product = np.empty_like(y)
    for t, plane in ((1, r2), (2, r1), (4, y)):
        np.bitwise_count(plane, out=popcounts[t - 1])
    for t, a, b in ((3, r1, r2), (5, y, r2), (6, y, r1), (7, product, r2)):
        np.bitwise_count(np.bitwise_and(a, b, out=product), out=popcounts[t - 1])
    # counts[c, t]: the rounds of class c with every plane of subset t at 1,
    # and after the differences, those with (y, r1, r2) = t.
    counts = np.empty((8, 8), dtype=np.int64)
    counts[:, 0] = sizes
    for c, (start, end) in enumerate(zip(ends - lengths, ends)):
        # A class holds at most CHUNK rounds, so uint32 sums it exactly; a
        # buffered sum, where reduceat would cast all the popcounts first.
        counts[c, 1:] = popcounts[:, start:end].sum(axis=1, dtype=np.uint32)
    for axis in (1, 2, 3):
        free, one = np.moveaxis(counts.reshape(8, 2, 2, 2), axis, 0)
        free -= one
    return counts.ravel()


def _simulate_chunk(config: SimulationConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate ``n`` rounds; return the int64[256] count of each round code.

    The rounds are first split into the 8 (basis_a, bits_a, basis_b) classes
    of :func:`_class_sizes` and laid out class-major, each class padded to
    whole words, so the three choice planes are constant words.  Bit-sliced
    from there: every other per-round quantity is a uint64 array holding one
    bit of 64 rounds a word, drawn straight from the bit generator, and every
    step is a bitwise operation on whole words.
    """
    raw = rng.bit_generator.random_raw
    sizes = _class_sizes(n, raw)
    lengths = [-(-m // 64) for m in sizes]
    words = sum(lengths)
    digits = _qber_digits(config.channel_qber)
    eve = config.eve is Eavesdropper.INTERCEPT_RESEND

    def measure(state_basis: np.ndarray, state_bits: np.ndarray,
                meas_basis: np.ndarray) -> np.ndarray:
        rand = raw(words)
        # The state's bit where the bases agree, a uniform bit elsewhere.
        same_basis = ~(state_basis ^ meas_basis)
        return rand ^ ((state_bits ^ rand) & same_basis)

    def transmit(basis: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if digits:
            bits = bits ^ _flip_mask(digits, words, raw)
        if eve:
            eve_basis = raw(words)
            return eve_basis, measure(basis, bits, eve_basis)
        return basis, bits

    basis_a, bits_a, basis_b = (np.repeat(row, lengths) for row in _CLASS_WORDS)
    y = measure(*transmit(basis_a, bits_a), basis_b)
    r1 = measure(*transmit(basis_b, y), basis_a)
    r2 = measure(*transmit(~basis_b, y), basis_a ^ ~(r1 ^ bits_a))

    code_counts = np.zeros(256, dtype=np.int64)
    code_counts[_PATTERN_CODES] = _count_patterns(sizes, (y, r1, r2))
    return code_counts


def _chunks(n_rounds: int, seed: int) -> Iterator[tuple[int, np.random.SeedSequence]]:
    """Yield (rounds, seed sequence) per chunk of ``n_rounds``: chunk 0 draws
    from the stream ``SeedSequence(seed, spawn_key=(0,))``, chunk j >= 1 from
    its (j-1)-th child, spawned one at a time so that no list of them is held."""
    # spawn_key=(0,), not the bare seed: the stream each seed's reports have used.
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    for start in range(0, n_rounds, CHUNK):
        yield min(CHUNK, n_rounds - start), stream.spawn(1)[0] if start else stream


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run ``config.n_rounds`` rounds and aggregate sift/QBER statistics.

    The chunks of :func:`_chunks` run in turn through the bit-sliced kernel,
    64 rounds a machine word, so memory stays O(CHUNK): about 2.5 MB at 2^20
    rounds.  The report depends only on ``config``.
    """
    kept_table, err_table, orth_table = _sift_tables()
    code_counts = np.zeros(256, dtype=np.int64)
    for n, stream in _chunks(config.n_rounds, config.rng_seed):
        code_counts += _simulate_chunk(config, n, np.random.default_rng(stream))

    branch_counts = tuple(int(code_counts[((s * 4 + y) * 4 + r1) * 4 + r2])
                          for s, y, r1, r2, _ in TABLE1_BRANCHES)
    kept = int(kept_table[config.protocol] @ code_counts)
    errors = int(err_table[config.protocol] @ code_counts)
    orth_fraction = int(orth_table @ code_counts) / config.n_rounds
    return SimulationReport(
        protocol=config.protocol,
        n_rounds=config.n_rounds,
        channel_qber=config.channel_qber,
        eve=config.eve,
        rng_seed=config.rng_seed,
        sb1_tolerance=config.sb1_tolerance,
        sift_fraction=kept / config.n_rounds,
        sifted_qber=errors / kept if kept else 0.0,
        sb1_orthogonal_fraction=orth_fraction,
        sb1_check_passed=abs(orth_fraction - 0.25) <= config.sb1_tolerance,
        branch_counts=branch_counts,
        other_count=config.n_rounds - sum(branch_counts),
        sifted_count=kept,
        error_count=errors,
    )
