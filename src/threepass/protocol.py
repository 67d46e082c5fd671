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

Monte-Carlo rounds are independent and exchangeable, and a run reports only
the histogram of their (s_a, y, r1, r2) codes, so :func:`run_simulation`
samples that histogram at the level of counts, never round by round: the
conditional-binomial method for multinomials (Davis, CSDA 16, 1993).  Its
state is the number of rounds at each node of the protocol tree, and each
random step of a round splits a node's count by an exact binomial built from
popcounts of fresh random bits.  Alice's and Bob's choices are halvings,
Binomial(m, 1/2); the channel flips Binomial(m, e) rounds, each comparing a
uniform with the binary digits of e (Knuth and Yao, 1976), so P(flip) = e
exactly; Eve's basis, her result and every measurement outside the qubit's
basis are halvings.  No float probability is used, and a zero count draws
nothing.  About 0.16-0.23 random words are drawn per round.

All words come from one PCG64 stream, ``SeedSequence(seed, spawn_key=(0,))``,
so a report is bit-for-bit reproducible from its seed.  A count's words are
drawn at most :data:`_PIECE` at a time, so memory stays O(_PIECE), about
128 kB, however many rounds are asked for.  Sift fraction, QBER and the
orthogonal fraction follow from per-pattern tables: each protocol's sifting
rule is written once, as array expressions over the bits of the 64 reachable
round patterns, and the published table's noiseless branches come from the
same arrays (:func:`_pattern_tables`).  The exact branch enumeration in
``tests/enum_oracle.py`` is the independent reference that the sampler and
the tables are tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .qmath import in_range


class Eavesdropper(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"


class ProtocolId(enum.Enum):
    P1 = "p1"
    P2 = "p2"


# Tolerance on |orthogonal fraction - 1/4| in the step-3 abort test; equals
# the basis-announced tolerable error limit of the return-pass key rate.
DEFAULT_SB1_TOLERANCE = 0.0617

#: The names of the four signal states, indexed as 2*basis + bit (Z = 0, X = 1).
STATE_NAMES = ("|0>", "|1>", "|+>", "|->")

#: Largest round count: counts are int64.
_MAX_ROUNDS = 2**63 - 1


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
        if self.n_rounds > _MAX_ROUNDS:
            raise ValueError(f"n_rounds must be <= 2**63 - 1, got {self.n_rounds}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")
        in_range("QBER must lie", self.channel_qber, 0.0, 0.5)
        if not self.sb1_tolerance >= 0.0:
            raise ValueError(f"sb1 tolerance must be >= 0, got {self.sb1_tolerance}")


def _node_bits(width: int) -> list[np.ndarray]:
    """The bits of the nodes 0 .. 2**width - 1, most significant first."""
    nodes = np.arange(1 << width)
    return [nodes >> shift & 1 for shift in range(width - 1, -1, -1)]


def _pattern_tables() -> tuple:
    """The tables of the 64 reachable (basis_a, bits_a, basis_b, y, r1, r2)
    round patterns, each indexed by the pattern read as a 6-bit number:

    - the round code ``((s_a*4 + y)*4 + r1)*4 + r2`` of the states, as
      2*basis + bit;
    - each protocol's determined state, or -1 to discard the round;
    - whether r1 is orthogonal to Alice's state (the sb1 test);
    - the published table's noiseless branches, as (s_a, y, r1, r2,
      probability) rows, and their codes.

    Alice measures r2 in basis mb = basis_a ^ (r1 == bits_a), so the other
    192 codes never occur.
    """
    basis_a, bits_a, basis_b, y, r1, r2 = _node_bits(6)
    echo = r1 == bits_a  # Alice's return measurement gave her own state
    mb = basis_a ^ echo
    s_a = 2 * basis_a + bits_a
    states = (s_a, 2 * basis_b + y, 2 * basis_a + r1, 2 * mb + r2)
    codes = ((states[0] * 4 + states[1]) * 4 + states[2]) * 4 + states[3]
    other = 2 - 2 * basis_a  # a bit in Alice's other basis is the state other + bit
    determined = {
        # P1, on Bob's announced basis J: an orthogonal r1 means r2 was
        # measured in Alice's basis and gave Bob's bit, determined in her
        # other basis; an echo is kept only when J matched and r2 gave her bit.
        ProtocolId.P1: np.where(echo, np.where((basis_b == basis_a) & (r2 == bits_a), s_a, -1),
                                other + r2),
        # P2, on Bob's partition label m = y: Bob's bit in Alice's other
        # basis, unless m is her bit and r1 and r2 agree: both gave her bit
        # (her own state is determined) or neither did (discarded).
        ProtocolId.P2: np.where((y == bits_a) & (echo == (r2 == bits_a)),
                                np.where(echo, s_a, -1), other + y),
    }
    # Each pass sends a qubit (basis, bit) that is measured in a basis.  A
    # branch is noiseless when each pass measured in the qubit's own basis
    # gave its bit; each pass measured in the other basis halves its
    # probability, from the 1/8 of Alice's and Bob's choices.
    passes = ((basis_a, bits_a, basis_b, y), (basis_b, y, basis_a, r1),
              (1 - basis_b, y, mb, r2))
    first, second, third = ((b != m) | (bit == got) for b, bit, m, got in passes)
    noiseless = first & second & third
    probability = 2.0 ** -(3 + sum(b != m for b, _, m, _ in passes))
    # The published order sorts the patterns by (s_a, basis_b ^ basis_a, y,
    # r1 ^ bits_a, r2): Bob's result in Alice's basis first, her echo before
    # the orthogonal r1.  That relabelling of a pattern's bits is its own
    # inverse, so at index k it gives the pattern in place k.  (A sort would
    # do as well, but its first call maps about 0.25 MB more of numpy into
    # every CLI run.)
    order = (s_a * 2 + (basis_b ^ basis_a)) * 8 + y * 4 + (r1 ^ bits_a) * 2 + r2
    rows = order[noiseless[order]]
    branches = list(zip(*(column[rows].tolist() for column in (*states, probability))))
    return codes, determined, ~echo, branches, codes[rows]


_PATTERN_CODES, _DETERMINED, _ORTH, TABLE1_BRANCHES, _BRANCH_CODES = _pattern_tables()
#: Per-pattern sift tables: the round is kept, or kept with a determined
#: state other than Bob's result y (bits 4-5 of the code).
_KEPT = {pid: determined >= 0 for pid, determined in _DETERMINED.items()}
_ERR = {pid: _KEPT[pid] & (determined != _PATTERN_CODES >> 4 & 3)
        for pid, determined in _DETERMINED.items()}


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


#: Words a ``random_raw`` call draws at most: a larger count is drawn in
#: pieces, so a run holds O(_PIECE) words, 128 kB, however many rounds it has.
_PIECE = 2**14


_ONES = np.uint64(2**64 - 1)


def _halves(m: np.ndarray, raw) -> np.ndarray:
    """Elementwise Binomial(m, 1/2): the ones among m fresh random bits.

    The nonzero counts, in order, take consecutive runs of ceil(m / 64) words
    of the stream, the lanes of each run's last word past m masked off; a
    zero count draws nothing.  The words come at most :data:`_PIECE` at a
    time, and a run may span pieces.
    """
    ones = np.zeros(m.size, dtype=np.int64)
    live = np.flatnonzero(m)
    sizes = m.ravel()[live]
    words = -(-sizes // 64)
    ends = np.cumsum(words)
    starts = ends - words
    tails = _ONES >> (-sizes % 64).astype(np.uint64)
    total = int(ends[-1]) if live.size else 0
    for lo in range(0, total, _PIECE):
        u = raw(min(_PIECE, total - lo))
        hi = lo + u.size
        # The runs that end in this piece, and all the runs that touch it.
        a, b = np.searchsorted(ends, (lo, hi), side="right")
        u[ends[a:b] - 1 - lo] &= tails[a:b]
        c = np.searchsorted(starts, hi)
        cuts = np.maximum(starts[a:c] - lo, 0)
        # A piece holds at most 64 * _PIECE ones, so uint32 sums it exactly.
        ones[live[a:c]] += np.add.reduceat(np.bitwise_count(u), cuts, dtype=np.uint32)
    return ones.reshape(m.shape)


def _qber_digits(e: float) -> str:
    """The binary digits d1 d2 ... of e = 0.d1d2..., through its last 1-digit
    (every float is a dyadic rational); empty for e = 0."""
    num, den = float(e).as_integer_ratio()
    return format(num, f"0{den.bit_length() - 1}b") if num else ""


def _binomial(m: np.ndarray, digits: str, raw) -> np.ndarray:
    """Elementwise Binomial(m, e) for e = 0.d1d2... with the given digits.

    Each of the m rounds compares a uniform U = 0.u1u2... with e digit by
    digit, and counts only are kept: at each digit the rounds still equal to
    e draw their next bit by :func:`_halves`.  Under a 1-digit the 0-bits fall
    below e; under a 0-digit the 1-bits rise above it.  The rounds below e,
    which have probability e exactly, are returned.  The comparison stops
    after e's last 1-digit (U = e then has probability 0), or earlier once no
    round is still equal; e = 0 draws nothing.
    """
    below = np.zeros_like(m)
    equal = m
    for d in digits:
        ones = _halves(equal, raw)
        if d == "1":
            below += equal - ones
            equal = ones
        else:
            equal = equal - ones
        if not equal.any():
            break
    return below


def _split(counts: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """The counts with a new last axis: (counts - ones, ones)."""
    return np.stack([counts - ones, ones], axis=-1)


def _measure(flight: np.ndarray, basis: np.ndarray, raw) -> np.ndarray:
    """int64[N, 2]: node i's rounds by the bit measured in ``basis[i]``, from
    ``flight[i, b, bit]``, its rounds whose qubit is in that basis and bit.

    A qubit in the measured basis gives its bit; one in the other basis a
    uniform bit, split by :func:`_halves`."""
    rows = np.arange(len(flight))
    mixed = flight[rows, 1 - basis].sum(axis=1)
    return flight[rows, basis] + _split(mixed, _halves(mixed, raw))


def _code_counts(config: SimulationConfig, raw) -> np.ndarray:
    """Simulate ``config.n_rounds`` rounds from the words of ``raw``; return
    the int64[256] count of each round code.

    The rounds are exchangeable and only their histogram is kept, so they are
    never drawn one at a time: the state is the count of rounds at each node
    of the protocol tree, and every random step splits counts by an exact
    binomial.  Three halvings split the rounds into the 8 (basis_a, bits_a,
    basis_b) classes, and each pass appends its measured bit to the node, so
    the nodes after the third pass are the 64 patterns of
    :data:`_PATTERN_CODES`.
    """
    digits = _qber_digits(config.channel_qber)
    eve = config.eve is Eavesdropper.INTERCEPT_RESEND

    def send(counts, basis, bit, meas_basis):
        """Send node i's rounds as the qubit (basis[i], bit[i]), measure them
        in meas_basis[i], and return the nodes extended by the result."""
        # flight[i, b, bit]: node i's rounds whose qubit is in basis b and bit.
        flight = np.zeros((counts.size, 2, 2), dtype=np.int64)
        flight[np.arange(counts.size), basis, bit] = counts
        # The channel moves Binomial(count, e) rounds to the orthogonal bit.
        flips = _binomial(flight, digits, raw)
        flight += flips[..., ::-1] - flips
        if eve:
            # Eve measures in a uniform basis, X for the halving's ones, and
            # resends her result in her basis.
            by_basis = np.moveaxis(_split(flight, _halves(flight, raw)), -1, 0)
            results = _measure(by_basis.reshape(-1, 2, 2), np.repeat([0, 1], counts.size), raw)
            flight = results.reshape(2, -1, 2).swapaxes(0, 1)
        return _measure(flight, meas_basis, raw).ravel()

    # Node c = basis_a << 2 | bits_a << 1 | basis_b, each bit a halving.
    counts = np.array([config.n_rounds], dtype=np.int64)
    for _ in range(3):
        counts = _split(counts, _halves(counts, raw)).ravel()
    # Alice's qubit, which Bob measures in his basis: y.
    basis_a, bits_a, basis_b = _node_bits(3)
    counts = send(counts, basis_a, bits_a, basis_b)
    # Bob's re-prepared result, which Alice measures in her basis: r1.
    basis_a, bits_a, basis_b, y = _node_bits(4)
    counts = send(counts, basis_b, y, basis_a)
    # Bob's bit in his other basis, which Alice measures in the other basis
    # if r1 returned her own state, else in hers: r2.
    basis_a, bits_a, basis_b, y, r1 = _node_bits(5)
    counts = send(counts, 1 - basis_b, y, basis_a ^ (r1 == bits_a))
    code_counts = np.zeros(256, dtype=np.int64)
    code_counts[_PATTERN_CODES] = counts
    return code_counts


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run ``config.n_rounds`` rounds and aggregate sift/QBER statistics.

    The count-level sampler :func:`_code_counts` draws from the one stream
    ``SeedSequence(seed, spawn_key=(0,))``, so the report depends only on
    ``config``, and memory stays O(_PIECE) however many rounds are asked for.
    """
    # The seed's first spawned child, the stream that earlier versions drew from.
    stream = np.random.SeedSequence(config.rng_seed, spawn_key=(0,))
    code_counts = _code_counts(config, np.random.PCG64(stream).random_raw)

    branch_counts = tuple(code_counts[_BRANCH_CODES].tolist())
    counts = code_counts[_PATTERN_CODES]
    kept = int(counts @ _KEPT[config.protocol])
    errors = int(counts @ _ERR[config.protocol])
    orth_fraction = int(counts @ _ORTH) / config.n_rounds
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
