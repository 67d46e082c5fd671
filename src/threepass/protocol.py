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
level of the tree appends one bit to every node.  A node's rounds carry the
same qubit and measure it in the same basis, so the count read as the other
bit is one exact Binomial(m, p), at one p per node (:func:`_chances`): 1/2
for Alice's and Bob's choices and a measurement outside the qubit's basis,
and e in it, or (e + 1/2)/2 under intercept-resend.  So a run is six
levels, each one :func:`_binomial` call on every node, p an exact dyadic.
Every count of m > 0 rounds at p > 0 is drawn by rejection from a geometric
envelope around its mode floor((m + 1) p) (:func:`_binomial_by_rejection`),
in O(1) expected words: a float log-ratio built from log1p terms decides each
proposal unless it lies within a proven error margin of the uniform, or the
mode is 0 or m, where the log-ratio is singular, and there exact integers or
decimal intervals decide (:func:`_accept_certified`).  No float probability
decides an outcome, and a zero count, or p = 0, draws nothing.  So a run
draws a few thousand words, a buffer of uint64 per draw of which only the
words read are boxed as ints, and its cost and memory do not grow with the
round count, up to 2**63 - 1.  A level holds at most 32 counts, so the whole
path, from the walk to the report, runs on Python ints and floats.

All words come from one stream, ``random.Random(seed)`` (:func:`_word_source`),
so a report is bit-for-bit reproducible from its seed.  Sift fraction, QBER
and the orthogonal fraction follow from per-pattern tables: each protocol's
sifting rule is written once, in one function of a round pattern's bits
(:func:`_pattern`), mapped over the 64 reachable patterns.  The three passes are
written once too, in :func:`_walk`: :func:`code_distribution` walks the
kernel's tree on probabilities, for the exact law of the round codes, and
the published table's noiseless branches are the support of that law at
e = 0 without Eve (:func:`_published_branches`).  The exact branch
enumeration in ``tests/enum_oracle.py`` is the independent reference that
the sampler and the tables are tested against.
"""

from __future__ import annotations

import enum
import functools
import math
import random
import sys
from dataclasses import dataclass
from itertools import compress

from .qmath import in_range


class Eavesdropper(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"


class ProtocolId(enum.Enum):
    P1 = "p1"
    P2 = "p2"


# Tolerance on |orthogonal fraction - 1/4| in the step-3 abort test; equals
# the published basis-announced tolerable error of the return-pass key rate,
# secrate.REFERENCE_THRESHOLDS["sb1_announced"].
DEFAULT_SB1_TOLERANCE = 0.0617

#: The names of the four signal states, indexed as 2*basis + bit (Z = 0, X = 1).
STATE_NAMES = ("|0>", "|1>", "|+>", "|->")

#: Largest round count, the CLI's contract: an int64.
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
        in_range("QBER", self.channel_qber, 0.0, 0.5)
        in_range("sb1_tolerance", self.sb1_tolerance, 0.0, math.inf)


@functools.cache
def _node_bits(width: int) -> tuple:
    """The bits of the nodes 0 .. 2**width - 1, most significant first."""
    return tuple(tuple(n >> s & 1 for n in range(1 << width)) for s in range(width - 1, -1, -1))


def _pattern(basis_a, bits_a, basis_b, y, r1, r2) -> tuple:
    """What the tables say of one reachable round pattern:

    - its round code ``((s_a*4 + y)*4 + r1)*4 + r2`` of the states, as
      2*basis + bit;
    - P1's and P2's determined state, or -1 to discard the round;
    - whether r1 is orthogonal to Alice's state (the sb1 test);
    - its key in the published table's order (:func:`_published_branches`):
      Bob's result in Alice's basis first, her echo before the orthogonal r1.

    Alice measures r2 in basis mb = basis_a ^ (r1 == bits_a), so the other
    192 codes never occur.
    """
    echo = r1 == bits_a  # Alice's return measurement gave her own state
    s_a = 2 * basis_a + bits_a
    code = ((s_a * 4 + 2 * basis_b + y) * 4 + 2 * basis_a + r1) * 4 + 2 * (basis_a ^ echo) + r2
    other = 2 - 2 * basis_a  # a bit in Alice's other basis is the state other + bit
    # P1, on Bob's announced basis J: an orthogonal r1 means r2 was measured
    # in Alice's basis and gave Bob's bit, determined in her other basis; an
    # echo is kept only when J matched and r2 gave her bit.
    p1 = (s_a if basis_b == basis_a and r2 == bits_a else -1) if echo else other + r2
    # P2, on Bob's partition label m = y: Bob's bit in Alice's other basis,
    # unless m is her bit and r1 and r2 agree: both gave her bit (her own
    # state is determined) or neither did (discarded).
    p2 = (s_a if echo else -1) if y == bits_a and echo == (r2 == bits_a) else other + y
    return code, p1, p2, not echo, (s_a, basis_b ^ basis_a, y, r1 ^ bits_a, r2)


#: The tables of the 64 reachable (basis_a, bits_a, basis_b, y, r1, r2) round
#: patterns (:func:`_pattern`), each indexed by the pattern read as a 6-bit
#: number, and the codes in the published order.
_PATTERN_CODES, _P1, _P2, _ORTH, _KEYS = zip(*map(_pattern, *_node_bits(6)))
_PUBLISHED_ORDER = [code for _, code in sorted(zip(_KEYS, _PATTERN_CODES))]
_DETERMINED = {ProtocolId.P1: _P1, ProtocolId.P2: _P2}
#: Per-pattern sift tables: the round is kept, or kept with a determined
#: state other than Bob's result y (bits 4-5 of the code).
_KEPT = {pid: tuple(d >= 0 for d in determined) for pid, determined in _DETERMINED.items()}
_ERR = {pid: tuple(d >= 0 and d != code >> 4 & 3 for d, code in zip(determined, _PATTERN_CODES))
        for pid, determined in _DETERMINED.items()}


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
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
        if sum(self.branch_counts) + self.other_count != self.config.n_rounds:
            raise ValueError("branch counts must sum to n_rounds")

    def to_text(self) -> str:
        config = self.config
        lines = [
            f"protocol:                {config.protocol.value}",
            f"rounds:                  {config.n_rounds}",
            f"channel qber:            {config.channel_qber:.6g}",
            f"eavesdropper:            {config.eve.value}",
            f"seed:                    {config.rng_seed}",
            f"sift fraction:           {self.sift_fraction:.6g}",
            f"sifted qber:             {self.sifted_qber:.6g}",
            f"sb1 orthogonal fraction: {self.sb1_orthogonal_fraction:.6g}",
            f"sb1 check (tol {config.sb1_tolerance:.6g}): "
            + ("pass" if self.sb1_check_passed else "FAIL"),
            f"off-table rounds:        {self.other_count}",
        ]
        return "\n".join(lines)


#: The least mode floor((m + 1) p) whose envelope width :func:`_width`
#: sets from 4mpq; below it the width is set from M + 1: w = 2, 4, 4, 4, 4,
#: 8, 8, 8 at M = 0..7 (the proof is in :func:`_binomial_by_rejection`).
_MODE_MIN = 8

#: Proposals drawn for each count in the first batch of the rejection
#: sampler; each is accepted with probability about 1/4.
_PROPOSALS = 16

#: Error margin of the float test of :func:`_binomial_by_rejection`, relative
#: to a bound on its terms' magnitudes.  Each term is off by a few units in
#: the last place (1/2 per rounding, and 4 allowed per math.log1p or log, the
#: C library's: glibc documents 1 ulp on x86-64), so the float value errs by
#: less than 2**-48 of that bound; this margin is 256 times more.  Within it,
#: :func:`_accept_certified` decides.
_MARGIN = 2.0**-40

#: The certified fallback compares exact integers when the ratio's falling
#: factorials and powers hold at most about this many bits, and decimal
#: intervals above.
_EXACT_BITS = 2**16

_LOW31 = 2**31 - 1
_LN2 = math.log(2.0)


def _open_blocks(words, n: int) -> list:
    """The indices i < n at which bits 62..32 of words[i] are all 0, whose
    block reads on into a further word.  Read as one int, each 64-bit lane of
    words[:n] masked to bits 62..32, plus that mask, carries into bit 63
    unless all 31 bits are 0; only if some lane does not, at odds of about
    n * 2**-31, are the words read one at a time."""
    mask = int.from_bytes(b"\0\0\0\0\xff\xff\xff\x7f" * n, "little")
    lanes = int.from_bytes(memoryview(words)[:n], sys.byteorder)  # a word a lane
    closed = (lanes & mask) + mask | mask == mask << 1 | mask
    return [] if closed else [i for i in range(n) if not words[i] >> 32 & _LOW31]


def _dyadic(p: float) -> tuple[int, int]:
    """(a, b) with p = a / (a + b) and a + b a power of two (every float is a
    dyadic rational), so that q = 1 - p = b / (a + b)."""
    a, scale = p.as_integer_ratio()
    return a, scale - a


def _width(m: int, p: float, mode: int) -> int:
    """The envelope's block width for Binomial(m, p) of mode M: the smallest
    power of two w with w*w > 0.6932 * 4x, for x = mpq at M >= :data:`_MODE_MIN`
    and x = M + 1 below it.  0.6932 * 4 exceeds 4 ln 2 by far more than float
    rounding.  0.6932 * 4x < 2**e for e its frexp exponent, and 2**(e - 1) <=
    it, so w = 2**ceil(e / 2)."""
    x = 0.6932 * 4 * (mode + 1) if mode < _MODE_MIN else 0.6932 * 4 * p * (1 - p) * m
    return 1 << (math.frexp(x)[1] + 1) // 2


def _count_constants(m: int, a: int, b: int) -> tuple:
    """(m, a, b, M, w) of Binomial(m, a/(a + b)) (:func:`_width`), then the
    float test's constants (:func:`_binomial_by_rejection`): M and G = m - M
    as floats, log1p(t), m/12 and (1/M + 1/G)/12, or 0s at M = 0 or m, where
    the test is singular.  1 + t = (m - M)p/(Mq), and t = (m a - M (a + b))
    / (M b) is one rounding of a ratio of exact integers.  a + b is a power of
    two (:func:`_dyadic`), so M = floor((m + 1) a / (a + b)) is a shift."""
    mode = (m + 1) * a >> (a + b).bit_length() - 1
    mf, gf = float(mode), float(m - mode)
    return (m, a, b, mode, _width(m, a / (a + b), mode)) + (
        (mf, gf, math.log1p((m * a - mode * (a + b)) / (mode * b)), float(m) / 12,
         (1 / mf + 1 / gf) / 12) if mf and gf else (0.0,) * 5)


def _binomial_by_rejection(m: list, pairs: list, raw) -> list:
    """Binomial(m, p) for each count m > 0, exactly, at its p = a/(a + b) in
    (0, 1/2], one exact (a, b) (:func:`_dyadic`) per count: by rejection from
    a geometric envelope around the mode M = floor((m + 1) p) (Bringmann,
    Kuhn, Panagiotou, Peter and Thomas, ICALP 2014, section 3, there at
    p = 1/2; Kachitvichyanukul and Schmeiser, CACM 31(2), 1988, at a general
    p).

    Let q = 1 - p and f(k) = C(m, k) p**k q**(m - k).  M is computed in
    integers from p = a / 2**L, since m a overflows int64, and w is the
    smallest power of two with w*w > 0.6932 * 4mpq, or 0.6932 * 4(M + 1) at
    M < :data:`_MODE_MIN` (:func:`_width`).  A proposal k lies at distance
    j = K*w + offset from the mode.  One word gives all three: the block index
    K ~ Geometric(1/2) is the leading zeros of its bits 62..32 (read on into
    further words' bits 62..32 while they are all 0), bit 63 its side (0:
    k = M + j, 1: k = M - 1 - j, so each k has one (side, j)), and its bits
    below w the offset.  Such a k is proposed with probability 2**-(K+2) / w.
    A uniform U, the next word and as many more as a decision needs, accepts
    k when U < 2**K f(k)/f(M), so k is kept with probability f(k)/(4 w f(M)):
    exactly the law of Binomial(m, p).  About 1/5 to 2/5 of the proposals are
    accepted, as w*w/(mpq) varies, and at least 1/8 at the small modes.  At
    p = 1/2, M is ceil(m / 2) and w*w > 0.6932 m from M = 8 on.

    The envelope holds: 2**K f(k) <= f(M) on block K.  M is a mode, which
    settles K = 0.  The pmf ratio f(k + 1)/f(k) = (m - k)p/((k + 1)q) falls
    with k, so ln f is concave and ln(f(M +- i)/f(M))/i does not rise with i.
    So it is enough that f(M + w) and f(M - w) are at most f(M)/2: on block
    K >= 1, |k - M| >= K w.  Write n = m + 1, so that M + 1 - np lies in
    (0, 1], and let A = w*w/(npq).  For 0 <= i < w, ln(f(k + 1)/f(k)) is at
    most -i/(nq) - ln(1 + i/(np)) at k = M + i, and at least
    ln(1 + i/(nq)) - ln(1 - i/(np)) at k = M - 1 - i; with ln(1 - x) <= -x
    and ln(1 + x) >= x - x*x/2, both sides give

        ln(f(M +- w)/f(M)) <= -w(w - 1)/(2npq) + w**3/(6 (np)**2)
                            = -(A/2)(1 - 1/w) + A**1.5 q**1.5/(6 sqrt(np)).

    At M >= 8, 2.599 < A < 11.1: w is the smallest such power of two, and
    m >= 15 (as p <= 1/2), so m/n >= 15/16 and A > 2.7728 * 15/16.  Also
    np >= M >= 8, so 4mpq >= 15 and w >= 4.  The right side is convex in A,
    and at both ends it is at most -0.72 < ln(1/2) (-0.728 and -1.98).

    At M < 8 the ratio at k = M + i is below (M + 1)/(M + 1 + i), for
    (m - M)p < (M + 1)q, that is M > np - 1.  So f(M + w)/f(M) is below the
    product of (M + 1)/(M + 1 + i) over i < w, which is at most 1/2 at each
    M = 0..7 with its w = 2, 4, 4, 4, 4, 8, 8, 8: exactly 1/2 at M = 0, and
    less above.  And M - 1 - w < 0, so side 1 has no block K >= 1 in [0, m].

    A batch draws the proposals of every count still unsampled, then their
    uniforms, as one buffer of words, each boxed as an int only when read; a
    big-int scan finds the blocks still open (:func:`_open_blocks`), and a
    word more is drawn per open block, in order, while any is.  A count takes
    its first accepted proposal: the float test below, on constants computed
    once per count, decides nearly all, and :func:`_accept_certified`, given
    (a, b) and the mode, the rest, in rounds, each in count order.  The first
    batch holds :data:`_PROPOSALS` per count, each later one four times as many.

    The float test takes U in [u, u + 1) / 2**53, u the top 53 bits of the
    uniform word, and accepts, rejects or cannot tell by ln A.  With G = m - M,
    b = m - k, 1 + t = G p/(M q) and Stirling's ln n! = (n + 1/2) ln n - n +
    ln(2 pi)/2 + r_n, 0 < r_n < 1/(12n) (Robbins, 1955),

        ln A = K ln 2 + y log1p(t) - (k + 1/2) log1p(y/M)
               - (b + 1/2) log1p(-y/G) + r_M + r_G - r_k - r_b.

    Its terms are O(|y|) near the mode, where ln f(k) is O(m ln m): for
    0 < M < m, t = (mp - M)/(Mq) lies in [-1/M, 1/M) and 1 + t >= 1/2, so
    y log1p(t) is at most 2|y| in magnitude and an error in t is not blown
    up; the last two products have opposite signs and together at least |y|;
    and an error in a log1p argument is damped by the factor before it.  So
    the float value errs by less than 2**-48 (K ln 2 + 2 S + 64), with S the
    magnitude of the last two products' difference, and leaves out the r_n,
    which sum to less than (1/M + 1/G + 1/k + 1/b)/12 in magnitude.  A
    decision needs ln A to clear ln U by that plus :data:`_MARGIN` (K ln 2 +
    2 S + 64), and u = 0 clears ln 0 = -inf.  A k outside [0, m] is rejected;
    :func:`_accept_certified` takes one in it where a log1p is singular: M = 0
    or m (m = 1, p = 1/2), k = 0 or m, or y/M or -y/G rounded to -1.
    """
    out, margin = [None] * len(m), _MARGIN
    counts = [_count_constants(n, a, b) for n, (a, b) in zip(m, pairs)]
    live, proposals = list(range(len(m))), _PROPOSALS
    while live:
        size = len(live) * proposals
        words = raw(2 * size)
        more, unended = {}, _open_blocks(words, size)
        while unended:
            extra = raw(len(unended))
            for at, word in zip(unended, extra):  # K adds its leading zeros
                more[at] = more.get(at, 0) + 31 - (word >> 32 & _LOW31).bit_length()
            unended = [unended[i] for i in _open_blocks(extra, len(unended))]
        # Count i's proposals, row r of the batch, to its first accepted; one
        # waiting for a certified decision goes to the next round's ``turn``.
        turn = [(i, r * proposals, (r + 1) * proposals, None, 0) for r, i in enumerate(live)]
        while turn:
            turn, this = [], turn
            for i, start, end, k, block in this:
                n, a, b, mode, w, mf, gf, log_tilt, m12, r_mg = counts[i]
                if k is not None:
                    if _accept_certified(n, a, b, mode, k, block, words[size + start], raw):
                        out[i] = k
                        continue
                    start += 1
                for at in range(start, end):
                    word = words[at]  # K: the leading zeros of bits 62..32
                    block = 31 - (word >> 32 & _LOW31).bit_length()
                    if block == 31:
                        block += more[at]
                    j = block * w + (word & w - 1)
                    # y = k - M: j on side 0, and M - 1 - j - M = ~j on side 1.
                    y = ~j if word >> 63 else j
                    k, rest = mode + y, n - mode - y
                    if k < 0 or rest < 0:
                        continue
                    yf = float(y)
                    if not mf or yf / mf == -1.0 or -yf / gf == -1.0:
                        turn.append((i, at, end, k, block))
                        break
                    kf, bf = float(k), float(rest)
                    lift = block * _LN2
                    up, down = (kf + 0.5) * math.log1p(yf / mf), (bf + 0.5) * math.log1p(-yf / gf)
                    # ln(2**53 A), to compare with ln u.
                    ln_a = lift + yf * log_tilt - up - down + 53 * _LN2
                    error = (lift + 2 * abs(up - down) + 64) * margin + (m12 / (kf * bf) + r_mg)
                    u = float(words[size + at] >> 11)
                    if ln_a - error > math.log(u + 1):
                        out[i] = k
                        break
                    if not u or ln_a + error >= math.log(u):
                        turn.append((i, at, end, k, block))
                        break
        live = [i for i in live if out[i] is None]
        proposals *= 4
    return out


class _Uniform:
    """A uniform U in [0, 1), known by its first ``bits`` bits u, so that U lies
    in [u, u + 1) / 2**bits; :meth:`extend` reads 64 more from ``raw``."""

    def __init__(self, word: int, raw) -> None:
        self.u, self.bits, self.raw = word, 64, raw

    def extend(self) -> None:
        self.u = self.u << 64 | int(self.raw(1)[0])
        self.bits += 64


def _accept_certified(m, a, b, mode, k, block, word, raw) -> int:
    """1 when U < 2**block f(k)/f(M), for f the Binomial(m, p) pmf at p =
    a/(a + b) and M = ``mode`` = floor((m + 1) p), else 0, for the uniform U
    whose first 64 bits are ``word``, read on from ``raw`` as far as needed.
    No float is used: a ratio of small falling factorials and powers of p/q
    is compared as integers, a larger one by :func:`_accept_by_interval`
    first."""
    if not 0 <= k <= m:
        return 0
    uniform = _Uniform(word, raw)
    if abs(k - m * a // (a + b)) * (m.bit_length() + (a * b).bit_length() - 1) > _EXACT_BITS:
        decided = _accept_by_interval(m, a, b, mode, k, block, uniform)
        if decided is not None:
            return decided
    return _accept_exactly(m, a, b, mode, k, block, uniform)


def _accept_exactly(m, a, b, mode, k, block, uniform: _Uniform) -> int:
    """:func:`_accept_certified` in integers: with d = |k - M|, the ratio
    f(k)/f(M) is num/den, one falling factorial of d factors times a**d or
    b**d over another times the other power."""
    d = abs(k - mode)
    num, den = ((math.perm(m - mode, d) * a**d, math.perm(k, d) * b**d) if k >= mode
                else (math.perm(mode, d) * b**d, math.perm(m - k, d) * a**d))
    num <<= block
    while True:
        top = num << uniform.bits
        if (uniform.u + 1) * den <= top:
            return 1
        if uniform.u * den >= top:
            return 0
        uniform.extend()


#: Stirling's series ln n! = (n + 1/2) ln n - n + ln(2 pi)/2 + sum of
#: c_i n**-(2i - 1): the coefficients c_i = B_2i / (2i (2i - 1)), i = 1..7, as
#: (numerator, denominator); the remainder has the sign of, and lies below,
#: the first term left out, -3617/122400 n**-15 (for every n > 0).
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156))
_STIRLING_REST = (3617, 122400)
#: Below this, ln n! is ln(_STIRLING_MIN)! less the log of an exact integer.
_STIRLING_MIN = 1024


@functools.lru_cache(maxsize=1024)
def _ln_factorial(n: int, digits: int):
    """(x, r): ln n! - ln(2 pi)/2 lies within r of x, besides the roundings
    of decimal arithmetic at ``digits`` digits."""
    from decimal import Context, Decimal, localcontext

    z = max(n, _STIRLING_MIN)
    with localcontext(Context(prec=digits)):
        dz = Decimal(z)
        x = (dz + Decimal("0.5")) * dz.ln() - dz
        for i, (num, den) in enumerate(_STIRLING):
            x += Decimal(num) / Decimal(den * z ** (2 * i + 1))
        if n < z:
            x -= Decimal(math.perm(z, z - n)).ln()  # z! / n!
        return x, Decimal(_STIRLING_REST[0]) / Decimal(_STIRLING_REST[1] * z**15)


def _accept_by_interval(m, a, b, mode, k, block, uniform: _Uniform):
    """:func:`_accept_certified` by decimal intervals: 1 or 0, or None when
    ln A = ln(2**block f(k)/f(M)) is still too close to ln U at 80 digits.
    U is read on while its interval is the wider one, and the digits are
    doubled otherwise."""
    from decimal import Decimal, localcontext

    for digits in (40, 80):
        with localcontext() as ctx:
            ctx.prec = digits
            ln2 = Decimal(2).ln()
            (x_g, r_g), (x_mode, r_mode), (x_k, r_k), (x_b, r_b) = (
                _ln_factorial(n, digits) for n in (m - mode, mode, k, m - k))
            ln_a = (block * ln2 + x_g + x_mode - x_k - x_b
                    + (k - mode) * (Decimal(a) / Decimal(b)).ln())
            while True:
                # Every operation rounds by at most one unit in the digits'
                # last place of a magnitude below 1024 max(m, 1024) + bits,
                # and there are fewer than 200 of them: each ln n! is taken
                # from ln(max(n, 1024))! < 44 max(m, 1024), and ln(a/b) times
                # |k - M| <= m is below 745 m, as p is a float, at least
                # 2**-1074, or Eve's chance, at least 1/4.
                magnitude = 1024 * max(m, _STIRLING_MIN) + uniform.bits
                slack = 200 * magnitude * Decimal(10) ** (1 - digits)
                radius = r_g + r_mode + r_k + r_b + slack
                ln_hi = Decimal(uniform.u + 1).ln() - uniform.bits * ln2
                if ln_hi + slack <= ln_a - radius:
                    return 1
                if uniform.u:
                    ln_lo = Decimal(uniform.u).ln() - uniform.bits * ln2
                    if ln_lo - slack >= ln_a + radius:
                        return 0
                    if ln_hi - ln_lo <= 2 * radius:
                        break
                uniform.extend()
    return None


def _binomial(m: list, p, raw) -> list:
    """Binomial(m[i], p) for each count m[i], at dyadic p in [0, 1/2], one
    float or a list of one exact (a, b) (:func:`_dyadic`) per count: every
    count of m > 0 rounds at p > 0 is drawn by :func:`_binomial_by_rejection`,
    all in one call, and the others are 0 and draw nothing."""
    pairs = [_dyadic(p)] * len(m) if isinstance(p, float) else p
    out, drawn = [0] * len(m), [i for i, (n, (a, _)) in enumerate(zip(m, pairs)) if n and a]
    if drawn:
        got = _binomial_by_rejection([m[i] for i in drawn], [pairs[i] for i in drawn], raw)
        for i, x in zip(drawn, got):
            out[i] = x
    return out


def _chances(e: float, eve: bool) -> tuple:
    """The exact (a, b) (:func:`_dyadic`) of the chance that a qubit is read
    as the other bit: 1/2 measured in the other basis, and e in its own, or
    (e + 1/2)/2 under intercept-resend: Eve's basis is the qubit's half the
    time, and she passes the flip on; else her resent qubit is in the other
    basis, and the bit is uniform."""
    a, b = _dyadic(e)
    if eve:  # (a/(a + b) + 1/2)/2 = (3a + b) / (4(a + b)), in lowest terms
        g = math.gcd(3 * a + b, 4 * (a + b))
        a, b = (3 * a + b) // g, (a + 3 * b) // g
    return (1, 1), (a, b)


def _walk(total, part, e: float, eve: bool) -> list:
    """Split ``total``, an int or a float, down the protocol tree; return the
    part of it at each of the 256 round codes, a list of the same type.

    Each level appends one bit to every node: three uniform bits split
    ``total`` into the 8 (basis_a, bits_a, basis_b) classes, and each pass
    the bit measured, so the nodes after the third pass are the 64 patterns
    of :data:`_PATTERN_CODES`.  A node's rounds send one qubit and measure
    it in one basis, so ``part(x, p)`` splits each node x[i] by one binomial:
    the part read as the other bit at p[i] = (a, b) (:func:`_chances`), 1/2
    in the other basis, and e in the qubit's own, or (e + 1/2)/2 under
    intercept-resend.
    """
    chances = _chances(e, eve)

    def send(counts, basis, bit, meas_basis):
        """Send node i's rounds as the qubit (basis[i], bit[i]), read in meas_basis[i]."""
        other = part(counts, [chances[s == t] for s, t in zip(basis, meas_basis)])
        # other is drawn, or node * p: never node less the rest, inexact at small p.
        return [x for node, x_other, one in zip(counts, other, bit)
                for x in ((x_other, node - x_other) if one else (node - x_other, x_other))]

    # Node c = basis_a << 2 | bits_a << 1 | basis_b, each bit a uniform one:
    # a 1 sent in Z and read in X.
    counts = [total]
    for _ in range(3):
        counts = send(counts, [0] * len(counts), [1] * len(counts), [1] * len(counts))
    # Alice's qubit, which Bob measures in his basis: y.
    basis_a, bits_a, basis_b = _node_bits(3)
    counts = send(counts, basis_a, bits_a, basis_b)
    # Bob's re-prepared result, which Alice measures in her basis: r1.
    basis_a, bits_a, basis_b, y = _node_bits(4)
    counts = send(counts, basis_b, y, basis_a)
    # Bob's bit in his other basis, which Alice measures in the other basis
    # if r1 returned her own state, else in hers: r2.
    basis_a, bits_a, basis_b, y, r1 = _node_bits(5)
    counts = send(counts, [1 - s for s in basis_b], y,
                  [s ^ (r == t) for s, r, t in zip(basis_a, r1, bits_a)])
    by_code = [type(total)()] * 256
    for code, x in zip(_PATTERN_CODES, counts):
        by_code[code] = x
    return by_code


def _code_counts(config: SimulationConfig, raw) -> list:
    """Simulate ``config.n_rounds`` rounds from the words of ``raw``; return
    the count of each of the 256 round codes.

    The rounds are exchangeable and only their histogram is kept, so they are
    never drawn one at a time: :func:`_walk` splits the count at each node by
    one exact binomial, :func:`_binomial`.
    """
    return _walk(config.n_rounds, lambda m, p: _binomial(m, p, raw),
                 config.channel_qber, config.eve is Eavesdropper.INTERCEPT_RESEND)


def code_distribution(e: float, eve: bool) -> list:
    """The probability of each of the 256 round codes at channel QBER e,
    with or without the intercept-resend eavesdropper.  It is the kernel's
    walk down the protocol tree on probability 1, a node's part read as the
    other bit the node times the float nearest its exact p."""
    return _walk(1.0, lambda x, p: [node * (a / (a + b)) for node, (a, b) in zip(x, p)], e, eve)


def _published_branches() -> tuple:
    """The published table's noiseless branches, as (s_a, y, r1, r2,
    probability) rows, and their codes, in the published order: at e = 0
    without Eve, the branches in which each pass measured in the qubit's own
    basis gave its bit, which are the support of the exact law."""
    law = code_distribution(0.0, False)
    codes = [code for code in _PUBLISHED_ORDER if law[code] > 0]
    return [(c >> 6, c >> 4 & 3, c >> 2 & 3, c & 3, law[c]) for c in codes], codes


TABLE1_BRANCHES, BRANCH_CODES = _published_branches()
#: BRANCH_CODES[i] is the round code of TABLE1_BRANCHES[i].


def _word_source(seed: int):
    """``raw(n)``: the next n 64-bit words of ``random.Random(seed)``, as a
    memoryview of uint64, so that a word is boxed as an int only when read.

    Word i of a draw is bits 64i .. 64i + 63 of one ``getrandbits(64 n)``
    call, two outputs of the Mersenne Twister, low first, so the words come in
    the same order whatever the sizes of the draws.  The draw's bytes are cast
    in the machine's order; a big-endian one reads the words last first."""
    bits, step = random.Random(seed).getrandbits, 1 if sys.byteorder == "little" else -1
    return lambda n: memoryview(bits(64 * n).to_bytes(8 * n, sys.byteorder)).cast("Q")[::step]


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run ``config.n_rounds`` rounds and aggregate sift/QBER statistics.

    The count-level sampler :func:`_code_counts` draws from the one stream
    ``random.Random(seed)`` (:func:`_word_source`), so the report depends
    only on ``config``; its cost and memory do not grow with the round count.
    """
    code_counts = _code_counts(config, _word_source(config.rng_seed))

    branch_counts = tuple(code_counts[code] for code in BRANCH_CODES)
    counts = [code_counts[code] for code in _PATTERN_CODES]
    kept, errors, orthogonal = (sum(compress(counts, table)) for table in
                                (_KEPT[config.protocol], _ERR[config.protocol], _ORTH))
    orth_fraction = orthogonal / config.n_rounds
    return SimulationReport(
        config=config,
        sift_fraction=kept / config.n_rounds,
        sifted_qber=errors / kept if kept else 0.0,
        sb1_orthogonal_fraction=orth_fraction,
        sb1_check_passed=abs(orth_fraction - 0.25) <= config.sb1_tolerance,
        branch_counts=branch_counts,
        other_count=config.n_rounds - sum(branch_counts),
        sifted_count=kept,
        error_count=errors,
    )
