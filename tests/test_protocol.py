import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from threepass import protocol
from threepass.protocol import (
    TABLE1_BRANCHES,
    Eavesdropper,
    ProtocolId,
    SimulationConfig,
    run_simulation,
)
from enum_oracle import oracle_stats

# States are indexed as 2*basis + bit: |0>, |1>, |+>, |->.
_BY_NAME = {"0": 0, "1": 1, "+": 2, "-": 3}
# The pattern of each reachable round code ((s_a*4 + y)*4 + r1)*4 + r2.
_PATTERN_OF = {code: pattern for pattern, code in enumerate(protocol._PATTERN_CODES.tolist())}

# The 28 published rounds at zero noise: measurement pattern, probability,
# announced J for the basis-sifted variant with its determination (None =
# discard), and the partition-sifted determination (always conclusive).
# Tuples: (s_a, bob, r1, r2, prob, p1_result, p2_result)
PUBLISHED_ROUNDS = [
    ("0", "0", "0", "+", Fraction(1, 8), "0", "0"),
    ("0", "+", "0", "+", Fraction(1, 64), None, "0"),
    ("0", "+", "0", "-", Fraction(1, 64), None, "+"),
    ("0", "+", "1", "0", Fraction(1, 32), "+", "+"),
    ("0", "-", "0", "+", Fraction(1, 64), None, "-"),
    ("0", "-", "0", "-", Fraction(1, 64), None, "-"),
    ("0", "-", "1", "1", Fraction(1, 32), "-", "-"),
    ("1", "1", "1", "-", Fraction(1, 8), "1", "1"),
    ("1", "+", "1", "+", Fraction(1, 64), None, "+"),
    ("1", "+", "1", "-", Fraction(1, 64), None, "+"),
    ("1", "+", "0", "0", Fraction(1, 32), "+", "+"),
    ("1", "-", "1", "+", Fraction(1, 64), None, "-"),
    ("1", "-", "1", "-", Fraction(1, 64), None, "1"),
    ("1", "-", "0", "1", Fraction(1, 32), "-", "-"),
    ("+", "+", "+", "0", Fraction(1, 8), "+", "+"),
    ("+", "0", "+", "0", Fraction(1, 64), None, "+"),
    ("+", "0", "+", "1", Fraction(1, 64), None, "0"),
    ("+", "0", "-", "+", Fraction(1, 32), "0", "0"),
    ("+", "1", "+", "0", Fraction(1, 64), None, "1"),
    ("+", "1", "+", "1", Fraction(1, 64), None, "1"),
    ("+", "1", "-", "-", Fraction(1, 32), "1", "1"),
    ("-", "-", "-", "1", Fraction(1, 8), "-", "-"),
    ("-", "0", "-", "0", Fraction(1, 64), None, "0"),
    ("-", "0", "-", "1", Fraction(1, 64), None, "0"),
    ("-", "0", "+", "+", Fraction(1, 32), "0", "0"),
    ("-", "1", "-", "0", Fraction(1, 64), None, "1"),
    ("-", "1", "-", "1", Fraction(1, 64), None, "-"),
    ("-", "1", "+", "-", Fraction(1, 32), "1", "1"),
]


@pytest.mark.parametrize("s_a,bob,r1,r2,prob,p1,p2", PUBLISHED_ROUNDS)
def test_sift_rules_match_published_tables(s_a, bob, r1, r2, prob, p1, p2):
    s, y, m1, m2 = (_BY_NAME[name] for name in (s_a, bob, r1, r2))
    pattern = _PATTERN_OF[((s * 4 + y) * 4 + m1) * 4 + m2]
    for pid, published in ((ProtocolId.P1, p1), (ProtocolId.P2, p2)):
        determined = -1 if published is None else _BY_NAME[published]
        assert protocol._DETERMINED[pid][pattern] == determined
        assert protocol._KEPT[pid][pattern] == (published is not None)
        assert protocol._ERR[pid][pattern] == (published is not None and determined != y)
    assert protocol._ORTH[pattern] == (m1 != s)


def test_branch_table_matches_enumeration_oracle():
    hist = oracle_stats().histogram
    assert len(hist) == len(TABLE1_BRANCHES) == 28
    for *states, prob in TABLE1_BRANCHES:
        assert hist[tuple((state >> 1, state & 1) for state in states)] == prob


def test_branch_table_matches_published_rows():
    assert len(TABLE1_BRANCHES) == len(PUBLISHED_ROUNDS)
    for (s, y, r1, r2, prob), (ps, py, pr1, pr2, pprob, _, _) in zip(
            TABLE1_BRANCHES, PUBLISHED_ROUNDS):
        assert (s, y, r1, r2) == (_BY_NAME[ps], _BY_NAME[py],
                                  _BY_NAME[pr1], _BY_NAME[pr2])
        assert all(type(state) is int for state in (s, y, r1, r2))
        assert type(prob) is float and prob == pprob


def test_sift_p2_discards_unlisted_pattern_under_noise():
    # Orthogonal first result plus orthogonal second result with a matching
    # label appears only on a noisy channel and has no table entry.
    pattern = _PATTERN_OF[((0 * 4 + 0) * 4 + 1) * 4 + 1]  # |0>, |0>, |1>, |1>
    assert protocol._DETERMINED[ProtocolId.P2][pattern] == -1
    assert not protocol._KEPT[ProtocolId.P2][pattern]


def test_sb1_check_noisy_channel_against_oracle():
    e = Fraction(617, 10_000)
    expected = float(oracle_stats(e=e).orth_fraction)
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=100_000,
                              channel_qber=float(e), rng_seed=13)
    report = run_simulation(config)
    sigma = (expected * (1 - expected) / config.n_rounds) ** 0.5
    assert abs(report.sb1_orthogonal_fraction - expected) <= 3 * sigma
    # The deviation from 1/4 at this noise level sits just inside the
    # default tolerance, and the oracle agrees.
    assert (abs(expected - 0.25) <= 0.0617) == report.sb1_check_passed


def test_sb1_check_fails_at_zero_tolerance():
    # Over an odd number of rounds the orthogonal fraction cannot be exactly
    # 1/4, so a zero tolerance aborts.
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=1001, rng_seed=3,
                              sb1_tolerance=0.0)
    report = run_simulation(config)
    assert report.sb1_orthogonal_fraction != 0.25
    assert report.sb1_check_passed is False
    assert "sb1 check (tol 0): FAIL" in report.to_text()


def test_simulation_noiseless_p1():
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=200_000, rng_seed=42)
    report = run_simulation(config)
    sigma = (0.75 * 0.25 / config.n_rounds) ** 0.5
    assert abs(report.sift_fraction - 0.75) <= 3 * sigma
    assert report.sifted_qber == 0.0
    assert report.other_count == 0
    assert sum(report.branch_counts) == config.n_rounds


def test_simulation_noiseless_p2():
    config = SimulationConfig(protocol=ProtocolId.P2, n_rounds=200_000, rng_seed=42)
    report = run_simulation(config)
    assert report.sift_fraction == 1.0
    sigma = ((1 / 16) * (15 / 16) / config.n_rounds) ** 0.5
    assert abs(report.sifted_qber - 1 / 16) <= 3 * sigma


def test_simulation_matches_oracle_under_eavesdropping():
    oracle = oracle_stats(eve=True)
    n = 200_000
    for pid, sift_exp, qber_exp in (
        (ProtocolId.P1, oracle.p1_sift, oracle.p1_qber),
        (ProtocolId.P2, oracle.p2_sift, oracle.p2_qber),
    ):
        config = SimulationConfig(protocol=pid, n_rounds=n, rng_seed=21,
                                  eve=Eavesdropper.INTERCEPT_RESEND)
        report = run_simulation(config)
        s = float(sift_exp)
        assert abs(report.sift_fraction - s) <= 3 * (s * (1 - s) / n) ** 0.5
        q = float(qber_exp)
        kept = report.sifted_count
        assert abs(report.sifted_qber - q) <= 3 * (q * (1 - q) / kept) ** 0.5
        o = float(oracle.orth_fraction)
        assert abs(report.sb1_orthogonal_fraction - o) <= 3 * (o * (1 - o) / n) ** 0.5


def test_simulation_determinism():
    config = SimulationConfig(protocol=ProtocolId.P2, n_rounds=50_000,
                              channel_qber=0.05, rng_seed=99)
    a = run_simulation(config)
    b = run_simulation(config)
    assert a == b
    assert a.to_text() == b.to_text()


def _one_word_at_a_time(seed):
    """A word source like ``protocol._word_source`` that draws its words from
    ``random.Random(seed)`` one ``getrandbits(64)`` at a time."""
    bits = random.Random(seed).getrandbits
    return lambda n: np.array([bits(64) for _ in range(n)], dtype=np.uint64)


def test_simulation_reports_the_same_whatever_the_draw_sizes(monkeypatch):
    # A run's words come in the same order whatever the sizes of its draws:
    # drawn one word at a time, a run reports exactly what it reports with
    # whole draws, at a size whose counts take both halving paths.
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=100_001, channel_qber=0.1,
                              rng_seed=5)
    whole = run_simulation(config)
    monkeypatch.setattr(protocol, "_word_source", _one_word_at_a_time)
    assert run_simulation(config) == whole
    assert sum(whole.branch_counts) + whole.other_count == 100_001


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=0)
    with pytest.raises(ValueError, match=r"^QBER must lie in \[0, 0\.5\], got 0\.6$"):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, channel_qber=0.6)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, rng_seed=-1)
    # Counts are int64: the largest round count is accepted, one more is not.
    SimulationConfig(protocol=ProtocolId.P1, n_rounds=2**63 - 1)
    with pytest.raises(ValueError, match=r"^n_rounds must be <= 2\*\*63 - 1, got 9223372036854775808$"):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=2**63)


# The report for this configuration, frozen from the count-level kernel on
# the random.Random stream.  A fixed seed reproduces it exactly on every
# platform; a kernel that draws or uses its random words differently moves it.
FROZEN_CONFIG = SimulationConfig(protocol=ProtocolId.P2, n_rounds=30_000, channel_qber=0.05,
                                 eve=Eavesdropper.INTERCEPT_RESEND, rng_seed=2212)
FROZEN_BRANCH_COUNTS = (
    1472, 493, 467, 668, 460, 476, 644, 1420, 475, 469, 708, 452, 467, 684,
    1478, 462, 439, 675, 442, 473, 666, 1500, 472, 481, 693, 454, 479, 674,
)


def _code(key) -> int:
    """The simulator's round code of an oracle histogram key."""
    code = 0
    for basis, bit in key:
        code = code * 4 + 2 * basis + bit
    return code


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [Fraction(0), Fraction(3, 100), Fraction(1, 5)])
def test_sift_tables_reproduce_oracle_exactly(e, eve):
    oracle = oracle_stats(e=e, eve=eve)

    def expect(table):
        return sum(p * int(table[_PATTERN_OF[_code(key)]]) for key, p in oracle.histogram.items())

    assert expect(protocol._ORTH) == oracle.orth_fraction
    for pid, sift, qber in ((ProtocolId.P1, oracle.p1_sift, oracle.p1_qber),
                            (ProtocolId.P2, oracle.p2_sift, oracle.p2_qber)):
        assert expect(protocol._KEPT[pid]) == sift
        assert expect(protocol._ERR[pid]) / expect(protocol._KEPT[pid]) == qber


def _chi_square_bound(dof: int, z: float = 3.72) -> float:
    """The chi-square quantile at normal score z (3.72: upper tail 1e-4),
    by the Wilson-Hilferty approximation."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * a ** 0.5) ** 3


def _fits_oracle(counts: np.ndarray, e: Fraction, eve: bool) -> None:
    """Assert that a kernel histogram of counts.sum() rounds stays on the
    oracle's support and passes Pearson's chi-square test against it."""
    n = int(counts.sum())
    expected = np.zeros(256)
    for key, p in oracle_stats(e=e, eve=eve).histogram.items():
        expected[_code(key)] = float(p * n)
    assert counts[expected == 0].sum() == 0  # no round off the oracle's support
    # Pearson's statistic, the codes expected fewer than 5 times pooled.
    common, rare = expected >= 5, (expected > 0) & (expected < 5)
    observed, mean = list(counts[common]), list(expected[common])
    if rare.any():
        observed.append(counts[rare].sum())
        mean.append(expected[rare].sum())
    observed, mean = np.array(observed), np.array(mean)
    chi_square = float(((observed - mean) ** 2 / mean).sum())
    assert chi_square <= _chi_square_bound(len(mean) - 1)


def _kernel(config: SimulationConfig, seed) -> np.ndarray:
    return protocol._code_counts(config, np.random.default_rng(seed).bit_generator.random_raw)


def _config(n: int, e: Fraction, eve: bool) -> SimulationConfig:
    return SimulationConfig(protocol=ProtocolId.P1, n_rounds=n, channel_qber=float(e),
                            eve=Eavesdropper.INTERCEPT_RESEND if eve else Eavesdropper.NONE)


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [Fraction(0), Fraction(3, 100), Fraction(1, 5)])
def test_kernel_histogram_fits_oracle(e, eve):
    n = 2**20 - 37  # the last word of a full count holds 27 rounds
    counts = _kernel(_config(n, e, eve), 61)
    assert counts.sum() == n
    _fits_oracle(counts, e, eve)


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [Fraction(0), Fraction(3, 100), Fraction(1, 5)])
def test_kernel_histogram_fits_oracle_at_ten_million_rounds(e, eve):
    # Ten times the rounds resolve a bias about 3x smaller in each code's
    # probability than the test at 2^20 rounds.
    n = 10**7
    counts = _kernel(_config(n, e, eve), 67)
    assert counts.sum() == n
    _fits_oracle(counts, e, eve)


class _StubBits:
    """A bit generator whose random_raw hands out the given words in order
    and records the size of each draw."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0
        self.draws = []

    def random_raw(self, size):
        if self.used + size > self.words.size:
            raise IndexError("stub bit generator ran out of words")
        self.used += size
        self.draws.append(size)
        return self.words[self.used - size:self.used].copy()


_ONES = 2**64 - 1
_ALTERNATE = 0xAAAA_AAAA_AAAA_AAAA  # odd lanes set: m / 2 ones in the first m, m even


def test_halves_count_elementwise():
    # In order, over any shape: zero counts draw nothing, and each nonzero
    # count takes the popcount of the first m lanes of its next ceil(m / 64)
    # words (lane 3 of the first word is past m = 3), all in one draw.
    stub = _StubBits([0b1011, _ONES, 0b111, 1 << 63])
    got = protocol._halves(np.array([[3, 0], [0, 70], [64, 0]]), stub.random_raw)
    assert got.tolist() == [[2, 0], [0, 67], [1, 0]]
    assert stub.draws == [4]
    stub = _StubBits([])
    got = protocol._halves(np.zeros((2, 2), dtype=np.int64), stub.random_raw)
    assert got.tolist() == [[0, 0], [0, 0]]
    assert stub.draws == []


def test_class_sizes_halve_on_the_first_m_bits():
    # The kernel's first three halvings split the rounds into the 8
    # (basis_a, bits_a, basis_b) classes, level by level, 0-child first.
    # At e = 0 without Eve the words after them only measure, so each class
    # is the sum of its 8 patterns.
    def class_sizes(n, words):
        stub = _StubBits(words + [0] * 16)
        config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=n)
        counts = protocol._code_counts(config, stub.random_raw)
        return counts[protocol._PATTERN_CODES].reshape(8, 8).sum(axis=1).tolist(), stub.used

    # All-ones words put every round in class 7, all-zero words in class 0;
    # each level splits one nonempty class of n = 70 rounds, 2 words apiece,
    # and every measurement then meets a qubit in its own basis.
    for word, full in ((_ONES, 7), (0, 0)):
        assert class_sizes(70, [word] * 6) == ([70 if c == full else 0 for c in range(8)], 6)
    # Bits past m do not count: only the 6 low lanes of each second word hold
    # a round, and they are 0.
    assert class_sizes(70, [0, _ONES << 6 & _ONES] * 3) == ([70] + [0] * 7, 6)
    # 130 rounds: 64 + 2 ones of 130, then 10 of 64 and 2 of 66, then
    # 54 of 54, 0 of 10, 1 of 64 and 2 of 2; empty classes draw nothing.
    words = [_ONES, 0, 0b11, (1 << 10) - 1, 0, _ONES, _ONES, 0, 1, _ONES]
    assert class_sizes(130, words)[0] == [0, 54, 10, 0, 63, 1, 0, 2]


@pytest.mark.parametrize("piece", [1, 2, 3, 64])
def test_halves_popcount_masks_each_last_word(piece):
    # Counts up to _POPCOUNT_MAX whose last word holds `piece` rounds, among
    # zero counts: each takes the popcount of the first m bits of its run of
    # ceil(m / 64) words, all in one draw, the largest 64 words.
    top = protocol._POPCOUNT_MAX
    m = [64 + piece, 0, piece, top - 64 + piece, 0, 2 * 64 + piece]
    assert max(m) <= top
    words = np.random.default_rng(piece).bit_generator.random_raw(sum(-(-s // 64) for s in m))
    stub = _StubBits(words)
    got = protocol._halves(np.array(m), stub.random_raw)
    expected, used = [], 0
    for size in m:
        k = -(-size // 64)
        run = sum(int(w) << 64 * i for i, w in enumerate(words[used:used + k]))
        expected.append((run & ((1 << size) - 1)).bit_count())
        used += k
    assert got.tolist() == expected
    assert stub.draws == [used] == [words.size]


@pytest.mark.parametrize("e", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8),
                               Fraction(5, 16), Fraction(21, 64), Fraction(1, 64)])
def test_binomial_compares_digits_exactly(e):
    # Words that split the rounds still equal to e in half at each digit:
    # exactly 64 * e of 64 rounds then fall below e, and one word is drawn
    # per digit of e.
    k = e.denominator.bit_length() - 1
    digits = protocol._qber_digits(float(e))
    assert len(digits) == k
    stub = _StubBits([_ALTERNATE] * k)
    assert protocol._binomial(np.array([64]), digits, stub.random_raw).tolist() == [64 * e]
    assert stub.used == k


def test_binomial_hand_worked_digits():
    # e = 5/8 = 0.101 over counts (3, 0, 70); the zero count draws nothing.
    # Digit 1: ones 2 of 3 and 64 + 2 of 70, so (1, 0, 4) fall below e and
    #   (2, 0, 66) stay equal.
    # Digit 0: ones 1 of 2 and 0 + 2 of 66 rise above; (1, 0, 64) stay equal.
    # Digit 1: ones 0 of 1 (the set lane 1 is past m) and 64 of 64, so
    #   (1, 0, 0) more fall below e.
    words = [0b101, _ONES, 0b110000, 0b10, 0, 0b11, 0b10, _ONES]
    stub = _StubBits(words)
    assert protocol._binomial(np.array([3, 0, 70]), "101", stub.random_raw).tolist() == [2, 0, 4]
    assert stub.used == len(words)
    # e = 0 draws nothing; e = 1/2 is one halving, below e on the 0-bits.
    stub = _StubBits([])
    assert protocol._binomial(np.array([70, 5]), "", stub.random_raw).tolist() == [0, 0]
    stub = _StubBits([_ONES, 0b1, 0b10110])
    assert protocol._binomial(np.array([70, 5]), "1", stub.random_raw).tolist() == [5, 2]
    assert stub.draws == [3]


def test_binomial_stops_when_no_count_is_equal():
    # e = 1/4 = 0.01: a first digit of 1 puts U above e for every round.
    stub = _StubBits([_ONES, 0])
    assert protocol._binomial(np.array([64]), "01", stub.random_raw).tolist() == [0]
    assert stub.used == 1
    # e = 21/64 = 0.010101: the first count goes above e at the first digit,
    # so only the second, all still equal, draws the other five digits, and
    # 64 * 0.10101 (binary) = 42 of its rounds fall below e.
    stub = _StubBits([_ONES, 0] + [_ALTERNATE] * 5)
    got = protocol._binomial(np.array([64, 64]), "010101", stub.random_raw)
    assert got.tolist() == [0, 42]
    assert stub.used == 2 + 5


@pytest.mark.parametrize("e,halvings", [(0.0, 6), (0.5, 9), (0.25, 12)])
def test_kernel_draws_one_word_per_digit_of_e(e, halvings):
    # All words are 0 but the third class halving's, which are all ones: the
    # 250 rounds all land in class (Z, 0, X).  Each transmission flips all of
    # them at e's last digit, one halving per digit of e (none at e = 0), and
    # every measurement meets a qubit in the other basis: Bob's y in X,
    # Alice's r1 in Z and, as r1 = 0 returns her own bit, her r2 in X.  So the
    # three class halvings, the three measurements and the flips are all
    # that is drawn, 4 words each.  Eve adds her basis halving on each pass
    # and, on the second, where the qubit is in X, her result; Alice then
    # measures Eve's Z qubit in Z and draws nothing for r1.
    n = 250
    pattern = 0b001000  # basis_b = X, y = r1 = r2 = 0
    for eve, eve_halvings in ((Eavesdropper.NONE, 0), (Eavesdropper.INTERCEPT_RESEND, 3)):
        config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=n, channel_qber=e, eve=eve)
        stub = _StubBits([0] * 8 + [_ONES] * 4 + [0] * 64)
        counts = protocol._code_counts(config, stub.random_raw)
        assert counts[protocol._PATTERN_CODES[pattern]] == counts.sum() == n
        assert stub.used == (halvings + eve_halvings) * 4


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 1000])
def test_kernel_counts_stay_on_the_exact_support(n, eve):
    e = Fraction(1, 5)
    config = _config(n, e, eve)
    support = np.zeros(256, dtype=bool)
    for key in oracle_stats(e=e, eve=eve).histogram:
        support[_code(key)] = True
    for seed in range(4):
        counts = _kernel(config, seed)
        assert counts.sum() == n
        assert counts[~support].sum() == 0


@pytest.mark.parametrize("pid,eve,most", [(ProtocolId.P1, Eavesdropper.NONE, 22),
                                          (ProtocolId.P2, Eavesdropper.INTERCEPT_RESEND, 12)])
def test_flips_keep_the_halvings_few(monkeypatch, pid, eve, most):
    # At 10**7 rounds and e = 0.03 each transmission draws every flip count
    # above T by one rejection call.  The digit chain, up to 55 halvings per
    # transmission, made 77 (p1) and 84 (p2 with intercept-resend) of these
    # runs' _halves calls; the bounds are the calls the rejection sampler's
    # runs make: the 6 or 12 class, measurement and Eve halvings, and for p1
    # the chain on its third pass's nodes of at most T rounds.
    calls = []
    halves = protocol._halves
    monkeypatch.setattr(protocol, "_halves", lambda m, raw: calls.append(1) or halves(m, raw))
    config = SimulationConfig(protocol=pid, n_rounds=10**7, channel_qber=0.03, eve=eve)
    counts = protocol._code_counts(config, protocol._word_source(0))
    assert counts.sum() == 10**7
    assert len(calls) <= most


def test_simulation_frozen_outputs():
    report = run_simulation(FROZEN_CONFIG)
    assert report.branch_counts == FROZEN_BRANCH_COUNTS
    assert report.other_count == 11_257
    assert report.sifted_count == 27_552
    assert report.error_count == 9_637


@pytest.mark.parametrize("n_rounds", [1 << 13, 1 << 18, 1 << 22, 1 << 62])
def test_simulation_memory_does_not_grow_with_rounds(n_rounds):
    config = SimulationConfig(protocol=ProtocolId.P2, n_rounds=n_rounds, channel_qber=0.03,
                              eve=Eavesdropper.INTERCEPT_RESEND, rng_seed=3)
    run_simulation(config)  # warm up outside the measurement
    tracemalloc.start()
    try:
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A halving holds at most _POPCOUNT_MAX / 64 words per count, or 2 *
    # _PROPOSALS words per count in a first rejection batch, for at most 256
    # counts: one bound, 256 kB, whatever n_rounds is (about 130 kB is used).
    assert peak <= 1 << 18


def test_run_draws_words_in_getrandbits_order():
    # A run draws every word from random.Random(seed): word i of a draw of n
    # words is bits 64i .. 64i + 63 of getrandbits(64 n).
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=5_500, channel_qber=0.1,
                              rng_seed=17)
    bits = random.Random(17).getrandbits

    def raw(n):
        draw = bits(64 * n)
        return np.array([draw >> 64 * i & _ONES for i in range(n)], dtype=np.uint64)

    counts = protocol._code_counts(config, raw)
    report = run_simulation(config)
    assert report.branch_counts == tuple(
        int(counts[((s * 4 + y) * 4 + r1) * 4 + r2]) for s, y, r1, r2, _ in TABLE1_BRANCHES)
    pattern_counts = counts[protocol._PATTERN_CODES]
    assert report.sifted_count == int(pattern_counts @ protocol._KEPT[ProtocolId.P1])
    assert report.error_count == int(pattern_counts @ protocol._ERR[ProtocolId.P1])


@pytest.mark.parametrize("n_words,chunk", [(0, 3), (5, 3), (3, 7), (9, 2), (2_500, 3)])
def test_word_source_ignores_draw_sizes(n_words, chunk):
    # The word source serves the same words however a run's draws are cut:
    # draws of at most `chunk` words give, in order, the words of one draw.
    whole = protocol._word_source(11)(n_words)
    raw = protocol._word_source(11)
    pieces = [raw(min(chunk, n_words - lo)) for lo in range(0, n_words, chunk)]
    assert all(piece.dtype == np.uint64 for piece in pieces) and whole.size == n_words
    assert np.concatenate([whole[:0], *pieces]).tolist() == whole.tolist()


def test_config_rejects_bad_sb1_tolerance():
    for tol in (-0.01, float("nan")):
        with pytest.raises(ValueError):
            SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, sb1_tolerance=tol)


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [Fraction(0), Fraction(3, 100), Fraction(1, 5)])
def test_code_distribution_matches_oracle(e, eve):
    got = protocol.code_distribution(float(e), eve)
    expected = np.zeros(256)
    for key, p in oracle_stats(e=e, eve=eve).histogram.items():
        expected[_code(key)] = float(p)
    assert got.shape == (256,) and got.dtype == np.float64
    assert np.abs(got - expected).max() <= 1e-15
    assert abs(got.sum() - 1.0) <= 1e-15


def _binomial_fit(draws: np.ndarray, m: int, p: float, bins: int) -> None:
    """Assert that draws of Binomial(m, p) pass Pearson's chi-square test
    against C(m, k) p**k q**(m - k) over ``bins`` cells of about equal
    probability, and a test of their mean.

    The pmf is taken over 12 standard deviations each side of floor(m p), by
    the exact ratio f(k + 1)/f(k) = (m - k)/(k + 1) * p/q in floats and
    normalised there; the mass left out is below 1e-30."""
    assert draws.min() >= 0 and draws.max() <= m
    a, scale = p.as_integer_ratio()
    h, reach, q = m * a // scale, int(6 * math.sqrt(4 * m * p * (1 - p))) + 10, 1 - p
    lo, hi = max(h - reach, 0), min(h + reach, m)
    up = np.cumprod((m - np.arange(h, hi)) / np.arange(h + 1, hi + 1) * (p / q))
    down = np.cumprod(np.arange(h, lo, -1) / (m - np.arange(h, lo, -1) + 1) * (q / p))
    pmf = np.concatenate([down[::-1], [1.0], up])
    pmf /= pmf.sum()
    # Cells cut at quantiles of the pmf; the first and last take the tails.
    edges = np.searchsorted(np.cumsum(pmf), np.arange(1, bins) / bins) + lo + 1
    edges = np.unique(edges)
    expected = np.diff(np.concatenate([[0.0], np.cumsum(pmf)[edges - lo - 1], [1.0]]))
    observed = np.bincount(np.searchsorted(edges, draws, side="right"), minlength=edges.size + 1)
    n = draws.size
    chi_square = float(((observed - n * expected) ** 2 / (n * expected)).sum())
    assert chi_square <= _chi_square_bound(edges.size)
    # The mean, m p, within 4.5 standard errors: a shift of the law by a
    # small fraction of its width shows here before it shows in the cells.
    assert abs(draws.mean() - m * p) <= 4.5 * math.sqrt(m * p * q / n)


@pytest.mark.parametrize("m", [protocol._POPCOUNT_MAX + 1, protocol._POPCOUNT_MAX + 2,
                               10**9 + 7, 10**9 + 8])
def test_rejection_sampler_fits_binomial(m):
    # Just above the popcount path and at about 1e9 rounds, odd and even.
    draws = protocol._halves(np.full(40_000, m, dtype=np.int64), protocol._word_source(m))
    _binomial_fit(draws, m, 0.5, 40)


@pytest.mark.parametrize("m", [20_001, 20_002])
def test_rejection_sampler_fits_binomial_without_floats(monkeypatch, m):
    # With an infinite margin the float test decides nothing: every proposal
    # before a count's first acceptance goes to the exact comparison.
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    calls = []
    certified = protocol._accept_certified
    monkeypatch.setattr(protocol, "_accept_certified", lambda *a: calls.append(1) or certified(*a))
    draws = protocol._halves(np.full(3_000, m, dtype=np.int64), protocol._word_source(m))
    assert len(calls) >= 3_000
    _binomial_fit(draws, m, 0.5, 20)


def test_rejection_sampler_fits_binomial_by_intervals(monkeypatch):
    # With no exact-integer budget either, the decimal intervals decide.
    m = 20_001
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    monkeypatch.setattr(protocol, "_EXACT_BITS", -1)
    exact = []
    monkeypatch.setattr(protocol, "_accept_exactly", lambda *a: exact.append(1))
    draws = protocol._halves(np.full(500, m, dtype=np.int64), protocol._word_source(m))
    assert not exact
    _binomial_fit(draws, m, 0.5, 10)


_T = protocol._POPCOUNT_MAX
# The channel's QBERs 3/100 and 1/5, and 2**-10, at which counts just above T
# have a mode of 4 and keep the digit chain, while 8191 rounds give the
# sampler's smallest mode, 8.
_FLIP_CASES = [(e, m) for e in (0.03, 0.2, 2.0**-10) for m in (_T + 1, _T + 2, 10**9 + 7)]


@pytest.mark.parametrize("e,least", [(2.0**-10, 8_191), (2.0**-9, _T + 1), (0.03, _T + 1),
                                     (0.5, _T + 1)])
def test_binomial_samples_large_modes_by_rejection(monkeypatch, e, least):
    # Counts above T whose mode floor((m + 1) e) is at least _MODE_MIN = 8
    # go to the sampler at p = e, in one call; the rest keep the digit chain,
    # whose halvings above T call it at p = 1/2.
    calls = []
    monkeypatch.setattr(protocol, "_binomial_by_rejection",
                        lambda m, p, raw: calls.append((m.tolist(), p)) or m // 2)
    m = np.array([[least - 1, least], [0, 10**12]])
    got = protocol._binomial(m, protocol._qber_digits(e), protocol._word_source(1))
    assert [call for call in calls if call[1] == e] == [([least, 10**12], e)]
    assert got[0, 1] == least // 2 and got[1, 1] == 10**12 // 2 and got[1, 0] == 0
    assert 0 <= got[0, 0] <= least - 1


@pytest.mark.parametrize("e,m", _FLIP_CASES + [(2.0**-10, 8_191)])
def test_binomial_fits_law_at_qbers(e, m):
    draws = protocol._binomial(np.full(20_000, m, dtype=np.int64), protocol._qber_digits(e),
                               protocol._word_source(m))
    _binomial_fit(draws, m, e, 20)


@pytest.mark.parametrize("e", [0.03, 0.2, 2.0**-10])
def test_binomial_sampler_fits_law_without_floats(monkeypatch, e):
    # With an infinite margin the float test decides nothing in [0, m]: every
    # such proposal before a count's first acceptance is decided exactly.
    m = 20_001
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    calls = []
    certified = protocol._accept_certified
    monkeypatch.setattr(protocol, "_accept_certified", lambda *a: calls.append(1) or certified(*a))
    draws = protocol._binomial(np.full(3_000, m, dtype=np.int64), protocol._qber_digits(e),
                               protocol._word_source(m))
    assert len(calls) >= 3_000
    _binomial_fit(draws, m, e, 20)


@pytest.mark.parametrize("e", [0.03, 0.2, 2.0**-10])
def test_binomial_sampler_fits_law_by_intervals(monkeypatch, e):
    m = 20_001
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    monkeypatch.setattr(protocol, "_EXACT_BITS", -1)
    exact = []
    monkeypatch.setattr(protocol, "_accept_exactly", lambda *a: exact.append(1))
    draws = protocol._binomial(np.full(500, m, dtype=np.int64), protocol._qber_digits(e),
                               protocol._word_source(m))
    assert not exact
    _binomial_fit(draws, m, e, 10)


def test_certified_decisions_match_exact_binomials():
    # Both certified paths decide U < A = 2**K f(k)/f(M), for f the
    # Binomial(m, p) pmf and M = floor((m + 1) p), as the reference does with
    # math.comb and, for p = a/2**L, the factor (a/(2**L - a))**(k - M),
    # reading the uniform's words in turn.  Half the uniforms begin with A's
    # own first 64 bits, so that only further words decide, and an error in A
    # above 2**-64 shows.
    rng = random.Random(4)
    for p in (0.5, 0.03, 0.2, 2.0**-10):
        a, scale = p.as_integer_ratio()
        b = scale - a
        modes = {m: (m + 1) * a // scale for m in (5_000, 5_001, 20_001, 20_002)}
        cases = [(5_001, 0, 0), (5_001, 5_001, 3), (5_000, 7, 1), (20_001, 19_000, 0)]
        for _ in range(80):
            m = rng.choice(list(modes))
            spread = int(2 * math.sqrt(m * p * (1 - p)))
            cases.append((m, max(m * a // scale + rng.randint(-3, 3) * spread, 0),
                          rng.randint(0, 3)))
        for m, k, block in cases:
            mode = modes[m]
            num, den = math.comb(m, k) << block, math.comb(m, mode)
            if k >= mode:
                num, den = num * a ** (k - mode), den * b ** (k - mode)
            else:
                num, den = num * b ** (mode - k), den * a ** (mode - k)
            u = rng.getrandbits(64) if rng.random() < 0.5 else min(num * 2**64 // den, _ONES)
            more = [rng.getrandbits(64) for _ in range(4)]
            # The reference: U in [u, u + 1) / 2**bits, read on until it decides.
            bits, v, words = 64, u, iter(more)
            while den * (v + 1) > num << bits and den * v < num << bits:
                v, bits = v << 64 | next(words), bits + 64
            expected = int(den * (v + 1) <= num << bits)
            for decide in (protocol._accept_exactly, protocol._accept_by_interval):
                uniform = protocol._Uniform(u, _StubBits(more).random_raw)
                got = decide(m, p, k, block, uniform)
                assert got == expected, (decide.__name__, p, m, k, block)


def _proposal(side: int, block: int, offset: int) -> int:
    """The proposal word of a block index below 31, a side and an offset."""
    field = 1 << 30 - block if block < 31 else 0
    return side << 63 | field << 32 | offset


@pytest.mark.parametrize("m", [10_000, 10_001])
def test_rejection_proposal_mapping(m):
    # One count: the first batch holds _PROPOSALS proposal words, then as
    # many uniforms.  A uniform of 0 accepts a proposal near the mode.
    # w is 128 here: 64*64 < 0.6932 m < 128*128.
    h, g, w, p = m // 2, m - m // 2, 128, protocol._PROPOSALS

    def sample(first, extra=()):
        proposals = first + [_proposal(0, 0, 0)] * (p - len(first))
        uniforms = [_ONES, 0] if len(first) == 2 else [0]
        stub = _StubBits(proposals + uniforms + [_ONES] * (p - len(uniforms)) + list(extra))
        got = protocol._halves(np.array([m]), stub.random_raw).tolist()
        return got, stub.draws

    for (side, block, offset), k in [
            ((0, 0, 5), g + 5), ((1, 0, 0), g - 1), ((0, 2, 3), g + 2 * w + 3),
            ((1, 1, w - 1), g - 1 - (2 * w - 1)),
            ((0, 0, w + 7), g + 7),  # offset bits from w up are not used
    ]:
        assert sample([_proposal(side, block, offset)]) == ([k], [2 * p])
    # Both modes are reached for odd m, and the one mode once for even m.
    assert sample([_proposal(1, 0, 0)])[0] == [h if m % 2 else h - 1]
    assert sample([_proposal(0, 0, 0)])[0] == [g]
    # 31 zero bits leave the block open: one more word is read, whose bits
    # 62..32 add 0 zeros here, so K = 31 and j = 31 w; a uniform of all ones
    # rejects that proposal, and the next is taken.
    got, draws = sample([_proposal(0, 31, 0), _proposal(0, 0, 9)], extra=[1 << 62])
    assert (got, draws) == ([g + 9], [2 * p, 1])


def test_rejection_proposal_mapping_at_a_qber(monkeypatch):
    # The same layout around the mode M = floor((m + 1) e) = 300 of m = 10_000
    # rounds at e = 0.03, where w = 32: 16*16 < 0.6932 * 4mpq < 32*32.  All
    # of the count goes to the sampler, so no digit chain draws.  A uniform
    # of 0 accepts a proposal near the mode, and all ones reject one far off.
    m, mode, w, p = 10_000, 300, 32, protocol._PROPOSALS
    digits = protocol._qber_digits(0.03)

    def sample(first, extra=()):
        proposals = first + [_proposal(0, 0, 0)] * (p - len(first))
        uniforms = [_ONES] * (len(first) - 1) + [0]
        stub = _StubBits(proposals + uniforms + [_ONES] * (p - len(uniforms)) + list(extra))
        return protocol._binomial(np.array([m]), digits, stub.random_raw).tolist(), stub.draws

    for (side, block, offset), k in [
            ((0, 0, 5), mode + 5), ((1, 0, 0), mode - 1), ((0, 2, 3), mode + 2 * w + 3),
            ((1, 1, w - 1), mode - 1 - (2 * w - 1)),
            ((0, 0, w + 7), mode + 7),  # offset bits from w up are not used
    ]:
        assert sample([_proposal(side, block, offset)]) == ([k], [2 * p])
    got, draws = sample([_proposal(0, 31, 0), _proposal(0, 0, 9)], extra=[1 << 62])
    assert (got, draws) == ([mode + 9], [2 * p, 1])
    # k = M - 1 - 10 w < 0, and k = M + 310 w > m after nine more all-zero
    # block words, have f(k) = 0: the float test rejects them without the
    # certified path.
    monkeypatch.setattr(protocol, "_accept_certified", lambda *a: pytest.fail("certified"))
    got, draws = sample([_proposal(1, 10, 0), _proposal(0, 0, 9)])
    assert (got, draws) == ([mode + 9], [2 * p])
    got, draws = sample([_proposal(0, 31, 0), _proposal(0, 0, 9)], extra=[0] * 9 + [1 << 62])
    assert (got, draws) == ([mode + 9], [2 * p] + [1] * 10)


@pytest.mark.parametrize("m,e,mode", [(_T + 1, 2.0**-9, 8), (8_191, 2.0**-10, 8),
                                      (_T + 1, 0.03, 122), (_T + 2, 0.2, 819),
                                      (_T + 1, 0.5, 2049)])
def test_envelope_bounds_the_pmf_exactly(m, e, mode):
    # 2**K f(k) <= f(M) for every k in [0, m], K the block of k, in integers:
    # F(k) = C(m, k) a**k b**(m - k), for e = a/(a + b), is f(k) (a + b)**m.
    # The first two cases have the smallest mode the sampler takes.
    a, b = protocol._dyadic(e)
    assert (m + 1) * a // (a + b) == mode >= protocol._MODE_MIN
    w = int(protocol._width(np.array([m]), e)[0])
    top = math.comb(m, mode) * a**mode * b ** (m - mode)
    f = b**m
    for k in range(m + 1):
        block = (k - mode if k >= mode else mode - 1 - k) // w
        assert f << block <= top, k
        f = f * (m - k) * a // ((k + 1) * b)


def test_halves_at_the_largest_count():
    m = 2**63 - 1
    draws = protocol._halves(np.full(2_000, m, dtype=np.int64), protocol._word_source(1))
    z = (draws.astype(float) - m / 2) / (math.sqrt(m) / 2)
    assert draws.min() >= 0 and draws.max() <= m
    assert abs(z.mean()) < 0.15 and abs(z.std() - 1) < 0.1 and abs(z).max() < 6
    config = SimulationConfig(protocol=ProtocolId.P2, n_rounds=m, channel_qber=0.03,
                              eve=Eavesdropper.INTERCEPT_RESEND, rng_seed=1)
    counts = protocol._code_counts(config, protocol._word_source(2))
    assert counts.min() >= 0 and sum(counts.tolist()) == m
