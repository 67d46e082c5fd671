import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from threepass import protocol
from threepass.protocol import (
    TABLE1_BRANCHES,
    Basis,
    Eavesdropper,
    ProtocolId,
    PureState,
    SimulationConfig,
    prepare,
    run_simulation,
    sift_p1,
    sift_p2,
)
from enum_oracle import oracle_stats

S0, S1, SP, SM = PureState.ZERO, PureState.ONE, PureState.PLUS, PureState.MINUS
_BY_NAME = {"0": S0, "1": S1, "+": SP, "-": SM}

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


def test_prepare_encoding():
    assert prepare(0, Basis.Z) is S0
    assert prepare(1, Basis.Z) is S1
    assert prepare(0, Basis.X) is SP
    assert prepare(1, Basis.X) is SM
    with pytest.raises(ValueError):
        prepare(2, Basis.Z)


def test_state_properties():
    assert S0.orthogonal is S1 and SP.orthogonal is SM
    assert S0.m_value == 0 and SP.m_value == 0
    assert S1.m_value == 1 and SM.m_value == 1
    assert Basis.Z.other is Basis.X


@pytest.mark.parametrize("s_a,bob,r1,r2,prob,p1,p2", PUBLISHED_ROUNDS)
def test_sift_rules_match_published_tables(s_a, bob, r1, r2, prob, p1, p2):
    states = (_BY_NAME[s_a], _BY_NAME[bob], _BY_NAME[r1], _BY_NAME[r2])
    got1 = sift_p1(*states)
    if p1 is None:
        assert got1 is None
    else:
        assert got1 is not None and got1[1] is _BY_NAME[p1]
        assert got1[0] == _BY_NAME[p1].bit
    got2 = sift_p2(*states)
    assert got2 is not None and got2[1] is _BY_NAME[p2]
    assert got2[0] == _BY_NAME[p2].bit


def test_branch_table_matches_enumeration_oracle():
    hist = oracle_stats().histogram
    assert len(hist) == len(TABLE1_BRANCHES) == 28
    for s, y, r1, r2, prob in TABLE1_BRANCHES:
        key = ((int(s.basis), s.bit), (int(y.basis), y.bit),
               (int(r1.basis), r1.bit), (int(r2.basis), r2.bit))
        assert hist[key] == prob


def test_branch_table_matches_published_rows():
    assert len(TABLE1_BRANCHES) == len(PUBLISHED_ROUNDS)
    for (s, y, r1, r2, prob), (ps, py, pr1, pr2, pprob, _, _) in zip(
            TABLE1_BRANCHES, PUBLISHED_ROUNDS):
        assert (s, y, r1, r2) == (_BY_NAME[ps], _BY_NAME[py],
                                  _BY_NAME[pr1], _BY_NAME[pr2])
        assert prob == pprob


def test_sift_p2_discards_unlisted_pattern_under_noise():
    # Orthogonal first result plus orthogonal second result with a matching
    # label appears only on a noisy channel and has no table entry.
    assert sift_p2(S0, S0, S1, S1) is None


def test_sift_functions_total_over_reachable_records():
    # r1 always lies in Alice's basis; r2 lies in the basis the step-5 rule
    # selects.  Over all 64 reachable combinations the sifters must either
    # discard or return a consistent (bit, state) pair, never raise.
    for s_a in PureState:
        for bob in PureState:
            for r1_bit in (0, 1):
                r1 = prepare(r1_bit, s_a.basis)
                r2_basis = s_a.basis.other if r1 == s_a else s_a.basis
                for r2_bit in (0, 1):
                    r2 = prepare(r2_bit, r2_basis)
                    for sifter in (sift_p1, sift_p2):
                        out = sifter(s_a, bob, r1, r2)
                        if out is not None:
                            bit, state = out
                            assert state.bit == bit


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


def test_simulation_worker_split_covers_all_rounds(monkeypatch):
    # 10 whole chunks and one of a single round, which ends in a part word.
    monkeypatch.setattr(protocol, "CHUNK", 1000)
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=10_001, rng_seed=5)
    report = run_simulation(config)
    assert sum(report.branch_counts) + report.other_count == 10_001


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=0)
    with pytest.raises(ValueError, match=r"^QBER must lie in \[0, 0\.5\], got 0\.6$"):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, channel_qber=0.6)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, rng_seed=-1)


# The report for this configuration, frozen from the class-stratified
# bit-packed kernel.  A fixed seed reproduces it exactly on every platform; a
# kernel that draws or uses its random words differently moves it.
FROZEN_CONFIG = SimulationConfig(protocol=ProtocolId.P2, n_rounds=30_000, channel_qber=0.05,
                                 eve=Eavesdropper.INTERCEPT_RESEND, rng_seed=2212)
FROZEN_BRANCH_COUNTS = (
    1463, 486, 453, 671, 460, 481, 662, 1417, 433, 492, 681, 463, 468, 711,
    1469, 465, 452, 668, 434, 458, 687, 1443, 445, 463, 707, 480, 466, 660,
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
    kept, err, orth = protocol._sift_tables()

    def expect(table):
        return sum(p * int(table[_code(key)]) for key, p in oracle.histogram.items())

    assert expect(orth) == oracle.orth_fraction
    for pid, sift, qber in ((ProtocolId.P1, oracle.p1_sift, oracle.p1_qber),
                            (ProtocolId.P2, oracle.p2_sift, oracle.p2_qber)):
        assert expect(kept[pid]) == sift
        assert expect(err[pid]) / expect(kept[pid]) == qber


def _chi_square_bound(dof: int, z: float = 3.72) -> float:
    """The chi-square quantile at normal score z (3.72: upper tail 1e-4),
    by the Wilson-Hilferty approximation."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * a ** 0.5) ** 3


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [Fraction(0), Fraction(3, 100), Fraction(1, 5)])
def test_kernel_histogram_fits_oracle(e, eve):
    n = 2**20 - 37  # the last word holds 27 rounds
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=n, channel_qber=float(e),
                              eve=Eavesdropper.INTERCEPT_RESEND if eve else Eavesdropper.NONE)
    counts = protocol._simulate_chunk(config, n, np.random.default_rng(61))
    expected = np.zeros(256)
    for key, p in oracle_stats(e=e, eve=eve).histogram.items():
        expected[_code(key)] = float(p * n)
    assert counts.sum() == n
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


class _StubBits:
    """A bit generator whose random_raw hands out the given words in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0

    def random_raw(self, size):
        if self.used + size > self.words.size:
            raise IndexError("stub bit generator ran out of words")
        self.used += size
        return self.words[self.used - size:self.used].copy()


def _digit_words(k):
    """k words in which lane j holds the k binary digits of j mod 2**k,
    most significant first: every k-digit string of U, 64 / 2**k times."""
    return [sum((((j % (1 << k)) >> (k - i)) & 1) << j for j in range(64))
            for i in range(1, k + 1)]


@pytest.mark.parametrize("e", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8),
                               Fraction(5, 16), Fraction(21, 64), Fraction(1, 64)])
def test_flip_mask_compares_digits_exactly(e):
    # A lane flips exactly when its digits, read as U, fall below e: with
    # every k-digit string present, exactly 64 * e lanes flip, and one word
    # is drawn per digit of e.
    k = e.denominator.bit_length() - 1
    digits = protocol._qber_digits(float(e))
    assert len(digits) == k
    stub = _StubBits(_digit_words(k))
    mask = int(protocol._flip_mask(digits, 1, stub.random_raw)[0])
    assert stub.used == k
    assert mask == sum(1 << j for j in range(64) if j % (1 << k) < e * (1 << k))
    assert mask.bit_count() == 64 * e


def test_flip_mask_stops_when_no_round_is_equal():
    ones = 2**64 - 1
    # e = 1/4 = 0.01: a first digit of 1 puts U above e in every lane.
    stub = _StubBits([ones, 0])
    assert protocol._flip_mask("01", 1, stub.random_raw).tolist() == [0]
    assert stub.used == 1
    # Seven of eight words go above e at the first digit, so only the last
    # word draws the remaining five digits of e = 21/64 = 0.010101.
    stub = _StubBits([ones] * 7 + _digit_words(6))
    mask = protocol._flip_mask("010101", 8, stub.random_raw)
    assert stub.used == 8 + 5
    assert mask.tolist()[:7] == [0] * 7
    assert int(mask[7]) == sum(1 << j for j in range(21))


def _split_words(words, n):
    """The class sizes and the words used by three levels of halvings of
    ``n`` rounds over ``words``, one popcount per halving, in Python ints."""
    sizes, used = [n], 0
    for _ in range(3):
        halves = []
        for m in sizes:
            k = -(-m // 64)
            block = sum(int(w) << 64 * i for i, w in enumerate(words[used:used + k]))
            ones = (block & ((1 << m) - 1)).bit_count()
            used += k
            halves += [m - ones, ones]
        sizes = halves
    return sizes, used


@pytest.mark.parametrize("e,words_per_64_rounds", [(0.0, 6), (0.5, 9), (0.25, 12)])
def test_kernel_draws_one_word_per_digit_of_e(e, words_per_64_rounds):
    # The class split draws the three choice bits, ceil(m / 64) words per
    # halving.  Each class word then draws the rest: three measurements plus
    # one word per binary digit of e in each of the three transmissions (none
    # at e = 0), and with Eve a basis and a measurement word per transmission.
    n = 250
    words = np.random.default_rng(3).bit_generator.random_raw(4 * 64)
    sizes, split_words = _split_words(words, n)
    class_words = sum(-(-m // 64) for m in sizes)
    for eve, eve_words in ((Eavesdropper.NONE, 0), (Eavesdropper.INTERCEPT_RESEND, 6)):
        config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=1, channel_qber=e, eve=eve)
        stub = _StubBits(words)
        counts = protocol._simulate_chunk(config, n, SimpleNamespace(bit_generator=stub))
        assert counts.sum() == n
        assert stub.used == split_words + (words_per_64_rounds - 3 + eve_words) * class_words


def test_class_sizes_halve_on_the_first_m_bits():
    ones = 2**64 - 1
    # All-ones words put every round in class 7, all-zero words in class 0;
    # each level splits one nonempty class of n = 70 rounds, 2 words apiece.
    for word, full in ((ones, 7), (0, 0)):
        stub = _StubBits([word] * 6)
        sizes = protocol._class_sizes(70, stub.random_raw)
        assert sizes == [70 if c == full else 0 for c in range(8)]
        assert stub.used == 6
    # Bits past m do not count: only the 6 low lanes of each second word hold
    # a round, and they are 0.
    stub = _StubBits([0, ones << 6 & ones] * 3)
    assert protocol._class_sizes(70, stub.random_raw) == [70] + [0] * 7
    assert stub.used == 6
    # 130 rounds: 64 + 2 ones of 130, then 10 of 64 and 2 of 66, then
    # 54 of 54, 0 of 10, 1 of 64 and 2 of 2; empty classes draw nothing.
    stub = _StubBits([ones, 0, 0b11, (1 << 10) - 1, 0, ones, ones, 0, 1, ones])
    assert protocol._class_sizes(130, stub.random_raw) == [0, 54, 10, 0, 63, 1, 0, 2]
    assert stub.used == 10


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 1000])
def test_simulate_chunk_covers_empty_classes_and_tails(n, eve):
    e = Fraction(1, 5)
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=n, channel_qber=float(e),
                              eve=Eavesdropper.INTERCEPT_RESEND if eve else Eavesdropper.NONE)
    support = np.zeros(256, dtype=bool)
    for key in oracle_stats(e=e, eve=eve).histogram:
        support[_code(key)] = True
    for seed in range(4):
        counts = protocol._simulate_chunk(config, n, np.random.default_rng(seed))
        assert counts.sum() == n
        assert counts[~support].sum() == 0


def test_count_patterns_matches_per_round_loop():
    rng = np.random.default_rng(7)
    # Empty classes, whole words and tails of 40, 1 and 63 rounds.
    sizes = [1000, 0, 65, 64, 63, 0, 1, 128]
    lengths = [-(-m // 64) for m in sizes]
    planes = tuple(rng.bit_generator.random_raw(sum(lengths)) for _ in range(3))
    bits = [np.unpackbits(p.view(np.uint8), bitorder="little").tolist() for p in planes]
    expected = [0] * 64
    start = 0
    for c, (m, length) in enumerate(zip(sizes, lengths)):
        for j in range(64 * start, 64 * start + m):
            expected[8 * c + 4 * bits[0][j] + 2 * bits[1][j] + bits[2][j]] += 1
        start += length
    assert protocol._count_patterns(sizes, planes).tolist() == expected


def test_simulation_frozen_outputs():
    report = run_simulation(FROZEN_CONFIG)
    assert report.branch_counts == FROZEN_BRANCH_COUNTS
    assert report.other_count == 11_362
    assert report.sifted_count == 27_392
    assert report.error_count == 9_660


def test_simulation_chunk_layout(monkeypatch):
    # Chunk 0 draws from the seed's first spawned child; chunk j >= 1 from
    # that stream's (j-1)-th spawned child.
    monkeypatch.setattr(protocol, "CHUNK", 1000)
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=5_500,
                              channel_qber=0.1, rng_seed=17)
    stream = np.random.SeedSequence(17).spawn(1)[0]
    counts = np.zeros(256, dtype=np.int64)
    for n, seed in zip((1000,) * 5 + (500,), [stream] + stream.spawn(5)):
        counts += protocol._simulate_chunk(config, n, np.random.default_rng(seed))
    report = run_simulation(config)
    kept, err, _ = protocol._sift_tables()
    assert report.branch_counts == tuple(
        int(counts[((s * 4 + y) * 4 + r1) * 4 + r2]) for s, y, r1, r2, _ in TABLE1_BRANCHES)
    assert report.sifted_count == int(kept[ProtocolId.P1] @ counts)
    assert report.error_count == int(err[ProtocolId.P1] @ counts)
    assert sum(report.branch_counts) + report.other_count == 5_500


@pytest.mark.parametrize("n_rounds", [1 << 13, 1 << 18])
def test_simulation_memory_bounded_by_chunk(monkeypatch, n_rounds):
    chunk = 1 << 12
    monkeypatch.setattr(protocol, "CHUNK", chunk)
    config = SimulationConfig(protocol=ProtocolId.P2, n_rounds=n_rounds, channel_qber=0.03,
                              eve=Eavesdropper.INTERCEPT_RESEND, rng_seed=3)
    run_simulation(config)  # build the lazy tables outside the measurement
    tracemalloc.start()
    try:
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One chunk is in flight at a time: the bit-packed kernel peaked at
    # 16.8 kB here, 4.1 B per round of a chunk (tracemalloc, numpy 2.4.6);
    # the bound is 64 B per round of a chunk.
    assert peak <= 64 * chunk


def test_streams_equal_spawned_children(monkeypatch):
    # The stream is built alone, as the one child that spawn(1) returns, and
    # chunk j >= 1 draws from its (j-1)-th child.
    monkeypatch.setattr(protocol, "CHUNK", 10)
    stream = np.random.SeedSequence(5).spawn(1)[0]
    expected = [stream] + stream.spawn(3)
    chunks = [seed for _, seed in protocol._chunks(35, 5)]
    assert len(chunks) == len(expected)
    for seed, child in zip(chunks, expected):
        assert (seed.generate_state(4) == child.generate_state(4)).all()


@pytest.mark.parametrize("n_rounds,chunk", [(0, 3), (5, 3), (3, 7), (9, 2), (2_500, 3)])
def test_chunks_cover_every_round(monkeypatch, n_rounds, chunk):
    # Every chunk but the last is full; none is empty.
    monkeypatch.setattr(protocol, "CHUNK", chunk)
    sizes = [n for n, _ in protocol._chunks(n_rounds, 1)]
    assert sum(sizes) == n_rounds
    assert sizes[:-1] == [chunk] * (len(sizes) - 1)
    assert all(0 < size <= chunk for size in sizes)


def test_config_rejects_bad_sb1_tolerance():
    for tol in (-0.01, float("nan")):
        with pytest.raises(ValueError):
            SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, sb1_tolerance=tol)
