import ast
import dataclasses
import functools
import hashlib
import inspect
import math
import random
import tracemalloc
from array import array
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
from conftest import assert_fits
from enum_oracle import oracle_stats

# States are indexed as 2*basis + bit: |0>, |1>, |+>, |->.
_BY_NAME = {"0": 0, "1": 1, "+": 2, "-": 3}
# The pattern of each reachable round code ((s_a*4 + y)*4 + r1)*4 + r2.
_PATTERN_OF = {code: pattern for pattern, code in enumerate(protocol._PATTERN_CODES)}

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
    return lambda n: array("Q", [bits(64) for _ in range(n)])


def test_simulation_reports_the_same_whatever_the_draw_sizes(monkeypatch):
    # A run's words come in the same order whatever the sizes of its draws:
    # drawn one word at a time, a run reports exactly what it reports with a
    # whole batch of proposals and uniforms in each draw.
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
    1398, 448, 461, 690, 472, 459, 708, 1391, 521, 458, 661, 474, 446, 644,
    1438, 470, 507, 696, 476, 496, 693, 1382, 435, 461, 640, 472, 487, 706,
)
# A run without Eve at e = 1e-4, whose counts read at e have modes 0, 3, 4,
# 6 and 7, where every count of FROZEN_CONFIG's run has a mode of at least
# 8: its report pins the words drawn at small modes.
FROZEN_SMALL_MODES_CONFIG = SimulationConfig(protocol=ProtocolId.P1, n_rounds=10**6,
                                             channel_qber=1e-4, rng_seed=2212)
FROZEN_SMALL_MODES_BRANCH_COUNTS = (
    124632, 15790, 15488, 31327, 15860, 15535, 31410, 124547, 15642, 15786, 31248, 15557, 15620,
    30892, 124963, 15959, 15587, 31408, 15697, 15804, 31204, 124754, 15790, 15653, 31304, 15696,
    15737, 30944,
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


def _fits_oracle(counts: list, e: Fraction, eve: bool) -> None:
    """Assert that a kernel histogram of sum(counts) rounds stays on the
    oracle's support and passes Pearson's chi-square test against it."""
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    expected = np.zeros(256)
    for key, p in oracle_stats(e=e, eve=eve).histogram.items():
        expected[_code(key)] = float(p * n)
    assert_fits(counts, expected)


def _kernel(config: SimulationConfig, seed) -> np.ndarray:
    random_raw = np.random.default_rng(seed).bit_generator.random_raw
    counts = protocol._code_counts(config, lambda n: array("Q", random_raw(n).tobytes()))
    return np.asarray(counts, dtype=np.int64)


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
    """A bit generator whose random_raw hands out the given words in order,
    as an array('Q'), and records the size of each draw."""

    def __init__(self, words):
        self.words = list(words)
        self.used = 0
        self.draws = []

    def random_raw(self, size):
        if self.used + size > len(self.words):
            raise IndexError("stub bit generator ran out of words")
        self.used += size
        self.draws.append(size)
        return array("Q", self.words[self.used - size:self.used])


_ONES = 2**64 - 1
_LOW32 = 2**32 - 1


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


@pytest.mark.parametrize("pid,eve", [(ProtocolId.P1, Eavesdropper.NONE),
                                     (ProtocolId.P2, Eavesdropper.INTERCEPT_RESEND)])
def test_flips_keep_the_halvings_few(monkeypatch, pid, eve):
    # One _binomial call per level, with or without Eve: three class levels
    # and one per pass, each drawing by at most one rejection call, at every
    # e: at 10**7 rounds the counts read at 1e-9 or 2**-40 without Eve have
    # modes below 8, and those read at 0.03 modes of at least 8.
    calls = {"_binomial": 0, "_binomial_by_rejection": 0}
    for name in calls:
        original = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *a, name=name, original=original:
                            calls.__setitem__(name, calls[name] + 1) or original(*a))
    for e in (0.03, 1e-9, 2.0**-40):
        calls.update(dict.fromkeys(calls, 0))
        config = SimulationConfig(protocol=pid, n_rounds=10**7, channel_qber=e, eve=eve)
        counts = protocol._code_counts(config, protocol._word_source(0))
        assert sum(counts) == 10**7
        assert calls["_binomial"] == 6
        assert calls["_binomial_by_rejection"] <= 6


def _leaf_types(value) -> set:
    """The types of the scalars in nested tuples, lists and dict values."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return set().union(*map(_leaf_types, value))
    return {type(value)}


def test_simulate_path_holds_no_numpy():
    # The walk, the binomials, the tables and the report run on Python ints,
    # floats and bools: protocol imports no numpy and holds none of its names.
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(protocol)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [alias.name for node in imports for alias in node.names]
    names += [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in names if name.split(".")[0] == "numpy"]
    for value in vars(protocol).values():
        homes = (getattr(value, "__name__", None) if inspect.ismodule(value) else None,
                 getattr(value, "__module__", None), type(value).__module__)
        assert not [h for h in homes if isinstance(h, str) and h.split(".")[0] == "numpy"], value
    tables = (protocol._PATTERN_CODES, protocol._DETERMINED, protocol._ORTH, protocol._KEPT,
              protocol._ERR, protocol._PUBLISHED_ORDER, TABLE1_BRANCHES, protocol.BRANCH_CODES)
    assert _leaf_types(tables) <= {int, float, bool}
    for e, eve in ((0.03, Eavesdropper.INTERCEPT_RESEND), (1e-9, Eavesdropper.NONE)):
        config = SimulationConfig(ProtocolId.P2, 10**7, e, eve)
        counts = protocol._code_counts(config, protocol._word_source(1))
        assert len(counts) == 256 and _leaf_types(counts) == {int}
        law = protocol.code_distribution(e, eve is Eavesdropper.INTERCEPT_RESEND)
        assert len(law) == 256 and _leaf_types(law) == {float}
        report = run_simulation(config)
        fields = [getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "config"]
        assert _leaf_types(fields) <= {int, float, bool}


def test_simulation_frozen_outputs():
    report = run_simulation(FROZEN_CONFIG)
    assert report.branch_counts == FROZEN_BRANCH_COUNTS
    assert report.other_count == 11_410
    assert report.sifted_count == 27_408
    assert report.error_count == 9_666
    # The frozen draw is a fair one: its whole histogram fits the exact law.
    counts = protocol._code_counts(FROZEN_CONFIG, protocol._word_source(FROZEN_CONFIG.rng_seed))
    assert tuple(counts[code] for code in protocol.BRANCH_CODES) == FROZEN_BRANCH_COUNTS
    _fits_oracle(counts, Fraction(FROZEN_CONFIG.channel_qber), True)
    report = run_simulation(FROZEN_SMALL_MODES_CONFIG)
    assert report.branch_counts == FROZEN_SMALL_MODES_BRANCH_COUNTS
    assert (report.other_count, report.sifted_count, report.error_count) == (166, 748_759, 126)
    counts = protocol._code_counts(FROZEN_SMALL_MODES_CONFIG, protocol._word_source(2212))
    _fits_oracle(counts, Fraction(FROZEN_SMALL_MODES_CONFIG.channel_qber), False)


# The sha256 of the kernel's int64 counts over a grid of seeds, QBERs, round
# counts and Eve, then of the exact law at each of those QBERs: few rounds,
# where certified decisions and modes 0 and m are common, huge counts, and
# QBERs from 1e-9 to 1/2.  Frozen from the numpy kernel that preceded the
# kernel on Python ints, which must draw the same words.
_PIN_QBERS = (0.0, 1e-9, 0.01, 0.03, 0.1, 0.25, 0.5)
_PIN_ROUNDS = (14, 1000, 10**6, 10**7, 2**40, 2**62)
_PIN_DIGEST = "030f625b48cda428d0a08fafc877460e0e92ef59e246b7c06869ee8dc1c24996"


def test_kernel_words_and_law_are_pinned():
    digest = hashlib.sha256()
    for seed in range(25):
        for e in _PIN_QBERS:
            for n in _PIN_ROUNDS:
                for eve in (Eavesdropper.NONE, Eavesdropper.INTERCEPT_RESEND):
                    config = SimulationConfig(ProtocolId.P1, n, e, eve, seed)
                    counts = protocol._code_counts(config, protocol._word_source(seed))
                    assert len(counts) == 256 and all(type(x) is int for x in counts)
                    digest.update(np.asarray(counts, dtype=np.int64).tobytes())
    for e in _PIN_QBERS:
        for eve in (False, True):
            law = protocol.code_distribution(e, eve)
            digest.update(np.asarray(law, dtype=np.float64).tobytes())
    assert digest.hexdigest() == _PIN_DIGEST


# Whole reports, frozen like _PIN_DIGEST: 14 rounds, whose counts are drawn
# mostly by certified decisions, and 2**62 rounds with Eve.
_PINNED_REPORTS = [
    (SimulationConfig(ProtocolId.P1, 14, 0.03, Eavesdropper.NONE, 5),
     (0.6428571428571429, 0.0, 0.21428571428571427, True,
      (3, 0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
      0, 9, 0)),
    (SimulationConfig(ProtocolId.P2, 2**62, 0.03, Eavesdropper.INTERCEPT_RESEND, 5),
     (0.9181812501470585, 0.34336745892839426, 0.44477499985292707, False,
      (228892604117438635, 72057594069283085, 72057594148333669, 105924663413104757,
       72057594008629515, 72057594191965602, 105924663034025692, 228892604576137633,
       72057594270282946, 72057594355352896, 105924663355635976, 72057594359112710,
       72057593904621338, 105924663325281459, 228892605186425619, 72057593932419338,
       72057594014145783, 105924663458196954, 72057593543154970, 72057593912883350,
       105924663200157756, 228892604839852653, 72057593813233272, 72057594363626742,
       105924663004797707, 72057594153654863, 72057594065480315, 105924662826669106),
      1695796788983483563, 4234363633685369784, 1453942681077347577)),
]


@pytest.mark.parametrize("config,expected", _PINNED_REPORTS, ids=["14", "2**62-eve"])
def test_reports_are_pinned(config, expected):
    report = run_simulation(config)
    assert report == protocol.SimulationReport(config, *expected)


@pytest.mark.parametrize("n_rounds", [1 << 13, 1 << 18, 1 << 22, 1 << 62])
def test_simulation_memory_does_not_grow_with_rounds(n_rounds):
    # With Eve at e = 0.03, and without her at e = 1e-9, where the counts
    # read at e have modes below 8 at all but the largest n_rounds.
    for pid, e, eve in ((ProtocolId.P2, 0.03, Eavesdropper.INTERCEPT_RESEND),
                        (ProtocolId.P1, 1e-9, Eavesdropper.NONE)):
        config = SimulationConfig(protocol=pid, n_rounds=n_rounds, channel_qber=e, eve=eve,
                                  rng_seed=3)
        run_simulation(config)  # warm up outside the measurement
        tracemalloc.start()
        try:
            run_simulation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A first rejection batch holds 2 * _PROPOSALS words per count, a
        # later one four times as many per count left, for at most 32 counts
        # a level, in one buffer of uint64: one bound, 256 kB, whatever
        # n_rounds or e is (26-42 kB is used).
        assert peak <= 1 << 18, (e, peak)


def test_run_draws_words_in_getrandbits_order():
    # A run draws every word from random.Random(seed): word i of a draw of n
    # words is bits 64i .. 64i + 63 of getrandbits(64 n).
    config = SimulationConfig(protocol=ProtocolId.P1, n_rounds=5_500, channel_qber=0.1,
                              rng_seed=17)
    bits = random.Random(17).getrandbits

    def raw(n):
        draw = bits(64 * n)
        return array("Q", [draw >> 64 * i & _ONES for i in range(n)])

    counts = np.asarray(protocol._code_counts(config, raw), dtype=np.int64)
    report = run_simulation(config)
    assert report.branch_counts == tuple(
        int(counts[((s * 4 + y) * 4 + r1) * 4 + r2]) for s, y, r1, r2, _ in TABLE1_BRANCHES)
    pattern_counts = counts[list(protocol._PATTERN_CODES)]
    assert report.sifted_count == int(pattern_counts @ np.asarray(protocol._KEPT[ProtocolId.P1]))
    assert report.error_count == int(pattern_counts @ np.asarray(protocol._ERR[ProtocolId.P1]))


@pytest.mark.parametrize("n_words,chunk", [(0, 3), (5, 3), (3, 7), (9, 2), (2_500, 3)])
def test_word_source_ignores_draw_sizes(n_words, chunk):
    # The word source serves the same words however a run's draws are cut:
    # draws of at most `chunk` words give, in order, the words of one draw.
    whole = protocol._word_source(11)(n_words)
    raw = protocol._word_source(11)
    pieces = [raw(min(chunk, n_words - lo)) for lo in range(0, n_words, chunk)]
    assert len(whole) == n_words and all(type(word) is int and 0 <= word <= _ONES for word in whole)
    assert [word for piece in pieces for word in piece] == list(whole)


@pytest.mark.parametrize("n", [1, 2, 7, 1024])
def test_word_source_gives_the_lanes_of_one_draw(n):
    # raw(n) is one buffer of uint64 words: word i is bits 64i .. 64i + 63 of
    # one getrandbits(64 n), on either byte order.
    raw, bits = protocol._word_source(23), random.Random(23).getrandbits
    for _ in range(3):
        words, draw = raw(n), bits(64 * n)
        assert memoryview(words).format == "Q" and len(words) == n
        assert list(words) == [draw >> 64 * i & _ONES for i in range(n)]


def test_config_rejects_bad_sb1_tolerance():
    for tol in (-0.01, float("nan")):
        with pytest.raises(ValueError):
            SimulationConfig(protocol=ProtocolId.P1, n_rounds=10, sb1_tolerance=tol)


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [Fraction(0), Fraction(3, 100), Fraction(1, 5)])
def test_code_distribution_matches_oracle(e, eve):
    got = np.asarray(protocol.code_distribution(float(e), eve), dtype=np.float64)
    expected = np.zeros(256)
    for key, p in oracle_stats(e=e, eve=eve).histogram.items():
        expected[_code(key)] = float(p)
    assert got.shape == (256,) and got.dtype == np.float64
    assert np.abs(got - expected).max() <= 1e-15
    assert abs(got.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("eve", [False, True])
@pytest.mark.parametrize("e", [1e-9, 2.0**-40, 0.03])
def test_code_distribution_is_relatively_accurate_at_small_qbers(e, eve):
    # Every code's probability to 1e-13 of itself, however small: at e =
    # 1e-9 a code three flips deep has probability about 1e-29, which an
    # absolute band cannot see.  The part read as the other bit is its
    # node times p, never the node less the rest.
    got = np.asarray(protocol.code_distribution(e, eve), dtype=np.float64)
    expected = np.zeros(256)
    for key, p in oracle_stats(e=Fraction(e), eve=eve).histogram.items():
        expected[_code(key)] = float(p)
    assert (got[expected == 0] == 0).all()
    support = expected > 0
    assert np.abs(got[support] / expected[support] - 1).max() <= 1e-13


def _binomial_fit(draws: list, m: int, p: float, bins: int) -> None:
    """Assert that draws of Binomial(m, p) pass Pearson's chi-square test
    against C(m, k) p**k q**(m - k) over ``bins`` cells of about equal
    probability, and a test of their mean.

    The pmf is taken over 12 standard deviations each side of floor(m p), by
    the exact ratio f(k + 1)/f(k) = (m - k)/(k + 1) * p/q in floats and
    normalised there; the mass left out is below 1e-20."""
    draws = np.array(draws)
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
    assert_fits(observed, n * expected)
    # The mean, m p, within 4.5 standard errors: a shift of the law by a
    # small fraction of its width shows here before it shows in the cells.
    assert abs(draws.mean() - m * p) <= 4.5 * math.sqrt(m * p * q / n)


@pytest.mark.parametrize("m", [4_097, 4_098, 10**9 + 7, 10**9 + 8])
def test_rejection_sampler_fits_binomial(m):
    # At p = 1/2, at about 4e3 and 1e9 rounds, odd and even.
    draws = protocol._binomial([m] * 40_000, 0.5, protocol._word_source(m))
    _binomial_fit(draws, m, 0.5, 40)


@pytest.mark.parametrize("m", [20_001, 20_002])
def test_rejection_sampler_fits_binomial_without_floats(monkeypatch, m):
    # With an infinite margin the float test decides nothing: every proposal
    # before a count's first acceptance goes to the exact comparison.
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    calls = []
    certified = protocol._accept_certified
    monkeypatch.setattr(protocol, "_accept_certified", lambda *a: calls.append(1) or certified(*a))
    draws = protocol._binomial([m] * 3_000, 0.5, protocol._word_source(m))
    assert len(calls) >= 3_000
    _binomial_fit(draws, m, 0.5, 20)


def test_rejection_sampler_fits_binomial_by_intervals(monkeypatch):
    # With no exact-integer budget either, the decimal intervals decide.
    m = 20_001
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    monkeypatch.setattr(protocol, "_EXACT_BITS", -1)
    exact = []
    monkeypatch.setattr(protocol, "_accept_exactly", lambda *a: exact.append(1))
    draws = protocol._binomial([m] * 500, 0.5, protocol._word_source(m))
    assert not exact
    _binomial_fit(draws, m, 0.5, 10)


# The channel's QBERs 3/100 and 1/5, and 2**-10, at which 4097 rounds have a
# mode of 4 and 8191 rounds a mode of 8, the least whose envelope width is
# set from 4mpq.
_FLIP_CASES = [(e, m) for e in (0.03, 0.2, 2.0**-10) for m in (4_097, 4_098, 10**9 + 7)]
# Counts of each mode 0..7 at 1e-9, 2**-40 and 0.03: (m + 1) e lies in
# (mode + 1/2, mode + 1/2 + e] at m = int((mode + 1/2) / e).
_SMALL_MODES = [(e, int((mode + 0.5) / e)) for e in (1e-9, 2.0**-40, 0.03) for mode in range(8)]


@pytest.mark.parametrize("e,m", [(2.0**-10, 8_191), (2.0**-9, 4_097), (0.03, 4_097),
                                 (0.5, 4_097)])
def test_binomial_samples_large_modes_by_rejection(monkeypatch, e, m):
    # Every count of m > 0 rounds goes to the sampler at p = e, in one call,
    # whatever its mode: the least count of mode 8 at e (8191 at 2**-10, and
    # 4095, 266 and 15 at the others), the count of mode 7 below it, m,
    # 10**12 and 1.  A zero count draws nothing and is 0.
    calls = []
    monkeypatch.setattr(protocol, "_binomial_by_rejection",
                        lambda m, p, raw: calls.append((m, p)) or [n // 2 for n in m])
    pair = protocol._dyadic(e)
    least = -(-8 * sum(pair) // pair[0]) - 1
    assert (least + 1) * pair[0] // sum(pair) == 8 > least * pair[0] // sum(pair)
    counts = [least - 1, least, 0, m, 10**12, 1]
    got = protocol._binomial(counts, e, protocol._word_source(1))
    assert calls == [([least - 1, least, m, 10**12, 1], [pair] * 5)]
    assert got == [(least - 1) // 2, least // 2, 0, m // 2, 10**12 // 2, 0]


def test_binomial_routes_each_count_by_its_own_mode(monkeypatch):
    # Per-count chances: every nonzero count at p > 0 goes to the sampler with
    # its own (a, b), all in one call, whatever its mode: 15 rounds at 1/2
    # and 30 at Eve's (0.03 + 1/2)/2 of mode 8, 14 at 1/2 of mode 7, 10**6 at
    # 2**-20 of mode 0, and 1 at 1/2, whose mode is m.  The zero count and
    # the count at p = 0 draw nothing, and a call with no other draws none.
    calls = []
    monkeypatch.setattr(protocol, "_binomial_by_rejection",
                        lambda m, p, raw: calls.append((m, p)) or [n // 2 for n in m])
    half, eve = protocol._chances(0.03, True)
    tiny, zero = protocol._dyadic(2.0**-20), protocol._dyadic(0.0)
    m = [14, 15, 0, 30, 10**6, 70, 1]
    got = protocol._binomial(m, [half, half, eve, eve, tiny, zero, half], protocol._word_source(1))
    assert calls == [([14, 15, 30, 10**6, 1], [half, half, eve, tiny, half])]
    assert got == [7, 7, 0, 15, 500_000, 0, 0]
    stub = _StubBits([])
    assert protocol._binomial([70, 5], 0.0, stub.random_raw) == [0, 0]
    assert protocol._binomial([0] * 3, 0.5, stub.random_raw) == [0] * 3
    assert len(calls) == 1 and stub.draws == []


@pytest.mark.parametrize("e,m", _FLIP_CASES + [(2.0**-10, 8_191)] + _SMALL_MODES)
def test_binomial_fits_law_at_qbers(e, m):
    draws = protocol._binomial([m] * 20_000, e, protocol._word_source(m))
    _binomial_fit(draws, m, e, 20)


@pytest.mark.parametrize("m", range(1, 15))
def test_binomial_fits_law_at_one_half_on_few_rounds(m):
    # Modes 1..7 at p = 1/2, with m = 1, whose mode is m: Pearson's
    # chi-square over the m + 1 outcomes against C(m, k) / 2**m.
    n = 20_000
    draws = protocol._binomial([m] * n, 0.5, protocol._word_source(m))
    assert min(draws) >= 0 and max(draws) <= m
    assert_fits(np.bincount(draws, minlength=m + 1),
                [n * math.comb(m, k) / 2**m for k in range(m + 1)])


def test_binomial_fits_law_at_the_smallest_sampled_modes():
    # One call on counts of mode 8, the least whose envelope width is set
    # from 4mpq, each at its own chance: 15 rounds at 1/2, 266 at 0.03 and
    # 30 at Eve's (0.03 + 1/2)/2.  Each group fits its own law.
    cases = [((1, 1), 15), (protocol._dyadic(0.03), 266), (protocol._chances(0.03, True)[1], 30)]
    m = [size for _, size in cases] * 6_000
    draws = protocol._binomial(m, [pair for pair, _ in cases] * 6_000, protocol._word_source(8))
    for i, ((a, b), size) in enumerate(cases):
        _binomial_fit(draws[i::3], size, a / (a + b), 10)


@pytest.mark.parametrize("e,m", [pytest.param(e, 20_001, id=str(e)) for e in (0.03, 0.2, 2.0**-10)]
                         + _SMALL_MODES)
def test_binomial_sampler_fits_law_without_floats(monkeypatch, e, m):
    # With an infinite margin the float test decides nothing in [0, m]: every
    # such proposal before a count's first acceptance is decided exactly.
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    calls = []
    certified = protocol._accept_certified
    monkeypatch.setattr(protocol, "_accept_certified", lambda *a: calls.append(1) or certified(*a))
    draws = protocol._binomial([m] * 3_000, e, protocol._word_source(m))
    assert len(calls) >= 3_000
    _binomial_fit(draws, m, e, 20)


@pytest.mark.parametrize("e,m,draws", [pytest.param(e, 20_001, 500, id=str(e))
                                        for e in (0.03, 0.2, 2.0**-10)]
                         + [(e, m, 60) for e, m in _SMALL_MODES])
def test_binomial_sampler_fits_law_by_intervals(monkeypatch, e, m, draws):
    # Fewer draws test the law at the small modes;
    # test_certified_decisions_match_exact_binomials checks each decision there.
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    monkeypatch.setattr(protocol, "_EXACT_BITS", -1)
    exact = []
    monkeypatch.setattr(protocol, "_accept_exactly", lambda *a: exact.append(1))
    draws = protocol._binomial([m] * draws, e, protocol._word_source(m))
    assert not exact
    _binomial_fit(draws, m, e, 10)


def _check_certified(m, a, b, k, block, u, more, agree=1) -> None:
    """Assert that both certified paths decide U < A = 2**block f(k)/f(M), for
    f the Binomial(m, p) pmf at p = a/(a + b) and M = floor((m + 1) p), as the
    reference does with math.comb and the factor (a/b)**(k - M), reading the
    uniform's words, u and then ``more``, in turn.  A u of None begins U with
    A's own first 64 * ``agree`` bits, and then ``more``."""
    mode = (m + 1) * a // (a + b)
    num, den = math.comb(m, k) << block, math.comb(m, mode)
    if k >= mode:
        num, den = num * a ** (k - mode), den * b ** (k - mode)
    else:
        num, den = num * b ** (mode - k), den * a ** (mode - k)
    if u is None:
        lead = min((num << 64 * agree) // den, (1 << 64 * agree) - 1)
        u, more = lead >> 64 * (agree - 1), [lead >> 64 * i & _ONES
                                            for i in range(agree - 2, -1, -1)] + list(more)
    # The reference: U in [u, u + 1) / 2**bits, read on until it decides.
    bits, v, words = 64, u, iter(more)
    while den * (v + 1) > num << bits and den * v < num << bits:
        v, bits = v << 64 | next(words), bits + 64
    expected = int(den * (v + 1) <= num << bits)
    for decide in (protocol._accept_exactly, protocol._accept_by_interval):
        uniform = protocol._Uniform(u, _StubBits(more).random_raw)
        got = decide(m, a, b, mode, k, block, uniform)
        assert got == expected, (decide.__name__, a / (a + b), m, k, block)


def test_certified_decisions_match_exact_binomials():
    # Half the uniforms begin with A's own first 64 bits, so that only
    # further words decide, and an error in A above 2**-64 shows.  The last p
    # is Eve's chance (e + 1/2)/2 at e = 0.03, an exact fraction over 2**56
    # and no float.
    rng = random.Random(4)
    a, b = protocol._chances(0.03, True)[1]
    for p in (0.5, 0.03, 0.2, 2.0**-10, Fraction(a, a + b)):
        a, scale = p.as_integer_ratio()
        cases = [(5_001, 0, 0), (5_001, 5_001, 3), (5_000, 7, 1), (20_001, 19_000, 0)]
        for _ in range(80):
            m = rng.choice([5_000, 5_001, 20_001, 20_002])
            spread = int(2 * math.sqrt(m * p * (1 - p)))
            cases.append((m, max(m * a // scale + rng.randint(-3, 3) * spread, 0),
                          rng.randint(0, 3)))
        for m, k, block in cases:
            u = rng.getrandbits(64) if rng.random() < 0.5 else None
            _check_certified(m, a, scale - a, k, block, u, [rng.getrandbits(64) for _ in range(4)])
    # Small modes, where the float test is singular (M = 0, and M = m at
    # m = 1, p = 1/2) or meets the widths below mode 8: every k up to M + 8,
    # at blocks 0..3, on counts of about modes 0, 1, 3 and 7, and m = 1.  At
    # p = 2**-1074, the least float, 2**62 rounds have mode 0 and |ln(a/b)|
    # is about 744, the largest the decimal intervals meet; A < 2**-1000
    # there for k >= 1, so U begins with a random word.
    a, b = protocol._chances(0.03, True)[1]
    small = [(p, m) for p in (0.5, 0.03, 1e-9, 2.0**-40, Fraction(a, a + b))
             for m in sorted({1} | {int((mode + 0.5) / p) for mode in (0, 1, 3, 7)})]
    for p, m in small + [(2.0**-1074, 2**62)]:
        a, scale = p.as_integer_ratio()
        mode = (m + 1) * a // scale
        tiny = p == 2.0**-1074
        for k in list(range(min(m, mode + 8) + 1)) + ([60, 100] if tiny else []):
            u = rng.getrandbits(64) if (tiny and k) or rng.random() < 0.5 else None
            _check_certified(m, a, scale - a, k, rng.randint(0, 3), u,
                             [rng.getrandbits(64) for _ in range(4)])


def test_interval_decisions_reach_eighty_digits():
    # U begins with A's own first 128 bits, so that 40 digits cannot decide:
    # the 80-digit pass must, and with every factorial taken at 80 digits.
    rng = random.Random(9)
    for p, m in ((0.5, 20_001), (0.03, 5_001), (2.0**-10, 20_002), (1e-9, 1_500_000_000)):
        a, scale = p.as_integer_ratio()
        mode = (m + 1) * a // scale
        for k in range(max(mode - 3, 0), mode + 4):
            _check_certified(m, a, scale - a, k, rng.randint(0, 2), None,
                             [rng.getrandbits(64) for _ in range(3)], agree=2)


def test_certified_decisions_take_turns_across_counts(monkeypatch):
    # With an infinite margin every proposal in [0, m] is certified, and each
    # uniform here begins with its A's own first 64 bits, so each decision
    # reads one more word.  Pending decisions are made in rounds, one per
    # count in count order: count 0's first proposal takes the first word
    # (all ones: rejected), count 1's the second (all ones: rejected), and
    # count 0's second proposal the third (0: accepted), while count 1 takes
    # the mode, whose A = 1 needs no more word.
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    m, p = 10_000, protocol._PROPOSALS
    mode = m // 2

    def a64(k):  # A = f(k)/f(M) at p = 1/2 and block 0, to 64 bits
        return (math.comb(m, k) << 64) // math.comb(m, mode)

    first = [_proposal(0, 0, 5), _proposal(0, 0, 6)] + [_proposal(0, 0, 0)] * (p - 2)
    second = [_proposal(0, 0, 7)] + [_proposal(0, 0, 0)] * (p - 1)
    uniforms = [a64(mode + 5), a64(mode + 6)] + [0] * (p - 2) + [a64(mode + 7)] + [0] * (p - 1)
    stub = _StubBits(first + second + uniforms + [_ONES, _ONES, 0])
    assert protocol._binomial([m, m], 0.5, stub.random_raw) == [mode + 6, mode]
    assert stub.draws == [4 * p, 1, 1, 1]


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
        got = protocol._binomial([m], 0.5, stub.random_raw)
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
    # rounds at e = 0.03, where w = 32: 16*16 < 0.6932 * 4mpq < 32*32.  A
    # uniform of 0 accepts a proposal near the mode, and all ones reject one
    # far off.
    m, mode, w, p = 10_000, 300, 32, protocol._PROPOSALS

    def sample(first, extra=()):
        proposals = first + [_proposal(0, 0, 0)] * (p - len(first))
        uniforms = [_ONES] * (len(first) - 1) + [0]
        stub = _StubBits(proposals + uniforms + [_ONES] * (p - len(uniforms)) + list(extra))
        return protocol._binomial([m], 0.03, stub.random_raw), stub.draws

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


def _open_by_word(words) -> list:
    """The open blocks by the per-word rule: bits 62..32 all 0."""
    return [i for i, word in enumerate(words) if not word >> 32 & (2**31 - 1)]


@pytest.mark.parametrize("n", [1, 16, 1024])
def test_open_block_scan_matches_the_per_word_rule(n):
    # Closed words have one of bits 62..32 set, and random other bits; the
    # batch's uniforms follow its proposals and are not scanned.
    rng = random.Random(n)
    closed = [rng.getrandbits(64) | 1 << rng.randrange(32, 63) for _ in range(n)]

    def batch(changes):
        words = list(closed)
        for at, word in changes.items():
            words[at % n] = word
        return words

    batches = [closed, batch({0: 0}), batch({-1: 0}), batch({1: 0, 2: 0}), batch({-2: 0, -1: 0}),
               batch({n // 2: 1 << 63 | _LOW32}),  # open: the side and offset bits do not close it
               batch({0: 1 << 32, -1: 1 << 62}),  # closed by bit 32 or bit 62 alone
               batch({0: _ONES ^ (2**31 - 1) << 32}),  # open, every other bit set
               [0] * n, [1 << 63] * n, [1 << 32] * n,
               [rng.getrandbits(64) & (_ONES if rng.random() < 0.9 else 1 << 63 | _LOW32)
                for _ in range(n)]]
    for words in batches:
        expected = _open_by_word(words)
        assert protocol._open_blocks(array("Q", words), n) == expected
        assert protocol._open_blocks(array("Q", words + [0] * n), n) == expected


def test_blocks_read_on_into_further_words(monkeypatch):
    # Two counts of 10**6 rounds at 1/2 (mode 500_000, w = 1024): count 0's
    # first proposal (word 0) and count 1's (word 16) are open.  The first
    # extra draw gives each a word: word 0's is all zero and stays open, and
    # word 16's closes it after 4 zeros; the second gives word 0 a word that
    # closes it after 2.  So K = 31 + 31 + 2 and 31 + 4.  Their uniforms of 0
    # leave both to the certified test, a stub that accepts.
    m, mode, w, p = 10**6, 500_000, 1024, protocol._PROPOSALS
    certified = []
    monkeypatch.setattr(protocol, "_accept_certified",
                        lambda m, a, b, mode, k, block, *rest: certified.append((k, block)) or 1)
    rows = [[_proposal(0, 31, 5)] + [_proposal(0, 0, 0)] * (p - 1),
            [_proposal(0, 31, 7)] + [_proposal(0, 0, 0)] * (p - 1)]
    extra = [0, 1 << 62 - 4, 1 << 62 - 2]
    stub = _StubBits(rows[0] + rows[1] + [0] * (2 * p) + extra)
    got = protocol._binomial([m, m], 0.5, stub.random_raw)
    k0, k1 = mode + 64 * w + 5, mode + 35 * w + 7
    assert got == [k0, k1] and certified == [(k0, 64), (k1, 35)]
    assert stub.draws == [4 * p, 2, 1]


def test_float_test_constants_are_its_former_expressions():
    # Computed once per count, the float test's constants are bit for bit the
    # expressions it evaluated on every proposal before: float(M), float(G),
    # log1p of the exactly divided tilt, float(m) / 12 and (1/M + 1/G)/12,
    # with G = m - M; 0s at M = 0 or m, where the test defers every proposal.
    rng = random.Random(12)
    chances = [(1, 1), protocol._chances(0.03, True)[1]] + [
        protocol._dyadic(e) for e in (0.03, 0.2, 1e-9, 2.0**-40, 2.0**-1074)]
    sizes = [1, 2, 14, 15, 1000, 10**6, 10**7, 2**40, 2**62, 2**63 - 1]
    sizes += [rng.randrange(1, 2**rng.randrange(2, 64)) for _ in range(300)]
    for a, b in chances:
        for m in sizes:
            mode = (m + 1) * a // (a + b)
            got = protocol._count_constants(m, a, b)
            assert got[:5] == (m, a, b, mode, protocol._width(m, a / (a + b), mode))
            if not 0 < mode < m:
                assert got[5:] == (0.0,) * 5
                continue
            mf, gf = float(mode), float(m - mode)
            tilt = (m * a - mode * (a + b)) / (mode * b)
            assert got[5:] == (mf, gf, math.log1p(tilt), float(m) / 12, (1 / mf + 1 / gf) / 12)


def _float_edges(m: int, a: int, b: int, k: int, block: int) -> tuple:
    """ln(2**53 A) less and plus the float test's error bound for the
    proposal k on block K, by the expressions the float test is documented
    by, each evaluated on its own (the kernel computes some once per count)."""
    mode = (m + 1) * a // (a + b)
    y, rest = k - mode, m - k
    kf, bf, yf, mf, gf = float(k), float(rest), float(y), float(mode), float(m - mode)
    tilt = (m * a - mode * (a + b)) / (mode * b)
    lift = block * math.log(2.0)
    up, down = (kf + 0.5) * math.log1p(yf / mf), (bf + 0.5) * math.log1p(-yf / gf)
    ln_a = lift + yf * math.log1p(tilt) - up - down + 53 * math.log(2.0)
    error = ((lift + 2 * abs(up - down) + 64) * protocol._MARGIN
             + (float(m) / 12 / (kf * bf) + (1 / mf + 1 / gf) / 12))
    return ln_a - error, ln_a + error


def _last_below(x: float, shift: int) -> int:
    """The largest u with log(u + shift) < x."""
    u = int(math.exp(x))
    while math.log(u + shift) >= x:
        u -= 1
    while math.log(u + 1 + shift) < x:
        u += 1
    return u


def test_float_test_defers_exactly_within_its_error_band(monkeypatch):
    # Four counts of one batch at 0.03, with their own constants, propose
    # k on block 0 or 1 and side 0 or 1 first.  Uniforms on each edge of
    # the error band around A decide it: the last u accepted (1) and the
    # next (-1, certified), the first u rejected (0) and the one before
    # (-1).  The next proposal, the mode with a uniform of 0, is accepted.
    a, b = protocol._dyadic(0.03)
    m = [10_000, 4_000_000, 10_000, 2_000_000]
    modes = [(n + 1) * a // (a + b) for n in m]
    first = [_proposal(0, 0, 20), _proposal(0, 0, 300), _proposal(0, 1, 5), _proposal(1, 0, 200)]
    ks = [modes[0] + 20, modes[1] + 300, modes[2] + 32 + 5, modes[3] - 1 - 200]
    blocks = [0, 0, 1, 0]
    certified = []
    monkeypatch.setattr(protocol, "_accept_certified",
                        lambda m, a, b, mode, k, *rest: certified.append(k) or 1)
    uniforms = []
    for n, k, block in zip(m, ks, blocks):
        lo, hi = _float_edges(n, a, b, k, block)
        accepted, rejected = _last_below(lo, 1), _last_below(math.nextafter(hi, math.inf), 0) + 1
        assert math.log(rejected) > hi >= math.log(rejected - 1) and rejected < 2**53
        uniforms.append([(accepted, 1), (accepted + 1, -1), (rejected, 0), (rejected - 1, -1)])
    p = protocol._PROPOSALS
    for case in range(4):
        certified.clear()
        rows = [[word] + [_proposal(0, 0, 0)] * (p - 1) for word in first]
        words = [[u[case][0] << 11] + [0] * (p - 1) for u in uniforms]
        stub = _StubBits(sum(rows, []) + sum(words, []))
        got = protocol._binomial(m, 0.03, stub.random_raw)
        status = [-1 if k in certified else 1 if x == k else 0 for x, k in zip(got, ks)]
        assert status == [u[case][1] for u in uniforms], case
        assert all(x == mode for x, mode, s in zip(got, modes, status) if s == 0)


def _status_of(monkeypatch, m: int, e: float, k: int, uniform: int = 1 << 63) -> int:
    """The float test's status of the proposal k, at block 0, of m rounds at
    e, read from one _binomial call: 1 when k is accepted, -1 when it goes to
    the certified test, 0 when the next proposal is taken.  A width of 2**62
    puts every k in reach of block 0, whose word gives j in its bits 61..0;
    the width maps words to proposals and does not enter the test.  The next
    proposal lies in [0, m], and its uniform of 0 takes it, by the float test
    or the certified one, here a stub that accepts."""
    a, b = protocol._dyadic(e)
    mode = (m + 1) * a // (a + b)
    certified = []
    monkeypatch.setattr(protocol, "_width", lambda *args: 1 << 62)
    monkeypatch.setattr(protocol, "_accept_certified",
                        lambda m, a, b, mode, k, *rest: certified.append(k) or 1)
    other = mode if k != mode else mode + 1 if mode < m else mode - 1

    def word(k):  # block 0: bit 62 set, the side in bit 63
        return 1 << 63 | 1 << 62 | mode - 1 - k if k < mode else 1 << 62 | k - mode

    p = protocol._PROPOSALS
    stub = _StubBits([word(k)] + [word(other)] * (p - 1) + [uniform] + [0] * (p - 1))
    got = protocol._binomial([m], e, stub.random_raw)
    if certified[:1] == [k]:
        return -1
    assert got in ([k], [other])
    return 1 if got == [k] else 0


def test_rejection_status_at_its_edges(monkeypatch):
    # Mode 300 of 10_000 rounds at 0.03.  f(k) = 0 outside [0, m]: rejected;
    # at k = 0 and m a log1p is singular: certified.
    _status = functools.partial(_status_of, monkeypatch)
    m = 10_000
    assert [_status(m, 0.03, k) for k in (-1, 0, m, m + 1)] == [0, -1, -1, 0]
    # Mode 0 (10 rounds at 2**-10) and mode m (1 round at 1/2): every k in
    # [0, m] is certified.
    assert [_status(10, 2.0**-10, k) for k in (-1, 0, 1, 5, 10, 11)] == [0, -1, -1, -1, -1, 0]
    assert [_status(1, 0.5, k) for k in (-2, -1, 0, 1, 2)] == [0, 0, -1, -1, 0]
    # k = 1 of 2**62 rounds at 1/2, whose y/M rounds to -1: certified.
    assert _status(2**62, 0.5, 1) == -1 and _status(2**62, 0.5, 0) == -1
    # A uniform word below 2**11 gives u = 0, and U may be 0: the mode is
    # accepted, and a k with A < 2**-53 is left to the certified path.
    assert _status(m, 0.03, 300, uniform=2**11 - 1) == 1
    assert _status(m, 0.03, 900, uniform=0) == -1
    assert _status(m, 0.03, 900, uniform=2**11) == 0
    # A = 1 at the mode: U of all ones may still lie below it.
    assert _status(m, 0.03, 300, uniform=_ONES) == -1
    # With an infinite margin every k in [0, m] is certified.
    monkeypatch.setattr(protocol, "_MARGIN", math.inf)
    for k in (-1, 0, 1, 299, 300, 301, 900, m - 1, m, m + 1):
        for uniform in (0, 2**11, 1 << 63, _ONES):
            assert _status(m, 0.03, k, uniform) == (-1 if 0 <= k <= m else 0)


_EVE_CHANCE = protocol._chances(0.03, True)[1]  # (0.03 + 1/2)/2, not a float


def _pair(e) -> tuple:
    return e if isinstance(e, tuple) else protocol._dyadic(e)


# The largest count of each mode 0..7 at each chance, whose pmf falls the
# slowest above its mode: (m + 1) a < (mode + 1)(a + b).  At 1/2 no count
# has mode 0; m = 1 has mode m.
_SMALL_ENVELOPES = [(m, e, mode) for e in (0.5, 0.03, 2.0**-10, _EVE_CHANCE) for mode in range(8)
                    for m in [((mode + 1) * sum(_pair(e)) - 1) // _pair(e)[0] - 1] if m > 0]


@pytest.mark.parametrize("m,e,mode", [(4_097, 2.0**-9, 8), (8_191, 2.0**-10, 8),
                                      (4_097, 0.03, 122), (4_098, 0.2, 819),
                                      (4_097, 0.5, 2049), (15, 0.5, 8), (266, 0.03, 8),
                                      (30, _EVE_CHANCE, 8), (4_095, 0.03, 122), (1, 0.5, 1)]
                         + _SMALL_ENVELOPES)
def test_envelope_bounds_the_pmf_exactly(m, e, mode):
    # 2**K f(k) <= f(M) for every k in [0, m], K the block of k, in integers:
    # F(k) = C(m, k) a**k b**(m - k), for e = a/(a + b), is f(k) (a + b)**m.
    # The cases of mode 8 have the least mode whose width is set from 4mpq,
    # and 15, 266 and 30 are the least counts of that mode at 1/2, 0.03 and
    # Eve's chance at 0.03.
    a, b = _pair(e)
    assert (m + 1) * a // (a + b) == mode
    w = protocol._width(m, a / (a + b), mode)
    top = math.comb(m, mode) * a**mode * b ** (m - mode)
    f = b**m
    for k in range(m + 1):
        block = (k - mode if k >= mode else mode - 1 - k) // w
        assert f << block <= top, k
        f = f * (m - k) * a // ((k + 1) * b)


def test_halves_at_the_largest_count():
    m = 2**63 - 1
    draws = protocol._binomial([m] * 2_000, 0.5, protocol._word_source(1))
    z = (np.array(draws, dtype=float) - m / 2) / (math.sqrt(m) / 2)
    assert min(draws) >= 0 and max(draws) <= m
    assert abs(z.mean()) < 0.15 and abs(z.std() - 1) < 0.1 and abs(z).max() < 6
    config = SimulationConfig(protocol=ProtocolId.P2, n_rounds=m, channel_qber=0.03,
                              eve=Eavesdropper.INTERCEPT_RESEND, rng_seed=1)
    counts = protocol._code_counts(config, protocol._word_source(2))
    assert min(counts) >= 0 and sum(counts) == m
