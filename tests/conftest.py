import os
import sys

import numpy as np
from hypothesis import HealthCheck, example, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "ci",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

#: Literals Hypothesis harvests from the package's and tests' source and
#: tries early: editing any constant changes which of them a test draws, so
#: the property tests with tolerances of 1e-12 or tighter try each of them.
HARVESTED = (1e-6, 1e-10, 1e-12)


def at_harvested_literals(**base):
    """@example with each keyword argument in turn at each :data:`HARVESTED`
    literal and the others at ``base``."""
    def decorate(test):
        for name in base:
            for literal in HARVESTED:
                test = example(**{**base, name: literal})(test)
        return test
    return decorate


def chi_square_bound(dof: int, z: float = 3.72) -> float:
    """The chi-square quantile at normal score z (3.72: upper tail 1e-4), by
    the Wilson-Hilferty approximation (Wilson and Hilferty, PNAS 17, 1931)."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * a ** 0.5) ** 3


def assert_fits(observed, expected) -> None:
    """Assert that counts fit their expected values: none falls where none is
    expected, and Pearson's chi-square, the cells expected fewer than 5 times
    pooled, stays below :func:`chi_square_bound`."""
    observed, expected = np.asarray(observed), np.asarray(expected, dtype=float)
    assert observed[expected == 0].sum() == 0
    common, rare = expected >= 5, (expected > 0) & (expected < 5)
    cells = np.append(observed[common], observed[rare].sum())
    means = np.append(expected[common], expected[rare].sum())
    if not rare.any():  # no pooled cell
        cells, means = cells[:-1], means[:-1]
    assert float(((cells - means) ** 2 / means).sum()) <= chi_square_bound(means.size - 1)
