import os
import sys

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
