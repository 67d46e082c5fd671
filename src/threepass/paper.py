"""The paper's published numbers, one record each, and the one rule that checks them.

A record holds the acceptance criterion that asserts the number (1a ... 8,
``tests/test_acceptance.py``), the published value, and the band within
which every ``--check`` accepts a computed value, |computed - value| <= band.
A band of None marks a number that is reported beside the computed one but
not checked.  Where the defining formula does not give the published value,
the record also holds what the formula gives, and why.  The critical
distances are published at alpha = 0.25 dB/km, with mu = 0.1 for the storage
attack and mu = 0.2 for unambiguous discrimination.

Standard library only, so that :mod:`threepass.protocol` reads its abort
tolerance here without loading numpy.
"""

from collections import namedtuple

Figure = namedtuple("Figure", "criterion value band formula why", defaults=(None, None))

_IRUD_WHY = "the crossing of I2(l) = 1 with I2 as published, at mu = 0.2"

FIGURES = {
    # The tolerable QBERs, in the rows of ``threepass thresholds``.
    "sb1": Figure("1a", 0.0314, 5e-4),
    "sb1_announced": Figure("1b", 0.0617, 5e-4),
    "sifted": Figure("1c", 0.0316, 5e-4, 0.022970,
                     "the only root of 1 - h(1/6 + 2e/3) - 2h(e)"),
    "sifted_announced": Figure("1d", 0.15, 5e-3, 0.048515,
                               "the only root of 1 - h(1/6 + 2e/3) - h(e); no constants "
                               "of that form pass through both published values"),
    "lower_bound": Figure("2a", 0.124, 2e-3),
    "upper_bound": Figure("2b", 0.114, 2e-3, 0.120137,
                          "the published form is a sum of two nonnegative terms with no "
                          "zero; the formula value is the information margin's crossing"),
    # Critical distance l_c (km) and loss delta_c (dB) of each attack.
    "pns_l_c": Figure("3", 154.5, 1.0),
    "pns_delta_c": Figure("3", 38.625, 0.1),
    "irud_l_c": Figure("4c", 302.8, None, 339.48, _IRUD_WHY),
    "irud_delta_c": Figure("4c", 75.7, None, 84.8694, _IRUD_WHY),
    # I(3, 1/sqrt(2)), correctly rounded from 40 digits; the paper's 0.794231
    # is 6e-6 off the formula.
    "i3": Figure("4b", 0.7942369457243099, 1e-6),
    # Cabello's efficiency of each preset, to four decimals.
    "p1": Figure("8", 0.2069, 5e-5),
    "p2": Figure("8", 0.25, 5e-5),
    "sarg04": Figure("8", 0.125, 5e-5),
}


def failures(computed: dict) -> list:
    """The keys of ``computed`` whose value lies outside its record's band, NaN too."""
    return [key for key, x in computed.items()
            if not abs(x - FIGURES[key].value) <= FIGURES[key].band]
