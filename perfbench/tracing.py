"""Span tracing for the benchmark's traced passes, installed from outside the program.

The tracer wraps public functions of the five ``threepass`` layers (protocol,
qmath, secrate, pns, cli) and patches each wrapper in wherever a calling module
looks the name up, so calls made through a module global are traced too.
Every wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory; a few very frequent calls are only counted.
``DensityMatrix4`` itself is not replaced, because ``isinstance`` depends on
it: its validations are counted by wrapping ``__post_init__``.

A span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from threepass import cli, pns, protocol, qmath, secrate

# (span name, owner of the original, attribute, every namespace that looks it up)
SPANS = (
    ("protocol.run_simulation", protocol, "run_simulation", (protocol, cli)),
    ("qmath.eve_state", qmath, "eve_state", (qmath, secrate)),
    ("qmath.von_neumann_entropy", qmath, "von_neumann_entropy", (qmath, secrate)),
    ("qmath.binary_entropy", qmath, "binary_entropy", (qmath, secrate)),
    ("secrate.find_threshold", secrate, "find_threshold", (secrate,)),
    ("secrate.bound_threshold", secrate, "bound_threshold", (secrate,)),
    ("secrate.golden_section_max", secrate, "golden_section_max", (secrate,)),
    ("secrate.lower_bound_rate", secrate, "lower_bound_rate", (secrate,)),
    ("secrate.upper_bound_crossing", secrate, "upper_bound_crossing", (secrate,)),
    ("secrate.key_rate_sb1", secrate, "key_rate_sb1", (secrate,)),
    ("secrate.key_rate_sifted", secrate, "key_rate_sifted", (secrate,)),
    ("secrate.holevo_chi", secrate, "holevo_chi", (secrate,)),
    ("pns.eve_info_pns", pns, "eve_info_pns", (pns,)),
    ("pns.eve_info_irud", pns, "eve_info_irud", (pns,)),
    ("pns.critical_distance", pns, "critical_distance", (pns,)),
)
MAIN = "cli.main"

# (counter name, owner, attribute, namespaces, amount added per call)
COUNTERS = (
    ("protocol.rounds", protocol, "run_simulation", (protocol, cli),
     lambda config, *args, **kwargs: config.n_rounds),
    ("qmath.density_checks", qmath.DensityMatrix4, "__post_init__",
     (qmath.DensityMatrix4,), None),
    ("pns.poisson_tail.calls", pns, "poisson_tail", (pns,), None),
)

# Exceptions counted where they leave a span.
COUNTED_ERRORS = {"secrate.find_threshold": secrate.BracketError}

RATE_FUNCTIONS = ("secrate.lower_bound_rate", "secrate.upper_bound_crossing",
                  "secrate.key_rate_sb1", "secrate.key_rate_sifted")
LAYERS = ("protocol", "qmath", "secrate", "pns", "cli")


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.span_names = [name for name, *_ in SPANS] + [MAIN]
        self.counter_names = [name for name, *_ in COUNTERS]
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.errors = [0] * len(self.span_names)
        self.counts = [0] * len(self.counter_names)
        wrapped = {}   # (owner, attr) -> outermost wrapper
        targets = {}   # (namespace, attr) -> (owner, attr)
        for cid, (_, owner, attr, lookups, amount) in enumerate(COUNTERS):
            key = (owner, attr)
            wrapped[key] = self._counter(wrapped.get(key, getattr(owner, attr)), cid, amount)
            targets.update(((ns, attr), key) for ns in lookups)
        for sid, (name, owner, attr, lookups) in enumerate(SPANS):
            key = (owner, attr)
            wrapped[key] = self._span(wrapped.get(key, getattr(owner, attr)), sid,
                                      COUNTED_ERRORS.get(name, ()))
            targets.update(((ns, attr), key) for ns in lookups)
        self._patches = [(ns, attr, wrapped[key]) for (ns, attr), key in targets.items()]
        self.main = self._span(cli.main, len(SPANS), ())

    def _span(self, fn, sid: int, counted_errors):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except counted_errors:
                errors[sid] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _counter(self, fn, cid: int, amount):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[cid] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def reset(self) -> None:
        for buf in (self.names, self.parents, self.starts, self.ends):
            del buf[:]
        self.errors[:] = [0] * len(self.errors)
        self.counts[:] = [0] * len(self.counts)

    @contextmanager
    def installed(self):
        """Patch every wrapper in for the duration of the block."""
        saved = []
        try:
            for ns, attr, wrapper in self._patches:
                saved.append((ns, attr, ns.__dict__[attr]))
                setattr(ns, attr, wrapper)
            yield
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The current pass's spans as arrays, plus each span's self time."""
        names = np.array(self.names, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        starts = np.array(self.starts)
        ends = np.array(self.ends)
        duration = ends - starts
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested],
                              minlength=len(names))
        return {"name": names, "parent": parents, "start": starts, "end": ends,
                "self": duration - covered}

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics of the current pass, as {name: {"value", "unit"}}."""
        spans = self.spans()
        n = len(self.span_names)
        calls = np.bincount(spans["name"], minlength=n)
        total = np.bincount(spans["name"], weights=spans["end"] - spans["start"], minlength=n)
        own = np.bincount(spans["name"], weights=spans["self"], minlength=n)
        sid = {name: i for i, name in enumerate(self.span_names)}
        count = dict(zip(self.counter_names, self.counts))

        def c(name):
            return int(calls[sid[name]])

        def s(name):
            return float(total[sid[name]])

        rounds = count["protocol.rounds"]
        finds = c("secrate.find_threshold")
        rate_evals = sum(c(name) for name in RATE_FUNCTIONS)
        bracket_errors = self.errors[sid["secrate.find_threshold"]]
        out = {
            "protocol.run_simulation.calls": c("protocol.run_simulation"),
            "protocol.run_simulation.s": s("protocol.run_simulation"),
            "protocol.rounds": rounds,
            "protocol.ns_per_round":
                s("protocol.run_simulation") / rounds * 1e9 if rounds else 0.0,
            "qmath.eve_state.calls": c("qmath.eve_state"),
            "qmath.eve_state.s": s("qmath.eve_state"),
            "qmath.von_neumann_entropy.calls": c("qmath.von_neumann_entropy"),
            "qmath.von_neumann_entropy.s": s("qmath.von_neumann_entropy"),
            "qmath.density_checks": count["qmath.density_checks"],
            "qmath.eigensolves":
                c("qmath.von_neumann_entropy") + count["qmath.density_checks"],
            "qmath.binary_entropy.calls": c("qmath.binary_entropy"),
            "secrate.find_threshold.calls": finds,
            "secrate.find_threshold.s": s("secrate.find_threshold"),
            "secrate.bound_threshold.s": s("secrate.bound_threshold"),
            "secrate.golden_section_max.calls": c("secrate.golden_section_max"),
            "secrate.rate_evals": rate_evals,
            "secrate.evals_per_root": rate_evals / finds if finds else 0.0,
            "secrate.bracket_errors": bracket_errors,
            "secrate.bracket_error_ratio": bracket_errors / finds if finds else 0.0,
            "pns.eve_info.calls": c("pns.eve_info_pns") + c("pns.eve_info_irud"),
            "pns.eve_info.s": s("pns.eve_info_pns") + s("pns.eve_info_irud"),
            "pns.poisson_tail.calls": count["pns.poisson_tail.calls"],
            "pns.critical_distance.s": s("pns.critical_distance"),
            "cli.main.calls": c(MAIN),
        }
        for name in ("secrate.lower_bound_rate", "secrate.upper_bound_crossing",
                     "secrate.holevo_chi"):
            out[f"{name}.self_s"] = float(own[sid[name]])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                own[i] for i, name in enumerate(self.span_names)
                if name.split(".")[0] == layer))
        return {name: {"value": value, "unit": _unit(name)} for name, value in out.items()}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ns_per_round"):
        return "ns"
    if name.endswith(("_ratio", "per_root")):
        return "ratio"
    return "count"
