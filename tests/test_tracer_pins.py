"""The benchmark's tracer still finds, patches and restores every name it wraps.

``perfbench/tracing.py`` looks package functions up by name.  Building its
``Tracer`` here makes deleting or renaming one of those names fail this suite,
not only the benchmark's own tests.
"""

import os


def test_tracer_patches_and_restores_every_pinned_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    targets = {(ns, attr) for _, _, attr, lookups, *_ in tracing.SPANS + tracing.COUNTERS
               for ns in lookups}
    originals = {(ns, attr): ns.__dict__[attr] for ns, attr in targets}
    with tracer.installed():
        assert all(ns.__dict__[attr] is not originals[ns, attr] for ns, attr in targets)
    assert all(ns.__dict__[attr] is originals[ns, attr] for ns, attr in targets)
