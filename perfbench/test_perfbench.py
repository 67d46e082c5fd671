"""Tests of the benchmark itself: output checks catch corrupted outputs, and the
tracer counts and restores what it wraps.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import re
import shutil

import pytest

from threepass import cli, qmath, secrate
from tracing import Tracer
from workloads import WORKLOADS, invoke


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """One pass of a workload, run once per module: (outdir, outcomes)."""
    done = {}

    def run(name):
        if name not in done:
            outdir = str(tmp_path_factory.mktemp(name))
            commands = WORKLOADS[name].commands(outdir, 7)
            done[name] = (outdir, [invoke(cli.main, argv) for argv in commands])
        return done[name]

    return run


def failed_frac(name, outdir, outcomes):
    errors = WORKLOADS[name].check(outcomes, outdir)
    return sum(e is not None for e in errors) / len(errors)


@pytest.fixture
def corrupt(clean_run, tmp_path):
    """A writable copy of a clean pass: (outdir, outcomes list)."""

    def copy(name):
        outdir, outcomes = clean_run(name)
        target = tmp_path / "out"
        shutil.copytree(outdir, target)
        return target, list(outcomes)

    return copy


def edit(path, fn):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(fn(lines)), encoding="utf-8")


def data_start(lines):
    """Index of the first data row after the manifest and header."""
    return next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_outputs_pass(clean_run, name):
    assert failed_frac(name, *clean_run(name)) == 0


def test_perturbed_surface_value_fails(corrupt):
    outdir, outcomes = corrupt("surface")
    edit(outdir / "surface_lower.csv",
         lambda lines: [l.replace("0.1,0.1,0.0626944", "0.1,0.1,0.0626945") for l in lines])
    assert failed_frac("surface", str(outdir), outcomes) > 0


def test_missing_surface_row_fails(corrupt):
    outdir, outcomes = corrupt("surface")
    edit(outdir / "surface_upper.csv", lambda lines: lines[:-1])
    assert failed_frac("surface", str(outdir), outcomes) > 0


def test_dropped_histogram_row_fails(corrupt):
    outdir, outcomes = corrupt("mc")
    edit(outdir / "histogram_p1.csv",
         lambda lines: lines[:data_start(lines)] + lines[data_start(lines) + 1:])
    assert failed_frac("mc", str(outdir), outcomes) > 0


@pytest.mark.parametrize("key", ["sifted qber", "sift fraction", "sb1 orthogonal fraction"])
@pytest.mark.parametrize("index", [0, 1])
def test_out_of_band_report_fails(corrupt, key, index):
    outdir, outcomes = corrupt("mc")

    def shift(match):
        return f"{match.group(1)}{float(match.group(2)) + 0.002:.6g}"

    stdout = re.sub(rf"^({key}:\s+)(\S+)$", shift, outcomes[index].stdout, flags=re.M)
    assert stdout != outcomes[index].stdout
    outcomes[index] = outcomes[index]._replace(stdout=stdout)
    assert failed_frac("mc", str(outdir), outcomes) > 0


def test_wrong_scan_row_count_fails(corrupt):
    outdir, outcomes = corrupt("scan")
    edit(outdir / "scan_irud.csv", lambda lines: lines[:-1])
    assert failed_frac("scan", str(outdir), outcomes) > 0


@pytest.mark.parametrize("key,delta", [("lower_bound", 5e-4), ("sifted", 2e-6)])
def test_perturbed_threshold_fails(corrupt, key, delta):
    outdir, outcomes = corrupt("roots")

    def shift(match):
        return f"{match.group(1)}{float(match.group(2)) + delta:.6g}"

    stdout = re.sub(rf"^({key},[^,]*,)([^,]+)", shift, outcomes[1].stdout, flags=re.M)
    assert stdout != outcomes[1].stdout
    outcomes[1] = outcomes[1]._replace(stdout=stdout)
    assert failed_frac("roots", str(outdir), outcomes) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unexpected_exit_code_fails(corrupt, name):
    outdir, outcomes = corrupt(name)
    outcomes[0] = outcomes[0]._replace(rc=1)
    assert failed_frac(name, str(outdir), outcomes) > 0


def test_tracer_counts_a_small_surface_and_restores_the_program(tmp_path):
    originals = (qmath.eve_state, qmath.DensityMatrix4.__dict__["__post_init__"],
                 cli.run_simulation)
    tracer = Tracer()
    argv = ["curves", "--kind", "lower", "--e-step", "0.1", "--q-step", "0.25",
            "--out", str(tmp_path / "s.csv")]
    with tracer.installed():
        assert secrate.eve_state is not originals[0]
        assert invoke(tracer.main, argv).rc == 0
    points = 4 * 3
    layers = {name: m["value"] for name, m in tracer.metrics().items()}
    assert layers["cli.main.calls"] == 1
    assert layers["secrate.rate_evals"] == points
    assert layers["qmath.eve_state.calls"] == 2 * points
    assert layers["qmath.density_checks"] == 2 * points
    assert layers["qmath.eigensolves"] == 3 * points + 2 * points
    assert layers["protocol.rounds"] == 0
    spans = tracer.spans()
    assert (spans["self"] >= 0).all()
    assert sum(layers[f"{layer}.self_s"] for layer in ("qmath", "secrate", "cli")) \
        == pytest.approx(spans["end"][0] - spans["start"][0])
    assert (secrate.eve_state, qmath.DensityMatrix4.__dict__["__post_init__"],
            cli.run_simulation) == originals
    assert qmath.eve_state is originals[0]
