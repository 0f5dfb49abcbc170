"""The benchmark's own checks: planted faults must count as failed operations.

Runs the ``cli_files`` pass on small signals, once against evenrev as it is
and once each with a fault planted between the program and the checks.
"""

import json
import os

import numpy as np
import pytest

import evenrev
import evenrev.cli
import workloads as wl
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


class _Proxy:
    """``real`` with some attributes replaced."""

    def __init__(self, real, **replaced):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _with_cli(main):
    return _Proxy(evenrev, cli=_Proxy(evenrev.cli, main=main))


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _edit_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _run_pass(tmp_path, monkeypatch, er, clean_passes=0):
    """Ledger of a small ``cli_files`` run whose last pass goes through ``er``."""
    monkeypatch.setattr(wl, "CLI_BIG", (10, "cubic", "kernel"))
    monkeypatch.setattr(wl, "CLI_SMALL", 9)
    workload = wl.CliFiles()
    workload.setup(evenrev, 5, str(tmp_path))
    ctx = wl.Context(evenrev, Tracer(), str(tmp_path))
    for i in range(clean_passes):
        ctx.run_pass(workload)
    ctx.er = er
    ctx.run_pass(workload)
    return ctx.ledger, len(workload.jobs)


def test_clean_pass_has_no_failures(tmp_path, monkeypatch):
    ledger, jobs = _run_pass(tmp_path, monkeypatch, evenrev)
    assert ledger.messages == []
    assert (ledger.attempted, ledger.failed) == (2 * len(wl.CLI_MASKS) + 4 * jobs, 0)


def test_reconstruct_with_another_mask_fails(tmp_path, monkeypatch):
    def main(argv):
        if argv[0] == "reconstruct":
            argv = list(argv)
            i = argv.index("--mask") + 1
            wrong = "quadratic.json" if not argv[i].endswith("quadratic.json") else "cubic.json"
            argv[i] = os.path.join(os.path.dirname(argv[i]), wrong)
        return evenrev.cli.main(argv)

    ledger, jobs = _run_pass(tmp_path, monkeypatch, _with_cli(main))
    assert ledger.failed_ops == {"reconstruct": jobs, "reconstruct_small": jobs}


def test_compressed_detail_below_eps_fails(tmp_path, monkeypatch):
    def plant(obj):
        level = next(d for d in obj["details"] if 0.0 in d)
        level[level.index(0.0)] = wl.EPS / 2  # kept although below the threshold

    def main(argv):
        status = evenrev.cli.main(argv)
        if argv[0] == "compress":
            _edit_json(_arg(argv, "--out"), plant)
        return status

    ledger, jobs = _run_pass(tmp_path, monkeypatch, _with_cli(main))
    assert ledger.failed_ops == {"compress": jobs}
    assert any("below eps" in msg for msg in ledger.messages)


@pytest.mark.parametrize("clean_passes", [0, 1])
def test_perturbed_coarse_entry_fails(tmp_path, monkeypatch, clean_passes):
    def perturb(obj):
        obj["coarse"][0] += 1e-6

    def main(argv):
        status = evenrev.cli.main(argv)
        if argv[0] == "decompose":
            _edit_json(_arg(argv, "--out"), perturb)
        return status

    ledger, jobs = _run_pass(tmp_path, monkeypatch, _with_cli(main), clean_passes)
    assert ledger.failed_ops == {"decompose": jobs, "reconstruct": jobs}


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    tracer.active = True
    outer()
    spans = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    assert tracer.calls == {"outer": 1, "inner": 3}
    assert tracer.self_s["inner"] == pytest.approx(spans[1:].sum())
    assert tracer.self_s["outer"] == pytest.approx(spans[0] - spans[1:].sum())


def test_benchmark_json_matches_the_metrics_printed():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
