"""Committed mutants: each named check must catch its defect.

A row patches one small defect into one function of the package with
``monkeypatch``: the function's source with one snippet replaced, compiled in
its module's namespace and bound wherever a module holds the original.  It
names the selftest criteria and tests that must then fail.  A defect that no
named check catches fails its row, and is mended by strengthening a check,
never by deleting the row (DeMillo, Lipton & Sayward, "Hints on test data
selection: help for the practicing programmer", IEEE Computer 11(4), 1978).
"""

import inspect
import sys

import pytest

import test_cli
import test_inverse
import test_laurent
import test_transform
from evenrev import cli, inverse, laurent, selftest, transform
from evenrev.errors import EvenRevError


def criterion(cid):
    def check(**fixtures):
        next(c for c in selftest.criteria() if c.cid == cid).run()

    check.__name__ = f"criterion_{cid}"
    return check


def call(function, *args):
    """A check that calls a test with ``args`` and the fixtures its other parameters name."""
    def check(**fixtures):
        names = list(inspect.signature(function).parameters)[len(args):]
        function(*args, **{name: fixtures[name] for name in names})

    check.__name__ = function.__name__ + "".join(f"[{a!r}]" for a in args)
    return check


# name: (function, snippet, mutated snippet, checks that must fail)
MUTANTS = {
    "roots_swapped": (
        inverse.even_inverse_spectral,
        "inner = np.abs(roots) < 1.0",
        "inner = np.abs(roots) > 1.0",
        [criterion("1"), criterion("2"), call(test_inverse.test_spectral_matches_closed_cubic)],
    ),
    "newton_dropped": (
        inverse.even_inverse_spectral,
        "g = g + np.fft.irfft(",
        "g = g + 0.0 * np.fft.irfft(",
        [call(test_inverse.test_newton_step_mends_the_roots_rounding)],
    ),
    "budget_unscaled": (
        inverse.even_inverse_spectral,
        "abs(scale) / max(1.0, l1) / sides",
        "abs(scale) / sides",
        [call(test_inverse.test_spectral_budget_scales_with_the_even_part_one_norm, 1e-12)],
    ),
    "offset_off_by_one": (
        inverse.even_inverse_spectral,
        "- (n_in - 1), g, tol",
        "- n_in, g, tol",
        [criterion("1"), criterion("2"), criterion("4"), criterion("7"),
         call(test_inverse.test_spectral_interpolatory_gives_exact_delta)],
    ),
    "packed_residual_unchecked": (
        cli._cmd_decompose,
        "> kernel.tol:",
        "> math.inf:",
        [call(test_cli.test_packed_refuses_leaking_even_details),
         call(test_cli.test_packed_refuses_a_kernel_just_past_its_tol),
         call(test_cli.test_packed_refuses_before_any_analysis)],
    ),
    "compress_packed_unchecked": (
        cli._cmd_compress,
        "max_even_detail()) > 0:",
        "max_even_detail()) > math.inf:",
        [call(test_cli.test_compress_packed_refuses_nonzero_even_details)],
    ),
    "polyphase_parts_swapped": (
        laurent._polyphase,
        "for part in parts:",
        "for part in parts[::-1]:",
        [criterion("6"), criterion("7"), call(test_laurent.test_polyphase_matches_the_direct_sum, 5),
         call(test_laurent.test_reconstruct_adds_the_details_as_subdivide_then_add_would, ())],
    ),
    "wrap_start_off_by_one": (
        laurent._polyphase,
        "start = first % n",
        "start = (first + 1) % n",
        [criterion("6"), criterion("7"), call(test_laurent.test_polyphase_matches_the_direct_sum, 5),
         call(test_laurent.test_reconstruct_adds_the_details_as_subdivide_then_add_would, ())],
    ),
    # the guard ignored: by the one test of |ev| > GUARD, by exact decimation, by the inverter
    "guard_at_zero": (
        inverse._reversibility,
        "mods[i] > GUARD",
        "mods[i] > 0.0",
        [call(test_inverse.test_spectral_rejects_nonreversible),
         call(test_transform.test_decompose_guard_reaches_exact_mode)],
    ),
    "decimation_guard_skipped": (
        transform._halving,
        "if not rev.ok:",
        "if False:",
        [call(test_transform.test_decompose_guard_reaches_exact_mode),
         call(test_cli.test_config_guard_threshold_reaches_exact_decompose)],
    ),
    "inversion_guard_skipped": (
        inverse.even_inverse_spectral,
        "if not rev.ok:",
        "if False:",
        [call(test_inverse.test_spectral_rejects_nonreversible),
         call(test_cli.test_config_guard_threshold_reaches_analyze)],
    ),
}


def patch(monkeypatch, function, old, new):
    source = inspect.getsource(function)
    assert source.count(old) == 1, f"{function.__name__} no longer holds {old!r} once"
    module = sys.modules[function.__module__]
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"),
         vars(module), namespace)
    for mod in list(sys.modules.values()):  # the package and every test that imported it
        for key, value in list(getattr(mod, "__dict__", {}).items()):
            if value is function:
                monkeypatch.setattr(mod, key, namespace[function.__name__])


ROWS = [(name, check) for name, (*_, checks) in MUTANTS.items() for check in checks]


@pytest.mark.parametrize("name, check", ROWS, ids=[f"{n}-{c.__name__}" for n, c in ROWS])
def test_the_named_check_catches_the_mutant(name, check, monkeypatch, tmp_path, capsys):
    function, old, new, _ = MUTANTS[name]
    patch(monkeypatch, function, old, new)
    selftest._kern.cache_clear()  # kernels built before the patch must not answer
    try:
        with pytest.raises((AssertionError, EvenRevError)):
            check(tmp_path=tmp_path, capsys=capsys, monkeypatch=monkeypatch)
    finally:
        selftest._kern.cache_clear()
