"""Command-line front end: mask generation, inversion, transforms, analysis.

Every command is deterministic for fixed inputs and seed.  Validation
failures exit with status 1 and I/O failures with status 2, each printing a
single machine-parsable line on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, selftest, serialize
from .errors import EvenRevError, ParameterError
from .inverse import even_inverse_spectral, inverse_residual_l1
from .laurent import CIRCLE_SAMPLES, GUARD, INVERSE_TOL
from .masks import bspline_mask, dd_mask, pseudo_spline_mask
from .transform import decompose, reconstruct, threshold_details

__all__ = ["RunConfig", "main"]


@dataclass
class RunConfig:
    """Tunable defaults shared by the subcommands."""

    circle_samples: int = CIRCLE_SAMPLES
    guard_threshold: float = GUARD
    inverse_tol: float = INVERSE_TOL
    seed: int = 0
    mode: str = "exact"

    def validate(self) -> "RunConfig":
        s = self.circle_samples
        if s < 1024 or s > 1 << 24 or s & (s - 1):
            raise ParameterError(f"circle_samples must be a power of two in [1024, 2**24], got {s}")
        if self.mode not in ("exact", "kernel"):
            raise ParameterError(f"unknown default mode {self.mode!r}")
        if not 0 <= self.guard_threshold < math.inf:
            raise ParameterError(
                f"guard_threshold must be finite and >= 0, got {self.guard_threshold!r}"
            )
        if not 0 < self.inverse_tol < math.inf:
            raise ParameterError(f"inverse_tol must be finite and > 0, got {self.inverse_tol!r}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        return self


def _load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path:
        obj = serialize.load_json(path)
        if not isinstance(obj, dict):
            raise ParameterError(f"config {path} must be a JSON object")
        names = [field.name for field in dataclasses.fields(cfg)]
        if unknown := [key for key in obj if key not in names]:
            raise ParameterError(f"config {path}: unknown key {', '.join(map(repr, unknown))}; "
                                 f"the keys are {', '.join(names)}")
        for name, value in obj.items():
            default = getattr(cfg, name)
            kind = (int, float) if isinstance(default, float) else type(default)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ParameterError(
                    f"config {path}: {name} must be {type(default).__name__}, got {value!r:.40}"
                )
            setattr(cfg, name, value)
    return cfg.validate()


def _write(pieces, out: str | None) -> None:
    """Stream the text ``pieces`` to the file ``out``, or to stdout without one."""
    if out:
        serialize.write_pieces_atomic(out, pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(obj, out: str | None) -> None:
    _write(serialize.json_pieces(obj), out)


def _emit_rows(report, args) -> int:
    """Report rows as CSV to ``--out`` (or stdout), the whole report to ``--json``."""
    _write((serialize.rows_to_csv_text(report.rows),), args.out)
    if args.json:
        _emit(dataclasses.asdict(report), args.json)
    return 0


def _load_mask(path: str):
    return serialize.mask_from_obj(serialize.load_json(path))


def _load_signal(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path} is not a text file: {exc}") from None
    return serialize.signal_from_csv_text(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_mask(args, cfg: RunConfig) -> int:
    if args.family == "bspline":
        mask = bspline_mask(args.order)
    elif args.family == "pseudo":
        if args.nu is None:
            raise ParameterError("--nu is required for the pseudo family")
        mask = pseudo_spline_mask(args.order, args.nu)
    else:  # dd
        if args.order % 2:
            raise ParameterError("the dd family needs an even --order")
        mask = dd_mask(args.order // 2)
    _emit(serialize.mask_to_obj(mask), args.out)
    return 0


def _cmd_invert(args, cfg: RunConfig) -> int:
    mask = _load_mask(args.mask)
    kernel = _invert(mask, cfg, args.tol)
    _emit(serialize.kernel_to_obj(kernel), args.out)
    return 0


def _resolve_kernel(args, mask, cfg: RunConfig):
    mode = args.mode or cfg.mode
    if mode != "kernel":
        return "exact", None
    if getattr(args, "kernel", None):
        return "kernel", serialize.kernel_from_obj(serialize.load_json(args.kernel))
    return "kernel", _invert(mask, cfg)


def _invert(mask, cfg: RunConfig, tol: float | None = None):
    """The even-inverse at the configured guard, circle grid and (unless ``tol``) tolerance."""
    return even_inverse_spectral(mask, cfg.inverse_tol if tol is None else tol,
                                 cfg.guard_threshold, cfg.circle_samples)


def _cmd_decompose(args, cfg: RunConfig) -> int:
    mask = _load_mask(args.mask)
    signal = _load_signal(args.signal)
    mode, kernel = _resolve_kernel(args, mask, cfg)
    # a kernel's even details (delta - ev * g) * c_l are at most ||g * ev - delta||_1 * max|c_l|
    if args.packed and kernel is not None and (r := inverse_residual_l1(mask, kernel)) > kernel.tol:
        raise ParameterError(f"--packed refuses a kernel whose residual ||g*ev - delta||_1 = "
                             f"{r:.3e} exceeds its tol {kernel.tol:.3e}; write the pyramid "
                             "without --packed")
    pyramid = decompose(signal, mask, args.levels, mode, kernel, args.mask_id, cfg.guard_threshold)
    _emit(serialize.pyramid_to_obj(pyramid, packed=args.packed), args.out)
    return 0


def _cmd_reconstruct(args, cfg: RunConfig) -> int:
    mask = _load_mask(args.mask)
    pyramid = serialize.pyramid_from_obj(serialize.load_json(args.pyramid))
    _write(serialize.signal_csv_pieces(reconstruct(pyramid, mask)), args.out)
    return 0


def _cmd_compress(args, cfg: RunConfig) -> int:
    pyramid = serialize.pyramid_from_obj(serialize.load_json(args.pyramid))
    squeezed, kept, total = threshold_details(pyramid, args.eps)
    if args.packed and (leak := squeezed.max_even_detail()) > 0:
        raise ParameterError(f"--packed would drop an even detail of {leak:.3g}; "
                             "write the pyramid without --packed")
    _emit(serialize.pyramid_to_obj(squeezed, packed=args.packed), args.out)
    sys.stderr.write(f"kept {kept} of {total} detail entries\n")
    return 0


def _cmd_analyze(args, cfg: RunConfig) -> int:
    mask = _load_mask(args.mask)
    guard = cfg.guard_threshold
    if args.analysis == "decay":
        mode, kernel = _resolve_kernel(args, mask, cfg)
        report = analysis.decay_report(
            args.fn, args.levels, args.base, mask, mode=mode,
            kernel=_invert(mask, cfg) if kernel is None else kernel, guard=guard,
        )
        return _emit_rows(report, args)
    if args.analysis == "stability":
        if args.stability_mode == "dec":
            report = analysis.decomposition_stability_experiment(
                mask, p=args.p, trials=args.trials, seed=cfg.seed, perturbation=args.perturbation,
                kernel=_invert(mask, cfg) if args.p == "inf" else None, guard=guard,
                samples=cfg.circle_samples,
            )
        else:
            rng = np.random.default_rng(cfg.seed)
            signal = rng.uniform(-1.0, 1.0, 256)
            pyramid = decompose(signal, mask, 6, guard=guard)
            report = analysis.reconstruction_stability_experiment(
                mask, pyramid, args.perturbation, args.trials, seed=cfg.seed
            )
        _emit(dataclasses.asdict(report), args.out)
        return 0 if report.all_ok else 1
    if args.analysis == "compress":
        signal = _load_signal(args.signal)
        grid = []
        for tok in filter(str.strip, args.eps_grid.split(",")):
            try:
                grid.append(float(tok))
            except ValueError:
                raise ParameterError(f"--eps-grid token {tok!r} is not a number") from None
        if not grid:
            raise ParameterError("--eps-grid must list at least one threshold")
        report = analysis.compression_experiment(signal, mask, args.levels, grid, guard=guard)
        return _emit_rows(report, args)
    raise ParameterError(f"unknown analysis {args.analysis!r}")


def _cmd_selftest(args, cfg: RunConfig) -> int:
    return 0 if selftest.run_all() else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evenrev",
        description="Pyramid transforms built on even-reversible subdivision masks.",
    )
    parser.add_argument("--config", help="JSON config file overriding the defaults")
    parser.add_argument("--seed", type=int, help="seed for randomized commands")
    parser.add_argument("--samples", type=int, help="circle sampling density")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="emit a catalog mask as JSON")
    p.add_argument("--family", choices=("bspline", "pseudo", "dd"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nu", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_mask)

    p = sub.add_parser("invert", help="compute the even-inverse kernel of a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("decompose", help="analyse a signal into a pyramid")
    p.add_argument("--signal", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "kernel"))
    p.add_argument("--kernel", help="kernel JSON for --mode kernel")
    p.add_argument("--mask-id", default="custom")
    p.add_argument("--packed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="synthesise a signal from a pyramid")
    p.add_argument("--pyramid", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("compress", help="hard-threshold the pyramid details")
    p.add_argument("--pyramid", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--packed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("analyze", help="decay, stability and compression studies")
    asub = p.add_subparsers(dest="analysis", required=True)

    d = asub.add_parser("decay", help="per-level decay report")
    d.add_argument("--fn", default="sine", choices=("sine", "gaussian_bump", "poly"))
    d.add_argument("--levels", type=int, default=10)
    d.add_argument("--base", type=int, default=2)
    d.add_argument("--mask", required=True)
    d.add_argument("--mode", choices=("exact", "kernel"))
    d.add_argument("--kernel")
    d.add_argument("--out")
    d.add_argument("--json")
    d.set_defaults(handler=_cmd_analyze)

    s = asub.add_parser("stability", help="seeded perturbation experiments")
    s.add_argument("--mode", dest="stability_mode", choices=("rec", "dec"), required=True)
    s.add_argument("--p", default="inf", choices=("2", "inf"))
    s.add_argument("--trials", type=int, default=100)
    # SUPPRESS: without its own --seed the subcommand keeps the global one
    s.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    s.add_argument("--perturbation", type=float, default=1e-3)
    s.add_argument("--mask", required=True)
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_analyze)

    c = asub.add_parser("compress", help="threshold sweep")
    c.add_argument("--signal", required=True)
    c.add_argument("--mask", required=True)
    c.add_argument("--levels", type=int, default=6)
    c.add_argument("--eps-grid", required=True)
    c.add_argument("--out")
    c.add_argument("--json")
    c.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.samples is not None:
            cfg.circle_samples = args.samples
        cfg.validate()  # again: the flags may override the config
        return args.handler(args, cfg)
    except EvenRevError as exc:
        sys.stderr.write(f"error: validation: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: io: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
