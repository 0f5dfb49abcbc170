"""The benchmark's three workloads: set-up from a seed, timed passes, checks.

Each workload is a closed loop: one caller, no threads.  A pass is a fixed
list of jobs; a job is a fixed list of operations (timed calls into evenrev)
followed by checks from :mod:`checks`, which run with the tracer paused and
outside the timed stretch.  An operation fails when it raises, returns a
nonzero exit status, or when a check of its output fails; when one raises,
the rest of its job fails with it, so every pass attempts the same count.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import hashlib
import io
import os
import re
import shutil
import statistics
import tempfile
import time
from collections import Counter

import numpy as np

import checks as ck
import speed

LEVELS = 8
EPS = 2e-3
KERNEL_TOL = 1e-12


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed over a run, and the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ops: Counter = Counter()
        self.messages: list[str] = []


class _Abort(Exception):
    pass


class Job:
    """A fixed list of operations; ``run`` times one, ``check`` judges its output."""

    def __init__(self, ctx: "Context", label: str, ops):
        self.ctx = ctx
        self.label = label
        self.ops = list(ops)
        self.done: set[str] = set()
        self.failed: set[str] = set()
        self.digest: str | None = None

    def run(self, op: str, fn, *args, kind: str | None = None, samples: int = 0, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises fails; the run goes on
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            raise _Abort from exc
        finally:
            self.ctx.record(time.perf_counter() - start, kind, samples)
            self.ctx.maybe_probe()
        self.done.add(op)
        return result

    def cli(self, op: str, argv, kind: str | None = None, samples: int = 0) -> str:
        """Run ``evenrev.cli.main(argv)``; return what it wrote to standard error."""
        err = io.StringIO()

        def call():
            with contextlib.redirect_stderr(err):
                return self.ctx.er.cli.main(argv)

        gc.collect()  # each command starts from a clean heap, as in a fresh process
        status = self.run(op, call, kind=kind, samples=samples)
        if status != 0:
            self._fail(op, f"exit status {status}: {err.getvalue().strip()}")
            raise _Abort
        return err.getvalue()

    def unchanged(self, *outputs) -> bool:
        """True when ``outputs`` equal, byte for byte, this job's outputs in an
        earlier pass that passed every check; such outputs need no new check.

        Arrays count by their bytes, ``bytes`` as they are, anything else by
        its ``repr`` (which writes floats with every digit).
        """
        digest = hashlib.sha256()
        for item in outputs:
            if isinstance(item, np.ndarray):
                item = item.tobytes()
            elif not isinstance(item, bytes):
                item = repr(item).encode()
            digest.update(item)
        self.digest = digest.hexdigest()
        return self.ctx.checked.get(self.label) == self.digest

    def check(self, op: str, fn, *args) -> None:
        """Apply a check; its messages, or an exception it raises, fail ``op``."""
        with self.ctx.tracer.paused():
            try:
                problems = fn(*args)
            except Exception as exc:  # unreadable or malformed output fails the check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        for msg in problems:
            self._fail(op, msg)

    def _fail(self, op: str, msg: str) -> None:
        self.failed.add(op)
        if len(self.ctx.ledger.messages) < 20:
            self.ctx.ledger.messages.append(f"{self.label}/{op}: {msg}")

    def close(self) -> None:
        ledger = self.ctx.ledger
        failed = self.failed | (set(self.ops) - self.done)
        ledger.attempted += len(self.ops)
        ledger.failed += len(failed)
        ledger.failed_ops.update(failed)
        if not failed and self.digest is not None:
            self.ctx.checked[self.label] = self.digest


class Context:
    """What a workload's passes share: evenrev, the tracer, the ledger, the timings.

    Every pass runs the same operations.  ``passes`` keeps, for each pass, the
    summed time of its operations, of its decompose and reconstruct calls and
    their samples, and the times of the speed probes run between its jobs
    (see :mod:`speed`); ``summary`` scales each pass by its probes and takes
    the median over the passes after the first, which is a warm-up.
    ``checked`` keeps the digest of each job's outputs once they passed every
    check, so that later passes spend their time on operations, not checks.
    """

    #: Seconds between speed probes; a probe takes about 7 ms.
    PROBE_INTERVAL = 0.1

    def __init__(self, er, tracer, workdir: str):
        self.er = er
        self.tracer = tracer
        self.workdir = workdir
        self.ledger = Ledger()
        self.passes: list[dict] = []
        self.checked: dict[str, str] = {}
        self._last_probe = 0.0

    def run_pass(self, workload) -> None:
        """One pass of ``workload``; a speed probe starts it."""
        self.passes.append({"total": 0.0, "probes": [],
                            "decompose": [0.0, 0], "reconstruct": [0.0, 0]})
        self.probe()
        workload.run_pass(self)

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last_probe >= self.PROBE_INTERVAL:
            self.probe()

    def probe(self) -> None:
        with self.tracer.paused():
            self.passes[-1]["probes"].append(speed.probe())
        self._last_probe = time.perf_counter()

    def record(self, seconds: float, kind: str | None, samples: int) -> None:
        current = self.passes[-1]
        current["total"] += seconds
        if kind is not None:
            current[kind][0] += seconds
            current[kind][1] += samples

    def summary(self) -> dict:
        """Medians over the passes after the warm-up of ``pass_s`` and the
        throughputs, each pass scaled to reference seconds by its probes."""
        timed = self.passes[1:] if len(self.passes) > 1 else self.passes
        scale = [speed.factor(p["probes"]) for p in timed]
        out = {"pass_s": statistics.median(p["total"] * f for p, f in zip(timed, scale))}
        for kind in ("decompose", "reconstruct"):
            out[f"{kind}_msps"] = statistics.median(
                p[kind][1] / (p[kind][0] * f) / 1e6 for p, f in zip(timed, scale))
        return out

    def job(self, label: str, ops, body, *args) -> None:
        job = Job(self, label, ops)
        try:
            body(job, *args)
        except _Abort:
            pass
        finally:
            job.close()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def piecewise_signal(rng: np.random.Generator, n: int, pieces: int = 6) -> np.ndarray:
    """Smooth pieces (level, slope, sine) separated by jumps, plus noise of size 1e-3."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=pieces - 1, replace=False))
    bounds = [0, *cuts.tolist(), n]
    t = np.arange(n) / n
    out = np.empty(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        level, slope, amp = rng.uniform(-1.0, 1.0, 3)
        freq, phase = rng.uniform(0.5, 4.0), rng.uniform(0.0, 2 * np.pi)
        seg = t[lo:hi]
        out[lo:hi] = level + slope * (seg - seg[0]) + amp * np.sin(2 * np.pi * freq * seg + phase)
    return out + 1e-3 * rng.standard_normal(n)


def function_params(rng: np.random.Generator) -> dict:
    """Seeded parameters of the ``sine``, ``gaussian_bump`` and ``poly`` test functions."""
    return {
        "sine": {"frequency": float(rng.integers(1, 4))},
        "gaussian_bump": {"sharpness": float(rng.uniform(4.0, 12.0))},
        "poly": {"cos": rng.uniform(-1.0, 1.0, 3).tolist(), "sin": rng.uniform(-1.0, 1.0, 2).tolist()},
    }


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build_mask(er, n: int, nu: int):
    return er.bspline_mask(n) if nu == 0 else er.pseudo_spline_mask(n, nu)


def kernel_problems(ref: ck.RefMask, n: int, nu: int, kernel) -> list[str]:
    """Residual, closed forms and certificate of a kernel computed at ``kernel.tol``."""
    closed_tol = max(1e-12, kernel.tol)
    out = ck.check_kernel(ref, n, nu, kernel.offset, kernel.coeffs, kernel.tol, closed_tol)
    cert = kernel.certificate
    if cert is not None:
        obj = {"kappa": cert.kappa, "s": cert.s, "lam": cert.lam, "K": cert.K,
               "hypothesis_met": cert.hypothesis_met}
        out += ck.check_certificate(ref, obj, kernel.offset, kernel.coeffs)
    return out


# ---------------------------------------------------------------------------
# cli_files: the README's command-line pipeline through real files
# ---------------------------------------------------------------------------

#: (name, family, order, nu, mode of its 2**16 job); every mask gets its own signal.
CLI_MASKS = [
    ("quadratic", "bspline", 3, 0, "exact"),
    ("cubic", "bspline", 4, 0, "exact"),
    ("pseudo6_1", "pseudo", 6, 1, "kernel"),
    ("pseudo7_2", "pseudo", 7, 2, "kernel"),
]
#: log2 size, mask and mode of the one large job.  At 2**20 the job alone
#: takes 10-12 s, so a run holds too few passes to repeat within a bound.
CLI_BIG = (18, "cubic", "exact")
CLI_SMALL = 16


class CliFiles:
    name = "cli_files"

    def setup(self, er, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.refs = {name: ck.ref_mask(n, nu) for name, _, n, nu, _ in CLI_MASKS}
        self.jobs = [("big", 1 << CLI_BIG[0], CLI_BIG[1], CLI_BIG[2])]
        self.jobs += [(f"s{i}", 1 << CLI_SMALL, name, mode)
                      for i, (name, _, _, _, mode) in enumerate(CLI_MASKS)]
        self.signals = {}
        for tag, size, _, _ in self.jobs:
            self.signals[tag] = piecewise_signal(rng, size)
            ck.write_csv(os.path.join(workdir, f"{tag}.csv"), self.signals[tag])

    def run_pass(self, ctx: Context) -> None:
        for name, family, n, nu, _ in CLI_MASKS:
            ctx.job(f"mask:{name}", ["mask", "invert"], self._mask_job, name, family, n, nu)
        for i, (tag, size, mask_name, mode) in enumerate(self.jobs):
            ctx.job(f"{tag}:{mask_name}:{mode}",
                    ["decompose", "compress", "reconstruct", "reconstruct_small"],
                    self._transform_job, tag, size, mask_name, mode, i == 1)

    def _mask_job(self, job: Job, name, family, n, nu) -> None:
        ctx, ref = job.ctx, self.refs[name]
        mask_path, kernel_path = ctx.path(f"{name}.json"), ctx.path(f"{name}.kernel.json")
        argv = ["mask", "--family", family, "--order", str(n), "--out", mask_path]
        job.cli("mask", argv + (["--nu", str(nu)] if family == "pseudo" else []))
        job.check("mask", lambda: [] if ck.mask_from_file(ck.read_json(mask_path)) == ref.exact
                  else [f"mask file differs from the closed form of ({n},{nu})"])
        job.cli("invert", ["invert", "--mask", mask_path, "--tol", str(KERNEL_TOL), "--out", kernel_path])

        def kernel_check():
            obj = ck.read_json(kernel_path)
            coeffs = np.array(obj["coeffs"], dtype=float)
            out = ck.check_kernel(ref, n, nu, obj["offset"], coeffs, obj["tol"], 1e-12)
            cert = obj["certificate"]
            if cert is not None:
                cert = dict(cert, lam=cert["lambda"])
                out += ck.check_certificate(ref, cert, obj["offset"], coeffs)
            return out

        job.check("invert", kernel_check)

    def _transform_job(self, job: Job, tag, size, mask_name, mode, recheck) -> None:
        ctx, ref, signal = job.ctx, self.refs[mask_name], self.signals[tag]
        stem = ctx.path(f"{tag}.{mask_name}.{mode}")
        pyr, small, out, out_small = (f"{stem}.pyr.json", f"{stem}.small.json",
                                      f"{stem}.out.csv", f"{stem}.small.csv")
        packed = ["--packed"] if mode == "kernel" else []
        argv = ["decompose", "--signal", ctx.path(f"{tag}.csv"), "--mask",
                ctx.path(f"{mask_name}.json"), "--levels", str(LEVELS), "--mask-id", mask_name]
        if mode == "kernel":
            argv += ["--mode", "kernel", "--kernel", ctx.path(f"{mask_name}.kernel.json")]
        job.cli("decompose", argv + packed + ["--out", pyr], kind="decompose", samples=size)
        err = job.cli("compress", ["compress", "--pyramid", pyr, "--eps", repr(EPS), "--out", small]
                      + packed)
        job.cli("reconstruct", ["reconstruct", "--pyramid", pyr, "--mask",
                                ctx.path(f"{mask_name}.json"), "--out", out],
                kind="reconstruct", samples=size)
        job.cli("reconstruct_small", ["reconstruct", "--pyramid", small, "--mask",
                                      ctx.path(f"{mask_name}.json"), "--out", out_small],
                kind="reconstruct", samples=size)

        if job.unchanged(err, *map(_file_digest, (pyr, small, out, out_small))):
            return

        scale = max(1.0, float(np.max(np.abs(signal))))
        state = {}

        def decompose_check():
            obj = ck.read_json(pyr)
            coarse, details = ck.pyramid_arrays(obj)
            state.update(coarse=coarse, details=details)
            if obj["packed"] != (mode == "kernel"):
                return [f"packed flag {obj['packed']} in {mode} mode"]
            if mode == "exact":
                state["tol"] = ck.ROUNDTRIP_RTOL * scale
                return (ck.check_pyramid(ref, signal, coarse, details)
                        + ck.check_even_details(details, ck.ROUNDTRIP_RTOL * scale))
            kernel_tol = ck.read_json(ctx.path(f"{mask_name}.kernel.json"))["tol"]
            state["tol"] = ck.packed_roundtrip_tol(ref, coarse, details, kernel_tol, signal)
            return ck.check_pyramid(ref, signal, coarse, details, state["tol"])

        def determinism_check():
            again = f"{stem}.again.json"
            status = ctx.er.cli.main(argv + packed + ["--out", again])
            same = status == 0 and filecmp.cmp(pyr, again, shallow=False)
            os.unlink(again)
            return [] if same else ["a second identical decompose wrote a different file"]

        def compress_check():
            obj = ck.read_json(small)
            coarse, details = ck.pyramid_arrays(obj)
            state["small"] = details
            found = re.search(r"kept (\d+) of (\d+) detail entries", err)
            if found is None:
                return [f"no 'kept K of T' line in {err!r}"]
            out = ck.check_match("compressed coarse", coarse, state["coarse"], 0.0)
            return out + ck.check_thresholded(state["details"], details, EPS,
                                              int(found.group(1)), int(found.group(2)))

        def reconstruct_check():
            rec = ck.read_csv(out)
            state["rec"] = rec
            own = ck.synthesize(ref, state["coarse"], state["details"])[-1]
            return (ck.check_match("reconstruction vs input", rec, signal, state["tol"])
                    + ck.check_match("reconstruction vs re-synthesis", rec, own,
                                     ck.ROUNDTRIP_RTOL * scale))

        def reconstruct_small_check():
            rec = ck.read_csv(out_small)
            own = ck.synthesize(ref, state["coarse"], state["small"])[-1]
            return (ck.check_match("thresholded reconstruction vs re-synthesis", rec, own,
                                   ck.ROUNDTRIP_RTOL * scale)
                    + ck.check_threshold_stability(ref, state["rec"], rec, state["details"],
                                                   state["small"]))

        job.check("decompose", decompose_check)
        if recheck:
            job.check("decompose", determinism_check)
        job.check("compress", compress_check)
        job.check("reconstruct", reconstruct_check)
        job.check("reconstruct_small", reconstruct_small_check)


# ---------------------------------------------------------------------------
# small_signals: many 2**12-sample signals through the library in memory
# ---------------------------------------------------------------------------

SMALL_MASKS = [("quadratic", 3, 0), ("cubic", 4, 0), ("pseudo6_1", 6, 1),
               ("pseudo7_2", 7, 2), ("pseudo8_3", 8, 3)]
SMALL_SIZE = 1 << 12
SMALL_COUNT = 16


class SmallSignals:
    name = "small_signals"

    def setup(self, er, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.masks = {name: build_mask(er, n, nu) for name, n, nu in SMALL_MASKS}
        self.refs = {name: ck.ref_mask(n, nu) for name, n, nu in SMALL_MASKS}
        self.kernels = {name: er.even_inverse_spectral(self.masks[name], tol=KERNEL_TOL)
                        for name, _, _ in SMALL_MASKS}
        self.signals = [piecewise_signal(rng, SMALL_SIZE) for _ in range(SMALL_COUNT)]
        self.kernel_problems: dict[str, list[str]] = {}  # filled by the first check

    def run_pass(self, ctx: Context) -> None:
        for i, signal in enumerate(self.signals):
            for name, n, nu in SMALL_MASKS:
                for mode in ("exact", "kernel"):
                    ctx.job(f"s{i}:{name}:{mode}",
                            ["decompose", "threshold", "reconstruct", "reconstruct_small"],
                            self._job, signal, name, n, nu, mode)

    def _job(self, job: Job, signal, name, n, nu, mode) -> None:
        er, mask, ref = job.ctx.er, self.masks[name], self.refs[name]
        kernel = self.kernels[name] if mode == "kernel" else None
        pyr = job.run("decompose", er.decompose, signal, mask, LEVELS, mode=mode, kernel=kernel,
                      kind="decompose", samples=signal.size)
        small, kept, total = job.run("threshold", er.threshold_details, pyr, EPS)
        rec = job.run("reconstruct", er.reconstruct, pyr, mask,
                      kind="reconstruct", samples=signal.size)
        rec_small = job.run("reconstruct_small", er.reconstruct, small, mask,
                            kind="reconstruct", samples=signal.size)
        if job.unchanged(pyr.coarse, *pyr.details, small.coarse, *small.details, kept, total,
                         rec, rec_small):
            return

        scale = max(1.0, float(np.max(np.abs(signal))))
        tol = ck.ROUNDTRIP_RTOL * scale

        def decompose_check():
            out = ck.check_pyramid(ref, signal, pyr.coarse, pyr.details)
            if mode == "exact":
                return out + ck.check_even_details(pyr.details, tol)
            bounds = ck.kernel_leak_bounds(ref, pyr.coarse, pyr.details, kernel.tol)
            for level, (d, bound) in enumerate(zip(pyr.details, bounds), 1):
                out += [f"level {level}: {m}"
                        for m in ck.check_even_details([d], 1.01 * bound + 1e-14 * scale)]
            if name not in self.kernel_problems:
                self.kernel_problems[name] = kernel_problems(ref, n, nu, kernel)
            return out + self.kernel_problems[name]

        job.check("decompose", decompose_check)
        job.check("threshold", lambda: ck.check_match("thresholded coarse", small.coarse,
                                                      pyr.coarse, 0.0)
                  + ck.check_thresholded(pyr.details, small.details, EPS, kept, total))
        job.check("reconstruct", ck.check_match, "reconstruction vs input", rec, signal, tol)
        job.check("reconstruct_small", lambda: ck.check_match(
            "thresholded reconstruction vs re-synthesis", rec_small,
            ck.synthesize(ref, small.coarse, small.details)[-1], tol)
            + ck.check_threshold_stability(ref, rec, rec_small, pyr.details, small.details))


# ---------------------------------------------------------------------------
# paper_study: the paper's experiments on the pseudo-spline family
# ---------------------------------------------------------------------------

STUDY_FAMILY = [(n, nu) for n in range(3, 13) for nu in range(n // 2)]
STUDY_TOLS = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
STUDY_KINDS = ("sine", "gaussian_bump", "poly")
DECAY_LEVELS = 10
STABILITY_FAMILY = [(n, 0) for n in range(3, 13)]
STABILITY_TRIALS = 20
COMPRESSION_FAMILY = [(n, nu) for _, n, nu in SMALL_MASKS]
COMPRESSION_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 0.0)
LARGE_FAMILY = [(3, 0), (4, 0), (6, 1), (7, 2), (8, 3), (12, 5)]
LARGE_SIGNALS = (("poly", 16), ("gaussian_bump", 17))  # base 2: 2**17 and 2**18 samples


class PaperStudy:
    name = "paper_study"

    def setup(self, er, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.masks = {key: build_mask(er, *key) for key in STUDY_FAMILY}
        self.refs = {key: ck.ref_mask(*key) for key in STUDY_FAMILY}
        self.params = function_params(rng)
        self.stability_seed = int(rng.integers(1 << 31))
        self.compression_signal = piecewise_signal(rng, SMALL_SIZE)
        self.large = [(kind, er.sample_function(kind, j, 2, self.params[kind]))
                      for kind, j in LARGE_SIGNALS]

    def run_pass(self, ctx: Context) -> None:
        self.kernels = {}
        for key in STUDY_FAMILY:
            for tol in STUDY_TOLS:
                ctx.job(f"invert{key}:{tol:g}", ["invert"], self._invert, key, tol)
        for key in STUDY_FAMILY:
            for kind in STUDY_KINDS:
                for mode in ("exact", "kernel"):
                    ctx.job(f"decay{key}:{kind}:{mode}", ["decay"], self._decay, key, kind, mode)
        for key in STABILITY_FAMILY:
            ctx.job(f"stability{key}", ["dec_2", "dec_inf", "rec"], self._stability, key)
        for key in COMPRESSION_FAMILY:
            ctx.job(f"compression{key}", ["compression"], self._compression, key)
        for key in LARGE_FAMILY:
            for kind, signal in self.large:
                ctx.job(f"large{key}:{kind}", ["decompose", "reconstruct"], self._large,
                        key, signal)
        criteria = ctx.er.selftest.criteria()
        clear = getattr(ctx.er.selftest, "_kern", None)
        if clear is not None and hasattr(clear, "cache_clear"):
            clear.cache_clear()  # each pass pays for its kernels, as `evenrev selftest` does
        for crit in criteria:
            ctx.job(f"criterion_{crit.cid}", ["criterion"], self._criterion, crit)

    def _invert(self, job: Job, key, tol) -> None:
        kernel = job.run("invert", job.ctx.er.even_inverse_spectral, self.masks[key], tol=tol)
        if tol == KERNEL_TOL:
            self.kernels[key] = kernel
        if job.unchanged(kernel.offset, kernel.coeffs, kernel.tol, kernel.certificate):
            return
        job.check("invert", kernel_problems, self.refs[key], *key, kernel)

    def _decay(self, job: Job, key, kind, mode) -> None:
        report = job.run("decay", job.ctx.er.decay_report, kind, DECAY_LEVELS, 2, self.masks[key],
                         mode=mode, params=self.params[kind])
        kernel = self.kernels[key]
        if job.unchanged(report, kernel.coeffs):
            return

        def check():
            g1 = float(np.sum(np.abs(kernel.coeffs)))
            rows = [(r.level, r.delta_norm, r.detail_norm) for r in report.rows]
            return (ck.check_close("decay kernel one-norm", report.constants["gamma_norm1"], g1, 1e-12)
                    + ck.check_decay_rows(self.refs[key], kernel.offset, kernel.coeffs, kind,
                                          self.params[kind], DECAY_LEVELS, rows))

        job.check("decay", check)

    def _stability(self, job: Job, key) -> None:
        er, mask, ref = job.ctx.er, self.masks[key], self.refs[key]
        seed = self.stability_seed
        dec = {p: job.run(f"dec_{p}", er.decomposition_stability_experiment, mask, p=p,
                          trials=STABILITY_TRIALS, seed=seed)
               for p in ("2", "inf")}

        def rec_experiment():  # as `evenrev analyze stability --mode rec` builds it
            signal = np.random.default_rng(seed).uniform(-1.0, 1.0, 256)
            return er.reconstruction_stability_experiment(
                mask, er.decompose(signal, mask, 6), 1e-3, STABILITY_TRIALS, seed=seed)

        rec = job.run("rec", rec_experiment)
        kernel = self.kernels[key]
        if job.unchanged(dec["2"], dec["inf"], rec, kernel.coeffs):
            return
        g1 = float(np.sum(np.abs(kernel.coeffs)))
        ev_offset, ev = ref.part(0)
        norms = {
            "2": (1.0 / float(np.min(np.abs(ck.sample_symbol(ev_offset, ev, 16384)))),
                  ck.subdivision_norm_2(ref)),
            "inf": (g1 + kernel.tol, ref.step_sup_norm()),
        }

        def dec_check(p):
            c = dec[p].constants
            d_norm, s_norm = norms[p]
            return (ck.check_close(f"p={p} decimation norm", c["decimation_norm"], d_norm, 1e-9)
                    + ck.check_close(f"p={p} subdivision norm", c["subdivision_norm"], s_norm, 1e-9)
                    + ck.check_close(f"p={p} residual norm", c["residual_norm"],
                                     1.0 + d_norm * s_norm, 1e-9)
                    + ck.check_trials(f"p={p}", [(t.measured, t.bound, t.ok) for t in dec[p].trials]))

        job.check("dec_2", dec_check, "2")
        job.check("dec_inf", dec_check, "inf")
        job.check("rec", lambda: ck.check_close("sup norm estimate", rec.constants["sup_norm"],
                                                ck.subdivision_sup_norm_estimate(ref), 1e-9)
                  + ck.check_trials("rec", [(t.measured, t.bound, t.ok) for t in rec.trials]))

    def _compression(self, job: Job, key) -> None:
        er, ref = job.ctx.er, self.refs[key]
        report = job.run("compression", er.compression_experiment, self.compression_signal,
                         self.masks[key], 6, list(COMPRESSION_EPS))
        if job.unchanged(report):
            return

        def check():
            scale = max(1.0, float(np.max(np.abs(self.compression_signal))))
            out = ck.check_close("sup norm estimate", report.constants["sup_norm"],
                                 ck.subdivision_sup_norm_estimate(ref), 1e-9)
            fractions = [row.kept_fraction for row in report.rows]
            if any(b < a for a, b in zip(fractions, fractions[1:])):
                out.append(f"kept fraction falls as eps falls: {fractions}")
            for row in report.rows:
                if not row.reconstruction_error <= row.stability_bound + 1e-12 * scale:
                    out.append(f"eps {row.eps:g}: error {row.reconstruction_error:.3e} "
                               f"exceeds bound {row.stability_bound:.3e}")
                if row.eps == 0.0 and row.reconstruction_error != 0.0:
                    out.append(f"eps 0 changed the reconstruction: {row}")
            return out

        job.check("compression", check)

    def _large(self, job: Job, key, signal) -> None:
        er, mask, ref = job.ctx.er, self.masks[key], self.refs[key]
        pyr = job.run("decompose", er.decompose, signal, mask, LEVELS,
                      kind="decompose", samples=signal.size)
        rec = job.run("reconstruct", er.reconstruct, pyr, mask,
                      kind="reconstruct", samples=signal.size)
        if job.unchanged(pyr.coarse, *pyr.details, rec):
            return
        tol = ck.ROUNDTRIP_RTOL * max(1.0, float(np.max(np.abs(signal))))
        job.check("decompose", lambda: ck.check_pyramid(ref, signal, pyr.coarse, pyr.details)
                  + ck.check_even_details(pyr.details, tol))
        job.check("reconstruct", ck.check_match, "reconstruction vs input", rec, signal, tol)

    def _criterion(self, job: Job, crit) -> None:
        def run():
            with job.ctx.tracer.span(f"selftest.criterion_{crit.cid}"):
                try:
                    return f"PASS {crit.run()}", True
                except AssertionError as exc:
                    return f"FAIL {exc}", False

        detail, passed = job.run("criterion", run)
        if job.unchanged(detail, passed):
            return
        expected = crit.known_failure is None
        job.check("criterion", lambda: [] if passed == expected else
                  [f"criterion {crit.cid}: {detail} (expected {'PASS' if expected else 'FAIL'})"])


WORKLOADS = {w.name: w for w in (CliFiles, SmallSignals, PaperStudy)}


def make_workdir(root: str, workload: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload}-", dir=root)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
