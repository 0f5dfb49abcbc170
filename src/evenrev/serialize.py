"""Stable on-disk formats: mask/kernel/pyramid JSON, signal CSV, reports.

Floats are written with 17 significant decimal digits, which round-trips
64-bit values exactly; rational masks are stored as parallel numerator and
denominator arrays and round-trip losslessly.  All writers go through a
temp-file-plus-rename so readers never observe partial files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .inverse import DecayCertificate, Kernel
from .laurent import Mask, make_mask
from .transform import Pyramid

__all__ = [
    "fmt_float",
    "mask_to_obj",
    "mask_from_obj",
    "kernel_to_obj",
    "kernel_from_obj",
    "pyramid_to_obj",
    "pyramid_from_obj",
    "signal_to_csv_text",
    "signal_from_csv_text",
    "report_to_obj",
    "rows_to_csv_text",
    "dump_json",
    "write_text_atomic",
    "write_json_atomic",
    "load_json",
]


def fmt_float(x: float) -> str:
    """Decimal form with 17 significant digits (exact float round-trip)."""
    return format(float(x), ".17g")


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def mask_to_obj(m: Mask) -> dict:
    """JSON object for a mask; rationals keep exact num/den arrays."""
    if m.is_rational:
        fracs = [Fraction(c) for c in m.coeffs]
        return {
            "offset": m.offset,
            "num": [f.numerator for f in fracs],
            "den": [f.denominator for f in fracs],
        }
    return {"offset": m.offset, "coeffs": _float_list(m.coeffs)}


def mask_from_obj(obj: dict) -> Mask:
    if "num" in obj:
        num, den = obj["num"], obj["den"]
        if len(num) != len(den):
            raise ParameterError("num and den arrays must have equal length")
        if not num:
            raise ParameterError("mask needs at least one coefficient")
        return make_mask(obj["offset"], [Fraction(n, d) for n, d in zip(num, den)])
    coeffs = obj.get("coeffs")
    if not coeffs:
        raise ParameterError("mask object needs 'num'/'den' or a nonempty 'coeffs'")
    return make_mask(obj["offset"], [float(c) for c in coeffs])


# ---------------------------------------------------------------------------
# kernels and certificates
# ---------------------------------------------------------------------------


def _certificate_to_obj(cert: DecayCertificate | None):
    if cert is None:
        return None
    return {
        "kappa": cert.kappa,
        "s": cert.s,
        "q": cert.q,
        "lambda": cert.lam,
        "K": cert.K,
        "hypothesis_met": cert.hypothesis_met,
    }


def _certificate_from_obj(obj) -> DecayCertificate | None:
    if obj is None:
        return None
    return DecayCertificate(
        float(obj["kappa"]),
        int(obj["s"]),
        float(obj["q"]),
        float(obj["lambda"]),
        float(obj["K"]),
        bool(obj.get("hypothesis_met", True)),
    )


def kernel_to_obj(k: Kernel) -> dict:
    return {
        "offset": k.offset,
        "coeffs": _float_list(k.coeffs),
        "tol": float(k.tol),
        "source": k.source,
        "certificate": _certificate_to_obj(k.certificate),
    }


def kernel_from_obj(obj: dict) -> Kernel:
    return Kernel(
        int(obj["offset"]),
        np.array([float(c) for c in obj["coeffs"]]),
        float(obj["tol"]),
        str(obj.get("source", "custom")),
        _certificate_from_obj(obj.get("certificate")),
    )


# ---------------------------------------------------------------------------
# pyramids
# ---------------------------------------------------------------------------


def pyramid_to_obj(p: Pyramid, packed: bool = False) -> dict:
    """JSON object for a pyramid.

    With ``packed=True`` only the odd-index detail entries are stored (the
    lossless half-size layout valid when the even entries vanish); loading
    re-inflates them with zero even entries.
    """
    details = [d[1::2] if packed else d for d in p.details]
    return {
        "mask_id": p.mask_id,
        "levels": p.levels,
        "coarse": _float_list(p.coarse),
        "details": [_float_list(d) for d in details],
        "packed": bool(packed),
    }


def pyramid_from_obj(obj: dict) -> Pyramid:
    coarse = np.array([float(v) for v in obj["coarse"]])
    details = []
    size = coarse.size
    for stored in obj["details"]:
        size *= 2
        arr = np.array([float(v) for v in stored])
        if obj.get("packed"):
            full = np.zeros(size)
            full[1::2] = arr
            arr = full
        details.append(arr)
    return Pyramid(coarse, tuple(details), str(obj.get("mask_id", "custom")))


# ---------------------------------------------------------------------------
# signals and reports
# ---------------------------------------------------------------------------


def signal_to_csv_text(c) -> str:
    """One value per line, 17 significant digits."""
    return "\n".join(fmt_float(v) for v in np.asarray(c, dtype=float)) + "\n"


def signal_from_csv_text(text: str) -> np.ndarray:
    """One finite sample per line; a bad entry raises naming its 1-based line."""
    try:
        values = np.array([float(tok) for tok in text.split()])
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        for lineno, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                try:
                    bad = not math.isfinite(float(tok))
                except ValueError:
                    bad = True
                if bad:
                    raise ParameterError(f"signal line {lineno}: {tok!r} is not a finite number")
    if not values.size:
        raise ParameterError("signal file contains no samples")
    return values


def report_to_obj(report) -> dict:
    """Generic dataclass-report serialization (rows become objects)."""
    return dataclasses.asdict(report)


def rows_to_csv_text(rows) -> str:
    """CSV text for a sequence of flat dataclass rows (header included)."""
    rows = list(rows)
    if not rows:
        return ""
    names = [f.name for f in dataclasses.fields(rows[0])]
    lines = [",".join(names)]
    for row in rows:
        cells = []
        for name in names:
            v = getattr(row, name)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so the target is never partial."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".evenrev-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, dump_json(obj))


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
