"""Stable on-disk formats: mask/kernel/pyramid JSON, signal CSV, reports.

JSON floats are written as their shortest round-trip ``repr`` and CSV
samples with 17 significant decimal digits; both round-trip 64-bit values
exactly.  Rational masks are stored as parallel numerator and denominator
arrays and round-trip losslessly.  Writers yield their text in pieces of at
most :data:`PIECE` numbers, so no whole file is held in memory, and files
are written through a temp-file-plus-rename so readers never observe
partial files.  Readers validate what they load: malformed JSON, a missing
or mistyped field and a non-finite number raise
:class:`~evenrev.errors.ParameterError` naming the file or the field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
import tempfile
from collections.abc import Iterable, Iterator
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ShapeError
from .inverse import DecayCertificate, Kernel
from .laurent import Mask, make_mask
from .transform import Pyramid

__all__ = [
    "mask_to_obj",
    "mask_from_obj",
    "kernel_to_obj",
    "kernel_from_obj",
    "pyramid_to_obj",
    "pyramid_from_obj",
    "signal_csv_pieces",
    "signal_to_csv_text",
    "signal_from_csv_text",
    "rows_to_csv_text",
    "json_pieces",
    "dump_json",
    "write_pieces_atomic",
    "write_text_atomic",
    "load_json",
]

#: Numbers formatted per piece of streamed text (about 90 kB of JSON or CSV);
#: CSV is parsed in slices of about as many samples.
PIECE = 4096


def _float_list(values) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


def _field(obj, key: str, what: str):
    """``obj[key]``, or a :class:`ParameterError` naming the missing field."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object")
    if key not in obj:
        raise ParameterError(f"{what} lacks the field {key!r}")
    return obj[key]


def _int_field(obj, key: str, what: str) -> int:
    value = _field(obj, key, what)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} field {key!r} must be an integer, got {value!r:.40}")
    return value


def _number_field(obj, key: str, what: str) -> float:
    value = _field(obj, key, what)
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(f"{what} field {key!r} must be a finite number, got {value!r:.40}")
    return float(value)


def _bool_field(obj: dict, key: str, what: str, default: bool) -> bool:
    """``obj[key]`` if it is a JSON boolean, ``default`` if it is absent (as in older files)."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ParameterError(f"{what} field {key!r} must be true or false, got {value!r:.40}")
    return value


def _finite_array(values, what: str) -> np.ndarray:
    """A JSON list of numbers as float64, checked by one ``isfinite`` pass."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != 1:
        raise ParameterError(f"{what} must be a list of numbers")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} holds a non-finite value")
    return arr


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
    offset = _int_field(obj, "offset", "mask")
    if "num" in obj:
        num, den = obj["num"], _field(obj, "den", "mask")
        if not isinstance(num, list) or not isinstance(den, list) or len(num) != len(den):
            raise ParameterError("num and den arrays must have equal length")
        if not num:
            raise ParameterError("mask needs at least one coefficient")
        ints = [v for v in num + den if isinstance(v, int) and not isinstance(v, bool)]
        if len(ints) != 2 * len(num) or 0 in den:
            raise ParameterError("mask num/den must be integers with nonzero denominators")
        return make_mask(offset, [Fraction(n, d) for n, d in zip(num, den)])
    coeffs = obj.get("coeffs")
    if not coeffs:
        raise ParameterError("mask object needs 'num'/'den' or a nonempty 'coeffs'")
    return make_mask(offset, _finite_array(coeffs, "mask coeffs").tolist())


# ---------------------------------------------------------------------------
# kernels and certificates
# ---------------------------------------------------------------------------


def _certificate_to_obj(cert: DecayCertificate | None):
    if cert is None:
        return None
    # the fields in their order, with ``lam`` under its symbol's name
    return {"lambda" if k == "lam" else k: v for k, v in dataclasses.asdict(cert).items()}


def _certificate_from_obj(obj) -> DecayCertificate | None:
    if obj is None:
        return None
    what = "certificate"
    return DecayCertificate(
        _number_field(obj, "kappa", what),
        _int_field(obj, "s", what),
        _number_field(obj, "q", what),
        _number_field(obj, "lambda", what),
        _number_field(obj, "K", what),
        _bool_field(obj, "hypothesis_met", what, True),
    )


def kernel_to_obj(k: Kernel) -> dict:
    return {
        **mask_to_obj(k),
        "tol": float(k.tol),
        "source": k.source,
        "certificate": _certificate_to_obj(k.certificate),
    }


def kernel_from_obj(obj: dict) -> Kernel:
    coeffs = _finite_array(_field(obj, "coeffs", "kernel"), "kernel coeffs")
    if not coeffs.size:
        raise ParameterError("kernel needs at least one coefficient")
    tol = _number_field(obj, "tol", "kernel")
    if tol < 0:
        raise ParameterError(f"kernel tol must be >= 0, got {tol!r}")
    return Kernel(
        _int_field(obj, "offset", "kernel"),
        coeffs,
        tol,
        str(obj.get("source", "custom")),
        _certificate_from_obj(obj.get("certificate")),
    )


# ---------------------------------------------------------------------------
# pyramids
# ---------------------------------------------------------------------------


def pyramid_to_obj(p: Pyramid, packed: bool = False) -> dict:
    """JSON object for a pyramid.

    With ``packed=True`` only the odd-index detail entries are stored (the
    lossless half-size layout valid when the even entries vanish): a packed
    file maps one to one onto an exact pyramid's stored levels, the odd halves.
    Files hold one signal's pyramid, so a batched pyramid is refused.
    """
    if p.coarse.ndim != 1:
        raise ParameterError(
            f"a pyramid file holds one signal, got coarse data of shape {p.coarse.shape}"
        )
    details = [d[1::2] if full else d for d, full in p._full()] if packed else p.details
    return {
        "mask_id": p.mask_id,
        "levels": p.levels,
        "coarse": _float_list(p.coarse),
        "details": [_float_list(d) for d in details],
        "packed": bool(packed),
    }


def pyramid_from_obj(obj: dict) -> Pyramid:
    coarse = _finite_array(_field(obj, "coarse", "pyramid"), "pyramid coarse")
    stored_details = _field(obj, "details", "pyramid")
    if not isinstance(stored_details, list):
        raise ParameterError("pyramid details must be a list of arrays")
    levels = _int_field(obj, "levels", "pyramid")
    if levels != len(stored_details):
        raise ParameterError(
            f"pyramid levels is {levels} but it holds {len(stored_details)} detail arrays"
        )
    packed = _bool_field(obj, "packed", "pyramid", False)  # true: the odd halves only
    details = []
    for level, stored in enumerate(stored_details, start=1):
        arr = _finite_array(stored, f"pyramid detail level {level}")
        if arr.size != (expected := coarse.size << level >> packed):
            raise ShapeError(f"{'packed ' * packed}detail level {level} has length {arr.size}, "
                             f"expected {expected}")
        details.append(arr)
    return Pyramid._of(coarse, details, str(obj.get("mask_id", "custom")))


# ---------------------------------------------------------------------------
# signals and reports
# ---------------------------------------------------------------------------


def signal_csv_pieces(c) -> Iterator[str]:
    """One value per line, 17 significant digits (a lone newline when empty),
    :data:`PIECE` values at a time."""
    values = np.asarray(c, dtype=float)
    if not values.size:
        yield "\n"
    for start in range(0, values.size, PIECE):
        chunk = values[start:start + PIECE].tolist()
        yield ("%.17g\n" * len(chunk)) % tuple(chunk)


def signal_to_csv_text(c) -> str:
    """:func:`signal_csv_pieces` joined."""
    return "".join(signal_csv_pieces(c))


def signal_from_csv_text(text: str) -> np.ndarray:
    """One finite sample per line; a bad entry raises naming its 1-based line.

    The text is split in slices that end at a newline, about :data:`PIECE`
    samples each, so no token list of the whole file is built.
    """
    parts, start = [], 0
    try:
        while start < len(text):
            # a sample written as %.17g takes at most 24 characters and its newline
            end = text.find("\n", start + 24 * PIECE) + 1 or len(text)
            parts.append(np.fromiter(map(float, text[start:end].split()), dtype=float))
            start = end
        values = np.concatenate(parts) if parts else np.empty(0)
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


def rows_to_csv_text(rows) -> str:
    """CSV text for flat dataclass rows (header included); floats keep 17 significant digits."""
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
                cells.append("%.17g" % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _encode(obj, pad: str) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` in pieces, for ``obj`` nested at indentation ``pad``.

    A list of finite plain floats is joined from their ``repr``s, the text
    ``json`` writes for each, :data:`PIECE` items at a time.  Any other
    nonempty list, and a nonempty dict with string keys, yields its items one
    by one; everything else, a dict with a key that is not a string included,
    goes through ``json.dumps`` whole.
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            sep = f",\n{inner}"
            for start in range(0, len(obj), PIECE):
                yield (sep if start else f"[\n{inner}") + sep.join(
                    map(float.__repr__, obj[start:start + PIECE]))
            yield f"\n{pad}]"
            return
        brackets, items = "[]", (("", v) for v in obj)
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        brackets, items = "{}", ((f"{json.dumps(k)}: ", v) for k, v in obj.items())
    else:
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)
        return
    for i, (key, value) in enumerate(items):
        yield f"{',' if i else brackets[0]}\n{inner}{key}"
        yield from _encode(value, inner)
    yield f"\n{pad}{brackets[1]}"


def json_pieces(obj) -> Iterator[str]:
    """The text of :func:`dump_json` in pieces, none longer than :data:`PIECE` numbers."""
    yield from _encode(obj, "")
    yield "\n"


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, character for character, but with
    lists of floats formatted in C rather than item by item in Python."""
    return "".join(json_pieces(obj))


def write_pieces_atomic(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` one after another via a sibling temp file and rename, so
    the target is never partial: if ``pieces`` raises, the target is untouched.

    As with a plain ``open(path, "w")``, a symlink is written through to the
    file it names, an existing file keeps its permission bits, and a new
    file gets ``0o666`` less the umask.
    """
    target = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".evenrev-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.chmod(tmp, mode)  # mkstemp creates 0600
            fh.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """:func:`write_pieces_atomic` of one piece."""
    write_pieces_atomic(path, (text,))


def load_json(path: str):
    """Parse a JSON file; text that is not JSON raises :class:`ParameterError`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ParameterError(f"{path} is not valid JSON: {exc}") from None
