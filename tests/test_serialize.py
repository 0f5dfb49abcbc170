"""File-format round trips: masks, kernels, pyramids, signals."""

import json
import os
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evenrev import (
    ParameterError,
    ShapeError,
    bspline_mask,
    decompose,
    make_mask,
    pseudo_spline_mask,
    reconstruct,
)
from evenrev.inverse import DecayCertificate, Kernel, even_inverse_spectral
from evenrev.serialize import (
    dump_json,
    kernel_from_obj,
    kernel_to_obj,
    load_json,
    mask_from_obj,
    mask_to_obj,
    pyramid_from_obj,
    pyramid_to_obj,
    rows_to_csv_text,
    signal_from_csv_text,
    signal_to_csv_text,
    write_text_atomic,
)


def test_fmt_float_roundtrip():
    # the float cells of a report's CSV text read back as the same floats
    values = (1 / 3, 2.0, -1e-300, 4 / 3 * (-1 / 3) ** 7, np.pi)
    rows = [DecayCertificate(x, 1, x, x, x, True) for x in values]
    lines = rows_to_csv_text(rows).splitlines()
    assert lines[0] == "kappa,s,q,lam,K,hypothesis_met" and len(lines) == 1 + len(values)
    for x, line in zip(values, lines[1:]):
        cells = line.split(",")
        assert [float(cells[i]) for i in (0, 2, 3, 4)] == [x] * 4
        assert cells[1] == "1" and cells[5] == "True"


def test_rational_mask_roundtrip_is_lossless():
    m = pseudo_spline_mask(7, 2)
    obj = json.loads(dump_json(mask_to_obj(m)))
    back = mask_from_obj(obj)
    assert back == m
    assert back.is_rational


def test_float_mask_roundtrip_is_exact():
    m = make_mask(-2, [0.1, -1 / 3, 2.0000000001, 7e-13])
    back = mask_from_obj(json.loads(dump_json(mask_to_obj(m))))
    assert back.offset == m.offset
    assert all(a == b for a, b in zip(back.coeffs, m.coeffs))


def test_mask_obj_validation():
    with pytest.raises(ParameterError):
        mask_from_obj({"offset": 0, "num": [1, 2], "den": [3]})
    with pytest.raises(ParameterError):
        mask_from_obj({"offset": 0, "coeffs": []})


def test_kernel_roundtrip_with_certificate():
    kern = even_inverse_spectral(bspline_mask(4), tol=1e-12)
    assert kern.certificate is not None
    back = kernel_from_obj(json.loads(dump_json(kernel_to_obj(kern))))
    assert back.offset == kern.offset
    assert np.array_equal(back.coeffs, kern.coeffs)
    assert back.tol == kern.tol and back.source == kern.source
    assert back.certificate == kern.certificate


def test_kernel_roundtrip_without_certificate():
    kern = Kernel(1, np.array([0.25, -0.5]), 1e-9, "custom")
    back = kernel_from_obj(kernel_to_obj(kern))
    assert back.certificate is None
    assert np.array_equal(back.coeffs, kern.coeffs)


def test_kernel_json_layout():
    cert = DecayCertificate(2.0, 1, 0.25, 0.5, 3.5, True)
    kern = Kernel(-1, np.array([0.25, 1.0, -0.125]), 1e-9, "custom", cert)
    assert dump_json(kernel_to_obj(kern)) == (
        '{\n  "offset": -1,\n  "coeffs": [\n    0.25,\n    1.0,\n    -0.125\n  ],\n'
        '  "tol": 1e-09,\n  "source": "custom",\n  "certificate": {\n    "kappa": 2.0,\n'
        '    "s": 1,\n    "q": 0.25,\n    "lambda": 0.5,\n    "K": 3.5,\n'
        '    "hypothesis_met": true\n  }\n}\n'
    )
    spectral = even_inverse_spectral(pseudo_spline_mask(6, 1), tol=1e-12)
    obj = kernel_to_obj(spectral)
    assert list(obj) == ["offset", "coeffs", "tol", "source", "certificate"]
    assert obj["offset"] == spectral.offset and obj["coeffs"] == spectral.floats.tolist()
    assert obj["tol"] == 1e-12 and obj["source"] == "spectral"


def test_a_closed_form_kernel_file_still_loads():
    # as `invert --tol 1e-12` wrote it for the cubic before the closed-form route was retired
    text = dump_json({
        "offset": -16,
        "coeffs": [2 ** 0.5 * (-(3 - 2 * 2 ** 0.5)) ** abs(k) for k in range(-16, 17)],
        "tol": 3.3030669893143714e-13,
        "source": "closed_cubic",
        "certificate": None,
    })
    kern = kernel_from_obj(json.loads(text))
    assert (kern.offset, len(kern.coeffs), kern.source) == (-16, 33, "closed_cubic")
    assert kern.certificate is None
    signal = np.random.default_rng(3).uniform(-1.0, 1.0, 64)
    pyr = decompose(signal, bspline_mask(4), 3, mode="kernel", kernel=kern)
    assert np.max(np.abs(reconstruct(pyr, bspline_mask(4)) - signal)) < 1e-12


def test_certificate_fields_survive():
    cert = DecayCertificate(2.0, 1, 0.25, 0.25, 3.5, False)
    kern = Kernel(0, np.array([1.0]), 0.0, "custom", cert)
    back = kernel_from_obj(kernel_to_obj(kern))
    assert back.certificate == cert


def test_pyramid_roundtrip_full():
    rng = np.random.default_rng(0)
    c = rng.uniform(-1, 1, 64)
    pyr = decompose(c, bspline_mask(4), 3, mask_id="cubic")
    back = pyramid_from_obj(json.loads(dump_json(pyramid_to_obj(pyr))))
    assert back.mask_id == "cubic"
    assert np.array_equal(back.coarse, pyr.coarse)
    for a, b in zip(back.details, pyr.details):
        assert np.array_equal(a, b)


def test_pyramid_file_refuses_a_batched_pyramid():
    rng = np.random.default_rng(2)
    pyr = decompose(rng.uniform(-1, 1, (3, 64)), bspline_mask(4), 3)
    for packed in (False, True):
        with pytest.raises(ParameterError, match=r"one signal, got coarse data of shape \(3, 8\)"):
            pyramid_to_obj(pyr, packed=packed)


def test_pyramid_roundtrip_packed():
    rng = np.random.default_rng(1)
    c = rng.uniform(-1, 1, 64)
    pyr = decompose(c, bspline_mask(4), 3)
    obj = pyramid_to_obj(pyr, packed=True)
    assert obj["packed"] is True
    assert len(obj["details"][0]) == pyr.details[0].size // 2
    back = pyramid_from_obj(json.loads(dump_json(obj)))
    for a, b in zip(back.details, pyr.details):
        assert np.array_equal(a[1::2], b[1::2])
        assert np.count_nonzero(a[::2]) == 0
    # packing loses nothing the transform needs: evens were (near) zero anyway
    from evenrev import reconstruct

    assert np.max(np.abs(reconstruct(back, bspline_mask(4)) - c)) < 1e-10


def test_packed_file_maps_onto_the_stored_odd_halves():
    # an exact pyramid holds N coefficients for N samples, and a packed file
    # holds the same ones: loading it stores them as they are, the odd halves
    c = np.random.default_rng(4).uniform(-1, 1, 64)
    pyr = decompose(c, bspline_mask(4), 3, mask_id="cubic")
    assert pyr.coarse.size + sum(d.size for d in pyr.stored) == c.size
    obj = json.loads(dump_json(pyramid_to_obj(pyr, packed=True)))
    assert obj["details"] == [d.tolist() for d in pyr.stored]
    back = pyramid_from_obj(obj)
    assert back.mask_id == "cubic"
    assert [d.tobytes() for d in back.stored] == [d.tobytes() for d in pyr.stored]
    assert [d.tobytes() for d in back.details] == [d.tobytes() for d in pyr.details]
    unpacked = pyramid_from_obj(json.loads(dump_json(pyramid_to_obj(pyr))))
    assert [d.shape for d in unpacked.stored] == [d.shape for d in pyr.details]  # as written
    assert unpacked.max_even_detail() == 0.0  # its even entries are all 0.0


def test_signal_csv_roundtrip():
    rng = np.random.default_rng(2)
    c = rng.uniform(-1, 1, 17)
    back = signal_from_csv_text(signal_to_csv_text(c))
    assert np.array_equal(back, c)
    with pytest.raises(ParameterError):
        signal_from_csv_text("\n\n")


def test_write_text_atomic(tmp_path):
    target = tmp_path / "out.json"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    write_text_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_rational_json_layout():
    obj = mask_to_obj(make_mask(-1, [F(1, 4), F(3, 4)]))
    assert obj == {"offset": -1, "num": [1, 3], "den": [4, 4]}


def _pyramid_obj(**changes):
    pyr = decompose(np.linspace(-1, 1, 32), bspline_mask(4), 3)
    obj = json.loads(dump_json(pyramid_to_obj(pyr)))
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"coarse": [0.5, float("nan"), 0.25, 0.0]}, "coarse holds a non-finite value"),
        ({"details": [[0.0] * 8, [0.0] * 16, [float("inf")] + [0.0] * 31]}, "level 3 holds"),
        ({"levels": 7}, "levels is 7 but it holds 3 detail arrays"),
        ({"levels": "3"}, "field 'levels' must be an integer"),
        ({"coarse": ["a", 1.0, 2.0, 3.0]}, "coarse must be a list of numbers"),
        ({"details": {"1": []}}, "details must be a list"),
        # bool("false") is True: a string must not pass for a boolean
        ({"packed": "false"}, "pyramid field 'packed' must be true or false"),
        ({"packed": 1}, "pyramid field 'packed' must be true or false"),
    ],
)
def test_pyramid_obj_validation(changes, message):
    with pytest.raises(ParameterError, match=message):
        pyramid_from_obj(_pyramid_obj(**changes))


def test_pyramid_obj_missing_field_and_packed_length():
    obj = _pyramid_obj()
    del obj["levels"]
    with pytest.raises(ParameterError, match="lacks the field 'levels'"):
        pyramid_from_obj(obj)
    packed = _pyramid_obj(packed=True)  # full-length details where halves belong
    with pytest.raises(ShapeError, match="packed detail level 1 has length 8, expected 4"):
        pyramid_from_obj(packed)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"coeffs": [0.5, float("nan")]}, "kernel coeffs holds a non-finite value"),
        ({"coeffs": [float("-inf")]}, "kernel coeffs holds a non-finite value"),
        ({"tol": float("nan")}, "field 'tol' must be a finite number"),
        ({"tol": float("inf")}, "field 'tol' must be a finite number"),
        ({"tol": -1e-9}, "tol must be >= 0"),
        ({"offset": 1.5}, "field 'offset' must be an integer"),
        ({"coeffs": []}, "at least one coefficient"),
        # a hand-edited "false" must not claim a proven decay bound
        ({"certificate": {"kappa": 2.0, "s": 1, "q": 0.25, "lambda": 0.5, "K": 3.5,
                          "hypothesis_met": "false"}},
         "certificate field 'hypothesis_met' must be true or false"),
    ],
)
def test_kernel_obj_validation(changes, message):
    obj = kernel_to_obj(Kernel(-1, np.array([0.25, 1.0, 0.25]), 1e-9, "custom"))
    obj.update(changes)
    with pytest.raises(ParameterError, match=message):
        kernel_from_obj(obj)


def test_absent_booleans_keep_their_defaults():
    # files written before either field existed still load as they did
    cert = DecayCertificate(2.0, 1, 0.25, 0.5, 3.5, False)
    kernel = kernel_to_obj(Kernel(0, np.array([1.0]), 0.0, "custom", cert))
    del kernel["certificate"]["hypothesis_met"]
    assert kernel_from_obj(kernel).certificate.hypothesis_met is True
    obj = _pyramid_obj()
    del obj["packed"]
    assert [d.size for d in pyramid_from_obj(obj).stored] == [8, 16, 32]  # full length


def test_certificate_obj_missing_field():
    obj = kernel_to_obj(even_inverse_spectral(bspline_mask(4), tol=1e-12))
    del obj["certificate"]["kappa"]
    with pytest.raises(ParameterError, match="certificate lacks the field 'kappa'"):
        kernel_from_obj(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"coeffs": [1.0, 2.0]}, "mask lacks the field 'offset'"),
        ({"offset": "0", "coeffs": [1.0]}, "field 'offset' must be an integer"),
        ({"offset": 0, "coeffs": [1.0, float("nan")]}, "mask coeffs holds a non-finite value"),
        ({"offset": 0, "num": [1, 1], "den": [2, 0]}, "nonzero denominators"),
        ({"offset": 0, "num": [1.5], "den": [2]}, "must be integers"),
        ({"offset": 0, "num": [1]}, "mask lacks the field 'den'"),
        ([1, 2, 3], "mask must be a JSON object"),
    ],
)
def test_mask_obj_field_validation(obj, message):
    with pytest.raises(ParameterError, match=message):
        mask_from_obj(obj)


def test_load_json_rejects_malformed_text(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"offset": 0, "coeffs": [1.0,')
    with pytest.raises(ParameterError, match="broken.json is not valid JSON"):
        load_json(str(path))


def json_oracle(obj) -> str:
    """The writer ``dump_json`` replaced, kept as the reference text."""
    return json.dumps(obj, indent=2) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
JSON_LIKE = st.recursive(
    st.one_of(SCALARS, st.lists(FINITE, max_size=8), st.lists(st.floats(), max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_LIKE)
@example([1.0, 2])
@example([1.0, float("nan")])
@example([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -float("inf")])
@example({"": [], "é\u2603": {}, "k": [[], {}, ()]})
@example({"a": {1: [0.5], 2.5: None, True: "t", None: {"b": [1.0]}}})
@example((1.5, None, True, False, "x"))
@example([np.float64(0.1), 2.5])
@example({"details": [[0.5, -0.25], [1e-17, 3.0]], "packed": False})
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == json_oracle(obj)


@pytest.mark.parametrize("obj", [object(), [1.0, {1, 2}], {(1, 2): 3.0}, {"k": np.zeros(2)}])
def test_dump_json_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json_oracle(obj)
    with pytest.raises(TypeError):
        dump_json(obj)


@given(st.lists(st.floats(), max_size=40))
@example([-0.0, 5e-324, 0.1, 1 / 3, 1e300])
def test_signal_csv_text_matches_17_digit_format(values):
    want = "\n".join(format(float(v), ".17g") for v in values) + "\n"
    assert signal_to_csv_text(values) == want
    assert signal_to_csv_text(np.array(values, dtype=float)) == want
