"""The report renderer: one walk, the bytes of the rounded copy that
json.dumps wrote (``conftest.reference_report``), in both formats."""

import contextlib
import io
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gstruct import cli, reps
from gstruct.errors import GstructError
from conftest import reference_report

# %.15g writes an exponent from 1e15 on, repr from 1e16 on; 1e-5 and the
# subnormals sit where the two differ at the small end
EDGE_FLOATS = [-0.0, 0.0, 1e-5, 1e-4, 9.99999999999999e-5, 5e-324, 2.5e-320, 2.2250738585072014e-308,
               1e15, 1e15 + 0.5, 123456789012345.67, 9999999999999998.0, -1.2345678901234567e15, 1e16,
               0.1, 1 / 3, 1e22, 1.797693134862314e308]

# above 1.797693134862315e308 a float rounds up to inf: the reference printed
# Infinity, which is no JSON, and the renderer refuses it (the last test)
LIMIT15 = 1.797693134862315e308
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-LIMIT15, LIMIT15, exclude_min=True, exclude_max=True),
                   st.floats(1e15, 1e16, exclude_max=True), st.floats(-1e16, -1e15, exclude_min=True))
numpy_scalars = st.one_of(floats.map(np.float64), st.floats(width=32, allow_nan=False, allow_infinity=False)
                          .map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
                          st.integers(0, 255).map(np.uint8))
shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
arrays = st.one_of(hnp.arrays(np.float64, shapes, elements=floats), hnp.arrays(np.float32, shapes),
                   hnp.arrays(np.int64, shapes), hnp.arrays(np.bool_, shapes))
arrays = arrays.filter(lambda a: a.dtype.kind != "f" or np.isfinite(a).all())
leaves = st.one_of(floats, numpy_scalars, arrays, st.integers(), st.booleans(), st.none(), st.text(max_size=6))
values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=24,
)
NON_FINITE = [np.nan, np.inf, -np.inf, np.float64(np.inf), np.float32(np.nan), np.array([1.0, np.inf])]


def _decompose_with(dim, fmt):
    """(exit code, stdout, stderr) of ``decompose lambda3`` whose report
    holds ``dim`` as its total_dim."""
    out, err = io.StringIO(), io.StringIO()
    fake = SimpleNamespace(dim=dim, parts=[(-18.0, 84, None)])
    with mock.patch.object(reps, "lambda3_decomposition", lambda tol: fake), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["decompose", "lambda3", "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(values)
def test_json_text_is_the_reference(value):
    assert cli._text(value, "\n") + "\n" == reference_report(value)


@settings(max_examples=150, deadline=None)
@given(value=values, fmt=st.sampled_from(["json", "table"]))
def test_reports_print_the_reference_bytes(value, fmt):
    report = {"selector": "lambda3", "total_dim": value, "parts": [{"casimir_eigenvalue": -18.0, "dim": 84}]}
    assert _decompose_with(value, fmt) == (0, reference_report(report, fmt), "")


@settings(max_examples=60, deadline=None)
@given(value=values, bad=st.sampled_from(NON_FINITE), where=st.integers(0, 2), fmt=st.sampled_from(["json", "table"]))
def test_non_finite_value_exits_one_with_empty_stdout(value, bad, where, fmt):
    # at the front, the back or the middle of a structure; nothing reaches stdout
    value = [[bad, value], {"x": value, "y": bad}, (value, [value, bad])][where]
    try:
        reference_report(value)
        raise AssertionError("the reference renders a non-finite value")
    except GstructError as exc:
        line = f"error: {exc}\n"
    assert _decompose_with(value, fmt) == (1, "", line)


def test_edge_floats_as_printed():
    text = cli._text([-0.0, 1e-5, 5e-324, 1e15, 123456789012345.67, 9999999999999998.0, 0.1 + 0.2], "\n")
    assert text.split() == ["[", "-0.0,", "1e-05,", "5e-324,", "1000000000000000.0,", "123456789012346.0,",
                            "1e+16,", "0.3", "]"]
    assert cli._text({}, "\n") == "{}" and cli._text([], "\n") == "[]" and cli._text(np.zeros((2, 0))) == "[[], []]"


def test_float_that_rounds_to_inf_is_refused():
    line = "error: the report holds a non-finite value (inf): the parameters overflow\n"
    for fmt in ("json", "table"):
        assert _decompose_with([1.0, -1.7976931348623157e308], fmt) == (1, "", line.replace("(inf)", "(-inf)"))
        assert _decompose_with(np.float64(1.797693134862316e308), fmt) == (1, "", line)
