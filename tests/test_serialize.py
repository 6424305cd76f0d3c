import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdl
from rdl import serialize


def _report_text(report) -> str:
    """The canonical text of ``report``: the pieces ``write_report`` sends, joined."""
    out = []
    serialize.write_report(report, out.append)
    return "".join(out)


def test_matrix_roundtrip(rng):
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    a.real[0, 0], a.imag[0, 1], a.real[1, 0], a.imag[1, 1] = -0.0, np.inf, -np.inf, 5e-324
    back = serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(a))))
    assert np.array_equal(back, a)
    assert np.array_equal(np.signbit(back.real), np.signbit(a.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(a.imag))


def test_matrix_from_json_reads_ints_as_numbers():
    back = serialize.matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 3], [2**70, 0.5]]})
    assert np.array_equal(back, [[1 + 3j, 2.0**70 + 0.5j]])


def test_matrix_json_is_plain_data():
    obj = serialize.matrix_to_json(rdl.SIGMA_Y)
    text = json.dumps(obj)  # must not raise
    assert json.loads(text)["data"][1] == [0.0, -1.0]


@pytest.mark.parametrize(
    "broken",
    [
        [1, 2, 3],
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [[0, 0]] * 3},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 1, "cols": 1, "data": ["x"]},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": [True]},
        {"rows": 1, "cols": 1, "data": [None]},
        {"rows": 1, "cols": 1, "data": [[None, 0.0]]},
        {"rows": 1, "cols": 1, "data": [[[0.0, 0.0], 0.0]]},
        {"rows": 1, "cols": 1, "data": [[0.0, [0.0]]]},
        {"rows": 1, "cols": 1, "data": [[]]},
        {"rows": 1, "cols": 1, "data": [[0.0, 0.0, 0.0]]},
        {"rows": True, "cols": True, "data": [[1.0, 0.0]]},
        {"rows": 1, "cols": 1, "data": [[True, False]]},
        {"rows": 1, "cols": 2, "data": [[True, 0.5], [0.0, 0.0]]},
        {"rows": 1, "cols": 2, "data": [[0.5, 0.0], [0.0, False]]},
    ],
)
def test_matrix_from_json_rejects_malformed(broken):
    with pytest.raises(ValueError):
        serialize.matrix_from_json(broken, what="probe")


@pytest.mark.parametrize("bad", [[0.0], [0.0, None], [0.0, "1"], [[0.0, 0.0], 0.0], (0.0, 0.0)])
def test_matrix_error_names_the_first_bad_entry(bad):
    data = [[0.5, 0.0], [0.0, 0.5], bad, [0.0]]
    with pytest.raises(ValueError, match=r"^probe: entry 2 must be a \[re, im\] pair, got "):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "data": data}, what="probe")


def test_matrix_error_names_the_field():
    with pytest.raises(ValueError, match="propagator"):
        serialize.matrix_from_json({"rows": 1}, what="propagator")


def test_family_roundtrip(rng):
    fam = rdl.full_two_qubit_family()
    back = serialize.family_from_json(serialize.family_to_json(fam))
    assert len(back) == len(fam)
    assert back.label == fam.label
    assert back.dims == fam.dims
    for a, b in zip(back.members, fam.members):
        assert np.abs(a - b).max() < 1e-15


def test_family_from_json_validates_members():
    obj = {"d_s": 2, "d_e": 2, "members": [serialize.matrix_to_json(np.eye(4))]}
    with pytest.raises(rdl.NotAStateError):
        serialize.family_from_json(obj)
    with pytest.raises(ValueError, match="member 0"):
        serialize.family_from_json({"d_s": 2, "d_e": 2, "members": [{"rows": 1}]})


@pytest.mark.parametrize("field", ["d_s", "d_e"])
def test_family_from_json_rejects_boolean_dimension(field):
    obj = {"d_s": 2, "d_e": 1, "members": [serialize.matrix_to_json(np.eye(2) / 2)]}
    obj[field] = True
    with pytest.raises(rdl.DimensionError, match=f"^{field} must be an integer, got True$"):
        serialize.family_from_json(obj)


_MEMBER = serialize.matrix_to_json(np.eye(2) / 2)


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "family: expected an object, got list"),
        ({"d_s": 2, "d_e": 1}, "family: missing key 'members'"),
        ({"d_s": 2, "d_e": 1, "members": _MEMBER}, "family: members must be a list"),
        ({"d_s": 2, "d_e": 1, "members": [_MEMBER], "label": 7}, "family: label must be a string"),
    ],
    ids=["not-an-object", "missing-key", "members-not-a-list", "label-not-a-string"],
)
def test_family_from_json_refuses_a_malformed_family(obj, message):
    with pytest.raises(rdl.InputError, match=f"^{message}$"):
        serialize.family_from_json(obj)


def test_matrix_to_json_refuses_a_vector():
    with pytest.raises(rdl.InputError, match="^can only serialize 2-d arrays, got ndim 1$"):
        serialize.matrix_to_json(np.ones(3))


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integer_dimensions_serialize_as_plain_ints(kind):
    """Dimensions given as numpy integers are held as int, so the report writer takes them."""
    dims = rdl.BipartiteDims(kind(2), kind(2))
    assert type(dims.d_s) is int and type(dims.d_e) is int
    assert dims == rdl.BipartiteDims(2, 2)
    fam = rdl.StateFamily(dims, (np.eye(4, dtype=complex) / 4,))
    obj = serialize.family_to_json(fam)
    assert _report_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert serialize.family_from_json(json.loads(_report_text(obj))).dims == dims


def test_dumps_report_is_canonical():
    a = _report_text({"b": 1, "a": [1.5, None]})
    b = _report_text({"a": [1.5, None], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**30, max_value=10**60)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F))
)
_PAIRS = st.lists(
    st.lists(_FLOATS, min_size=2, max_size=2)
    | st.tuples(_FLOATS | st.integers() | st.booleans(), _FLOATS).map(list)
    | st.tuples(_FLOATS, _FLOATS.map(np.float64)).map(list)
)
_JSON = st.recursive(
    _LEAVES | _PAIRS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=10,
)


@settings(max_examples=50)
@given(_JSON)
def test_dumps_report_matches_json_dumps(x):
    assert _report_text(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "x",
    [
        {"data": [[_NAN, -_INF], [_INF, -0.0], [5e-324, 1e300]]},
        {"data": [[1, 0.5], [True, 0.5]], "e": [], "o": {}, "t": (0.5, 1.5)},
        {"data": [[np.float64(0.1), 0.2]], "big": 10**40, "s": "\u00e9\u2203\x00\x1f\"\\"},
        [[[0.5, 0.25]], [[0.5, 0.25], [0.5]], [(0.5, 0.25)]],
    ],
)
def test_dumps_report_matches_json_dumps_on_edge_cases(x):
    assert _report_text(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("x", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
def test_a_scalar_non_finite_float_is_written_as_json_dumps_writes_it(x):
    for report in (x, {"x": x}, [x, None]):
        assert _report_text(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [{1: 2}, {"a": {None: 1}}, {"a": [{(1, 2): 0}]}, {"a": {1j}}])
def test_dumps_report_rejects_what_no_report_holds(bad):
    with pytest.raises(TypeError):
        _report_text(bad)


def test_report_schema_loads_and_is_draft07():
    schema = serialize.load_report_schema()
    assert schema["$schema"].startswith("http://json-schema.org/draft-07")
    assert "schema" in schema["required"]


def test_consistency_report_serialization_keeps_witness():
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    rep = rdl.check_subspace_consistency(sub, u)
    obj = serialize.consistency_report_to_json(rep)
    assert obj["consistent"] is False
    w = serialize.matrix_from_json(obj["witness"])
    assert np.abs(w - rep.witness).max() < 1e-15


def test_subspace_serialization_shape():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    obj = serialize.subspace_to_json(sub)
    assert len(obj["span_basis"]) == 16
    assert len(obj["kernel_basis"]) == 12
    assert set(obj) == {"d_s", "d_e", "tol_rank", "span_basis", "kernel_basis"}
