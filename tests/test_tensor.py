"""Tensor engine: forward values, reverse-mode gradients, tape discipline."""

import ctypes
import platform
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from fusionrec import tensor as T

from fdcheck import assert_gradients_match
from oracles import backward_summing_copies, sigmoid_two_branch, sparse_layout_lexsort


def p64(arr):
    return T.parameter(arr, dtype=np.float64)


def rng64(seed, shape, rng_scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng_scale


# flush_to_zero sets the SSE control register, which only x86-64 has
X86_64 = pytest.mark.skipif(platform.machine() != "x86_64",
                            reason="flush_to_zero is a no-op off x86-64")


# ---------------------------------------------------------------- forward

def test_matmul_hand_value():
    t = T.Tape()
    a = T.constant([[1.0, 2.0]])
    b = T.constant([[3.0], [4.0]])
    out = t.matmul(a, b)
    assert out.item() == pytest.approx(11.0)


def ones(rows, cols):
    return T.constant(np.ones((rows, cols)))


def eye2():
    return T.SparseMatrix.from_dense(np.eye(2))


@pytest.mark.parametrize("case, message", [
    pytest.param(lambda t: t.matmul(ones(2, 3), ones(2, 3)),
                 "matmul: inner dims differ, (2, 3) x (2, 3)", id="matmul"),
    pytest.param(lambda t: t.matmul_nt(ones(2, 3), ones(2, 2)),
                 "matmul_nt: column dims differ, (2, 3) x (2, 2)", id="matmul_nt"),
    pytest.param(lambda t: t.spmm_weighted(eye2(), ones(3, 1), ones(2, 1)),
                 "spmm_weighted: values must be (2, 1), got (3, 1)",
                 id="spmm_weighted-values"),
    pytest.param(lambda t: t.spmm_weighted(eye2(), ones(2, 1), ones(3, 1)),
                 "spmm_weighted: inner dims differ, (2, 2) x (3, 1)",
                 id="spmm_weighted-inner"),
    pytest.param(lambda t: t.spmm(eye2(), ones(3, 1)),
                 "spmm: inner dims differ, (2, 2) x (3, 1)", id="spmm"),
    pytest.param(lambda t: t.entry_dot(eye2(), ones(2, 3), ones(3, 3)),
                 "entry_dot: operand rows 2 and 3 do not match (2, 2)",
                 id="entry_dot-rows"),
    pytest.param(lambda t: t.entry_dot(eye2(), ones(2, 3), ones(2, 2)),
                 "entry_dot: column dims differ, (2, 3) x (2, 2)",
                 id="entry_dot-columns"),
    pytest.param(lambda t: t.add(ones(2, 3), ones(3, 3)),
                 "add: shapes (2, 3) and (3, 3) do not broadcast", id="add"),
])
def test_shape_mismatch_keeps_its_type_and_text(case, message):
    t = T.Tape()
    with pytest.raises(ValueError) as info:
        case(t)
    assert str(info.value) == message
    assert t.op_names == []


@pytest.mark.parametrize("case", [
    pytest.param(lambda t: t.matmul("a", ones(1, 1)), id="matmul"),
    pytest.param(lambda t: t.matmul_nt(ones(1, 1), [[1.0]]), id="matmul_nt"),
    pytest.param(lambda t: t.spmm(eye2(), np.ones((2, 1))), id="spmm"),
    pytest.param(lambda t: t.spmm_weighted(eye2(), [[1.0], [1.0]], ones(2, 1)),
                 id="spmm_weighted"),
    pytest.param(lambda t: t.add(ones(1, 1), 1.0), id="add"),
])
def test_a_non_tensor_operand_is_a_type_error(case):
    with pytest.raises(TypeError, match="^expected Tensor, got "):
        case(T.Tape())


def test_sigmoid_at_zero():
    t = T.Tape()
    out = t.sigmoid(T.constant([[0.0]]))
    assert out.item() == pytest.approx(0.5)


def test_l2_normalize_hand_value():
    t = T.Tape()
    out = t.l2_normalize(T.constant([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[0.6, 0.8]], rtol=1e-6)


def test_l2_normalize_zero_row_stays_zero():
    t = T.Tape()
    out = t.l2_normalize(T.constant([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(out.data[0], [0.0, 0.0])


def test_l2_normalize_row_whose_squared_norm_overflows_raises():
    # x / inf is a finite zero, so the row would silently vanish
    t = T.Tape()
    with pytest.raises(T.NonFiniteError, match="^l2_normalize"):
        t.l2_normalize(T.constant([[3e38, 3e38], [3.0, 4.0]]))


def test_l2_normalize_row_whose_squared_norm_underflows_is_a_unit_row():
    # 1e-30 squared underflows to 0 in float32; the norm comes from the row
    # over its largest magnitude, [1, 1], times 1e-30
    rows = np.array([[1e-30, 1e-30], [3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    x = T.parameter(rows)
    c = np.array([[1.0, -2.0], [0.5, 1.0], [1.0, 1.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = T.Tape()
        out = t.l2_normalize(x)
        t.backward(t.sum(t.mul(out, T.constant(c))))
    np.testing.assert_allclose(out.data[0], [np.sqrt(0.5)] * 2, rtol=1e-6)
    # rows whose norm is normal keep the plain formula's bits
    norm = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    assert out.data[1:].tobytes() == (rows / np.where(norm > 0, norm, 1.0))[1:].tobytes()
    # the gradient of x / ||x|| at s = x / 1e-30, divided by 1e-30
    s = np.array([1.0, 1.0])
    u = s / np.linalg.norm(s)
    grad_s = (c[0] - (c[0] @ u) * u) / np.linalg.norm(s)
    assert np.isfinite(x.grad).all()
    np.testing.assert_allclose(x.grad[0], grad_s / 1e-30, rtol=1e-5)
    np.testing.assert_array_equal(x.grad[2], [0.0, 0.0])


def test_dropout_p0_identity():
    t = T.Tape()
    x = T.constant(rng64(0, (4, 5)))
    out = t.dropout(x, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_p1_rejected():
    t = T.Tape()
    with pytest.raises(ValueError):
        t.dropout(T.constant(np.ones((2, 2))), 1.0, np.random.default_rng(0))


def test_dropout_scaling_preserves_expectation():
    t = T.Tape()
    x = T.constant(np.ones((200, 200)))
    out = t.dropout(x, 0.5, np.random.default_rng(7))
    assert out.data.mean() == pytest.approx(1.0, abs=0.02)


def test_softmax_rows_sum_to_one():
    t = T.Tape()
    out = t.softmax(T.constant(rng64(3, (5, 7), 3.0)))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), rtol=1e-6)


def test_concat_columns():
    t = T.Tape()
    a = T.constant([[1.0, 2.0]])
    b = T.constant([[3.0]])
    out = t.concat([a, b])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_cosine_zero_row_gives_zero():
    t = T.Tape()
    a = T.constant([[0.0, 0.0]])
    b = T.constant([[1.0, 2.0]])
    assert t.cosine_similarity(a, b).item() == 0.0


def test_non_finite_forward_aborts():
    t = T.Tape()
    with pytest.raises(T.NonFiniteError):
        t.log(T.constant([[0.0]]))


def test_exp_overflow_aborts():
    t = T.Tape()
    with pytest.raises(T.NonFiniteError):
        t.exp(T.constant([[1000.0]]))


def test_nan_constant_through_row_gather_aborts_at_matmul():
    # row_gather only copies and skips the check; the next arithmetic op raises
    t = T.Tape()
    rows = t.row_gather(T.constant([[1.0, np.nan], [2.0, 3.0]]), [1, 0])
    assert np.isnan(rows.data[1, 1])
    with pytest.raises(T.NonFiniteError, match="matmul"):
        t.matmul(rows, T.parameter(np.eye(2)))


# ------------------------------------------------------ float-error policy

def big(rows=1, cols=2):
    """Finite float32 entries whose sums, squares and doubles overflow."""
    return T.constant(np.full((rows, cols), 3e38))


# every public primitive -> a case that turns finite float32 operands into
# non-finite values, or the reason none exists
FLOAT_ERROR_CASES = {
    "add": lambda t: t.add(big(), big()),
    "sub": lambda t: t.sub(big(), T.constant([[-3e38, -3e38]])),
    "mul": lambda t: t.mul(big(), big()),
    "div": lambda t: t.div(T.constant([[1.0, 0.0]]), T.constant([[0.0, 0.0]])),
    "maximum": "the larger of two finite values is finite",
    "matmul": lambda t: t.matmul(big(), T.constant([[1.0], [1.0]])),
    "matmul_nt": lambda t: t.matmul_nt(big(), T.constant([[1.0, 1.0]])),
    "spmm": lambda t: t.spmm(T.SparseMatrix.from_dense([[1.0, 1.0]]), big(2, 1)),
    "spmm_weighted": lambda t: t.spmm_weighted(
        T.SparseMatrix.from_dense([[1.0]]), T.constant([[2.0]]), big(1, 1)),
    "entry_dot": lambda t: t.entry_dot(T.SparseMatrix.from_dense([[0.0, 1.0]]),
                                       big(1, 2), big(2, 2)),
    "scale": lambda t: t.scale(big(), 10.0),
    "sigmoid": "every output lies in [0, 1]",
    "softplus": "the output is at most max(x, 0) + log(2)",
    "log": lambda t: t.log(T.constant([[0.0, -1.0]])),
    "exp": lambda t: t.exp(T.constant([[100.0]])),
    "relu": "max(x, 0) of a finite x is finite",
    "leaky_relu": lambda t: t.leaky_relu(T.constant([[-3e38]]), slope=10.0),
    "l2_normalize": lambda t: t.l2_normalize(big()),
    "dropout": lambda t: t.dropout(big(1, 8), 0.5, np.random.default_rng(0)),
    "sum": lambda t: t.sum(big()),
    "sumsq": lambda t: t.sumsq(big()),
    "mean": lambda t: t.mean(big()),
    "rowsum": lambda t: t.rowsum(big()),
    "softmax": "exp(x - max(x)) lies in [0, 1] and each row sums to at least 1",
    "concat": "it copies its operands' entries",
    "row_concat": "it copies its operands' entries",
    "row_gather": "it copies its operand's rows",
    "stop_gradient": "it copies its operand",
    "cosine_similarity": "it is l2_normalize, mul and rowsum, whose cases are above",
}


def test_every_primitive_has_a_float_error_case():
    # the public primitives as perfbench/spans.py enumerates them
    primitives = sorted(attr for attr, value in vars(T.Tape).items()
                        if not attr.startswith("_") and callable(value)
                        and attr not in ("backward", "reset"))
    assert primitives == sorted(FLOAT_ERROR_CASES)


@pytest.mark.parametrize("name", sorted(
    name for name, case in FLOAT_ERROR_CASES.items() if callable(case)))
def test_non_finite_result_raises_naming_its_primitive(name):
    # numpy warns of nothing: the tape's finiteness check is the one signal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.NonFiniteError, match=rf"^{name}\b"):
            FLOAT_ERROR_CASES[name](T.Tape())


BEYOND_FLOAT32 = [[1e39], [1.0]]  # finite float64 values


@pytest.mark.parametrize("name, case", [
    pytest.param("spmm", lambda t, x: t.spmm(T.SparseMatrix.from_dense(
        np.diag(np.ravel(BEYOND_FLOAT32))), x), id="spmm"),
    pytest.param("spmm_weighted", lambda t, x: t.spmm_weighted(
        eye2(), T.constant(BEYOND_FLOAT32, dtype=np.float64), x), id="spmm_weighted"),
])
def test_sparse_value_cast_past_float32_raises_naming_its_primitive(name, case):
    # the product casts the values to the dense operand's float32 inside the
    # float-error policy, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.NonFiniteError, match=rf"^{name} produced non-finite"):
            case(T.Tape(), ones(2, 3))


def test_div_backward_on_a_tiny_denominator_raises():
    # the forward quotient 1e20 is finite; d/db = -a / b**2 overflows
    a, b = T.parameter([[1.0]]), T.parameter([[1e-20]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = T.Tape()
        loss = t.sum(t.div(a, b))
        with pytest.raises(T.NonFiniteError, match="^backward of div "):
            t.backward(loss)


def _two_scales(t, x, c=2e38):
    """sum(c * x) + sum(c * x): x's two gradients of c sum past float32's max."""
    return t.add(t.sum(t.scale(x, c)), t.sum(t.scale(x, c)))


def test_overflowing_gradient_sum_into_a_leaf_raises():
    w = T.parameter([[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = T.Tape()
        loss = _two_scales(t, w)
        with pytest.raises(T.NonFiniteError, match="^backward of scale "):
            t.backward(loss)
    assert w.grad is None


def test_overflowing_gradient_sum_raises_at_the_sum_not_its_producer():
    # h's two gradients overflow as they are summed; row_gather, which
    # produced h, would otherwise be the first to see the inf
    x = T.parameter([[0.0], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = T.Tape()
        loss = _two_scales(t, t.row_gather(x, [0]))
        with pytest.raises(T.NonFiniteError, match="^backward of scale "):
            t.backward(loss)


def test_overflowing_grad_across_backward_calls_raises():
    w = T.parameter([[0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = T.Tape()
        t.backward(t.sum(t.scale(w, 2e38)))
        first = w.grad
        t = T.Tape()
        loss = t.sum(t.scale(w, 2e38))
        with pytest.raises(T.NonFiniteError, match="accumulated gradient is not finite"):
            t.backward(loss)
    assert w.grad is first
    np.testing.assert_array_equal(first, np.full((1, 2), np.float32(2e38)))


def test_leaf_gradient_past_its_dtype_raises_and_leaves_grad():
    # w's float64 gradient, 1e39, is finite but beyond float32's range
    w = T.parameter([[1.0]])
    c = T.constant([[1e39]], dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = T.Tape()
        loss = t.sum(t.mul(w, c))
        with pytest.raises(T.NonFiniteError, match="accumulated gradient is not finite"):
            t.backward(loss)
    assert w.grad is None
    # a cast that fits is stored in the leaf's dtype
    t = T.Tape()
    t.backward(t.sum(t.mul(w, T.constant([[2.5]], dtype=np.float64))))
    assert w.grad.dtype == np.float32 and w.grad.tolist() == [[2.5]]


def test_softmax_of_a_row_spanning_the_float_range_stays_quiet():
    # x - max(x) overflows to -inf, whose exp is an exact 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.Tape().softmax(T.constant([[-3e38, 3e38]]))
    assert out.data.tolist() == [[0.0, 1.0]]


# ---------------------------------------------------------------- sparse

def test_sparse_sorted_and_unique():
    m = T.SparseMatrix((2, 2), [1, 0], [0, 1], [3.0, 2.0])
    assert list(m.rows) == [0, 1]
    assert list(m.cols) == [1, 0]
    with pytest.raises(ValueError):
        T.SparseMatrix((2, 2), [0, 0], [1, 1], [1.0, 2.0])


def test_sparse_out_of_bounds():
    with pytest.raises(ValueError):
        T.SparseMatrix((2, 2), [2], [0], [1.0])
    # checked before the counting sort, which would write out of bounds
    for rows, cols in (([0, 1], [-1, 0]), ([0, 2], [1, 1]), ([0], [2])):
        with pytest.raises(ValueError, match="out of bounds"):
            T.entry_order((2, 2), np.array(rows), np.array(cols))


@st.composite
def coo_entries(draw):
    """(shape, unique (row, col) coordinates in any order, values), zeros
    among the values."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    coords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                           unique=True, max_size=n * m))
    vals = draw(st.lists(st.sampled_from([0.0, -2.5]) | st.floats(-1e3, 1e3),
                         min_size=len(coords), max_size=len(coords)))
    return (n, m), coords, vals


@settings(max_examples=100, deadline=None)
@given(coo_entries(), st.booleans())
@example(((4, 6), [(3, 5), (0, 2), (3, 0), (0, 5)], [0.0, 1.5, -2.0, 3.25]),
         False)  # rows 1-2 and columns 1, 3, 4 empty, a zero stored
@example(((3, 2), [], []), False)
@example(((2, 5), [(1, 4), (1, 0), (0, 3)], [0.5, 0.0, -1.0]), True)
def test_sparse_layout_equals_lexsort_oracle(entries, dense):
    # the counting-sort layout is np.lexsort's order and scipy's CSR
    shape, coords, vals = entries
    rows = np.array([r for r, _ in coords], dtype=np.int64)
    cols = np.array([c for _, c in coords], dtype=np.int64)
    if dense:
        arr = np.zeros(shape)
        arr[rows, cols] = vals
        m = T.SparseMatrix.from_dense(arr)
        rows, cols = np.nonzero(arr)
        vals = arr[rows, cols]
    else:
        m = T.SparseMatrix(shape, rows, cols, vals)
    want_rows, want_cols, want_vals, want_indptr = \
        sparse_layout_lexsort(shape, rows, cols, vals, np.float64)
    assert m.vals.dtype == np.float64 and m.vals.tobytes() == want_vals.tobytes()
    for got, want in zip((m.rows, m.cols, m.indptr),
                         (want_rows, want_cols, want_indptr)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_spmm_hand_value():
    m = T.SparseMatrix((2, 2), [0], [1], [2.0])
    t = T.Tape()
    x = T.constant([[1.0], [3.0]])
    out = t.spmm(m, x)
    np.testing.assert_allclose(out.data, [[6.0], [0.0]])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 8), st.integers(0, 10_000))
def test_spmm_matches_dense(n, m, d, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.3)
    sp = T.SparseMatrix.from_dense(dense)
    x = rng.standard_normal((m, d))
    t = T.Tape()
    out = t.spmm(sp, T.constant(x, dtype=np.float64))
    np.testing.assert_allclose(out.data, dense @ x, atol=1e-10)

    # spmm_weighted carrying the stored values is the same product, and both
    # transposed products and the value gradient match dense references
    g = rng.standard_normal((n, d))
    x_plain = T.parameter(x, dtype=np.float64)
    x_weighted = T.parameter(x, dtype=np.float64)
    vals = T.parameter(sp.vals[:, None], dtype=np.float64)
    t = T.Tape()
    plain = t.spmm(sp, x_plain)
    weighted = t.spmm_weighted(sp, vals, x_weighted)
    np.testing.assert_allclose(weighted.data, plain.data, atol=1e-10)
    upstream = T.constant(g, dtype=np.float64)
    t.backward(t.add(t.sum(t.mul(plain, upstream)),
                     t.sum(t.mul(weighted, upstream))))
    np.testing.assert_allclose(x_plain.grad, dense.T @ g, atol=1e-10)
    np.testing.assert_allclose(x_weighted.grad, dense.T @ g, atol=1e-10)
    gather_dot = (g[sp.rows] * x[sp.cols]).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(vals.grad, gather_dot, atol=1e-10)


# ------------------------------------------------------------ kernel path

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("width, transposed", [(1, False), (7, False), (1, True),
                                               (7, True)],
                         ids=["1", "7", "transposed-1", "transposed-7"])
def test_csr_product_equals_scipy_bitwise(dtype, index_dtype, width, transposed):
    # the direct kernel call is a @ x, or transposed a.T @ x, bit for bit,
    # with empty rows (0 and the last three), empty columns (2 and 5) and a
    # non-contiguous dense operand
    rng = np.random.default_rng(width)
    dense = rng.standard_normal((12, 9)) * (rng.random((12, 9)) < 0.4)
    dense[[0, 9, 10, 11]] = 0.0
    dense[:, [2, 5]] = 0.0
    a = scipy.sparse.csr_matrix(dense)
    indptr = a.indptr.astype(index_dtype)
    indices = a.indices.astype(index_dtype)
    x = rng.standard_normal((12 if transposed else 9, 2 * width)).astype(dtype)[:, ::2]
    assert not x.flags.c_contiguous
    data = a.data.astype(dtype)
    got = T._csr_product((12, 9), indptr, indices, data, x, transposed)
    a = scipy.sparse.csr_matrix((data, indices, indptr), shape=(12, 9))
    want, empty = (a.T @ x, [2, 5]) if transposed else (a @ x, [0, 9, 10, 11])
    assert got.dtype == dtype and got.shape == want.shape == (
        (9 if transposed else 12), width)
    assert not got[empty].any()
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(0, 9), max_size=30),
       st.integers(1, 5), st.sampled_from([np.float32, np.float64]),
       st.integers(0, 10_000))
def test_row_gather_grad_equals_add_at_bitwise(n, idx, width, dtype, seed):
    idx = [i % n for i in idx]
    rng = np.random.default_rng(seed)
    a = T.parameter(rng.standard_normal((n, width)), dtype=dtype)
    g = rng.standard_normal((len(idx), width)).astype(dtype)
    t = T.Tape()
    t.backward(t.sum(t.mul(t.row_gather(a, idx), T.constant(g, dtype=dtype))))
    want = np.zeros((n, width), dtype=dtype)
    np.add.at(want, np.asarray(idx, dtype=np.int64), g)
    assert a.grad.dtype == dtype
    np.testing.assert_array_equal(a.grad, want)


def test_spmm_weighted_value_grad_holds_no_nnz_by_width_array():
    # GRCN's Office shape: 81,194 stored entries, three 64-wide channels
    n, nnz, width = 3000, 81_194, 192
    rng = np.random.default_rng(7)
    codes = rng.choice(n * n, size=nnz, replace=False)
    structure = T.SparseMatrix((n, n), codes // n, codes % n, np.ones(nnz))
    vals = T.parameter(rng.random((nnz, 1)))
    x = T.constant(rng.standard_normal((n, width)))
    t = T.Tape()
    loss = t.sum(t.spmm_weighted(structure, vals, x))
    tracemalloc.start()
    try:
        t.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.grad.shape == (nnz, 1)
    assert peak < nnz * width * 4 / 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_dot_bits_depend_on_the_values_alone(dtype):
    # one np.dot per row, whatever the operands' offset in memory, the
    # block boundaries or the layout: np.vecdot itself sums a strided row
    # in numpy's own order
    n, width = 2 * T.VALUE_GRAD_BLOCK + 37, 67
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, width)).astype(dtype)
    b = rng.standard_normal((n, width)).astype(dtype)
    want = np.array([np.dot(x, y) for x, y in zip(a, b)], dtype=dtype)
    assert T._row_dot(a, b).dtype == dtype
    assert T._row_dot(a, b).tobytes() == want.tobytes()
    for offset in range(1, 8):
        buf = np.empty(n * width + offset, dtype=dtype)
        shifted = buf[offset:].reshape(n, width)
        shifted[...] = a
        assert T._row_dot(shifted, b).tobytes() == want.tobytes(), offset
        assert T._row_dot(b, shifted).tobytes() == want.tobytes(), offset
    blocks = [T._row_dot(a[lo:hi], b[lo:hi])
              for lo, hi in ((0, 37), (37, T.VALUE_GRAD_BLOCK + 1),
                             (T.VALUE_GRAD_BLOCK + 1, n))]
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    diagonal = T.SparseMatrix((n, n), np.arange(n), np.arange(n), np.ones(n))
    assert T._entry_dot(diagonal, a, b)[:, 0].tobytes() == want.tobytes()
    wide = np.zeros((n, width + 5), dtype=dtype)
    wide[:, 3:3 + width] = a
    for x, y in ((np.asfortranarray(a), b), (a, np.asfortranarray(b)),
                 (np.asfortranarray(a), np.asfortranarray(b)),
                 (wide[:, 3:3 + width], b)):
        assert T._row_dot(x, y).tobytes() == want.tobytes()


def _written_out_dots(structure, a, b):
    """(nnz, 1): one np.dot per stored entry (r, c) of a[r] and b[c]."""
    return np.array([[np.dot(a[r], b[c])] for r, c in zip(structure.rows, structure.cols)],
                    dtype=np.result_type(a, b))


def test_spmm_weighted_value_grad_is_blockwise_exact():
    # across block boundaries the blocked rule is one BLAS dot per stored
    # entry, bit for bit
    n, width = 50, 24
    nnz = 2 * T.VALUE_GRAD_BLOCK + 37
    rng = np.random.default_rng(8)
    codes = rng.choice(n * n, size=nnz, replace=False)
    structure = T.SparseMatrix((n, n), codes // n, codes % n, np.ones(nnz))
    vals = T.parameter(rng.random((nnz, 1)))
    xd = rng.standard_normal((n, width)).astype(np.float32)
    g = rng.standard_normal((n, width)).astype(np.float32)
    t = T.Tape()
    out = t.spmm_weighted(structure, vals, T.constant(xd))
    t.backward(t.sum(t.mul(out, T.constant(g))))
    np.testing.assert_array_equal(vals.grad, _written_out_dots(structure, g, xd))


def _sparse_with_empty_lines(n, m, nnz, rng):
    """n x m pattern of nnz random stored entries whose first and last rows
    and columns hold none."""
    codes = rng.choice((n - 2) * (m - 2), size=nnz, replace=False)
    return T.SparseMatrix((n, m), 1 + codes // (m - 2), 1 + codes % (m - 2),
                          rng.random(nnz))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_entry_dot_equals_the_written_out_gathers_bitwise(dtype):
    # the product is one np.dot per stored entry, and both gradients are
    # those of rowsum(mul(row_gather, row_gather)), bit for bit, across block
    # boundaries, with empty rows and columns, and so are the gradients of a
    # leaf used as both operands
    rng = np.random.default_rng(9)
    n, m, width = 53, 61, 24
    structure = _sparse_with_empty_lines(n, m, 2 * T.VALUE_GRAD_BLOCK + 37, rng)
    g = rng.standard_normal((structure.nnz, 1)).astype(dtype)
    a = T.parameter(rng.standard_normal((n, width)), dtype=dtype)
    b = T.parameter(rng.standard_normal((m, width)), dtype=dtype)
    square = _sparse_with_empty_lines(n, n, 2 * T.VALUE_GRAD_BLOCK + 37, rng)
    gs = rng.standard_normal((square.nnz, 1)).astype(dtype)
    c = T.parameter(rng.standard_normal((n, width)), dtype=dtype)

    def run(dot):
        for p in (a, b, c):
            p.zero_grad()
        t = T.Tape()
        out, same = dot(t, structure, a, b), dot(t, square, c, c)
        t.backward(t.add(t.sum(t.mul(out, T.constant(g, dtype=dtype))),
                         t.sum(t.mul(same, T.constant(gs, dtype=dtype)))))
        return [out.data, same.data, a.grad, b.grad, c.grad]

    got = run(lambda t, s, x, y: t.entry_dot(s, x, y))
    want = run(lambda t, s, x, y: t.rowsum(t.mul(t.row_gather(x, s.rows),
                                                 t.row_gather(y, s.cols))))
    want[:2] = (_written_out_dots(structure, a.data, b.data),
                _written_out_dots(square, c.data, c.data))
    for have, ref in zip(got, want):
        assert have.dtype == dtype
        assert have.tobytes() == ref.tobytes()
    assert not a.grad[[0, -1]].any() and not b.grad[[0, -1]].any()


def test_entry_dot_gradients_hold_no_nnz_by_width_array():
    # GRCN's Office shape: 53,258 train pairs, 64-wide unit rows
    n, m, nnz, width = 4905, 2420, 53_258, 64
    rng = np.random.default_rng(10)
    codes = rng.choice(n * m, size=nnz, replace=False)
    structure = T.SparseMatrix((n, m), codes // m, codes % m, np.ones(nnz))
    a = T.parameter(rng.standard_normal((n, width)))
    b = T.parameter(rng.standard_normal((m, width)))
    t = T.Tape()
    loss = t.sum(t.entry_dot(structure, a, b))
    tracemalloc.start()
    try:
        t.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nnz * width * 4 / 2


def _reduce_to(g, shape):
    # the sums that bring a broadcast gradient back to an operand's shape
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# op -> (forward, gradient of a, gradient of b) from the output gradient g
BINARY_FORMULAS = {
    "add": (lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (lambda a, b: a / b, lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b)),
    "maximum": (np.maximum, lambda g, a, b: g * (a >= b).astype(a.dtype),
                lambda g, a, b: g * (1.0 - (a >= b).astype(a.dtype))),
}


@pytest.mark.parametrize("name", sorted(BINARY_FORMULAS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shapes", [((5, 3), (5, 3)), ((5, 3), (1, 3)),
                                    ((5, 3), (5, 1)), ((1, 1), (5, 3))])
def test_binary_op_equals_numpy_formulas_bitwise(name, dtype, shapes):
    rng = np.random.default_rng(len(name))
    if name == "maximum":  # integer values, so that operands tie
        ad, bd = (rng.integers(-2, 3, shape).astype(dtype) for shape in shapes)
        assert (ad == bd).any()
    else:
        ad, bd = (rng.standard_normal(shape).astype(dtype) for shape in shapes)
    if name == "div":  # a divisor away from zero
        bd = rng.uniform(0.5, 2.0, shapes[1]).astype(dtype)
    out_shape = np.broadcast_shapes(shapes[0], shapes[1])
    g = rng.standard_normal(out_shape).astype(dtype)
    forward, rule_a, rule_b = BINARY_FORMULAS[name]
    a, b = T.parameter(ad, dtype=dtype), T.parameter(bd, dtype=dtype)
    t = T.Tape()
    out = getattr(t, name)(a, b)
    t.backward(t.sum(t.mul(out, T.constant(g, dtype=dtype))))
    assert out.dtype == a.grad.dtype == b.grad.dtype == dtype
    np.testing.assert_array_equal(out.data, forward(ad, bd))
    np.testing.assert_array_equal(a.grad, _reduce_to(rule_a(g, ad, bd), ad.shape))
    np.testing.assert_array_equal(b.grad, _reduce_to(rule_b(g, ad, bd), bd.shape))


def _reordering_matrix():
    # row 1 is empty, and the transpose's data order (by column) is not the
    # stored (row, col) order
    return T.SparseMatrix((4, 3), [0, 0, 2, 3, 3], [2, 0, 1, 0, 2],
                          [0.3, -1.7, 2.5, 0.9, 1.1])


def _csr(m, dtype=np.float64):
    # the values cast to the dense operand's dtype, as the tape's products do
    return scipy.sparse.csr_matrix((m.vals.astype(dtype), m.cols, m.indptr),
                                   shape=m.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spmm_is_spmm_weighted_with_constant_values_bitwise(dtype):
    m = _reordering_matrix()
    assert not np.array_equal(np.argsort(m.cols, kind="stable"), np.arange(m.nnz))
    rng = np.random.default_rng(3)
    xd = rng.standard_normal((3, 4)).astype(dtype)
    g = T.constant(rng.standard_normal((4, 4)), dtype=dtype)
    results = []
    vals = T.constant(m.vals[:, None], dtype=dtype)
    for product in (lambda t, x: t.spmm(m, x),
                    lambda t, x: t.spmm_weighted(m, vals, x)):
        x = T.parameter(xd, dtype=dtype)
        t = T.Tape()
        out = product(t, x)
        t.backward(t.sum(t.mul(out, g)))
        results.append((out.data, x.grad))
    (out, grad), (want_out, want_grad) = results
    assert out.dtype == grad.dtype == dtype
    assert not out[1].any()
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(grad, want_grad)
    # and scipy's transposed product over the cast values
    np.testing.assert_array_equal(grad, _csr(m, dtype).T @ g.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spmm_of_float64_graph_values_equals_the_operand_dtype_graph(dtype):
    # SparseMatrix stores float64 values and the product casts them to the
    # dense operand's dtype, forward and in the operand's gradient, so it
    # gives the bytes of scipy's product over the values cast first
    m = _reordering_matrix()
    narrow = _csr(m, dtype)
    assert m.vals.dtype == np.float64
    assert (narrow.data != m.vals).any() == (dtype == np.float32)
    rng = np.random.default_rng(5)
    xd = rng.standard_normal((3, 4)).astype(dtype)
    g = T.constant(rng.standard_normal((4, 4)), dtype=dtype)
    x = T.parameter(xd, dtype=dtype)
    t = T.Tape()
    out = t.spmm(m, x)
    t.backward(t.sum(t.mul(out, g)))
    want_out, want_grad = narrow @ xd, narrow.T.tocsr() @ g.data
    assert out.data.dtype == x.grad.dtype == want_out.dtype == want_grad.dtype == dtype
    assert out.data.tobytes() == want_out.tobytes()
    assert x.grad.tobytes() == want_grad.tobytes()


def test_spmm_runs_only_its_dense_rule():
    m = _reordering_matrix()
    x = p64(np.ones((3, 2)))
    t = T.Tape()
    loss = t.sum(t.spmm(m, x))
    ran = spy_on_rules(t)
    t.backward(loss)
    assert ran == [("sum", 0), ("spmm", 1)]
    np.testing.assert_array_equal(x.grad, _csr(m).T @ np.ones((4, 2)))


# ---------------------------------------------------------------- tape

def test_backward_accumulates_across_uses():
    t = T.Tape()
    x = p64([[2.0]])
    y = t.mul(x, x)  # x used twice -> grad 2x
    t.backward(y)
    assert x.grad[0, 0] == pytest.approx(4.0)


def test_backward_frees_a_node_before_the_earlier_ones_run():
    # the constant's array is held by the mul node's rule alone: once that
    # node is passed, it is gone before the scale node's rule runs
    t = T.Tape()
    x = T.parameter(np.ones((2, 3)))
    s = t.scale(x, 2.0)
    c = T.constant(np.full((2, 3), 3.0))
    held = weakref.ref(c.data)
    loss = t.sum(t.mul(s, c))
    del c
    scale_node = t._nodes[0]
    rule = scale_node.rules[0]
    alive = []
    scale_node.rules = (lambda g: alive.append(held() is not None) or rule(g),)
    del scale_node
    t.backward(loss)
    assert alive == [False]
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 6.0))
    assert t.op_names == []


def test_double_backward_rejected():
    t = T.Tape()
    x = p64([[1.0]])
    y = t.scale(x, 2.0)
    t.backward(y)
    with pytest.raises(T.TapeError):
        t.backward(y)


def spy_on_rules(tape):
    """Wrap every rule recorded on `tape`; returns the (op, input) pairs that ran."""
    ran = []

    def spy(rule, key):
        def spied(g):
            ran.append(key)
            grad = rule(g)
            assert grad is not None
            return grad
        return spied

    for node in tape._nodes:
        assert len(node.rules) == len(node.inputs)
        node.rules = tuple(spy(rule, (node.name, i)) for i, rule in enumerate(node.rules))
    return ran


def test_matmul_skips_gradients_of_constant_leaves():
    t = T.Tape()
    w = p64(np.ones((4, 2)))
    h = t.matmul(T.constant(np.ones((3, 4)), dtype=np.float64), w)
    # tape results built only from constants, and stop_gradient's output,
    # need no gradient either
    gathered = t.row_gather(T.constant(np.ones((6, 4)), dtype=np.float64), [5, 0, 5])
    stopped = t.stop_gradient(h)
    assert not gathered.needs_grad and not stopped.needs_grad and h.needs_grad
    parts = [t.matmul_nt(h, T.constant(np.ones((5, 2)), dtype=np.float64)),
             t.matmul(gathered, w), t.matmul_nt(stopped, h)]
    loss = t.sum(t.concat(parts))
    ran = spy_on_rules(t)
    t.backward(loss)
    assert ran == [("sum", 0), ("concat", 0), ("concat", 1), ("concat", 2),
                   ("matmul_nt", 1), ("matmul", 1), ("matmul_nt", 0), ("matmul", 1)]
    np.testing.assert_array_equal(w.grad, np.full((4, 2), 54.0))


def test_backward_skips_nodes_that_need_no_gradient():
    # every binary primitive, and each block of a concatenation, has one
    # constant operand; only the rules of the other operands may run
    rng = np.random.default_rng(0)
    consts = {shape: T.constant(rng.standard_normal(shape), dtype=np.float64)
              for shape in [(4, 3), (1, 3), (3, 3), (5, 3), (4, 1), (3, 2), (2, 6), (4, 6)]}
    divisor = T.constant(rng.uniform(1.0, 2.0, (4, 1)), dtype=np.float64)
    structure = T.SparseMatrix((3, 5), [0, 1, 2, 2], [1, 0, 3, 4], np.ones(4))
    w = p64(rng.standard_normal((4, 3)))
    runs = []

    def build():
        t = T.Tape()
        h = t.add(w, t.exp(consts[4, 3]))
        h = t.sub(consts[4, 3], h)
        h = t.mul(h, consts[1, 3])
        h = t.div(h, divisor)
        h = t.maximum(consts[4, 3], h)
        h = t.matmul(h, consts[3, 3])
        h = t.matmul_nt(consts[5, 3], h)
        h = t.spmm_weighted(structure, consts[4, 1], h)
        h = t.concat([h, consts[3, 2]])
        h = t.row_concat([consts[2, 6], h])
        h = t.mul(h, t.row_gather(consts[4, 6], [3, 0, 0, 1, 2]))
        loss = t.sum(h)
        runs.append(spy_on_rules(t))
        return loss

    assert_gradients_match(build, [w])
    assert runs[0] == [("sum", 0), ("mul", 0), ("row_concat", 1), ("concat", 0),
                       ("spmm_weighted", 1), ("matmul_nt", 1), ("matmul", 0),
                       ("maximum", 1), ("div", 0), ("mul", 0), ("sub", 1), ("add", 0)]


def test_row_gather_skips_gradients_of_constant_leaves():
    t = T.Tape()
    w = p64(np.arange(8.0).reshape(4, 2))
    gathered = t.row_gather(T.constant(np.ones((4, 2)), dtype=np.float64), [0, 2, 2])
    loss = t.sum(t.add(gathered, t.row_gather(w, [0, 2, 2])))
    ran = spy_on_rules(t)
    t.backward(loss)
    assert ran == [("sum", 0), ("add", 1), ("row_gather", 0)]
    np.testing.assert_array_equal(w.grad, [[1, 1], [0, 0], [2, 2], [0, 0]])


def _spy_on_arrays(tape):
    """Wrap every rule on `tape`; returns the (array, copy) pairs of each
    rule's incoming gradient and output, taken as the rule returns."""
    seen = []

    def spy(rule):
        def spied(g):
            grad = rule(g)
            seen.extend([(g, g.copy()), (grad, grad.copy())])
            return grad
        return spied

    for node in tape._nodes:
        node.rules = tuple(spy(rule) for rule in node.rules)
    return seen


def _three_uses(t, x, w):
    return t.add(t.mul(x, x), t.mul(w, x))


def _slices(t, x, w):
    r = t.row_concat([x, x, w])
    return t.row_concat([t.concat([x, w, x]), t.concat([r, r, r])])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", [
    lambda t, x, w: t.add(x, x), _three_uses, _slices])
def test_backward_sums_in_place_as_prev_plus_g(build, dtype):
    # a tensor's later gradients are summed in place into an array backward
    # allocated; the sums equal prev + g bit for bit, and no rule's output
    # or incoming gradient is written
    rng = np.random.default_rng(7)
    x = T.parameter(rng.standard_normal((3, 2)), dtype=dtype)
    w = T.parameter(rng.standard_normal((3, 2)), dtype=dtype)
    t = T.Tape()
    loss = t.sumsq(build(t, x, w))
    want = backward_summing_copies(t, loss)
    seen = _spy_on_arrays(t)
    t.backward(loss)
    assert [leaf.grad is not None for leaf in (x, w)] == [id(x) in want, id(w) in want]
    for leaf, g in want.values():
        assert leaf.grad.dtype == dtype
        np.testing.assert_array_equal(leaf.grad, g)
    for arr, before in seen:
        np.testing.assert_array_equal(arr, before)
        for leaf, _ in want.values():
            assert not np.shares_memory(leaf.grad, arr)


def test_backward_sums_across_calls_out_of_place():
    x = p64([[1.0, 2.0]])
    for _ in range(2):
        t = T.Tape()
        t.backward(t.sum(t.add(t.add(x, x), x)))
    first = x.grad
    t = T.Tape()
    t.backward(t.sum(t.scale(x, 2.0)))
    np.testing.assert_array_equal(first, [[6.0, 6.0]])
    np.testing.assert_array_equal(x.grad, [[8.0, 8.0]])


def product_gradients(scale):
    """The leaf gradients of every product whose output row r gets the
    gradient scale[r]: matmul, matmul_nt, spmm and spmm_weighted, in that
    order of (a, b, c, x, y, vals)."""
    a, b, c = (T.parameter(np.ones((2, 3))) for _ in range(3))
    x, y = T.parameter(np.ones((3, 2))), T.parameter(np.ones((3, 2)))
    vals = T.parameter(np.ones((2, 1)))
    structure = T.SparseMatrix((2, 3), [0, 1], [2, 0], [1.0, 1.0])
    ones = T.constant(np.ones((3, 2)))
    t = T.Tape()
    out = t.concat([t.matmul(a, ones), t.matmul_nt(b, c),
                    t.spmm(structure, x), t.spmm_weighted(structure, vals, y)])
    t.backward(t.sum(t.mul(out, scale)))
    return [p.grad for p in (a, b, c, x, y, vals)]


@X86_64
def test_every_product_takes_a_subnormal_gradient_as_zero_in_the_scope():
    # outside flush_to_zero every product passes a subnormal gradient on;
    # inside it every one reads it as 0, matmul no more than the others. The
    # constant is made outside: a conversion inside would already flush it
    sub = np.float32(1e-40)
    scale = T.constant(np.tile([[sub], [1.0]], (1, 8)))
    full = [[[2 * sub] * 3, [2.0] * 3], [[2 * sub] * 3, [2.0] * 3],
            np.ones((2, 3)),  # 1 + sub rounds to 1
            [[1.0, 1.0], [0.0, 0.0], [sub, sub]], [[1.0, 1.0], [0.0, 0.0], [sub, sub]],
            [[2 * sub], [2.0]]]
    flushed = [[[0.0] * 3, [2.0] * 3], [[0.0] * 3, [2.0] * 3], np.ones((2, 3)),
               [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
               [[0.0], [2.0]]]
    for got, want in zip(product_gradients(scale), full):
        np.testing.assert_array_equal(got, want)
    with T.flush_to_zero():
        grads = product_gradients(scale)
    for got, want in zip(grads, flushed):
        np.testing.assert_array_equal(got, want)


@X86_64
@pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)],
                         ids=["both", "left", "right"])
def test_matmul_takes_a_subnormal_gradient_as_zero_in_the_scope(needs):
    # each rule reads its own incoming gradient, whichever operands need one:
    # inside flush_to_zero the subnormal entry of g counts as 0
    sub = np.float32(1e-40)
    ad, bd = np.full((2, 3), 3.0), np.full((3, 2), 5.0)
    a, b = (T.Tensor(d, requires_grad=n) for d, n in zip((ad, bd), needs))
    scale = T.constant([[sub, 1.0], [1.0, 2.0]])
    with T.flush_to_zero():
        t = T.Tape()
        t.backward(t.sum(t.mul(t.matmul(a, b), scale)))
    flushed = np.array([[0.0, 1.0], [1.0, 2.0]], dtype=np.float32)
    if needs[0]:
        assert a.grad.tobytes() == (flushed @ bd.T.astype(np.float32)).tobytes()
    if needs[1]:
        assert b.grad.tobytes() == (ad.T.astype(np.float32) @ flushed).tobytes()


def test_spmm_casts_a_graphs_values_once_per_dtype(monkeypatch):
    # every product of one graph reads the same cast array, forward and in
    # the operand's gradient: the values cast to the dense dtype
    data = []
    product = T._csr_product
    monkeypatch.setattr(T, "_csr_product", lambda shape, indptr, indices, vd, *rest: (
        data.append(vd) or product(shape, indptr, indices, vd, *rest)))
    m = _reordering_matrix()
    x = T.parameter(np.ones((3, 2)))
    for _ in range(2):
        t = T.Tape()
        t.backward(t.sum(t.spmm(m, x)))
    forward, backward, forward_again, backward_again = data
    assert forward is backward is forward_again is backward_again
    assert forward.tobytes() == m.vals.astype(np.float32).tobytes()


def test_an_unchecked_tape_records_an_overflow_that_a_later_primitive_absorbs():
    # exp(1e4) overflows and sigmoid(inf) is 1: a checked tape names exp, an
    # unchecked one records 1.0, and l2_normalize checks its norms on both
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = T.Tape()
        with pytest.raises(T.NonFiniteError, match="^exp produced non-finite"):
            checked.sigmoid(checked.exp(T.constant([[1e4]])))
        t = T.Tape(checked=False)
        assert t.sigmoid(t.exp(T.constant([[1e4]]))).data.tolist() == [[1.0]]
        with pytest.raises(T.NonFiniteError, match="^l2_normalize: a row's squared"):
            t.l2_normalize(T.constant([[3e38, 3e38]]))


def test_an_unchecked_backward_leaves_a_non_finite_gradient_to_its_caller():
    # the checked backward names the overflowing sum; the unchecked one
    # leaves inf in grad, which the training loop checks before stepping
    for checked in (True, False):
        x = T.parameter([[0.0]])
        t = T.Tape(checked=checked)
        loss = _two_scales(t, x)
        if checked:
            with pytest.raises(T.NonFiniteError, match="^backward of scale "):
                t.backward(loss)
        else:
            t.backward(loss)
            assert np.isinf(x.grad).all()


def test_stale_tensor_after_reset_rejected():
    t = T.Tape()
    x = p64([[1.0]])
    y = t.scale(x, 2.0)
    t.reset()
    with pytest.raises(T.TapeError):
        t.scale(y, 3.0)


def test_non_scalar_loss_rejected():
    t = T.Tape()
    x = p64(np.ones((2, 2)))
    y = t.scale(x, 1.0)
    with pytest.raises(T.TapeError):
        t.backward(y)


def test_backward_is_linear():
    # grad of a*l1 + b*l2 equals a*grad(l1) + b*grad(l2)
    x0 = rng64(11, (3, 4))
    a_coef, b_coef = 0.7, -1.3

    def grads_of(fn):
        x = p64(x0)
        t = T.Tape()
        t.backward(fn(t, x))
        return x.grad.copy()

    g1 = grads_of(lambda t, x: t.sum(t.sigmoid(x)))
    g2 = grads_of(lambda t, x: t.mean(t.mul(x, x)))
    combo = grads_of(
        lambda t, x: t.add(t.scale(t.sum(t.sigmoid(x)), a_coef),
                           t.scale(t.mean(t.mul(x, x)), b_coef))
    )
    np.testing.assert_allclose(combo, a_coef * g1 + b_coef * g2, rtol=1e-10)


def test_sigmoid_grad_at_zero():
    t = T.Tape()
    x = p64([[0.0]])
    t.backward(t.sigmoid(x))
    assert x.grad[0, 0] == pytest.approx(0.25)


def test_dot_product_grads():
    t = T.Tape()
    x = p64([[1.0, 2.0]])
    y = p64([[3.0], [4.0]])
    t.backward(t.matmul(x, y))
    np.testing.assert_allclose(x.grad, [[3.0, 4.0]])
    np.testing.assert_allclose(y.grad, [[1.0], [2.0]])


# ------------------------------------------------- finite-difference suite

def check_unary(op_name, shape=(3, 4), seed=0, transform=None, **kwargs):
    data = rng64(seed, shape)
    if transform is not None:
        data = transform(data)
    x = p64(data)

    def build():
        t = T.Tape()
        out = getattr(t, op_name)(x, **kwargs)
        return t.mean(t.mul(out, out))

    assert_gradients_match(build, [x])


def test_grad_sigmoid():
    check_unary("sigmoid")


def test_grad_softplus():
    check_unary("softplus", seed=1)


def test_grad_log():
    check_unary("log", seed=2, transform=lambda d: np.abs(d) + 0.5)


def test_grad_exp():
    check_unary("exp", seed=3)


def test_grad_relu():
    check_unary("relu", seed=4)


def test_grad_leaky_relu():
    check_unary("leaky_relu", seed=5, slope=0.2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_one_mask_matches_two_where_form(dtype):
    # the output and gradient of the two-np.where form, bit for bit,
    # signed zeros, subnormals and large magnitudes included, for slopes in
    # [0, 1] and outside it, signed zero slopes included
    info = np.finfo(dtype)
    special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
               info.tiny, -info.tiny, info.max, -info.max, -1e30, 1e-40, -1e-40]
    x = np.concatenate([np.array(special, dtype=dtype),
                        np.random.default_rng(3).normal(size=200).astype(dtype)])
    x = x.reshape(-1, 1)
    for slope in (0.2, 0.0, -0.0, 1.0, 10.0, -0.5):
        with np.errstate(over="ignore"):  # -max * 10 is -inf in both forms
            want = np.where(x > 0, x, x * dtype(slope))
        want_grad = np.where(x > 0, dtype(1.0), dtype(slope))
        a = T.parameter(x, dtype=dtype)
        # unchecked: slope 10 takes -max to -inf, and the sum may overflow,
        # yet the sum's gradient is all ones, so a's is the mask itself
        tape = T.Tape(checked=False)
        out = tape.leaky_relu(a, slope)
        assert out.data.dtype == want.dtype == dtype
        np.testing.assert_array_equal(out.data.view(np.uint8), want.view(np.uint8))
        tape.backward(tape.sum(out))
        np.testing.assert_array_equal(a.grad.view(np.uint8), want_grad.view(np.uint8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_two_branch_form(dtype):
    # bit for bit on every non-NaN input, through sigmoid and softplus's rule
    # (g * sigmoid(x)), at the edges of exp's range in both dtypes: exp(88.7)
    # is about float32's max, and exp(-103) and exp(-745) the smallest
    # subnormals
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal,
               -info.smallest_subnormal, info.tiny, -info.tiny, info.max,
               -info.max, 88.7, -88.7, 103.0, -103.0, 745.0, -745.0]
    x = np.concatenate([np.array(special, dtype=dtype),
                        np.random.default_rng(5).normal(scale=40, size=400)
                        .astype(dtype)]).reshape(-1, 1)
    want = sigmoid_two_branch(x)
    # unchecked: softplus(inf) and the sum are inf, yet the sum's gradient
    # is all ones, so a's is sigmoid(x) itself
    tape = T.Tape(checked=False)
    a = T.parameter(x, dtype=dtype)
    out = tape.sigmoid(a)
    assert out.data.dtype == dtype
    np.testing.assert_array_equal(out.data.view(np.uint8), want.view(np.uint8))
    tape.backward(tape.sum(tape.softplus(a)))
    np.testing.assert_array_equal(a.grad.view(np.uint8), want.view(np.uint8))
    nan = np.array([[np.nan]], dtype=dtype)
    assert np.isnan(T.Tape(checked=False).sigmoid(T.constant(nan, dtype)).data).all()


def test_grad_l2_normalize():
    check_unary("l2_normalize", seed=6)


def test_grad_softmax():
    check_unary("softmax", seed=7)


def test_grad_rowsum():
    check_unary("rowsum", seed=8)


def test_grad_matmul():
    a = p64(rng64(10, (3, 4)))
    b = p64(rng64(11, (4, 2)))

    def build():
        t = T.Tape()
        return t.mean(t.sigmoid(t.matmul(a, b)))

    assert_gradients_match(build, [a, b])


def test_grad_binary_ops():
    for op in ("add", "sub", "mul", "div", "maximum"):
        a = p64(rng64(20, (3, 4)) + 2.0)
        b = p64(rng64(21, (3, 4)) + 5.0)

        def build(op=op):
            t = T.Tape()
            return t.mean(t.mul(getattr(t, op)(a, b), getattr(t, op)(a, b)))

        assert_gradients_match(build, [a, b])


def test_grad_scalar_broadcast():
    a = p64(rng64(22, (3, 4)))
    s = p64([[1.7]])

    def build():
        t = T.Tape()
        return t.sum(t.sigmoid(t.mul(a, s)))

    assert_gradients_match(build, [a, s])


def test_grad_concat_row_gather():
    a = p64(rng64(23, (5, 3)))
    b = p64(rng64(24, (5, 2)))
    idx = np.array([0, 2, 2, 4])

    def build():
        t = T.Tape()
        cat = t.concat([a, b])
        picked = t.row_gather(cat, idx)
        return t.mean(t.mul(picked, picked))

    assert_gradients_match(build, [a, b])


def test_matmul_nt_matches_transpose():
    t = T.Tape()
    a = T.constant(rng64(31, (4, 3)))
    b = T.constant(rng64(32, (5, 3)))
    out = t.matmul_nt(a, b)
    np.testing.assert_allclose(out.data, a.data @ b.data.T, rtol=1e-12)


def test_grad_matmul_nt():
    a = p64(rng64(33, (4, 3)))
    b = p64(rng64(34, (5, 3)))

    def build():
        t = T.Tape()
        return t.mean(t.sigmoid(t.matmul_nt(a, b)))

    assert_gradients_match(build, [a, b])


def test_row_concat_stacks_and_splits_grad():
    a = p64(rng64(35, (2, 3)))
    b = p64(rng64(36, (4, 3)))

    t = T.Tape()
    stacked = t.row_concat([a, b])
    assert stacked.shape == (6, 3)
    np.testing.assert_array_equal(stacked.data[:2], a.data)

    def build():
        tp = T.Tape()
        s = tp.row_concat([a, b])
        return tp.mean(tp.mul(s, s))

    assert_gradients_match(build, [a, b])


def test_row_concat_rejects_column_mismatch():
    t = T.Tape()
    with pytest.raises(ValueError):
        t.row_concat([T.constant([[1.0, 2.0]]), T.constant([[1.0]])])


def test_grad_spmm():
    dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
    sp = T.SparseMatrix.from_dense(dense)
    x = p64(rng64(25, (3, 4)))

    def build():
        t = T.Tape()
        return t.mean(t.sigmoid(t.spmm(sp, x)))

    assert_gradients_match(build, [x])


def test_grad_spmm_weighted():
    structure = T.SparseMatrix((3, 3), [0, 1, 2, 2], [1, 0, 0, 2], np.ones(4))
    vals = p64(rng64(26, (4, 1)) + 1.5)
    x = p64(rng64(27, (3, 2)))

    def build():
        t = T.Tape()
        return t.mean(t.sigmoid(t.spmm_weighted(structure, vals, x)))

    assert_gradients_match(build, [vals, x])


def test_grad_entry_dot():
    structure = T.SparseMatrix((3, 4), [0, 0, 2, 2, 2], [1, 3, 0, 1, 3], np.ones(5))
    a = p64(rng64(40, (3, 2)))
    b = p64(rng64(41, (4, 2)))

    def build():
        t = T.Tape()
        return t.mean(t.sigmoid(t.entry_dot(structure, a, b)))

    assert_gradients_match(build, [a, b])


def test_grad_entry_dot_of_one_operand_with_itself():
    # LATTICE's form: both sides are the same unit rows, and the diagonal
    # entry (1, 1) differentiates a squared norm
    structure = T.SparseMatrix((3, 3), [0, 1, 1, 2], [2, 0, 1, 1], np.ones(4))
    x = p64(rng64(42, (3, 2)))

    def build():
        t = T.Tape()
        return t.mean(t.sigmoid(t.entry_dot(structure, x, x)))

    assert_gradients_match(build, [x])


def test_grad_dropout_fixed_mask():
    x = p64(rng64(28, (4, 4)))

    def build():
        t = T.Tape()
        out = t.dropout(x, 0.5, np.random.default_rng(99))
        return t.mean(t.mul(out, out))

    assert_gradients_match(build, [x])


def test_grad_cosine_similarity():
    a = p64(rng64(29, (4, 3)))
    b = p64(rng64(30, (4, 3)))

    def build():
        t = T.Tape()
        c = t.cosine_similarity(a, b)
        return t.mean(c)

    assert_gradients_match(build, [a, b])


def test_grad_stop_gradient_blocks():
    x = p64(rng64(31, (2, 2)))
    t = T.Tape()
    out = t.mean(t.mul(t.stop_gradient(x), t.stop_gradient(x)))
    t.backward(out)
    assert x.grad is None


def test_grad_three_layer_composite():
    # matmul -> add -> l2_normalize -> sum against the oracle
    w1 = p64(rng64(32, (4, 5)))
    w2 = p64(rng64(33, (5, 3)))
    b = p64(rng64(34, (1, 3)))
    x = T.Tensor(rng64(35, (6, 4)), dtype=np.float64)

    def build():
        t = T.Tape()
        h = t.matmul(t.matmul(x, w1), w2)
        h = t.add(h, b)
        return t.sum(t.l2_normalize(h))

    assert_gradients_match(build, [w1, w2, b])


# ------------------------------------------------------------ malloc policy

@pytest.mark.parametrize("returns", [0, 1])
def test_malloc_policy_sets_both_thresholds_or_stops(monkeypatch, returns):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return returns

    library = types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
    assert T._pin_malloc_thresholds() is bool(returns)
    # M_MMAP_THRESHOLD 32 MiB, then M_TRIM_THRESHOLD -1, no trimming; a
    # refused call leaves the rest unset
    assert calls == [(-3, 32 << 20), (-1, -1)][:1 + returns]


def test_malloc_policy_leaves_a_library_without_mallopt_alone(monkeypatch):
    # a C library with no mallopt, as on macOS
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert T._pin_malloc_thresholds() is False


# ------------------------------------------------------------- float mode

def float_controls():
    """The calling thread's float control words, status flags aside: the
    x87 control word and mxcsr's control bits, from fegetenv."""
    env = ctypes.create_string_buffer(32)
    assert ctypes.CDLL(None).fegetenv(env) == 0
    return env.raw[:2], int.from_bytes(env.raw[28:32], "little") & ~0x3f


# per dtype, the smallest normal number and the largest subnormal, made at
# import, outside any flush_to_zero scope
EDGES = [(np.array([np.finfo(d).tiny], dtype=d),
          np.array([np.nextafter(np.finfo(d).tiny, 0, dtype=d)], dtype=d))
         for d in (np.float32, np.float64)]


def flushes():
    """Whether a subnormal product is 0 and a subnormal operand reads as 0,
    in float32 and in float64, as four flags."""
    return [flag for tiny, sub in EDGES
            for flag in ((tiny * 0.5)[0] == 0, (tiny + sub)[0] == tiny[0])]


@X86_64
def test_flush_to_zero_flushes_in_the_scope_and_restores_every_exit():
    before = float_controls()
    assert flushes() == [False] * 4
    with T.flush_to_zero():
        assert flushes() == [True] * 4
        assert float_controls()[1] == before[1] | 0x8040
    assert float_controls() == before and flushes() == [False] * 4
    with pytest.raises(KeyError):
        with T.flush_to_zero():
            raise KeyError("inside")
    assert float_controls() == before
    with T.flush_to_zero():
        with T.flush_to_zero():
            assert flushes() == [True] * 4
        # the inner exit restores the outer scope's mode
        assert flushes() == [True] * 4
    assert float_controls() == before and flushes() == [False] * 4


@pytest.mark.parametrize("machine, status, mxcsr", [
    ("x86_64", 0, 0x1fa0), ("aarch64", 0, 0x1f80), ("x86_64", -1, 0x1f80),
    ("x86_64", 0, 0x1f00)], ids=["sets", "other-machine", "fegetenv-fails",
                                 "other-layout"])
def test_flush_to_zero_writes_only_a_register_it_read(monkeypatch, machine,
                                                      status, mxcsr):
    # a stand-in C library: the scope sets both bits in the field it read and
    # restores the saved environment, or, on another machine, where fegetenv
    # fails or an exception-mask bit is clear, writes nothing
    written = []

    def fegetenv(env):
        env[28:32] = mxcsr.to_bytes(4, "little")
        return status

    library = types.SimpleNamespace(fegetenv=fegetenv,
                                    fesetenv=lambda env: written.append(env.raw))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
    monkeypatch.setattr(platform, "machine", lambda: machine)
    with T.flush_to_zero():
        pass
    saved = bytes(28) + mxcsr.to_bytes(4, "little")
    flushed = bytes(28) + (mxcsr | 0x8040).to_bytes(4, "little")
    assert written == ([flushed, saved] if machine == "x86_64" and status == 0
                       and mxcsr & 0x1f80 == 0x1f80 else [])


def test_flush_to_zero_leaves_a_library_without_fegetenv_alone(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    with T.flush_to_zero():
        pass
