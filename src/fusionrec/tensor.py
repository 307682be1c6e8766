"""Dense/sparse 2-D linear algebra with tape-based reverse-mode gradients.

Everything is a (rows, cols) matrix; scalars are 1x1. Working precision is
float32; the test suite runs the same graphs in float64 when it compares
analytic gradients against central finite differences. Any operation that
produces NaN or Inf raises immediately instead of letting the value propagate.

Gradients go only where they can reach a parameter. A leaf needs a gradient
when it has requires_grad; a tape result needs one when any of its inputs
does, except stop_gradient's, which has no inputs. Each primitive records one
gradient rule per input, and backward alone decides which rules run: the rule
of an input that needs no gradient never runs, so a constant operand, such as
a gathered block of a constant feature matrix, costs nothing in backward.

Every sparse product and every scatter is one call into scipy's compiled
CSR product kernel: spmm and spmm_weighted run on a SparseMatrix's cached
CSR views in both directions, and row_gather's backward on a CSR of its
indices. Each output row adds its terms in CSR data order, which is the
order of the stored entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
# scipy's compiled sparse kernels (a private module): csr_matvecs runs
# csr_matrix @ dense and coo_tocsr the COO to CSR conversion; calling them
# directly skips the per-call csr_matrix build, checks and dispatch
from scipy.sparse import _sparsetools


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape misuse: stale operand, double replay, or a non-scalar loss."""


def _as_2d(data, dtype):
    arr = np.array(data, dtype=dtype, copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """A 2-D value. Leaves are created directly; results come from a Tape.

    `grad` accumulates additively across backward passes for leaves with
    requires_grad=True; call zero_grad() between optimizer steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_gen", "_needs")

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        self.data = _as_2d(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None
        self._gen = -1
        self._needs = False  # set on tape results: some input needs a gradient

    @property
    def needs_grad(self):
        """Whether a gradient of this tensor can reach a requires_grad leaf."""
        return self.requires_grad or self._needs

    @property
    def shape(self):
        return self.data.shape

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None

    def _accumulate_grad(self, g):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g.astype(self.data.dtype, copy=False)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def parameter(data, dtype=np.float32):
    return Tensor(data, requires_grad=True, dtype=dtype)


def constant(data, dtype=np.float32):
    return Tensor(data, requires_grad=False, dtype=dtype)


def _csr_product(indptr, indices, data, x):
    """The CSR matrix (data, indices, indptr) times x, in x's dtype.

    Each output row is summed from zero in data order by scipy's csr_matvecs,
    the kernel behind `csr_matrix @ x`, and equals that product bit for bit.
    The matrix has len(indptr) - 1 rows and x.shape[0] columns.
    """
    x = np.ascontiguousarray(x)
    out = np.zeros((indptr.size - 1, x.shape[1]), dtype=x.dtype)
    _sparsetools.csr_matvecs(out.shape[0], x.shape[0], x.shape[1], indptr, indices,
                             data.astype(x.dtype, copy=False), x.ravel(), out.ravel())
    return out


def _sigmoid(x):
    """Elementwise 1 / (1 + exp(-x)); exp(x) / (1 + exp(x)) where x < 0, so
    no exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# stored entries per block of spmm_weighted's value gradient
VALUE_GRAD_BLOCK = 1024


class SparseMatrix:
    """Immutable sparse matrix in coordinate form.

    Triples are stored sorted lexicographically by (row, col) with unique
    coordinates; values may be any finite float. Every product with the
    matrix goes through two cached CSR views: csr() for the matrix and
    csr_t() for its transpose. scipy's conversion keeps the given order
    within a row, so the stored (row, col) order is the CSR data order:
    csr().data is `vals` as stored and csr_t().data is vals[t_perm()], and
    live per-entry values can reuse either structure.
    """

    __slots__ = ("shape", "rows", "cols", "vals", "_csr_cache", "_t_cache")

    def __init__(self, shape, rows, cols, vals, dtype=np.float32):
        n, m = int(shape[0]), int(shape[1])
        if n <= 0 or m <= 0:
            raise ValueError(f"sparse shape must be positive, got {shape}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=dtype)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be equal-length 1-D arrays")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m:
                raise ValueError("sparse coordinate out of bounds")
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate sparse coordinate ({rows[k]}, {cols[k]})")
        if not np.isfinite(vals).all():
            raise NonFiniteError("sparse values must be finite")
        self.shape = (n, m)
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._csr_cache = None
        self._t_cache = None

    @classmethod
    def from_dense(cls, arr, dtype=np.float32):
        arr = np.asarray(arr)
        r, c = np.nonzero(arr)
        return cls(arr.shape, r, c, arr[r, c], dtype=dtype)

    @property
    def nnz(self):
        return int(self.vals.size)

    def csr(self):
        if self._csr_cache is None:
            self._csr_cache = scipy.sparse.csr_matrix(
                (self.vals, (self.rows, self.cols)), shape=self.shape
            )
        return self._csr_cache

    def csr_t(self):
        """CSR view of the transpose; its data is vals[t_perm()]."""
        if self._t_cache is None:
            shape_t = (self.shape[1], self.shape[0])
            self._t_cache = (
                scipy.sparse.csr_matrix((self.vals, (self.cols, self.rows)), shape=shape_t),
                np.argsort(self.cols, kind="stable"),
            )
        return self._t_cache[0]

    def t_perm(self):
        """Order of the stored entries in csr_t()'s data."""
        self.csr_t()
        return self._t_cache[1]

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def sym_normalize(m: SparseMatrix) -> SparseMatrix:
    """Scale each entry (u, v) by 1/sqrt(deg(u) * deg(v)).

    Degrees are the row and column sums of the matrix. Entries must be
    nonnegative; rows or columns with zero degree have no entries and stay
    all-zero.
    """
    if m.vals.size and m.vals.min() < 0:
        raise ValueError("sym_normalize needs nonnegative entries")
    vals = m.vals.astype(np.float64)
    row_deg = np.bincount(m.rows, weights=vals, minlength=m.shape[0])
    col_deg = np.bincount(m.cols, weights=vals, minlength=m.shape[1])
    scale = 1.0 / np.sqrt(row_deg[m.rows] * col_deg[m.cols])
    return SparseMatrix(m.shape, m.rows, m.cols, (vals * scale).astype(m.vals.dtype),
                        dtype=m.vals.dtype)


def _check_binary_shapes(name, a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    if (ra != rb and 1 not in (ra, rb)) or (ca != cb and 1 not in (ca, cb)):
        raise ValueError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast")


def _unbroadcast(g, shape):
    # reduce a broadcasted gradient back to the operand's shape
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


class _Node:
    """One recorded primitive: rules[i](g) is the gradient for inputs[i]."""

    __slots__ = ("name", "inputs", "out", "rules")

    def __init__(self, name, inputs, out, rules):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.rules = rules


class Tape:
    """Ordered record of executed primitives, replayed in reverse exactly once.

    Results belong to the tape that made them; using one after reset() (or on
    a different tape) raises. Leaves (parameters, constants) are tape-free and
    may appear anywhere. backward() and reset() drop the recorded nodes, so a
    replayed or reset tape holds nothing and no cycle through it keeps arrays.
    """

    def __init__(self):
        self._nodes = []
        self._gen = 0
        self._spent = False

    # -- bookkeeping ------------------------------------------------------

    def _check_operand(self, t):
        if not isinstance(t, Tensor):
            raise TypeError(f"expected Tensor, got {type(t).__name__}")
        if t._tape is not None and (t._tape is not self or t._gen != self._gen):
            raise TapeError("operand belongs to a reset or foreign tape")

    def _record(self, name, out_arr, inputs, rules, copies=False):
        # copies of checked results or leaves (ModelData, optimizer) stay finite
        if not copies and not np.isfinite(out_arr).all():
            raise NonFiniteError(f"{name} produced non-finite values")
        out = Tensor.__new__(Tensor)
        out.data = out_arr
        out.requires_grad = False
        out.grad = None
        out._tape = self
        out._gen = self._gen
        out._needs = any(t.needs_grad for t in inputs)
        self._nodes.append(_Node(name, inputs, out, rules))
        return out

    @property
    def op_names(self):
        return [n.name for n in self._nodes]

    def reset(self):
        self._nodes.clear()
        self._gen += 1
        self._spent = False

    def backward(self, loss: Tensor):
        """Propagate d(loss)/d(tensor) to every requires_grad leaf.

        Gradients accumulate additively across uses and across calls on
        fresh tapes; the same tape cannot be replayed twice. A node's rule
        for an input runs only when that input needs a gradient.
        """
        if self._spent:
            raise TapeError("tape already replayed; reset() before reuse")
        self._check_operand(loss)
        if loss._tape is not self:
            raise TapeError("loss was not computed on this tape")
        if loss.shape != (1, 1):
            raise TapeError(f"loss must be 1x1, got {loss.shape}")
        self._spent = True
        grads = {id(loss): (loss, np.ones((1, 1), dtype=loss.data.dtype))}
        for node in reversed(self._nodes):
            entry = grads.pop(id(node.out), None)
            if entry is None:
                continue
            for t, rule in zip(node.inputs, node.rules):
                if not t.needs_grad:
                    continue
                g = rule(entry[1])
                if not np.isfinite(g).all():
                    raise NonFiniteError(f"backward of {node.name} produced non-finite values")
                prev = grads.get(id(t))
                if prev is None:
                    grads[id(t)] = (t, g)
                else:
                    grads[id(t)] = (t, prev[1] + g)
        for t, g in grads.values():
            if t.requires_grad:
                t._accumulate_grad(g)
        self._nodes.clear()

    # -- primitives -------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_operand(a)
        self._check_operand(b)
        if a.cols != b.rows:
            raise ValueError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data @ b.data
        ad, bd = a.data, b.data
        return self._record("matmul", out, (a, b),
                            (lambda g: g @ bd.T, lambda g: ad.T @ g))

    def spmm(self, m: SparseMatrix, x: Tensor) -> Tensor:
        """Sparse-dense product m @ x. The sparse operand is a constant.

        Forward m.csr() @ x, backward m.csr_t() @ g, in the dense dtype.
        """
        self._check_operand(x)
        if m.shape[1] != x.rows:
            raise ValueError(f"spmm: inner dims differ, {m.shape} x {x.shape}")
        a = m.csr()
        out = _csr_product(a.indptr, a.indices, a.data, x.data)

        def rule(g):
            a_t = m.csr_t()
            return _csr_product(a_t.indptr, a_t.indices, a_t.data, g)

        return self._record("spmm", out, (x,), (rule,))

    def spmm_weighted(self, structure: SparseMatrix, vals: Tensor, x: Tensor) -> Tensor:
        """Like spmm but edge values come from an (nnz, 1) tensor.

        Gradients flow into both the edge values and the dense operand; the
        coordinate structure itself is fixed. Row i of `vals` is the i-th
        stored (row, col) entry, which is also csr()'s i-th data entry, so
        the spmm products run on the cached views with live values. The
        value gradient runs VALUE_GRAD_BLOCK entries at a time, so it never
        holds an nnz x width array.
        """
        self._check_operand(vals)
        self._check_operand(x)
        if vals.shape != (structure.nnz, 1):
            raise ValueError(
                f"spmm_weighted: values must be ({structure.nnz}, 1), got {vals.shape}"
            )
        if structure.shape[1] != x.rows:
            raise ValueError(
                f"spmm_weighted: inner dims differ, {structure.shape} x {x.shape}"
            )
        v = vals.data[:, 0]
        xd = x.data
        a = structure.csr()
        out = _csr_product(a.indptr, a.indices, v, xd)

        def grad_vals(g):
            rows, cols = structure.rows, structure.cols
            gv = np.empty((rows.size, 1), dtype=np.result_type(g, xd))
            for lo in range(0, rows.size, VALUE_GRAD_BLOCK):
                hi = lo + VALUE_GRAD_BLOCK
                gv[lo:hi, 0] = (g[rows[lo:hi]] * xd[cols[lo:hi]]).sum(axis=1)
            return gv

        def grad_x(g):
            a_t = structure.csr_t()
            return _csr_product(a_t.indptr, a_t.indices, v[structure.t_perm()], g)

        return self._record("spmm_weighted", out, (vals, x), (grad_vals, grad_x))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_operand(a)
        self._check_operand(b)
        _check_binary_shapes("add", a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data + b.data
        sa, sb = a.shape, b.shape
        return self._record("add", out, (a, b),
                            (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)))

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_operand(a)
        self._check_operand(b)
        _check_binary_shapes("sub", a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data - b.data
        sa, sb = a.shape, b.shape
        return self._record("sub", out, (a, b),
                            (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb)))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_operand(a)
        self._check_operand(b)
        _check_binary_shapes("mul", a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data * b.data
        ad, bd = a.data, b.data
        sa, sb = a.shape, b.shape
        return self._record("mul", out, (a, b), (lambda g: _unbroadcast(g * bd, sa),
                                                 lambda g: _unbroadcast(g * ad, sb)))

    def div(self, a: Tensor, b: Tensor) -> Tensor:
        self._check_operand(a)
        self._check_operand(b)
        _check_binary_shapes("div", a, b)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = a.data / b.data
        ad, bd = a.data, b.data
        sa, sb = a.shape, b.shape
        return self._record("div", out, (a, b),
                            (lambda g: _unbroadcast(g / bd, sa),
                             lambda g: _unbroadcast(-g * ad / (bd * bd), sb)))

    def scale(self, a: Tensor, c: float) -> Tensor:
        self._check_operand(a)
        c = float(c)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data * a.data.dtype.type(c)

        return self._record("scale", out, (a,), (lambda g: g * g.dtype.type(c),))

    def sigmoid(self, a: Tensor) -> Tensor:
        self._check_operand(a)
        out = _sigmoid(a.data)
        return self._record("sigmoid", out, (a,), (lambda g: g * out * (1.0 - out),))

    def softplus(self, a: Tensor) -> Tensor:
        """ln(1 + exp(x)), computed stably; its derivative is sigmoid(x)."""
        self._check_operand(a)
        x = a.data
        out = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
        return self._record("softplus", out, (a,), (lambda g: g * _sigmoid(x),))

    def log(self, a: Tensor) -> Tensor:
        self._check_operand(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(a.data)
        ad = a.data
        return self._record("log", out, (a,), (lambda g: g / ad,))

    def exp(self, a: Tensor) -> Tensor:
        self._check_operand(a)
        with np.errstate(over="ignore"):
            out = np.exp(a.data)

        return self._record("exp", out, (a,), (lambda g: g * out,))

    def relu(self, a: Tensor) -> Tensor:
        self._check_operand(a)
        out = np.maximum(a.data, 0)
        mask = (a.data > 0).astype(a.data.dtype)

        return self._record("relu", out, (a,), (lambda g: g * mask,))

    def leaky_relu(self, a: Tensor, slope=0.2) -> Tensor:
        self._check_operand(a)
        slope = float(slope)
        out = np.where(a.data > 0, a.data, a.data * a.data.dtype.type(slope))
        mask = np.where(a.data > 0, a.data.dtype.type(1.0), a.data.dtype.type(slope))

        return self._record("leaky_relu", out, (a,), (lambda g: g * mask,))

    def maximum(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise max; on ties the gradient goes to the first operand."""
        self._check_operand(a)
        self._check_operand(b)
        _check_binary_shapes("maximum", a, b)
        out = np.maximum(a.data, b.data)
        take_a = (a.data >= b.data).astype(a.data.dtype)
        sa, sb = a.shape, b.shape
        return self._record("maximum", out, (a, b),
                            (lambda g: _unbroadcast(g * take_a, sa),
                             lambda g: _unbroadcast(g * (1.0 - take_a), sb)))

    def l2_normalize(self, a: Tensor) -> Tensor:
        """Row-wise x / ||x||; all-zero rows stay zero (zero gradient there)."""
        self._check_operand(a)
        norm = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
        nonzero = norm > 0
        safe = np.where(nonzero, norm, 1.0)
        out = a.data / safe

        def rule(g):
            dot = (g * out).sum(axis=1, keepdims=True)
            ga = (g - dot * out) / safe
            return np.where(nonzero, ga, 0.0)

        return self._record("l2_normalize", out, (a,), (rule,))

    def _concat(self, name, tensors, axis):
        """Join tensors along axis; each input's gradient is its slice of g."""
        tensors = list(tensors)
        if not tensors:
            raise ValueError(f"{name} needs at least one tensor")
        for t in tensors:
            self._check_operand(t)
        other = tensors[0].shape[1 - axis]
        if any(t.shape[1 - axis] != other for t in tensors):
            raise ValueError(f"{name}: {('column', 'row')[axis]} counts differ")
        out = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        starts = np.cumsum([0] + sizes[:-1])
        keys = [(slice(None),) * axis + (slice(lo, lo + n),)
                for lo, n in zip(starts, sizes)]
        rules = tuple((lambda g, key=key: g[key]) for key in keys)
        return self._record(name, out, tuple(tensors), rules, copies=True)

    def concat(self, tensors) -> Tensor:
        """Column-wise concatenation of tensors with equal row counts."""
        return self._concat("concat", tensors, axis=1)

    def matmul_nt(self, a: Tensor, b: Tensor) -> Tensor:
        """a @ b.T without materializing a transpose, (n, d) x (m, d) -> (n, m)."""
        self._check_operand(a)
        self._check_operand(b)
        if a.cols != b.cols:
            raise ValueError(f"matmul_nt: column dims differ, {a.shape} x {b.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data @ b.data.T
        ad, bd = a.data, b.data
        return self._record("matmul_nt", out, (a, b),
                            (lambda g: g @ bd, lambda g: g.T @ ad))

    def row_concat(self, tensors) -> Tensor:
        """Stack tensors with equal column counts, top to bottom."""
        return self._concat("row_concat", tensors, axis=0)

    def row_gather(self, a: Tensor, idx) -> Tensor:
        """Select rows by index; repeated indices accumulate gradient."""
        self._check_operand(a)
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
            raise IndexError(f"row_gather index out of range for {a.rows} rows")
        out = a.data[idx]
        n = a.rows

        def rule(g):
            # the scatter matrix (n, m) with a one at (idx[j], j), by scipy's
            # counting-sort COO to CSR conversion: row r holds r's positions
            # in idx, ascending
            m = idx.size
            indptr = np.empty(n + 1, dtype=np.int64)
            positions = np.empty(m, dtype=np.int64)
            ones = np.empty(m, dtype=g.dtype)
            _sparsetools.coo_tocsr(n, m, m, idx, np.arange(m, dtype=np.int64),
                                   np.ones(m, dtype=g.dtype), indptr, positions, ones)
            return _csr_product(indptr, positions, ones, g)

        return self._record("row_gather", out, (a,), (rule,), copies=True)

    def dropout(self, a: Tensor, p: float, rng) -> Tensor:
        """Inverted dropout: keep with prob 1-p, scale kept entries by 1/(1-p).

        p=0 is the exact identity. p=1 is rejected.
        """
        self._check_operand(a)
        p = float(p)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        if p == 0.0:
            mask = np.ones_like(a.data)
        else:
            keep = rng.random(a.shape) >= p
            mask = keep.astype(a.data.dtype) / a.data.dtype.type(1.0 - p)
        out = a.data * mask
        return self._record("dropout", out, (a,), (lambda g: g * mask,))

    def sum(self, a: Tensor) -> Tensor:
        self._check_operand(a)
        out = np.array([[a.data.sum()]], dtype=a.data.dtype)
        shape = a.shape
        return self._record("sum", out, (a,), (lambda g: np.full(shape, g[0, 0], dtype=g.dtype),))

    def sumsq(self, a: Tensor) -> Tensor:
        """Sum of squared entries, (n, d) -> (1, 1)."""
        self._check_operand(a)
        ad = a.data
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array([[(ad * ad).sum()]], dtype=ad.dtype)

        return self._record("sumsq", out, (a,), (lambda g: ad * (2 * g),))

    def mean(self, a: Tensor) -> Tensor:
        self._check_operand(a)
        out = np.array([[a.data.mean()]], dtype=a.data.dtype)
        shape = a.shape
        n = a.data.size
        return self._record("mean", out, (a,),
                            (lambda g: np.full(shape, g[0, 0] / n, dtype=g.dtype),))

    def rowsum(self, a: Tensor) -> Tensor:
        """Sum along columns, shape (n, d) -> (n, 1)."""
        self._check_operand(a)
        out = a.data.sum(axis=1, keepdims=True)
        cols = a.cols
        return self._record("rowsum", out, (a,), (lambda g: np.repeat(g, cols, axis=1),))

    def softmax(self, a: Tensor) -> Tensor:
        """Row-wise softmax with max-shift stabilization."""
        self._check_operand(a)
        shifted = a.data - a.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=1, keepdims=True)

        def rule(g):
            dot = (g * out).sum(axis=1, keepdims=True)
            return out * (g - dot)

        return self._record("softmax", out, (a,), (rule,))

    def stop_gradient(self, a: Tensor) -> Tensor:
        """Identity forward; blocks all gradient flow: the result has no inputs."""
        self._check_operand(a)
        return self._record("stop_gradient", a.data.copy(), (), (), copies=True)

    def cosine_similarity(self, a: Tensor, b: Tensor) -> Tensor:
        """Row-wise cosine, shape (n, d) x (n, d) -> (n, 1).

        Composed from l2_normalize, mul and rowsum, so a row that is all zero
        on either side yields cosine 0.
        """
        an = self.l2_normalize(a)
        bn = self.l2_normalize(b)
        return self.rowsum(self.mul(an, bn))

