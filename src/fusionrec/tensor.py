"""Dense/sparse 2-D linear algebra with tape-based reverse-mode gradients.

Everything is a (rows, cols) matrix; scalars are 1x1. Working precision is
float32; the test suite runs the same graphs in float64 when it compares
analytic gradients against central finite differences. Every primitive,
casts included, and backward run under np.errstate(all="ignore"), so numpy
warns of nothing and a finiteness check is the one float-error signal. On a
checked tape, Tape(), the default, any operation that produces NaN or Inf
raises NonFiniteError naming it instead of letting the value propagate: each
result is checked (_record), and so is every gradient backward forms and
sums. An unchecked tape, Tape(checked=False), skips those two checks, and
one helper builds it: checked_once(run, finite) records run on an unchecked
tape, checks its result once, and replays a run that fails on a checked tape
to name the primitive. schema.train_loop runs each training batch through
it, checking the loss and every parameter's gradient, and
models.base.RecommenderModel.embed each scoring pass, checking its two
arrays. So in training and scoring a non-finite intermediate that a later
primitive absorbs passes, where a checked tape raises: sigmoid(inf) is 1,
exp(-inf) is 0, relu(-inf) is 0, x / inf is 0, and row_gather may skip a
non-finite row. Four checks hold on either tape:
l2_normalize's check of each row's norm (x / inf would be a finite zero
row), Tensor._accumulate_grad's check of a sum or a narrowing cast,
SparseMatrix's check of its values, and the optimizers' post-step checks
(training.Adam, training.SGD).

schema.train_loop runs each epoch's batches inside flush_to_zero(), which
sets the SSE flush-to-zero and denormals-are-zero bits, so every primitive
and rule takes a subnormal as 0 and pays no microcode assist for it. The
bits are per thread: an OpenBLAS worker or rank_topk's pool is not flushed.
Machines other than x86-64 compute subnormals in full; no second flush path.

Gradients go only where they can reach a parameter. A leaf needs a gradient
when it has requires_grad; a tape result needs one when any of its inputs
does, except stop_gradient's, which has no inputs. Each primitive records one
gradient rule per input, and backward alone decides which rules run: the rule
of an input that needs no gradient never runs, so a constant operand, such as
a gathered block of a constant feature matrix, costs nothing in backward.

Each family of primitives records through one private body: _unary serves
scale, sigmoid, softplus, log, exp, relu, sum, sumsq, mean, rowsum and
softmax, and, through _masked, which builds one mask after the operand
check, leaky_relu and dropout; _binary, given which operand shapes meet,
serves add, sub, mul, div, maximum, matmul, matmul_nt and entry_dot, and,
through _spmm, spmm_weighted and spmm, whose values are the matrix's stored
ones as a constant, cast to the dense dtype once per matrix
(SparseMatrix.cast). entry_dot, the sampled product a[row] . b[col] over a
matrix's stored entries, and the value gradient of spmm_weighted, which is
one, share one body (_entry_dot).
Every sum of an elementwise product is a row dot, row i of a with row i
of b, through one helper (_row_dot): one BLAS dot per row (np.vecdot), with
a strided row copied first, so its bits depend on the values alone. It serves
_entry_dot's blocks, l2_normalize's squared norms and its rule, softmax's
rule, and sumsq, as one row of all the entries; that row is long enough
for a multithreaded BLAS to split, which can change only sumsq's value,
and no gradient.
l2_normalize, row_gather, the concatenations and stop_gradient record on
their own. Every sparse product and every scatter is one call into scipy's
CSR or CSC product kernel (_csr_product) on one layout: a SparseMatrix is
its own CSR, from one counting sort (entry_order), and x's gradient reads
it as the CSC of the transpose; row_gather's scatter reads its indices as
the CSC of the scatter matrix. Each output row adds its terms in stored order.

Backward owns the gradients it allocates and the new arrays returned by
sumsq's rule and the rules that call _csr_product, and sums a tensor's later
gradients into an owned one in place. A product that puts at most one term
in each of its input's rows (row_gather over strictly increasing indices,
such as np.unique's or an arange; entry_dot's first operand over a structure
with at most one entry per row, such as bpr_on_rows' patterns) adds straight
into the owned gradient its input holds, through _csr_product's out=, not
into zeros that backward then adds. Each entry is still one rounding of
held + term, so gradients are bitwise those of summing every contribution
into a new array, but for one case: a -0 the held gradient carries stays -0
in a row the product leaves alone or adds -0 to, where that sum gives +0.

Importing this module pins glibc malloc's mmap threshold and turns heap
trimming off for the whole process (_pin_malloc_thresholds), so a training
batch reuses the heap the previous one freed instead of faulting it in again.
"""

from __future__ import annotations

import contextlib
import platform

import numpy as np
import scipy.sparse
# scipy's compiled sparse kernels (a private module): csr_matvecs and
# csc_matvecs run csr_matrix and csc_matrix @ dense, coo_tocsr the COO to CSR
# sort; calling them directly skips the matrix build, checks and dispatch
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

    def _accumulate_grad(self, g, owned):
        """Add g, in the leaf's dtype, to grad; a sum or a narrowing cast must
        stay finite, or grad is left as it was. An `owned` g, which no one
        else holds, becomes grad as it is when grad is empty."""
        if self.grad is not None or g.dtype != self.data.dtype:
            g, owned = g.astype(self.data.dtype, copy=False), True
            g = g if self.grad is None else self.grad + g
            if not np.isfinite(g).all():
                raise NonFiniteError("backward: accumulated gradient is not finite")
        self.grad = g if owned else g.copy()

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def parameter(data, dtype=np.float32):
    return Tensor(data, requires_grad=True, dtype=dtype)


def constant(data, dtype=np.float32):
    return Tensor(data, requires_grad=False, dtype=dtype)


def _csr_product(shape, indptr, indices, data, x, transposed=False, out=None):
    """A @ x, or A.T @ x when transposed, in x's dtype, for the shape CSR
    matrix A = (data, indices, indptr). Each output row is summed in data
    order, A.T's row c in the order of A's rows, by scipy's kernel behind
    `csr_matrix @ x` (A.T: `csc_matrix @ x`), bit for bit: from zero into a
    new array, or, given `out`, onto out's row in place, term by term, and
    out is returned. out must be C-contiguous and of x's dtype and the
    product's shape, since the kernel writes through out.ravel(), which for
    any other layout is a copy that would drop the sum."""
    x = np.ascontiguousarray(x)
    rows = shape[1 if transposed else 0]
    if out is None:
        out = np.zeros((rows, x.shape[1]), dtype=x.dtype)
    elif (out.shape != (rows, x.shape[1]) or out.dtype != x.dtype
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous {x.dtype} array of shape "
                         f"{(rows, x.shape[1])}, got {out.dtype} {out.shape}")
    kernel = _sparsetools.csc_matvecs if transposed else _sparsetools.csr_matvecs
    kernel(out.shape[0], x.shape[0], x.shape[1], indptr, indices,
           data.astype(x.dtype, copy=False), x.ravel(), out.ravel())
    return out


def _sigmoid(x):
    """Elementwise 1 / (1 + exp(-x)); exp(x) / (1 + exp(x)) where x < 0, so
    no exp overflows. One exp(-|x|) serves both forms: the numerator,
    max(x >= 0, e), is 1 where x >= 0 and e elsewhere, with no per-entry
    branch or boolean index."""
    e = np.exp(-np.abs(x))
    return np.maximum(x >= 0, e) / (1.0 + e)


def _bucket(keys, n_buckets):
    """(indptr, order): order[indptr[b]:indptr[b + 1]] are the positions of
    int64 key b in [0, n_buckets), ascending, by scipy's COO to CSR sort."""
    m = keys.size
    positions = np.arange(m, dtype=np.int64)
    indptr, order = np.empty(n_buckets + 1, dtype=np.int64), np.empty_like(positions)
    _sparsetools.coo_tocsr(n_buckets, m, m, keys, positions, positions,
                           indptr, order, np.empty_like(positions))
    return indptr, order


def entry_order(shape, rows, cols):
    """(indptr, order): int64 coordinates stably sorted by (row, col), two
    _bucket passes; indptr is the CSR row pointer of rows[order]."""
    if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                      or cols.min() < 0 or cols.max() >= shape[1]):
        raise ValueError("sparse coordinate out of bounds")
    by_col = _bucket(cols, shape[1])[1]
    indptr, by_row = _bucket(rows[by_col], shape[0])
    return indptr, by_col[by_row]


def _row_dot(a, b, out=None):
    """(n,): entry i is a[i] . b[i] for (n, d) a and b, one BLAS dot per row
    (np.vecdot), in the operands' result dtype, into `out` when given. An
    operand whose rows are strided is copied to C order first, since on such
    rows np.vecdot runs numpy's own loop, which sums in another order; so the
    bits depend on the values alone, not on layout or offset."""
    a, b = (x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x)
            for x in (a, b))
    return np.vecdot(a, b, out=out)


# stored entries per block of the sampled product a[row] . b[col]; of 256 to
# 4,096, 512 was fastest on GRCN's 192-wide value gradient
VALUE_GRAD_BLOCK = 512


def _entry_dot(structure, a, b):
    """(nnz, 1): row k is a[r] . b[c] for structure's k-th stored entry
    (r, c), in the operands' result dtype, VALUE_GRAD_BLOCK entries at a
    time, never nnz x width."""
    rows, cols = structure.rows, structure.cols
    out = np.empty((rows.size, 1), dtype=np.result_type(a, b))
    for lo in range(0, rows.size, VALUE_GRAD_BLOCK):
        hi = lo + VALUE_GRAD_BLOCK
        _row_dot(a[rows[lo:hi]], b[cols[lo:hi]], out=out[lo:hi, 0])
    return out


class SparseMatrix:
    """Immutable sparse matrix in CSR form.

    Triples are stored in entry_order, by (row, col), with unique
    coordinates and finite float64 values, which the tape's sparse products
    cast to the dense operand's dtype. (indptr, cols, vals) is the CSR, its
    data order the stored order, and the CSC of the transpose: one layout.
    """

    __slots__ = ("shape", "rows", "cols", "vals", "indptr", "_cast", "_operand")

    def __init__(self, shape, rows, cols, vals):
        n, m = int(shape[0]), int(shape[1])
        if n <= 0 or m <= 0:
            raise ValueError(f"sparse shape must be positive, got {shape}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be equal-length 1-D arrays")
        indptr, order = entry_order((n, m), rows, cols)
        rows, cols, vals = rows[order], cols[order], vals[order]
        same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if same.any():
            k = int(np.flatnonzero(same)[0])
            raise ValueError(f"duplicate sparse coordinate ({rows[k]}, {cols[k]})")
        if not np.isfinite(vals).all():
            raise NonFiniteError("sparse values must be finite")
        self.shape = (n, m)
        self.rows, self.cols, self.vals, self.indptr = rows, cols, vals, indptr
        self._cast, self._operand = {}, None

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr)
        r, c = np.nonzero(arr)
        return cls(arr.shape, r, c, arr[r, c])

    @property
    def nnz(self):
        return int(self.vals.size)

    def csr(self):
        """A scipy csr_matrix over the stored arrays, built on each call."""
        return scipy.sparse.csr_matrix((self.vals, self.cols, self.indptr),
                                       shape=self.shape)

    def cast(self, dtype):
        """vals as dtype, in stored order, cached per dtype. A first call
        casts, so Tape.spmm makes it under the tape's float-error policy."""
        dtype = np.dtype(dtype)
        if dtype not in self._cast:
            self._cast[dtype] = self.vals.astype(dtype, copy=False)
        return self._cast[dtype]

    def operand(self):
        """vals as an (nnz, 1) float64 constant, built once: Tape.spmm's
        value operand."""
        if self._operand is None:
            self._operand = constant(self.vals[:, None], dtype=np.float64)
        return self._operand

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def _broadcast_clash(sa, sb):
    """Why shapes sa and sb do not broadcast against each other, if they do not."""
    if any(p != q and 1 not in (p, q) for p, q in zip(sa, sb)):
        return f"shapes {sa} and {sb} do not broadcast"


def _unbroadcast(g, shape):
    # reduce a broadcasted gradient back to the operand's shape
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# what a rule returns (_Node.kinds): VIEW, an array that may share memory with
# its incoming gradient g, which backward never writes; FRESH, a new array;
# INTO, a new array from a product with at most one term per row, or, when
# backward calls rule(g, held=h) with an owned C-contiguous gradient h of g's
# dtype that the input holds, h with that product added in
VIEW, FRESH, INTO = 0, 1, 2


class _Node:
    """One recorded primitive: rules[i](g) is the gradient for inputs[i],
    an array of kind kinds[i]."""

    __slots__ = ("name", "inputs", "out", "rules", "kinds")

    def __init__(self, name, inputs, out, rules, kinds):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.rules = rules
        self.kinds = kinds


class Tape:
    """Ordered record of executed primitives, replayed in reverse exactly once.

    Results belong to the tape that made them; using one after reset() (or on
    a different tape) raises. Leaves (parameters, constants) are tape-free and
    may appear anywhere. backward() drops each recorded node once its rules
    have run, and reset() drops them all, so the arrays a node's rules
    captured are freed as the pass goes on, a replayed or reset tape holds
    nothing, and no cycle through it keeps arrays.

    A checked tape raises NonFiniteError at the first primitive whose result,
    or backward gradient sum, is not finite. An unchecked one (checked=False)
    checks neither, so its caller checks what it reads: checked_once checks
    its run's result once and replays a failing run on a checked tape, which
    names the primitive.
    """

    def __init__(self, checked=True):
        self.checked = bool(checked)
        self._nodes = []
        self._gen = 0
        self._spent = False

    # -- bookkeeping ------------------------------------------------------

    def _check_operand(self, t):
        if not isinstance(t, Tensor):
            raise TypeError(f"expected Tensor, got {type(t).__name__}")
        if t._tape is not None and (t._tape is not self or t._gen != self._gen):
            raise TapeError("operand belongs to a reset or foreign tape")

    def _record(self, name, out_arr, inputs, rules, copies=False, kinds=None):
        # copies of checked results or leaves (ModelData, optimizer) stay
        # finite; a rule's gradient is a VIEW unless `kinds` says otherwise
        if self.checked and not copies and not np.isfinite(out_arr).all():
            raise NonFiniteError(f"{name} produced non-finite values")
        out = Tensor.__new__(Tensor)
        out.data = out_arr
        out.requires_grad = False
        out.grad = None
        out._tape = self
        out._gen = self._gen
        out._needs = any(t.needs_grad for t in inputs)
        self._nodes.append(_Node(name, inputs, out, rules,
                                 kinds or (VIEW,) * len(inputs)))
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
        for an input runs only when that input needs a gradient. On a checked
        tape a rule's gradient, summed into its input's gradient, must stay
        finite, or NonFiniteError names the node.
        """
        if self._spent:
            raise TapeError("tape already replayed; reset() before reuse")
        self._check_operand(loss)
        if loss._tape is not self:
            raise TapeError("loss was not computed on this tape")
        if loss.shape != (1, 1):
            raise TapeError(f"loss must be 1x1, got {loss.shape}")
        self._spent = True
        # id -> (tensor, gradient, whether backward owns it: an array it
        # allocated or a FRESH or INTO result). A second gradient is summed
        # in place: an INTO rule adds into the owned gradient it is handed,
        # any other into whichever array backward owns, or a new one.
        grads = {id(loss): (loss, np.ones((1, 1), dtype=loss.data.dtype), False)}
        with np.errstate(all="ignore"):
            # each node is dropped as it is passed, so the arrays its rules
            # captured are freed before the earlier nodes run
            while self._nodes:
                node = self._nodes.pop()
                entry = grads.pop(id(node.out), None)
                if entry is None:
                    continue
                for t, rule, kind in zip(node.inputs, node.rules, node.kinds):
                    if not t.needs_grad:
                        continue
                    g, prev = entry[1], grads.get(id(t))
                    held = prev[1] if prev is not None and prev[2] else None
                    if (kind == INTO and held is not None and held.dtype == g.dtype
                            and held.flags.c_contiguous):
                        g = rule(g, held=held)
                    else:
                        g = rule(g)
                    if prev is not None and g is not held:
                        # in place only where both are of one dtype, so no sum is cast
                        into = None
                        if g.dtype == prev[1].dtype:
                            into = held if held is not None else (g if kind else None)
                        g = np.add(prev[1], g, out=into)
                    if self.checked and not np.isfinite(g).all():
                        raise NonFiniteError(
                            f"backward of {node.name} produced non-finite values")
                    grads[id(t)] = (t, g, kind != VIEW or prev is not None)
            for t, g, owned in grads.values():
                if t.requires_grad:
                    t._accumulate_grad(g, owned)

    # -- primitives -------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary(
            "matmul", a, b, np.matmul, lambda g, ad, bd: g @ bd.T,
            lambda g, ad, bd: ad.T @ g,
            lambda sa, sb: sa[1] != sb[0] and f"inner dims differ, {sa} x {sb}")

    def spmm(self, m: SparseMatrix, x: Tensor) -> Tensor:
        """Sparse-dense product m @ x. The sparse operand is a constant:
        spmm_weighted's product with m's stored float64 values, which forward
        and backward both read cast to the dense dtype once per graph (m.cast)."""
        return self._spmm("spmm", m, m.operand(), x, stored=True)

    def spmm_weighted(self, structure: SparseMatrix, vals: Tensor, x: Tensor) -> Tensor:
        """Like spmm but edge values come from an (nnz, 1) tensor; gradients
        flow into both the edge values and the dense operand. The coordinate
        structure itself is fixed."""
        return self._spmm("spmm_weighted", structure, vals, x)

    def _spmm(self, name, structure, vals, x, stored=False):
        """structure @ x with live values: row i of `vals` is the i-th stored
        (row, col) entry, the CSR's i-th data entry, so the product and x's
        gradient, the transposed product, run on (indptr, cols, vals). With
        `stored`, both read structure's own values from structure.cast. The
        value gradient is the sampled product g[row] . x[col] (_entry_dot)."""
        def clash(sv, sx):
            if sv != (structure.nnz, 1):
                return f"values must be ({structure.nnz}, 1), got {sv}"
            return sx[0] != structure.shape[1] and (
                f"inner dims differ, {structure.shape} x {sx}")

        def product(vd, xd, transposed=False):
            data = structure.cast(xd.dtype) if stored else vd[:, 0]
            return _csr_product(structure.shape, structure.indptr, structure.cols,
                                data, xd, transposed)

        return self._binary(name, vals, x, product,
                            lambda g, vd, xd: _entry_dot(structure, g, xd),
                            lambda g, vd, xd: product(vd, g, transposed=True), clash,
                            kinds=(VIEW, FRESH))

    def entry_dot(self, structure: SparseMatrix, a: Tensor, b: Tensor) -> Tensor:
        """Sampled dense-dense product, (nnz, 1): row k is a[r] . b[c] for
        structure's k-th stored entry (r, c); its values are not read. a has
        structure.shape[0] rows and b structure.shape[1], of one width; a may
        be b. The gradients are structure's products with g as its values,
        g @ b into a and its transpose, g.T @ a, into b, so no nnz x width
        array is formed in either pass. Over a structure with at most one
        entry per row, such as bpr_on_rows' patterns, a's product puts one
        term in each row, so it can add into a gradient a already holds."""
        def clash(sa, sb):
            if (sa[0], sb[0]) != structure.shape:
                return f"operand rows {sa[0]} and {sb[0]} do not match {structure.shape}"
            return sa[1] != sb[1] and f"column dims differ, {sa} x {sb}"

        csr = (structure.shape, structure.indptr, structure.cols)
        one_per_row = bool((np.diff(structure.indptr) <= 1).all())
        return self._binary(
            "entry_dot", a, b, lambda ad, bd: _entry_dot(structure, ad, bd),
            lambda g, ad, bd, held=None: _csr_product(
                *csr, g[:, 0], bd, out=held if bd.dtype == g.dtype else None),
            lambda g, ad, bd: _csr_product(*csr, g[:, 0], ad, transposed=True),
            clash, kinds=(INTO if one_per_row else FRESH, FRESH))

    def _binary(self, name, a, b, op, rule_a, rule_b, clash=_broadcast_clash,
                kinds=None):
        """Record op(ad, bd) on the operands' arrays. clash(sa, sb) says why
        shapes sa and sb cannot meet, or is falsy when they can. rule_a(g, ad,
        bd) and rule_b(g, ad, bd) give each operand's gradient, of kinds[i],
        from the arrays captured here; a broadcast one is summed back to its
        operand's shape. An INTO rule also takes backward's held=."""
        self._check_operand(a)
        self._check_operand(b)
        sa, sb = a.shape, b.shape
        if why := clash(sa, sb):
            raise ValueError(f"{name}: {why}")
        ad, bd = a.data, b.data
        with np.errstate(all="ignore"):
            out = op(ad, bd)
        return self._record(name, out, (a, b),
                            (lambda g, **into: _unbroadcast(rule_a(g, ad, bd, **into), sa),
                             lambda g, **into: _unbroadcast(rule_b(g, ad, bd, **into), sb)),
                            kinds=kinds)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary("add", a, b, np.add,
                            lambda g, ad, bd: g, lambda g, ad, bd: g)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary("sub", a, b, np.subtract,
                            lambda g, ad, bd: g, lambda g, ad, bd: -g)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary("mul", a, b, np.multiply,
                            lambda g, ad, bd: g * bd, lambda g, ad, bd: g * ad)

    def div(self, a: Tensor, b: Tensor) -> Tensor:
        return self._binary("div", a, b, np.divide, lambda g, ad, bd: g / bd,
                            lambda g, ad, bd: -g * ad / (bd * bd))

    def _unary(self, name, a, forward, rule, kind=VIEW):
        """Record forward(x) on the operand's array x. rule(g, x, out) gives
        the operand's gradient, of `kind`, from x and the output captured here."""
        self._check_operand(a)
        x = a.data
        with np.errstate(all="ignore"):
            out = forward(x)
        return self._record(name, out, (a,), (lambda g: rule(g, x, out),),
                            kinds=(kind,))

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._unary("scale", a, lambda x: x * x.dtype.type(c),
                           lambda g, x, out: g * g.dtype.type(c))

    def sigmoid(self, a: Tensor) -> Tensor:
        return self._unary("sigmoid", a, _sigmoid,
                           lambda g, x, out: g * out * (1.0 - out))

    def softplus(self, a: Tensor) -> Tensor:
        """ln(1 + exp(x)), computed stably; its derivative is sigmoid(x)."""
        return self._unary(
            "softplus", a, lambda x: np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x))),
            lambda g, x, out: g * _sigmoid(x))

    def log(self, a: Tensor) -> Tensor:
        return self._unary("log", a, np.log, lambda g, x, out: g / x)

    def exp(self, a: Tensor) -> Tensor:
        return self._unary("exp", a, np.exp, lambda g, x, out: g * out)

    def relu(self, a: Tensor) -> Tensor:
        return self._unary("relu", a, lambda x: np.maximum(x, 0),
                           lambda g, x, out: g * (x > 0).astype(x.dtype))

    def _masked(self, name, a, make_mask):
        """Record x * mask through _unary, with mask = make_mask(x) built
        once, after the operand check; the operand's gradient is g * mask."""
        self._check_operand(a)  # before make_mask reads x or draws from an rng
        mask = make_mask(a.data)
        return self._unary(name, a, lambda x: x * mask, lambda g, x, out: g * mask)

    def leaky_relu(self, a: Tensor, slope=0.2) -> Tensor:
        # x * 1 is x, so the gradient's mask also gives the output; the mask
        # is a lookup in the table (slope, 1) by x > 0, which, unlike
        # np.where, takes no per-entry branch on mixed-sign x
        slope = float(slope)
        return self._masked("leaky_relu", a, lambda x: np.array(
            [slope, 1.0], dtype=x.dtype).take((x > 0).view(np.uint8)))

    def maximum(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise max; on ties the gradient goes to the first operand."""
        return self._binary(
            "maximum", a, b, np.maximum,
            lambda g, ad, bd: g * (ad >= bd).astype(ad.dtype),
            lambda g, ad, bd: g * (1.0 - (ad >= bd).astype(ad.dtype)))

    def l2_normalize(self, a: Tensor) -> Tensor:
        """Row-wise x / ||x||; all-zero rows stay zero (zero gradient there).
        A row whose squared norm is not finite raises NonFiniteError, and a
        nonzero one whose squared norm underflows is scaled by its peak first."""
        self._check_operand(a)
        x = a.data
        with np.errstate(all="ignore"):
            norm = np.sqrt(_row_dot(x, x))[:, None]
            if not np.isfinite(norm).all():
                raise NonFiniteError("l2_normalize: a row's squared norm is not finite")
            if not norm.all():
                peak = np.abs(x).max(axis=1, keepdims=True, initial=0)
                s = x / np.where(peak > 0, peak, 1.0)
                rescaled = np.sqrt(_row_dot(s, s))[:, None] * peak
                norm = np.where(norm > 0, norm, rescaled)
            nonzero = norm > 0
            all_nonzero = nonzero.all()
            safe = norm if all_nonzero else np.where(nonzero, norm, 1.0)
            out = x / safe

        def rule(g):
            ga = (g - _row_dot(g, out)[:, None] * out) / safe
            return ga if all_nonzero else np.where(nonzero, ga, 0.0)

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
        return self._binary(
            "matmul_nt", a, b, lambda ad, bd: ad @ bd.T, lambda g, ad, bd: g @ bd,
            lambda g, ad, bd: g.T @ ad,
            lambda sa, sb: sa[1] != sb[1] and f"column dims differ, {sa} x {sb}")

    def row_concat(self, tensors) -> Tensor:
        """Stack tensors with equal column counts, top to bottom."""
        return self._concat("row_concat", tensors, axis=0)

    def row_gather(self, a: Tensor, idx) -> Tensor:
        """Select rows by index; repeated indices accumulate gradient. With
        strictly increasing indices, such as np.unique's or an arange, each
        of a's rows gets at most one term, so the scatter can add into a
        gradient a already holds."""
        self._check_operand(a)
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
            raise IndexError(f"row_gather index out of range for {a.rows} rows")
        out = a.data[idx]
        shape = (idx.size, a.rows)
        increasing = bool((idx[1:] > idx[:-1]).all())

        def rule(g, held=None):
            # a[idx] is G @ a for G with a one at (j, idx[j]), whose CSR this is
            indptr = np.arange(idx.size + 1, dtype=np.int64)
            return _csr_product(shape, indptr, idx, np.ones(idx.size, dtype=g.dtype),
                                g, transposed=True, out=held)

        return self._record("row_gather", out, (a,), (rule,), copies=True,
                            kinds=(INTO if increasing else FRESH,))

    def dropout(self, a: Tensor, p: float, rng) -> Tensor:
        """Inverted dropout: keep with prob 1-p, scale kept entries by 1/(1-p).
        p=0 is the exact identity; p=1 is rejected."""
        p = float(p)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        return self._masked("dropout", a, lambda x: np.ones_like(x) if p == 0.0 else (
            rng.random(x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p))

    def sum(self, a: Tensor) -> Tensor:
        return self._unary(
            "sum", a, lambda x: np.array([[x.sum()]], dtype=x.dtype),
            lambda g, x, out: np.full(x.shape, g[0, 0], dtype=g.dtype))

    def sumsq(self, a: Tensor) -> Tensor:
        """Sum of squared entries, (n, d) -> (1, 1)."""
        return self._unary(
            "sumsq", a, lambda x: _row_dot(x.reshape(1, -1), x.reshape(1, -1))[:, None],
            lambda g, x, out: x * (2 * g), kind=FRESH)

    def mean(self, a: Tensor) -> Tensor:
        return self._unary(
            "mean", a, lambda x: np.array([[x.mean()]], dtype=x.dtype),
            lambda g, x, out: np.full(x.shape, g[0, 0] / x.size, dtype=g.dtype))

    def rowsum(self, a: Tensor) -> Tensor:
        """Sum along columns, shape (n, d) -> (n, 1)."""
        return self._unary("rowsum", a, lambda x: x.sum(axis=1, keepdims=True),
                           lambda g, x, out: np.repeat(g, x.shape[1], axis=1))

    def softmax(self, a: Tensor) -> Tensor:
        """Row-wise softmax with max-shift stabilization."""
        def forward(x):
            e = np.exp(x - x.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        return self._unary("softmax", a, forward, lambda g, x, out: out * (
            g - _row_dot(g, out)[:, None]))

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


def checked_once(run, finite):
    """run(tape) on an unchecked tape, checked once at the end: when
    finite(result) is false, or the run raises NonFiniteError (a check that
    holds on any tape), run(Tape()) again on a checked tape, which raises at
    the first non-finite primitive, and return that result. run must give
    the same values on both tapes, so one that draws from an rng restores
    its state first."""
    try:
        out = run(Tape(checked=False))
        if finite(out):
            return out
    except NonFiniteError:
        pass
    return run(Tape())


def _pin_malloc_thresholds():
    """Pin glibc malloc's mmap threshold where its adaptive rule ends,
    32 MiB, and turn heap trimming off, for the whole process, so no batch
    gives its heap back to the kernel and faults it in again: the rule
    learns only from the largest block freed, under 1 MB on a small corpus,
    and an Office batch frees over 64 MiB of heap (MMGCN), 128 MiB (GRCN).
    Blocks of 32 MiB or more are still unmapped when freed. Returns whether
    both were set; a C library without mallopt is left alone, and a call
    that returns 0 stops the rest.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
                and mallopt(-1, -1))  # M_TRIM_THRESHOLD: never trim


_pin_malloc_thresholds()


@contextlib.contextmanager
def flush_to_zero():
    """Set the calling thread's mxcsr flush-to-zero and denormals-are-zero bits
    (|= 0x8040) for the scope and restore its float environment on any exit. A no-op
    off x86-64, if fegetenv fails, or if mxcsr (fenv_t bytes 28-31) lacks a mask bit."""
    import ctypes
    saved = ctypes.create_string_buffer(32)  # sizeof(fenv_t) on x86-64 glibc
    try:
        libc = ctypes.CDLL(None)
        for fn in (libc.fegetenv, libc.fesetenv):
            fn.argtypes, fn.restype = (ctypes.c_char_p,), ctypes.c_int
        read = platform.machine() == "x86_64" and libc.fegetenv(saved) == 0
    except (AttributeError, OSError, TypeError):
        read = False
    flushed = ctypes.create_string_buffer(saved.raw, 32)
    mxcsr = ctypes.c_uint32.from_buffer(flushed, 28)
    if read and mxcsr.value & 0x1f80 == 0x1f80:
        mxcsr.value |= 0x8040
        libc.fesetenv(flushed)
    try:
        yield
    finally:
        if flushed.raw != saved.raw:
            libc.fesetenv(saved)
