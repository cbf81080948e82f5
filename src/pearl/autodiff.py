"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Tape-based: each op closes over what its backward needs; backward() walks a
topological order of the graph and accumulates adjoints.  First-order only.
backward() consumes the graph, its intermediate values too: before the walk
it sets .values to None on every node it will visit except the loss and the
leaves, and once a node has passed its gradients on, its closure and parent
links are dropped, so reference counting frees each activation as soon as
no closure still needs it (no node refers back to a child), and a second
backward() on the same loss is an error.  So a kernel's backward closure
captures the arrays and shapes it needs, never an input Tensor (the tests
run every case of gradsuite.CASES on intermediate inputs), and may
overwrite an array that only it still holds: tanh's writes its gradient
into its own output, whose consumers have all run by then.  Kernels
preserve the input dtype, forward and backward (the tests run every case
of gradsuite.CASES on float32), so a float64 graph can be built for
finite-difference checks while models run in float32: constants are
Python floats, which NumPy does not let promote.  `matmul`, `affine` and
`transpose` take 2-D arrays only.  `attention` is one node for a layer's
whole multi-head step, from the tokens h and the fused projection wqkv; the
graph keeps only those two, and its backward recomputes the projection and
each head's probabilities, head by head.  `affine` is a linear layer,
`add(matmul(x, w), b)`, as one node, bit-identical to the pair, that keeps x
and w where the pair also keeps the product x @ w.  `row_blocks` runs a
row-wise sub-network on blocks of rows as one node that keeps only its
input and parameters, and recomputes each block in its backward.  Inside
`no_grad()` kernels record no parents and no backward closure, so inference
builds no tape.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import PearlError

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
_LAYER_NORM_EPS = 1e-5
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_grad_enabled = True


class Tensor:
    """Dense array plus optional gradient and graph linkage."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, values, requires_grad=False, dtype=None):
        self.values = np.asarray(values, dtype=dtype)
        if self.values.dtype not in (np.float32, np.float64):
            self.values = self.values.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self):
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


@contextmanager
def _grad_mode(enabled):
    """Within the block, kernels record a graph exactly when `enabled` is true."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, enabled
    try:
        yield
    finally:
        _grad_enabled = previous


def no_grad():
    """Within the block, kernel outputs keep no graph and never require grad."""
    return _grad_mode(False)


def _node(values, parents, backward_fn):
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g.astype(t.values.dtype, copy=False)


def backward(loss):
    """Populate .grad for every requires_grad ancestor of a scalar loss, and
    consume its graph (a second call on it is a PearlError): afterwards only
    the loss and the leaves have .values.  .grad accumulates across graphs
    until it is zeroed."""
    if loss.values.size != 1:
        raise PearlError(f"backward requires a scalar loss, got shape {loss.shape}")
    # the loss gets a copy of its value, which a closure may overwrite (tanh's
    # does); every other intermediate value lives on only in the closures
    loss.values = loss.values.copy()
    _walk(loss, np.ones_like(loss.values))


def _walk(out, g):
    """Backpropagate the gradient `g` at `out` through its graph, consuming
    the graph and the values of every node in it but `out` and the leaves."""
    topo = _post_order(out) if out.requires_grad else []
    for t in topo:
        if t._backward is not None and t is not out:
            t.values = None
    adjoint = {id(out): g}
    while topo:
        _propagate(topo.pop(), adjoint)


def _post_order(loss):
    """The requires_grad ancestors of `loss`, itself included, each after all
    of its parents.  A function of its own, so that the walk's last nodes die
    when it returns."""
    # depth-first on an explicit stack: no recursion limit, and no
    # self-referencing closure whose cycle would keep the graph alive after
    # return until the cyclic garbage collector runs
    topo, seen = [], {id(loss)}
    stack = [(loss, _parents_of(loss))]
    while stack:
        t, parents = stack[-1]
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, _parents_of(p)))
                break
        else:
            stack.pop()
            topo.append(t)
    return topo


def _propagate(t, adjoint):
    """Pass node t's gradient in `adjoint` on to its parents, or into .grad at
    a leaf, then drop t's closure and parent links, whether or not it got a
    gradient.  A function of its own, so that t dies when it returns."""
    g = adjoint.pop(id(t), None)
    if t._backward is None:
        if g is not None:
            _accumulate(t, g)
        return
    for p, pg in zip(t._parents, () if g is None else t._backward(g)):
        if pg is None or not p.requires_grad:
            continue
        if id(p) in adjoint:
            adjoint[id(p)] = adjoint[id(p)] + pg
        else:
            adjoint[id(p)] = pg
    t._backward, t._parents = None, None


def _parents_of(t):
    """An iterator over the parents of `t`, unless `backward` consumed them."""
    if t._parents is None:
        raise PearlError("backward already consumed this graph; build the loss again")
    return iter(t._parents)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _check_matmul(name, a, b):
    """Refuse operands that kernel `name` cannot multiply as a @ b."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise PearlError(f"{name} shape mismatch: {a.shape} x {b.shape}")


def _matmul_bw(g, av, bv, need_a, need_b):
    """The gradients at av and bv of av @ bv given `g` at the product; an
    operand that needs no gradient gets None, not a product nobody reads."""
    return g @ bv.T if need_a else None, av.T @ g if need_b else None


def matmul(a, b):
    """(n, k) @ (k, m)."""
    _check_matmul("matmul", a, b)
    av, bv = a.values, b.values
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return _matmul_bw(g, av, bv, need_a, need_b)

    return _node(av @ bv, (a, b), bw)


def affine(x, w, b):
    """add(matmul(x, w), b) as one node, for x (n, k), w (k, m) and a (m,)
    bias of their dtype: values and gradients are those of the two nodes,
    bit for bit, but the graph keeps x and w, not the product x @ w."""
    _check_matmul("affine", x, w)
    if b.shape != (w.shape[1],):
        raise PearlError(f"affine bias shape {b.shape}, expected ({w.shape[1]},)")
    xv, wv, bv = x.values, w.values, b.values
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad
    out = xv @ wv
    out += bv

    def bw(g):
        gb = _unbroadcast(g, bv.shape) if need_b else None
        return (*_matmul_bw(g, xv, wv, need_x, need_w), gb)

    return _node(out, (x, w, b), bw)


def transpose(a):
    """Swap the two axes of a 2-D array."""

    def bw(g):
        return (g.T,)

    return _node(a.values.T, (a,), bw)


def add(a, b):
    """Elementwise add; b may be a (n,) row vector broadcast over rows of a,
    or a scalar tensor."""
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _node(a.values + b.values, (a, b), bw)


def _unbroadcast(g, shape):
    """`g` summed down to `shape`; `g` itself when it has that shape already."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def mul(a, b):
    """Elementwise multiply with numpy broadcasting (scalar tensors allowed)."""
    av, bv = a.values, b.values

    def bw(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _node(av * bv, (a, b), bw)


def mul_scalar(a, c):
    def bw(g):
        return (g * c,)

    return _node(a.values * c, (a,), bw)


def exp(a):
    out = np.exp(a.values)

    def bw(g):
        return (g * out,)

    return _node(out, (a,), bw)


def tanh(a):
    out = np.asarray(np.tanh(a.values))  # an array, not a scalar, at 0-d too: bw writes into it

    def bw(g):  # g * (1.0 - out * out), into out: its consumers have all run
        np.multiply(out, out, out=out)
        np.subtract(1.0, out, out=out)
        return (np.multiply(g, out, out=out),)

    return _node(out, (a,), bw)


def gelu(a):
    """tanh-approximation GELU."""
    x = a.values
    # t = tanh(sqrt(2/pi) * (x + c x^3)), in place: on inference-sized arrays
    # fresh temporaries cost more than the arithmetic
    t = x * x
    t *= _SQRT_2_OVER_PI * _GELU_C
    t += _SQRT_2_OVER_PI
    t *= x
    np.tanh(t, out=t)
    # the backward reads t; with no graph to record, the output overwrites it
    out = t + 1.0 if _grad_enabled and a.requires_grad else np.add(t, 1.0, out=t)
    out *= x
    out *= 0.5

    def bw(g):
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * (x * x))
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return (g * d,)

    return _node(out, (a,), bw)


def _softmax(x):
    """Softmax over the last axis, with max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_bw(out, g):
    """The gradient at the input of `_softmax` given its output `out` and the
    gradient `g` at that output."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax_rows(a):
    """Row-wise softmax with max subtraction."""
    out = _softmax(a.values)

    def bw(g):
        return (_softmax_bw(out, g),)

    return _node(out, (a,), bw)


def attention(h, wqkv, n_heads, scale):
    """A layer's whole multi-head self-attention step, scaled dot-product, as
    one node.

    `h` holds N tokens (N, m) and `wqkv` the fused (m, 3*H*d) projection, H =
    `n_heads`, its columns laid out [Q heads | K heads | V heads] with head i
    at block i of each: columns [(j*H + i)*d, (j*H + i + 1)*d) hold head i of
    the queries (j = 0), keys (1) or values (2).  The result is (N, H*d), head
    i's softmax(q k^T * scale) v at columns [i*d, (i+1)*d); `scale` is a
    Python float.  The node runs the numpy operations of the chain matmul(h,
    wqkv), then per head matmul(q, k^T), mul_scalar, softmax_rows, matmul(.,
    v), in their order, forward and backward, so values and gradients are
    bit-identical to it.  The graph keeps only `h` and `wqkv`: the backward
    recomputes the projection and each head's (N, N) probabilities, one head
    at a time, writes the query, key and value gradients into one (N,
    3*H*d) array and hands that to the projection's matmul backward.
    """
    _check_matmul("attention", h, wqkv)
    hv, wv = h.values, wqkv.values
    n, H = hv.shape[0], n_heads
    if H < 1 or wv.shape[1] % (3 * H):
        raise PearlError(f"attention needs (m, 3*{H}*d) wqkv, got shape {wqkv.shape}")
    d = wv.shape[1] // (3 * H)
    need_h, need_w = h.requires_grad, wqkv.requires_grad

    def heads():
        """(q, k, v, probs) of each head in order, from a fresh projection."""
        x = (hv @ wv).reshape(n, 3 * H, d)
        for i in range(H):
            q, k, v = x[:, i], x[:, H + i], x[:, 2 * H + i]
            yield q, k, v, _softmax((q @ k.T) * scale)

    out = np.empty((n, H, d), hv.dtype)
    for i, (_, _, v, probs) in enumerate(heads()):
        out[:, i] = probs @ v

    def bw(g):
        g = g.reshape(n, H, d)
        gx = np.empty((n, 3 * H, d), hv.dtype)
        for i, (q, k, v, probs) in enumerate(heads()):
            gs = _softmax_bw(probs, g[:, i] @ v.T) * scale
            gx[:, i] = gs @ k
            gx[:, H + i] = (q.T @ gs).T
            gx[:, 2 * H + i] = probs.T @ g[:, i]
        return _matmul_bw(gx.reshape(n, 3 * H * d), hv, wv, need_h, need_w)

    return _node(out.reshape(n, H * d), (h, wqkv), bw)


# rows per block of `row_blocks`: a constant, not a setting, so that a
# block's sums depend neither on the input's size nor on a choice
_ROW_BLOCK = 512


def _row_slices(n, rows):
    """Consecutive slices of `rows` rows covering range(n), the one cut of
    every blocked loop; at n = 0, one empty slice.  A lone last row joins
    the slice before it, since a 1-row product (numpy's matrix-vector path)
    rounds differently from a row of a matrix product."""
    cuts = list(range(rows, n, rows))
    if cuts and cuts[-1] == n - 1:
        cuts.pop()
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, n])]


def row_blocks(fn, x, *params):
    """fn(x, *params) for a row-wise sub-network `fn`, as one node that runs
    it on consecutive blocks of `_ROW_BLOCK` rows of x.

    `fn(x_block, *params)` maps k rows of x to a Tensor of k rows, each a
    function of its own input row alone: a layer that mixes rows, such as
    the pathway encoder's attention, must never go through this kernel.  It
    reaches every Tensor it differentiates through its arguments.

    The forward runs `fn` without a graph, block by block, into one output
    array, so no activation of `fn` outlives its block; the graph keeps
    only x and the params.  The backward rebuilds each block's graph with
    recording on, whatever the caller's mode, on fresh leaves over x's
    block and the params' own arrays (so nothing reaches an outer .grad),
    seeds it with the block's rows of the gradient, and returns x's
    gradient block by block and each param's summed over the blocks in
    block order.  Every sum over rows in fn's backward, a weight gradient's
    x.T @ g among them, then runs over at most `_ROW_BLOCK` + 1 rows:
    OpenBLAS 0.3.31 gave such float32 products the same bytes at 1 and 2
    threads, and a product over 4216 rows did not.

    Values equal fn(x, *params) in one piece, bit for bit, where each of
    fn's kernels computes a row from that row alone: the blocks are
    `_row_slices`', which start at multiples of 512 and kept BLAS's
    rounding of each row.  Gradients are bit for bit up to `_ROW_BLOCK` + 1
    rows, one block, and round differently above.
    """
    xv, pvs = x.values, [p.values for p in params]
    need_x, need_ps = x.requires_grad, [p.requires_grad for p in params]
    n = xv.shape[0]
    blocks = _row_slices(n, _ROW_BLOCK)
    out = None
    with _grad_mode(False):
        for rows in blocks:  # at n = 0, one empty block gives the output's shape
            xb = xv[rows]
            y = fn(Tensor(xb), *params).values
            if y.shape[:1] != xb.shape[:1]:
                raise PearlError(f"row_blocks: fn maps {len(xb)} rows to shape {y.shape}")
            if out is None:
                out = np.empty((n, *y.shape[1:]), y.dtype)
            out[rows] = y

    def bw(g):
        leaves = [Tensor(pv, requires_grad=need) for pv, need in zip(pvs, need_ps)]
        gx = np.empty_like(xv) if need_x else None
        with _grad_mode(True):
            for rows in blocks:
                xb = Tensor(xv[rows], requires_grad=need_x)
                _walk(fn(xb, *leaves), g[rows])  # the leaves' .grad sum in block order
                if need_x:
                    gx[rows] = xb.grad
        return (gx, *(p.grad for p in leaves))

    return _node(out, (x, *params), bw)


def layer_norm(a, gain, bias):
    """Per-row standardization followed by an affine transform."""
    x, gv = a.values, gain.values
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gv + bias.values
    n = x.shape[-1]

    def bw(g):
        gxhat = g * gv
        gvar = (gxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * (inv * inv * inv)
        gmu = -gxhat.sum(axis=-1, keepdims=True) * inv + gvar * (-2.0 / n) * xc.sum(
            axis=-1, keepdims=True
        )
        gx = gxhat * inv + gvar * 2.0 / n * xc + gmu / n
        ggain = (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        gbias = g.sum(axis=tuple(range(g.ndim - 1)))
        return gx, ggain, gbias

    return _node(out, (a, gain, bias), bw)


def l2_normalize_rows(a):
    """Row-wise L2 normalization; zero rows map to zero."""
    x = a.values
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    safe = np.where(norm > 0, norm, 1.0)
    out = x / safe

    def bw(g):
        dot = (g * x).sum(axis=-1, keepdims=True)
        gx = g / safe - x * dot / safe**3
        return (np.where(norm > 0, gx, 0.0),)

    return _node(out, (a,), bw)


def cross_entropy_index(logits):
    """Mean over rows of -log softmax(row)[row_index], identity targets."""
    x = logits.values
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise PearlError(f"cross_entropy_index requires square logits, got {x.shape}")
    n = x.shape[0]
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    loss = -logp[np.arange(n), np.arange(n)].mean()
    probs = np.exp(logp)

    def bw(g):
        gx = probs.copy()
        gx[np.arange(n), np.arange(n)] -= 1.0
        return (g.reshape(()) * gx / n,)

    return _node(np.asarray(loss, dtype=x.dtype), (logits,), bw)


def mse(pred, target):
    """Mean of squared differences over all entries."""
    if pred.shape != target.shape:
        raise PearlError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.values - target.values
    n = diff.size
    out = np.asarray((diff * diff).sum(dtype=np.float64) / n, dtype=pred.dtype)

    def bw(g):
        gd = g.reshape(()) * 2.0 * diff / n
        return gd, -gd

    return _node(out, (pred, target), bw)


def sum_all(a):
    shape, dtype = a.shape, a.dtype
    out = np.asarray(a.values.sum(dtype=np.float64), dtype=dtype)

    def bw(g):
        return (np.broadcast_to(g.reshape(()), shape).astype(dtype),)

    return _node(out, (a,), bw)


def concat_cols(tensors):
    vals = [t.values for t in tensors]
    offsets = np.cumsum([0] + [v.shape[1] for v in vals])

    def bw(g):
        return tuple(g[:, i:j] for i, j in zip(offsets[:-1], offsets[1:]))

    return _node(np.concatenate(vals, axis=1), tuple(tensors), bw)


def concat_rows(tensors):
    vals = [t.values for t in tensors]
    offsets = np.cumsum([0] + [v.shape[0] for v in vals])

    def bw(g):
        return tuple(g[i:j] for i, j in zip(offsets[:-1], offsets[1:]))

    return _node(np.concatenate(vals, axis=0), tuple(tensors), bw)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with decoupled weight decay (decay applied directly to params)."""

    def __init__(self, params, lr, weight_decay):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _ADAM_BETA1**t
        bc2 = 1.0 - _ADAM_BETA2**t
        for i, p in enumerate(self.params):
            p.values *= 1.0 - self.lr * self.weight_decay
            g = p.grad
            if g is None:
                continue
            g = g.astype(p.values.dtype, copy=False)
            self.m[i] = _ADAM_BETA1 * self.m[i] + (1.0 - _ADAM_BETA1) * g
            self.v[i] = _ADAM_BETA2 * self.v[i] + (1.0 - _ADAM_BETA2) * (g * g)
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.values -= self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------


def gradcheck(fn, tensors, step=1e-3):
    """Central finite-difference check of d fn / d tensors.

    `fn` maps the tensors to a scalar Tensor.  Returns the worst relative
    error, a NaN one counted as inf, so a NaN or infinite gradient compares
    above any tolerance.  Tensors should be float64.
    """
    for t in tensors:
        t.grad = None
    loss = fn(*tensors)
    backward(loss)
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.values)
        numeric = np.zeros_like(t.values, dtype=np.float64)
        flat = t.values.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = fn(*tensors).item()
            flat[i] = orig - step
            dn = fn(*tensors).item()
            flat[i] = orig
            num_flat[i] = (up - dn) / (2.0 * step)
        denom = max(
            float(np.abs(analytic).max(initial=0.0)),
            float(np.abs(numeric).max(initial=0.0)),
            1e-8,
        )
        err = float(np.abs(analytic - numeric).max(initial=0.0)) / denom
        worst = max(worst, math.inf if math.isnan(err) else err)
    return worst
