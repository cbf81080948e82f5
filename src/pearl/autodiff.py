"""Minimal reverse-mode automatic differentiation on dense numpy arrays.

Tape-based: each op closes over what its backward needs; backward() walks a
topological order of the graph and accumulates adjoints.  First-order only;
the graph lives as long as its loss is referenced, and is freed by reference
counting once it is not (no node refers back to a child).  Kernels preserve
the input dtype, forward and backward (the tests run every case of
gradsuite.CASES on float32), so a float64 graph can be built for
finite-difference checks while models run in float32: constants are Python
floats, which NumPy does not let promote.  `matmul`, `transpose`,
`softmax_rows`, `reshape` and `slice_rows` also take stacked (..., n, m)
arrays.  `attention` runs all heads at once as one node, bit-identical to
its five-kernel chain, that keeps one (..., n, m) array in the graph, the
probabilities, where the chain keeps three.  Inside `no_grad()` kernels
record no parents and no backward closure, so inference builds no tape.
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
def no_grad():
    """Within the block, kernel outputs keep no graph and never require grad."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


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
    """Populate .grad for every requires_grad ancestor of a scalar loss.

    Repeated calls without zeroing accumulate gradients.
    """
    if loss.values.size != 1:
        raise PearlError(f"backward requires a scalar loss, got shape {loss.shape}")
    # depth-first post-order on an explicit stack: no recursion limit, and no
    # self-referencing closure whose cycle would keep the graph alive after
    # return until the cyclic garbage collector runs
    topo, seen = [], {id(loss)}
    stack = [(loss, iter(loss._parents))] if loss.requires_grad else []
    while stack:
        t, parents = stack[-1]
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            topo.append(t)
    adjoint = {id(loss): np.ones_like(loss.values)}
    for t in reversed(topo):
        g = adjoint.pop(id(t), None)
        if g is None:
            continue
        if t._backward is None:
            _accumulate(t, g)
            continue
        parent_grads = t._backward(g)
        for p, pg in zip(t._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in adjoint:
                adjoint[id(p)] = adjoint[id(p)] + pg
            else:
                adjoint[id(p)] = pg


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def matmul(a, b):
    """(..., n, k) @ (..., k, m); stacked operands must have equal leading dims."""
    av, bv = a.values, b.values
    if (
        av.ndim < 2
        or bv.ndim != av.ndim
        or av.shape[:-2] != bv.shape[:-2]
        or av.shape[-1] != bv.shape[-2]
    ):
        raise PearlError(f"matmul shape mismatch: {a.shape} x {b.shape}")

    # an operand that needs no gradient gets None, not a product nobody reads
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (
            g @ np.swapaxes(bv, -1, -2) if need_a else None,
            np.swapaxes(av, -1, -2) @ g if need_b else None,
        )

    return _node(av @ bv, (a, b), bw)


def transpose(a, axes=None):
    """Permute the axes as np.transpose(a, axes) does; by default swap the last two."""
    if axes is None:
        n = a.values.ndim
        axes = (*range(n - 2), n - 1, n - 2)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inverse),)

    return _node(np.transpose(a.values, axes), (a,), bw)


def add(a, b):
    """Elementwise add; b may be a (n,) row vector broadcast over rows of a,
    or a scalar tensor."""
    av, bv = a.values, b.values
    out = av + bv

    def bw(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return _node(out, (a, b), bw)


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
    out = np.tanh(a.values)

    def bw(g):
        return (g * (1.0 - out * out),)

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
    out = t + 1.0
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


def attention(q, k, v, scale):
    """matmul(softmax_rows(mul_scalar(matmul(q, transpose(k)), scale)), v) as
    one node, for q (..., n, d), k (..., m, d) and v (..., m, e) with equal
    leading dims; `scale` is a Python float.  It runs those five kernels' numpy operations in their order,
    forward and backward, so values and gradients are bit-identical, but the
    graph keeps only q, k, v and the probabilities, not the (..., n, m)
    scores before and after scaling."""
    qv, kv, vv = q.values, k.values, v.values
    if (
        qv.ndim < 2
        or kv.ndim != qv.ndim
        or (*qv.shape[:-2], qv.shape[-1]) != (*kv.shape[:-2], kv.shape[-1])
        or vv.shape[:-1] != kv.shape[:-1]
    ):
        raise PearlError(f"attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    probs = _softmax((qv @ np.swapaxes(kv, -1, -2)) * scale)

    def bw(g):
        gs = _softmax_bw(probs, g @ np.swapaxes(vv, -1, -2)) * scale
        gk = np.swapaxes(np.swapaxes(qv, -1, -2) @ gs, -1, -2)
        return gs @ kv, gk, np.swapaxes(probs, -1, -2) @ g

    return _node(probs @ vv, (q, k, v), bw)


def layer_norm(a, gain, bias):
    """Per-row standardization followed by an affine transform."""
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gain.values + bias.values
    n = x.shape[-1]

    def bw(g):
        gxhat = g * gain.values
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
    out = np.asarray(a.values.sum(dtype=np.float64), dtype=a.dtype)

    def bw(g):
        return (np.broadcast_to(g.reshape(()), a.shape).astype(a.dtype),)

    return _node(out, (a,), bw)


def concat_cols(tensors):
    vals = [t.values for t in tensors]
    widths = [v.shape[1] for v in vals]
    out = np.concatenate(vals, axis=1)
    offsets = np.cumsum([0] + widths)

    def bw(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(vals)))

    return _node(out, tuple(tensors), bw)


def concat_rows(tensors):
    vals = [t.values for t in tensors]
    heights = [v.shape[0] for v in vals]
    out = np.concatenate(vals, axis=0)
    offsets = np.cumsum([0] + heights)

    def bw(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(vals)))

    return _node(out, tuple(tensors), bw)


def slice_rows(a, start, stop):
    def bw(g):
        full = np.zeros_like(a.values)
        full[start:stop] = g
        return (full,)

    return _node(a.values[start:stop], (a,), bw)


def reshape(a, shape):
    orig = a.shape

    def bw(g):
        return (g.reshape(orig),)

    return _node(a.values.reshape(shape), (a,), bw)


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
