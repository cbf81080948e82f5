import contextlib
import inspect
import weakref

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import gradsuite
from pearl.autodiff import AdamW, Tensor
from pearl.errors import PearlError
from pearl.survival import _attention_logits


def t64(values, grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = t64(np.arange(6.0).reshape(2, 3), grad=False)
        eye = t64(np.eye(2), grad=False)
        np.testing.assert_array_equal(ad.matmul(eye, a).values, a.values)

    def test_scalar_product_rule(self):
        a, b = t64([[2.0]]), t64([[3.0]])
        out = ad.matmul(a, b)
        assert out.values[0, 0] == 6.0
        ad.backward(out)
        assert a.grad[0, 0] == 3.0
        assert b.grad[0, 0] == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(PearlError):
            ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    @pytest.mark.parametrize("op", [ad.matmul, lambda a, b: ad.affine(a, b, t64(np.zeros(2)))],
                             ids=["matmul", "affine"])
    def test_not_2d_refused(self, op):
        with pytest.raises(PearlError):
            op(t64(np.ones((2, 3, 4))), t64(np.ones((2, 4, 2))))
        with pytest.raises(PearlError):
            op(t64(np.ones((2, 3, 4))), t64(np.ones((4, 2))))

    @pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)])
    def test_backward_skips_constant_operand(self, needs):
        # an operand without requires_grad gets None; the other gets exactly
        # the full formula's product
        rng = np.random.default_rng(1)
        av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        g = rng.normal(size=(3, 5))
        out = ad.matmul(Tensor(av, requires_grad=needs[0]), Tensor(bv, requires_grad=needs[1]))
        ga, gb = out._backward(g)
        full = (g @ bv.T, av.T @ g)
        for need, got, want in zip(needs, (ga, gb), full):
            if need:
                assert got.tobytes() == want.tobytes()
            else:
                assert got is None


def _attention_chain(x, n_heads, scale, g):
    """The multi-head attention of a fused (N, 3*H*d) `x` as the chain of
    kernels it replaces, in plain numpy: its output, and the gradient at x
    given `g` at that output, each node's backward run in reverse order."""
    n, H = x.shape[0], n_heads
    d = x.shape[1] // (3 * H)
    heads = np.transpose(x.reshape(n, 3 * H, d), (1, 0, 2))  # reshape, transpose
    q, k, v = heads[:H], heads[H : 2 * H], heads[2 * H :]  # three slices
    kt = np.swapaxes(k, -1, -2)
    scores = (q @ kt) * scale  # matmul, mul_scalar
    shifted = scores - scores.max(axis=-1, keepdims=True)  # softmax_rows
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    out = np.transpose(probs @ v, (1, 0, 2)).reshape(n, H * d)  # matmul, transpose, reshape
    go = np.transpose(g.reshape(n, H, d), (1, 0, 2))
    gp, gv = go @ np.swapaxes(v, -1, -2), np.swapaxes(probs, -1, -2) @ go
    gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
    gq, gk = gs @ np.swapaxes(kt, -1, -2), np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2)
    gx = np.transpose(np.concatenate([gq, gk, gv]), (1, 0, 2)).reshape(x.shape)
    return out, gx


def _closure_arrays(fn):
    """Every array a backward closure `fn` holds, through the functions it
    closes over too."""
    arrays, stack, seen = [], [fn], set()
    while stack:
        for cell in stack.pop().__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif isinstance(v, (list, tuple)):
                arrays.extend(a for a in v if isinstance(a, np.ndarray))
            elif inspect.isfunction(v) and id(v) not in seen:
                seen.add(id(v))
                stack.append(v)
    return arrays


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_composed_chain_bit_for_bit(self, dtype):
        # the node against the projection h @ w, the chain on its product, and
        # the projection's matmul gradient: values and both gradients
        rng = np.random.default_rng(14)
        for n_heads in (2, 3):
            hv = rng.normal(size=(5, 4)).astype(dtype)
            wv = rng.normal(size=(4, 9 * n_heads)).astype(dtype)
            g = rng.normal(size=(5, 3 * n_heads)).astype(dtype)
            scale = 3.0**-0.5
            h, w = Tensor(hv, requires_grad=True), Tensor(wv, requires_grad=True)
            out = ad.attention(h, w, n_heads, scale)
            gh, gw = out._backward(g)
            want_out, want_gx = _attention_chain(hv @ wv, n_heads, scale, g)
            assert [out.dtype, gh.dtype, gw.dtype] == [dtype] * 3
            assert out.values.tobytes() == want_out.tobytes()
            assert gh.tobytes() == (want_gx @ wv.T).tobytes()
            assert gw.tobytes() == (hv.T @ want_gx).tobytes()

    def test_graph_keeps_no_probabilities_or_projection(self):
        # N 5, m 4, H 2, d 3: H*N*N = 50 and N*3*H*d = 90 elements, sizes no
        # input shares
        n, H = 5, 2
        rng = np.random.default_rng(17)
        h, w = t64(rng.normal(size=(n, 4))), t64(rng.normal(size=(4, 18)))
        out = ad.attention(h, w, H, 0.5)
        held = _closure_arrays(out._backward)
        sizes = {a.size for a in held} | {a.base.size for a in held if a.base is not None}
        assert any(a is h.values for a in held) and any(a is w.values for a in held)
        assert not sizes & {H * n * n, n * 18}

    def test_shape_mismatch(self):
        # 10 columns do not split into 3 * 2 equal parts; h and wqkv must be
        # 2-D and multiply
        with pytest.raises(PearlError, match=r"attention needs \(m, 3\*2\*d\) wqkv"):
            ad.attention(t64(np.ones((4, 3))), t64(np.ones((3, 10))), 2, 0.5)
        with pytest.raises(PearlError):
            ad.attention(t64(np.ones((2, 4, 3))), t64(np.ones((3, 12))), 2, 0.5)
        with pytest.raises(PearlError):
            ad.attention(t64(np.ones((4, 3))), t64(np.ones((4, 12))), 2, 0.5)


def _gelu_mlp(x, w1, b1, w2):  # a row-wise sub-network with a GELU, as the model's heads
    return ad.matmul(ad.gelu(ad.affine(x, w1, b1)), w2)


@pytest.mark.parametrize("rows", [2, 3, 512])
def test_row_slices_cover_the_rows_with_no_lone_row(rows):
    for n in range(3 * rows + 3):
        slices = ad._row_slices(n, rows)
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        lengths = [s.stop - s.start for s in slices]
        assert (n > 0) == (0 not in lengths), n  # an empty slice at n = 0 only
        assert max(lengths) <= rows + 1 and (1 not in lengths or n == 1), n
    assert ad._row_slices(0, rows) == [slice(0, 0)]


class TestRowBlocks:
    @staticmethod
    def _run(fn, n, blocked, dtype=np.float32):
        """[values, then the gradient at x and at each parameter] of fn on n
        rows of 64 columns, through row_blocks or as one chain, under the loss
        sum(out * g), which seeds the output with g exactly.  (At 16 columns
        a 1-row block rounded as the rows among others did.)"""
        rng = np.random.default_rng(n)
        shapes = [(n, 64), (64, 32), (32,), (32, 3)]
        inputs = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
        out = ad.row_blocks(fn, *inputs) if blocked else fn(*inputs)
        values = out.values  # backward drops it from the node
        ad.backward(ad.sum_all(ad.mul(out, Tensor(rng.normal(size=out.shape).astype(dtype)))))
        return [values] + [t.grad for t in inputs]

    @pytest.mark.parametrize("fn", [_attention_logits, _gelu_mlp], ids=["tanh", "gelu"])
    @pytest.mark.parametrize("n", [1300, 1025, 513])
    def test_values_equal_the_chain_bit_for_bit(self, fn, n):
        # 1300 rows are blocks of 512, 512 and 276; at 1025 and 513 a lone last
        # row joins the block before it
        blocked, chain = self._run(fn, n, True)[0], self._run(fn, n, False)[0]
        assert blocked.dtype == np.float32 and blocked.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("n", [1, 300, 512, 513])
    def test_gradients_equal_the_chain_bit_for_bit_in_one_block(self, n):
        blocked, chain = self._run(_attention_logits, n, True), self._run(_attention_logits, n, False)
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in chain]

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-13)])
    def test_gradients_close_to_the_chain_across_blocks(self, dtype, tol):
        # three blocks: the parameter gradients sum per block, then over blocks
        blocked = self._run(_attention_logits, 1300, True, dtype)
        chain = self._run(_attention_logits, 1300, False, dtype)
        assert blocked[1].tobytes() == chain[1].tobytes()  # x's, row by row
        for got, want in zip(blocked[2:], chain[2:]):
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_gradcheck_across_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "_ROW_BLOCK", 2)  # 7 rows: blocks of 2, 2 and 3
        rng = np.random.default_rng(19)
        inputs = [t64(rng.normal(size=s)) for s in ((7, 4), (4, 3), (3,), (3, 2))]
        w = Tensor(rng.normal(size=(7, 2)))
        err = ad.gradcheck(
            lambda *xs: ad.sum_all(ad.mul(ad.row_blocks(_attention_logits, *xs), w)), inputs
        )
        assert err < gradsuite.REL_TOL

    def test_backward_records_whatever_the_callers_mode(self):
        def grads(mode):
            x, w1, b1, w2 = (t64(np.full(s, 0.1)) for s in ((5, 4), (4, 3), (3,), (3, 1)))
            loss = ad.sum_all(ad.row_blocks(_attention_logits, x, w1, b1, w2))
            with mode():
                ad.backward(loss)
            return [t.grad.tobytes() for t in (x, w1, b1, w2)]

        assert grads(ad.no_grad) == grads(contextlib.nullcontext)

    def test_graph_keeps_only_x_and_the_parameters(self):
        # 6 rows, hidden 5: no (6, 5) activation is held, and no input's
        # .grad is touched until backward hands the gradients on
        rng = np.random.default_rng(20)
        x, w1, b1, w2 = (t64(rng.normal(size=s)) for s in ((6, 4), (4, 5), (5,), (5, 1)))
        out = ad.row_blocks(_attention_logits, x, w1, b1, w2)
        assert out._parents == (x, w1, b1, w2)
        held = _closure_arrays(out._backward)
        assert all(any(a is t.values for a in held) for t in (x, w1, b1, w2))
        assert 30 not in {a.size for a in held}
        grads = out._backward(np.ones((6, 1)))
        assert [g.shape for g in grads] == [(6, 4), (4, 5), (5,), (5, 1)]
        assert [t.grad for t in (x, w1, b1, w2)] == [None] * 4

    def test_no_rows(self):
        x = t64(np.zeros((0, 4)))
        w1, b1, w2 = t64(np.ones((4, 3))), t64(np.zeros(3)), t64(np.ones((3, 2)))
        out = ad.row_blocks(_attention_logits, x, w1, b1, w2)
        assert out.shape == (0, 2)
        gx, gw1, _, _ = out._backward(np.zeros((0, 2)))
        assert gx.shape == (0, 4) and not gw1.any()

    def test_refuses_a_sub_network_that_is_not_row_wise(self):
        with pytest.raises(PearlError, match=r"row_blocks: fn maps 3 rows to shape \(\)"):
            ad.row_blocks(ad.sum_all, t64(np.ones((3, 2))))


class TestAffine:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_matmul_then_add_bit_for_bit(self, dtype):
        # x strided like an activation sliced from a wider array
        rng = np.random.default_rng(15)
        xv = rng.normal(size=(7, 10)).astype(dtype)[:, ::2]
        wv, bv = rng.normal(size=(5, 3)).astype(dtype), rng.normal(size=3).astype(dtype)
        proj = Tensor(rng.normal(size=(7, 3)).astype(dtype))

        def run(op):
            x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv, bv))
            out = op(x, w, b)
            values = out.values  # backward drops it from the node
            ad.backward(ad.sum_all(ad.mul(out, proj)))
            return [values, x.grad, w.grad, b.grad]

        fused = run(ad.affine)
        chain = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
        assert [a.dtype for a in fused] == [dtype] * 4
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in chain]

    def test_constant_operands_get_no_gradient(self):
        x = t64(np.ones((2, 3)), grad=False)
        out = ad.affine(x, t64(np.ones((3, 4))), t64(np.zeros(4), grad=False))
        gx, gw, gb = out._backward(np.ones((2, 4)))
        assert gx is None and gb is None and gw.shape == (3, 4)

    def test_shape_mismatch(self):
        x, w = t64(np.ones((2, 3))), t64(np.ones((3, 4)))
        with pytest.raises(PearlError):
            ad.affine(x, t64(np.ones((2, 4))), t64(np.zeros(4)))
        with pytest.raises(PearlError):
            ad.affine(x, w, t64(np.zeros(3)))
        with pytest.raises(PearlError):
            ad.affine(x, w, t64(np.zeros((1, 4))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tanh_backward_equals_the_formula_bit_for_bit(dtype):
    # the in-place backward against g * (1.0 - out * out), over saturated and
    # near-zero inputs too; it writes into out, so the formula goes first
    rng = np.random.default_rng(16)
    x = (rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-8, 3, size=(40, 9))).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    out = ad.tanh(Tensor(x, requires_grad=True))
    expected = g * (1.0 - out.values * out.values)
    (grad,) = out._backward(g)
    assert grad.dtype == dtype
    assert grad.tobytes() == expected.tobytes()


class TestNoGrad:
    def test_records_no_graph(self):
        a, b = t64(np.ones((2, 3))), t64(np.ones((3, 2)))
        with ad.no_grad():
            out = ad.matmul(a, b)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.values, 3.0)
        assert ad.matmul(a, b).requires_grad

    def test_restored_after_error(self):
        with pytest.raises(PearlError):
            with ad.no_grad():
                ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))
        assert ad.matmul(t64(np.ones((2, 3))), t64(np.ones((3, 2)))).requires_grad


def test_every_public_kernel_has_a_case():
    # so a new kernel cannot miss its gradient and float32 checks
    kernels = [
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in ("backward", "no_grad", "gradcheck")
    ]
    assert kernels and [k for k in kernels if k not in gradsuite.CASES] == []


@pytest.mark.parametrize("name", list(gradsuite.CASES))
def test_gradcheck(name):
    assert gradsuite.check(name, np.random.default_rng(0)) < gradsuite.REL_TOL


@pytest.mark.parametrize("name", list(gradsuite.CASES))
def test_float32_in_float32_out(name):
    shapes, op = gradsuite.CASES[name]
    rng = np.random.default_rng(12)
    inputs = [
        Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes
    ]
    out = op(*inputs)
    assert out.dtype == np.float32
    # what the output node's backward hands its parents, before any accumulation
    grads = out._backward(np.ones_like(out.values))
    assert [g.dtype for g in grads] == [np.float32] * len(out._parents)
    ad.backward(out if out.values.size == 1 else ad.sum_all(out))
    assert [t.grad.dtype for t in inputs] == [np.float32] * len(inputs)


@pytest.mark.parametrize("name", list(gradsuite.CASES))
def test_intermediate_inputs_get_the_leaf_gradients(name):
    # each input passed through mul_scalar(., 1.0), a node whose values
    # backward drops: a closure that reads an input Tensor then fails
    shapes, op = gradsuite.CASES[name]
    rng = np.random.default_rng(17)
    values = [rng.normal(size=s) for s in shapes]
    w = Tensor(rng.normal(size=op(*(t64(v) for v in values)).shape))

    def grads(wrap):
        leaves = [t64(v) for v in values]
        ad.backward(ad.sum_all(ad.mul(op(*(wrap(t) for t in leaves)), w)))
        return [t.grad.tobytes() for t in leaves]

    assert grads(lambda t: ad.mul_scalar(t, 1.0)) == grads(lambda t: t)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(t64([[0.0, 0.0]], grad=False))
        np.testing.assert_allclose(out.values, [[0.5, 0.5]])

    def test_overflow_stability(self):
        out = ad.softmax_rows(t64([[1000.0, 0.0]], grad=False))
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = ad.softmax_rows(t64(rng.normal(size=(5, 7)), grad=False))
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_row(self):
        g, b = t64(np.ones(4), grad=False), t64(np.zeros(4), grad=False)
        out = ad.layer_norm(t64([[3.0, 3.0, 3.0, 3.0]], grad=False), g, b)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-3)

    def test_two_point_row(self):
        # mean 0, population var 1 -> standardization is the identity up to eps
        g, b = t64(np.ones(2), grad=False), t64(np.zeros(2), grad=False)
        out = ad.layer_norm(t64([[1.0, -1.0]], grad=False), g, b)
        np.testing.assert_allclose(out.values, [[1.0, -1.0]], atol=1e-5)


class TestCrossEntropyIndex:
    def test_single_class(self):
        assert ad.cross_entropy_index(t64([[5.0]], grad=False)).item() == 0.0

    def test_uniform_logits(self):
        out = ad.cross_entropy_index(t64(np.zeros((4, 4)), grad=False))
        np.testing.assert_allclose(out.item(), np.log(4.0), atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(PearlError):
            ad.cross_entropy_index(t64(np.zeros((2, 3))))


class TestMse:
    def test_zero_residual(self):
        p = t64(np.ones((2, 3)), grad=False)
        assert ad.mse(p, p).item() == 0.0

    def test_unit_residual(self):
        p, q = t64(np.ones((2, 3)), grad=False), t64(np.zeros((2, 3)), grad=False)
        assert ad.mse(p, q).item() == 1.0

    def test_grad_formula(self):
        rng = np.random.default_rng(5)
        p, q = t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(2, 3)), grad=False)
        loss = ad.mse(p, q)
        ad.backward(loss)
        np.testing.assert_allclose(p.grad, 2.0 * (p.values - q.values) / 6.0, rtol=1e-12)
        assert ad.gradcheck(lambda p, q: ad.mse(p, q), [p, t64(q.values)]) < gradsuite.REL_TOL


class TestL2Normalize:
    def test_unit_norm(self):
        rng = np.random.default_rng(6)
        out = ad.l2_normalize_rows(t64(rng.normal(size=(4, 5)), grad=False))
        np.testing.assert_allclose(np.linalg.norm(out.values, axis=1), 1.0, atol=1e-6)

    def test_zero_row_maps_to_zero(self):
        out = ad.l2_normalize_rows(t64(np.zeros((1, 3)), grad=False))
        np.testing.assert_array_equal(out.values, 0.0)


class TestBackward:
    def test_linear(self):
        w = t64([1.0, 2.0, 3.0])
        ad.backward(ad.sum_all(w))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_accumulation(self):
        # two graphs built separately: the second backward adds to .grad
        w = t64([1.0, 2.0])
        ad.backward(ad.sum_all(ad.mul(w, w)))
        first = w.grad.copy()
        ad.backward(ad.sum_all(ad.mul(w, w)))
        np.testing.assert_array_equal(w.grad, 2.0 * first)

    def test_consumed_graph_refused(self):
        w = t64([1.0, 2.0])
        loss = ad.sum_all(ad.mul(w, w))
        ad.backward(loss)
        first = w.grad.copy()
        with pytest.raises(PearlError, match="already consumed"):
            ad.backward(loss)
        np.testing.assert_array_equal(w.grad, first)

    def test_intermediate_values_dropped(self):
        w = t64(np.ones((4, 3)))
        x = t64(np.arange(12.0).reshape(3, 4), grad=False)
        hidden = ad.tanh(ad.matmul(x, w))
        total = ad.sum_all(ad.mul(hidden, hidden))
        # a tanh loss: its backward writes into its output, not into the loss's value
        loss = ad.tanh(ad.mul_scalar(total, 0.1))
        nodes = [hidden._parents[0], hidden, total, loss._parents[0]]
        value = loss.item()
        ad.backward(loss)
        assert [t.values for t in nodes] == [None] * 4
        assert loss.item() == value
        assert x.values.shape == (3, 4) and w.values.shape == (4, 3)

    def test_reuse_sums_both_paths(self):
        w = t64([3.0])
        # w used twice: loss = w*w -> grad 2w
        ad.backward(ad.sum_all(ad.mul(w, w)))
        np.testing.assert_allclose(w.grad, [6.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(PearlError):
            ad.backward(t64([1.0, 2.0]))

    def test_composed_graph_gradcheck(self):
        rng = np.random.default_rng(8)
        a, b = t64(rng.normal(size=(3, 3))), t64(rng.normal(size=(3, 3)))

        def fn(a, b):
            return ad.cross_entropy_index(ad.softmax_rows(ad.matmul(a, b)))

        assert ad.gradcheck(fn, [a, b]) < gradsuite.REL_TOL

    def test_graph_freed_on_return_without_gc(self, no_gc):
        w = t64(np.ones((4, 3)))
        x = t64(np.arange(12.0).reshape(3, 4), grad=False)
        hidden = ad.gelu(ad.matmul(x, w))
        node = weakref.ref(hidden)
        loss = ad.sum_all(hidden)
        del hidden
        ad.backward(loss)
        del loss
        assert node() is None
        assert w.grad.shape == (4, 3)

    def test_intermediates_freed_while_the_loss_lives(self, no_gc):
        # a node that gets a gradient, one whose consumer hands it None and
        # that consumer are all freed by the time backward returns, though
        # `loss` is still referenced
        w = t64(np.ones((4, 3)))
        x = t64(np.arange(12.0).reshape(3, 4), grad=False)
        hidden = ad.gelu(ad.matmul(x, w))
        cut = ad.exp(ad.matmul(x, w))
        stop = ad._node(np.zeros((3, 3)), (cut,), lambda g: (None,))
        nodes = [weakref.ref(t) for t in (hidden, cut, stop)]
        loss = ad.sum_all(ad.add(hidden, stop))
        del hidden, cut, stop
        ad.backward(loss)
        assert [r() for r in nodes] == [None, None, None]
        assert np.isfinite(loss.item()) and w.grad.shape == (4, 3)

    def test_deep_chain_no_recursion_limit(self):
        w = t64([1.0, 2.0])
        out = w
        for _ in range(5000):
            out = ad.add(out, w)
        ad.backward(ad.sum_all(out))
        np.testing.assert_array_equal(w.grad, [5001.0, 5001.0])


class TestAdamW:
    def test_zero_grad_zero_decay_fixpoint(self):
        p = t64([1.5])
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.5])

    def test_decoupled_decay(self):
        p = t64([2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(p.values, [2.0 * (1 - 0.1 * 0.01)], rtol=1e-12)

    def test_hand_computed_step(self):
        lr, wd, g0 = 0.05, 0.01, 0.5
        p = t64([1.0])
        opt = AdamW([p], lr=lr, weight_decay=wd)
        p.grad = np.array([g0])
        opt.step()
        w = 1.0 * (1 - lr * wd)
        m = 0.1 * g0
        v = 0.001 * g0 * g0
        mhat, vhat = m / 0.1, v / 0.001
        expected = w - lr * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(p.values, [expected], atol=1e-10)


class TestGradcheck:
    @staticmethod
    def _doubling(backward_value):
        """sum(2x) through one hand-made node whose backward returns `backward_value`."""

        def fn(x):
            y = ad._node(x.values * 2.0, (x,), lambda g: (np.full_like(x.values, backward_value),))
            return ad.sum_all(y)

        return fn

    def test_correct_backward_passes(self):
        assert ad.gradcheck(self._doubling(2.0), [t64([1.0, -3.0, 0.5])]) < 1e-8

    @pytest.mark.parametrize("value", [np.nan, np.inf, 3.0], ids=["nan", "inf", "wrong"])
    def test_bad_backward_fails(self, value):
        assert ad.gradcheck(self._doubling(value), [t64([1.0, -3.0, 0.5])]) > gradsuite.REL_TOL
