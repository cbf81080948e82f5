import inspect
import weakref

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import gradsuite
from pearl.autodiff import AdamW, Tensor
from pearl.errors import PearlError


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

    @pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
    @pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)])
    def test_backward_skips_constant_operand(self, stacked, needs):
        # an operand without requires_grad gets None; the other gets exactly
        # the full formula's product
        rng = np.random.default_rng(1)
        lead = (2,) if stacked else ()
        av, bv = rng.normal(size=(*lead, 3, 4)), rng.normal(size=(*lead, 4, 5))
        g = rng.normal(size=(*lead, 3, 5))
        out = ad.matmul(Tensor(av, requires_grad=needs[0]), Tensor(bv, requires_grad=needs[1]))
        ga, gb = out._backward(g)
        full = (g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g)
        for need, got, want in zip(needs, (ga, gb), full):
            if need:
                assert got.tobytes() == want.tobytes()
            else:
                assert got is None


class TestStacked:
    def test_matmul_matches_per_slice(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2))
        out = ad.matmul(t64(a, grad=False), t64(b, grad=False)).values
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=1e-12)

    def test_matmul_leading_dims_must_match(self):
        with pytest.raises(PearlError):
            ad.matmul(t64(np.ones((2, 3, 4))), t64(np.ones((3, 4, 2))))
        with pytest.raises(PearlError):
            ad.matmul(t64(np.ones((2, 3, 4))), t64(np.ones((4, 2))))

    def test_gradcheck_stacked_attention(self):
        # the transformer's head batching: permute, slice, stacked matmuls, softmax
        rng = np.random.default_rng(11)
        x = t64(rng.normal(size=(4, 6, 2)))
        w = Tensor(rng.normal(size=(2, 4, 2)))

        def fn(x):
            qkv = ad.transpose(x, (1, 0, 2))  # (6, 4, 2)
            q, k, v = (ad.slice_rows(qkv, 2 * j, 2 * j + 2) for j in range(3))
            attn = ad.softmax_rows(ad.matmul(q, ad.transpose(k)))
            heads = ad.reshape(ad.transpose(ad.matmul(attn, v), (1, 0, 2)), (4, 4))
            return ad.sum_all(ad.mul(ad.reshape(heads, (2, 4, 2)), w))

        assert ad.gradcheck(fn, [x]) < gradsuite.REL_TOL


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_composed_chain_bit_for_bit(self, dtype):
        # q, k, v strided like the transformer's: slices of one permuted (3H, N, d_k) array
        rng = np.random.default_rng(14)
        qkv = rng.normal(size=(5, 6, 3)).astype(dtype).transpose(1, 0, 2)
        w = Tensor(rng.normal(size=(2, 5, 3)).astype(dtype))
        scale = 3.0**-0.5

        def run(op):
            q, k, v = (Tensor(qkv[2 * j : 2 * j + 2], requires_grad=True) for j in range(3))
            out = op(q, k, v)
            ad.backward(ad.sum_all(ad.mul(out, w)))
            return [out.values, q.grad, k.grad, v.grad]

        fused = run(lambda q, k, v: ad.attention(q, k, v, scale))
        chain = run(lambda q, k, v: ad.matmul(
            ad.softmax_rows(ad.mul_scalar(ad.matmul(q, ad.transpose(k)), scale)), v))
        assert [a.dtype for a in fused] == [dtype] * 4
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in chain]

    def test_shape_mismatch(self):
        q = t64(np.ones((2, 3, 4)))
        with pytest.raises(PearlError):
            ad.attention(q, t64(np.ones((2, 3, 5))), q, 0.5)
        with pytest.raises(PearlError):
            ad.attention(q, q, t64(np.ones((2, 2, 4))), 0.5)


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
            ad.backward(ad.sum_all(ad.mul(out, proj)))
            return [out.values, x.grad, w.grad, b.grad]

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
    # near-zero inputs too
    rng = np.random.default_rng(16)
    x = (rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-8, 3, size=(40, 9))).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    out = ad.tanh(Tensor(x, requires_grad=True))
    (grad,) = out._backward(g)
    assert grad.dtype == dtype
    assert grad.tobytes() == (g * (1.0 - out.values * out.values)).tobytes()


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
        w = t64([1.0, 2.0])
        loss = ad.sum_all(ad.mul(w, w))
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, 2.0 * first)

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
