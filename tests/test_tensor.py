"""Core tensor/tape behavior: forward values, backward rules, contracts."""
import weakref

import numpy as np
import pytest

import unfused as U
from gradcheck import TOLERANCE, grad_check, model_checks, op_checks
from quarts import tensor as T
from quarts.tensor import Tape, Tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(T.matmul(eye, a).data, a.data)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_gradient_matches_finite_differences(self, f64):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        err = grad_check(lambda: T.sum_axis(T.matmul(a, b)), [a, b])
        assert err < 1e-4


@pytest.mark.parametrize("op, sa, sb", [
    (T.matmul, (2, 2), (2,)),           # matrix times vector
    (T.matmul, (2,), (2, 2)),           # vector times matrix
    (T.matmul, (2,), (2,)),             # dot product
    (T.matmul, (3, 2, 4), (4, 5)),      # a stack times one shared matrix
    (T.matmul, (3, 1), (2, 1, 4)),      # broadcast leading axes
    (T.add, (3, 1), (3, 4)),            # equal rank, size-1 axis
    (T.mul, (1,), (3, 4)),              # a one-element vector is not a scalar
], ids=["matvec", "vecmat", "dot", "stack_shared", "leading_broadcast", "size1_axis",
        "one_element"])
def test_removed_forms_raise_naming_both_shapes(op, sa, sb):
    with pytest.raises(T.ShapeError) as err:
        op(Tensor(np.ones(sa)), Tensor(np.ones(sb)))
    assert str(sa) in str(err.value) and str(sb) in str(err.value)


def test_tensor_defines_only_the_operators_the_model_writes():
    for name in ("__sub__", "__rsub__", "__rmul__", "__matmul__", "__neg__"):
        assert not hasattr(Tensor, name), name


class TestElementwise:
    def test_tanh_zero(self, f64):
        x = Tensor([0.0])
        with Tape([x]) as tape:
            y = T.tanh(x)
            grads = tape.backward(T.sum_axis(y))
        assert y.item() == 0.0
        np.testing.assert_array_equal(grads[x], [1.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        y = T.sigmoid(Tensor([-500.0, 500.0])).data
        assert np.all(np.isfinite(y))
        assert y[0] >= 0.0 and y[1] <= 1.0

    def test_dropout_p0_is_exact_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones((400, 10)))
        out = T.dropout(x, 0.25, np.random.default_rng(1)).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75, rtol=1e-6)
        assert 0.70 < kept.mean() < 0.80

    def test_abs_backward_sign_zero(self, f64):
        x = Tensor([-2.0, 0.0, 3.0])
        with Tape([x]) as tape:
            grads = tape.backward(T.sum_axis(T.absval(x)))
        np.testing.assert_array_equal(grads[x], [-1.0, 0.0, 1.0])

    def test_row_broadcast_backward_sums(self, f64):
        x = Tensor(np.ones((3, 2)))
        b = Tensor([1.0, 2.0])
        with Tape([x, b]) as tape:
            grads = tape.backward(T.sum_axis(T.add(x, b)))
        np.testing.assert_array_equal(grads[b], [3.0, 3.0])

    def test_unsupported_broadcast_rejected(self):
        with pytest.raises(T.ShapeError):
            T.add(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2, 2))))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(U.softmax_rows(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_hand_case(self, f64):
        out = U.softmax_rows(Tensor([np.log(2.0), 0.0])).data
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_rows_are_simplex(self, f64):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = Tensor(rng.normal(scale=10, size=(4, 7)))
            y = U.softmax_rows(x).data
            assert np.all(y > 0) and np.all(y < 1)
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self, f64):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-0.9, 0.9, size=(3, 4)))
        row = Tensor(rng.uniform(-0.9, 0.9, size=4))
        assert grad_check(lambda: T.mean_all(T.mul(U.softmax_rows(x), row)), [x]) < 1e-4


class TestStructuralOps:
    def test_concat_shape(self):
        a = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros((3, 2)))
        assert T.concat([a, b], axis=1).shape == (3, 4)

    def test_slice_of_concat_roundtrip(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
        b = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        back = U.slice_axis(T.concat([a, b], axis=1), 1, 0, 2)
        np.testing.assert_array_equal(back.data, a.data)

    def test_slice_axis_gradient(self, f64):
        x = Tensor(np.random.default_rng(0).uniform(-0.9, 0.9, size=(3, 4)))
        assert grad_check(lambda: T.mean_all(U.slice_axis(x, 1, 1, 3)), [x]) < 1e-4

    def test_lookup_zero_row(self):
        table = Tensor(np.zeros((4, 3)))
        np.testing.assert_array_equal(T.lookup(table, np.array([0])).data, [[0, 0, 0]])

    def test_lookup_out_of_range(self):
        with pytest.raises(T.VocabularyError, match="4 rows"):
            T.lookup(Tensor(np.zeros((4, 3))), np.array([4]))

    def test_lookup_backward_scatter_adds(self, f64):
        table = Tensor(np.zeros((4, 2)))
        with Tape([table]) as tape:
            grads = tape.backward(T.sum_axis(T.lookup(table, np.array([1, 1, 3]))))
        np.testing.assert_array_equal(grads[table], [[0, 0], [2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_lookup_unique_backward_equals_scatter_add(self, dtype):
        rng = np.random.default_rng(3)
        ids = rng.permutation(9)[:6]
        with T.using_dtype(dtype):
            w = rng.normal(size=(6, 5)).astype(dtype)
            table = Tensor(rng.normal(size=(9, 5)))
            with Tape([table]) as tape:
                out = T.tanh(T.lookup(table, ids)) * Tensor(w)
                g_table = tape.backward(T.sum_axis(out))[table]
            g = w * (1 - np.tanh(table.data[ids]) ** 2)
            scattered = np.zeros_like(table.data)
            np.add.at(scattered, ids, g)
            assert g_table.dtype == dtype
            np.testing.assert_array_equal(g_table, scattered)
            # repeated ids still accumulate
            with Tape([table]) as tape:
                g_table = tape.backward(
                    T.sum_axis(T.lookup(table, np.array([[2, 5], [5, 2]]))))[table]
            np.testing.assert_array_equal(g_table[[2, 5]], np.full((2, 5), 2.0))
            assert not g_table[[0, 1, 3, 4, 6, 7, 8]].any()


class TestBackward:
    def test_sum_gives_ones(self, f64):
        x = Tensor(np.zeros((2, 3)))
        with Tape([x]) as tape:
            grads = tape.backward(T.sum_axis(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_mean_of_square(self, f64):
        x = Tensor([3.0])
        with Tape([x]) as tape:
            grads = tape.backward(T.mean_all(T.mul(x, x)))
        np.testing.assert_array_equal(grads[x], [6.0])

    def test_chain_tanh_matmul_finite_differences(self, f64):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 2)))
        err = grad_check(lambda: T.mean_all(T.tanh(T.matmul(a, b))), [a, b])
        assert err < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)))
        with Tape([x]) as tape:
            y = T.tanh(x)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_forward_independent_of_tape_state(self):
        x = Tensor([[0.3, -0.2]])
        bare = T.tanh(x).data
        with Tape([x]):
            taped = T.tanh(x).data
        np.testing.assert_array_equal(bare, taped)

    def test_only_the_tapes_parameters_are_leaves(self, f64):
        x, y = Tensor([2.0]), Tensor([3.0])
        with Tape([x]) as tape:
            T.tanh(y)   # no input on the tape: nothing is recorded
            assert len(tape) == 0
            grads = tape.backward(T.sum_axis(T.mul(x, y)))
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], [3.0])

    def test_sweep_frees_each_record_before_the_next_rule(self, f64):
        """A record dies as soon as its rule has run: the array the later
        op's rule holds is gone when the earlier op's rule runs."""
        x = Tensor([1.0, 2.0])
        dead_when_first_ran = []

        def first(g):
            dead_when_first_ran.append(held() is None)
            return (g,)

        def holding(saved):
            return lambda g: (g * saved,)

        with Tape([x]) as tape:
            y = T.record(x.data * 1.0, (x,), first)
            saved = np.array([3.0, 4.0])
            held = weakref.ref(saved)
            loss = T.record(np.asarray((y.data * saved).sum()), (y,), holding(saved))
            del saved
            grads = tape.backward(loss)
            assert len(tape) == 0
        assert dead_when_first_ran == [True]
        np.testing.assert_array_equal(grads[x], [3.0, 4.0])

    def test_shared_node_accumulates_fanout(self, f64):
        x = Tensor([2.0])
        with Tape([x]) as tape:
            y = T.mul(x, x)
            grads = tape.backward(T.sum_axis(T.add(y, y)))
        np.testing.assert_array_equal(grads[x], [8.0])


class TestDtypeMode:
    def test_engine_switch(self):
        assert Tensor([1.0]).data.dtype == np.float32
        with T.using_dtype(np.float64):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_gradcheck_rejects_float32(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError, match="float64"):
            grad_check(lambda: T.sum_axis(x), [x])


def test_every_registered_op_passes_gradcheck():
    with T.using_dtype(np.float64):
        for name, err in op_checks(seed=0):
            assert err < TOLERANCE, f"{name}: {err}"


def test_every_model_loss_passes_gradcheck():
    with T.using_dtype(np.float64):
        results = model_checks(seed=0)
    assert {"ved_loss", "hgen_states", "e2e_loss_forced_switch"} <= {n for n, _ in results}
    for name, err in results:
        assert err < TOLERANCE, f"{name}: {err}"
