"""Tensor primitives against independent oracles.

The oracles here are deliberately dumb: matmul is re-done with three
nested loops, gradients with central finite differences, softmax with a
direct exp/sum evaluation.  The library must match them, not the other
way round.
"""
import math

import numpy as np
import pytest

from evicred.errors import ContractError, DegenerateInputError, ShapeError
from evicred.numeric import (
    Tape,
    Tensor,
    add,
    affine,
    bilstm,
    clip,
    log,
    matmul,
    mul,
    mul_const,
    relu,
    sigmoid,
    reshape,
    slice_rows,
    softmax,
    step_weighted_sum,
    sum_all,
    take_rows,
    tanh,
    transpose,
    vstack,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def numeric_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def rel_err(a, b):
    return abs(a - b) / max(abs(a) + abs(b), 1e-6)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.allclose(matmul(a, eye).data, a.data)

    def test_small_known_product(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert matmul(a, b).item() == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        for rows, inner, cols in [(5, 4, 3), (1, 7, 2), (32, 32, 32)]:
            a = rng.standard_normal((rows, inner))
            b = rng.standard_normal((inner, cols))
            got = matmul(Tensor(a), Tensor(b)).data
            assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestElementwise:
    def test_relu_values(self):
        out = relu(Tensor([[-1.0], [0.0], [2.0]]))
        assert out.data[:, 0].tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([[0.0]])).item() == 0.5

    def test_sigmoid_stable_for_large_magnitudes(self):
        out = sigmoid(Tensor([[800.0], [-800.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[1, 0] == pytest.approx(0.0)

    def test_tanh_gradient_matches_finite_difference(self):
        x = 0.3
        analytic = 1.0 - math.tanh(x) ** 2
        h = 1e-6
        numeric = (math.tanh(x + h) - math.tanh(x - h)) / (2 * h)
        t = Tensor([[x]], requires_grad=True)
        with Tape() as tape:
            out = tanh(t)
        tape.backward(out)
        assert abs(t.grad[0, 0] - analytic) < 1e-12
        assert abs(t.grad[0, 0] - numeric) < 1e-7

    def test_add_broadcasts_column_and_scalar(self):
        a = Tensor(np.ones((2, 3)))
        col = Tensor([[1.0], [2.0]])
        out = add(a, col)
        assert out.data.tolist() == [[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]]
        out2 = add(a, Tensor([[5.0]]))
        assert np.all(out2.data == 6.0)

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_clip_passes_gradient_only_inside(self):
        t = Tensor([[0.5], [2.0], [-1.0]], requires_grad=True)
        with Tape() as tape:
            out = sum_all(clip(t, 0.0, 1.0))
        tape.backward(out)
        assert t.grad[:, 0].tolist() == [1.0, 0.0, 0.0]


class TestSoftmax:
    def test_matches_direct_evaluation(self):
        scores = [1.0, 2.0, 3.0]
        exps = [math.exp(s) for s in scores]
        expected = [e / sum(exps) for e in exps]
        got = softmax(Tensor(scores)).data[:, 0]
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.allclose(got, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_masked_positions_exactly_zero(self):
        got = softmax(Tensor([10.0, 10.0, -1e9]),
                      mask=np.array([True, True, False])).data[:, 0]
        assert got[2] == 0.0
        assert got[0] == pytest.approx(0.5, abs=1e-12)
        assert got[1] == pytest.approx(0.5, abs=1e-12)

    def test_extreme_scores_stay_finite(self):
        got = softmax(Tensor([1000.0, -1000.0])).data
        assert np.all(np.isfinite(got))
        assert got[0, 0] == pytest.approx(1.0)

    def test_all_masked_raises(self):
        with pytest.raises(DegenerateInputError):
            softmax(Tensor([1.0, 2.0]), mask=np.array([False, False]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        base = softmax(Tensor(x)).data
        shifted = softmax(Tensor(x + 123.456)).data
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 1))
        weights = rng.standard_normal((1, 5))
        t = Tensor(x.copy(), requires_grad=True)

        def value():
            return (weights @ softmax(t).data).item()

        with Tape() as tape:
            out = matmul(Tensor(weights), softmax(t))
        tape.backward(out)
        numeric = numeric_gradient(value, t.data)
        assert np.max(np.abs(numeric - t.grad)) < 1e-7


    def test_each_column_is_normalized_under_its_own_mask(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        mask = np.array([[1, 1, 1], [1, 0, 1], [0, 0, 1], [1, 0, 1]], dtype=bool)
        got = softmax(Tensor(x), mask).data
        for b in range(3):
            want = softmax(Tensor(x[mask[:, b], b])).data[:, 0]
            assert np.max(np.abs(got[mask[:, b], b] - want)) < 1e-15
            assert np.all(got[~mask[:, b], b] == 0.0)

    def test_column_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        t = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        mask = rng.random((4, 3)) < 0.7
        mask[0] = True
        weights = rng.standard_normal((4, 3))

        def value():
            return float(np.sum(weights * softmax(t, mask).data))

        with Tape() as tape:
            out = sum_all(mul_const(softmax(t, mask), weights))
        tape.backward(out)
        assert np.max(np.abs(numeric_gradient(value, t.data) - t.grad)) < 1e-7


class TestBatchLayout:
    def test_take_rows_sums_the_gradient_of_repeated_rows(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            rows = take_rows(table, [2, 0, 2])
            out = sum_all(mul_const(rows, np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 5.0]])))
        tape.backward(out)
        assert np.array_equal(rows.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
        assert np.array_equal(table.grad, [[3.0, 3.0], [0.0, 0.0], [6.0, 6.0]])
        with pytest.raises(ShapeError):
            take_rows(table, [3])

    def test_reshape_round_trips_gradient(self):
        t = Tensor(np.arange(6.0).reshape(6, 1), requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul_const(reshape(t, 3, 2), np.arange(6.0).reshape(3, 2)))
        tape.backward(out)
        assert np.array_equal(t.grad, np.arange(6.0).reshape(6, 1))
        with pytest.raises(ShapeError):
            reshape(t, 4, 2)

    def test_step_weighted_sum_matches_a_loop(self):
        rng = np.random.default_rng(5)
        steps, batch = 4, 3
        values = Tensor(rng.standard_normal((2, steps * batch)), requires_grad=True)
        weights = Tensor(rng.standard_normal((steps, batch)), requires_grad=True)
        got = step_weighted_sum(values, weights).data
        for b in range(batch):
            want = sum(values.data[:, t * batch + b] * weights.data[t, b]
                       for t in range(steps))
            assert np.max(np.abs(got[:, b] - want)) < 1e-14
        with pytest.raises(ShapeError):
            step_weighted_sum(values, Tensor(np.ones((5, 3))))


class TestLstm:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_matches_finite_difference_across_blocks(self, reverse):
        # 20 steps span two 16-step gradient blocks; the second item is
        # padded after 7 steps, so its backward direction starts at step 6.
        # The loss reads one direction's half of the output, so the other
        # direction's weights and bias must get a zero gradient.
        rng = np.random.default_rng(6)
        steps, lengths, dim, size = 20, np.array([20, 7]), 2, 2
        x = rng.standard_normal((steps, 2, dim))
        params = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in [(4 * size, dim + size), (4 * size, 1)] * 2]
        weights = np.zeros((2 * size, steps * 2))
        half = slice(size, 2 * size) if reverse else slice(0, size)
        weights[half] = rng.standard_normal((size, steps * 2))

        def value():
            return float(np.sum(weights * bilstm(x, lengths, *params).data))

        with Tape() as tape:
            out = sum_all(mul_const(bilstm(x, lengths, *params), weights))
        tape.backward(out)
        for t in params:
            grad = np.zeros_like(t.data) if t.grad is None else t.grad
            assert np.max(np.abs(numeric_gradient(value, t.data) - grad)) < 1e-7
        unused = params[:2] if reverse else params[2:]
        assert all(t.grad is None or not t.grad.any() for t in unused)


class TestBackward:
    def test_sum_of_linear_map_gradient(self):
        # d/dW sum(W @ x) puts a copy of x along every row.
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 1)))
        with Tape() as tape:
            out = sum_all(matmul(w, x))
        tape.backward(out)
        assert np.allclose(w.grad, np.tile(x.data.T, (3, 1)))

    def test_sigmoid_dot_gradient(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 1)))
        with Tape() as tape:
            s = sigmoid(matmul(w, x))
        tape.backward(s)
        sv = s.item()
        assert np.allclose(w.grad, sv * (1 - sv) * x.data.T)

    def test_composite_graph_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        w1 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b1 = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 1)))

        def forward():
            hidden = tanh(add(matmul(w1, x), b1))
            return sigmoid(matmul(w2, hidden))

        with Tape() as tape:
            out = forward()
        tape.backward(out)
        for t in (w1, b1, w2):
            numeric = numeric_gradient(lambda: forward().item(), t.data)
            worst = np.max(np.abs(numeric - t.grad)
                           / np.maximum(np.abs(numeric) + np.abs(t.grad), 1e-6))
            assert worst < 1e-4

    def test_unused_values_keep_no_gradient(self):
        a = Tensor([[1.0]], requires_grad=True)
        b = Tensor([[2.0]], requires_grad=True)
        with Tape() as tape:
            used = affine(a, 3.0)
            affine(b, 5.0)  # recorded but not part of the loss
        tape.backward(used)
        assert a.grad is not None
        assert b.grad is None

    def test_gradient_accumulates_across_shared_input(self):
        a = Tensor([[2.0]], requires_grad=True)
        with Tape() as tape:
            out = mul(a, a)
        tape.backward(out)
        assert a.grad[0, 0] == 4.0

    def test_loss_must_be_scalar_and_recorded(self):
        a = Tensor([[1.0], [2.0]], requires_grad=True)
        with Tape() as tape:
            out = affine(a, 2.0)
        with pytest.raises(ContractError):
            tape.backward(out)
        other = Tensor([[1.0]], requires_grad=True)
        with pytest.raises(ContractError):
            tape.backward(other)

    def test_no_recording_outside_tape(self):
        a = Tensor([[1.0]], requires_grad=True)
        out = affine(a, 2.0)
        assert out.data[0, 0] == 2.0
        tape = Tape()
        with tape:
            pass
        assert len(tape) == 0


class TestStackingAndSlicing:
    def test_vstack_roundtrip_gradient(self):
        a = Tensor([[1.0]], requires_grad=True)
        b = Tensor([[2.0], [3.0]], requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul_const(vstack([a, b]), np.array([[1.0], [10.0], [100.0]])))
        tape.backward(out)
        assert a.grad[0, 0] == 1.0
        assert b.grad[:, 0].tolist() == [10.0, 100.0]

    def test_row_gradient_lands_in_that_row(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            out = sum_all(slice_rows(table, 1, 2))
        tape.backward(out)
        assert np.array_equal(table.grad, [[0, 0], [1, 1], [0, 0]])

    def test_slice_rows_takes_a_range(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        with Tape() as tape:
            part = slice_rows(table, 1, 3)
            out = sum_all(mul_const(part, np.array([[1.0, 2.0], [3.0, 4.0]])))
        tape.backward(out)
        assert np.array_equal(part.data, [[2, 3], [4, 5]])
        assert np.array_equal(table.grad, [[0, 0], [1, 2], [3, 4], [0, 0]])

    @pytest.mark.parametrize("start,stop", [(-1, 1), (2, 2), (3, 1), (0, 5)])
    def test_slice_rows_rejects_bad_ranges(self, start, stop):
        with pytest.raises(ShapeError):
            slice_rows(Tensor(np.zeros((4, 2))), start, stop)

    def test_transpose_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            out = sum_all(transpose(a))
        tape.backward(out)
        assert a.grad.shape == (2, 3)
        assert np.all(a.grad == 1.0)


class TestDtypes:
    def test_float32_stays_float32(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float32))
        assert matmul(a, b).data.dtype == np.float32

    def test_integers_promote_to_float64(self):
        assert Tensor([[1, 2]]).data.dtype == np.float64

    def test_vectors_become_columns_scalars_1x1(self):
        assert Tensor([1.0, 2.0, 3.0]).shape == (3, 1)
        assert Tensor(5.0).shape == (1, 1)


def test_log_gradient_is_reciprocal():
    t = Tensor([[0.7]], requires_grad=True)
    with Tape() as tape:
        out = log(t)
    tape.backward(out)
    assert out.item() == pytest.approx(math.log(0.7), abs=1e-12)
    assert t.grad[0, 0] == pytest.approx(1.0 / 0.7, abs=1e-12)


def test_affine_applies_scale_then_shift():
    out = affine(Tensor([[2.0]]), -1.0, 1.0)
    assert out.item() == -1.0
