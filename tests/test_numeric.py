"""Tensor primitives against independent oracles.

The oracles here are deliberately dumb: matmul is re-done with three
nested loops, gradients with central finite differences, softmax with a
direct exp/sum evaluation.  The library must match them, not the other
way round.
"""
import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from evicred import numeric
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
    relu,
    sigmoid,
    reshape,
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


def fused_slab_bilstm(x, lengths, w_fw, b_fw, w_bw, b_bw, g=None):
    """The fused-slab LSTM step loop and BPTT, as an oracle for ``bilstm``.

    Each step's gates are a (2, n, 4H) slab of one (2, T*B, 4H) buffer and
    the hidden states are (2, T+1, B, H), so every gate and state operand is
    a strided view.  Returns the (2H, T*B) states and, given the output
    gradient ``g``, the gradients of the four arrays.
    """
    steps, batch, dim = x.shape
    size = w_fw.shape[0] // 4
    dtype = w_fw.dtype
    order = np.argsort(-lengths, kind="stable")
    t_col = np.arange(steps)[:, None]
    live = (t_col < lengths).sum(axis=1)
    k = lengths[order]
    step_read = np.where(t_col < k, k - 1 - t_col, t_col)
    rows = (np.stack([t_col.repeat(batch, axis=1), step_read]) * batch + order).reshape(2, -1)

    def inputs(span=slice(None)):
        return x.reshape(-1, dim)[rows[:, span]].astype(dtype, copy=False)

    sig = 3 * size
    w = np.stack([w_fw, w_bw])
    w[:, :sig] *= -1
    w_x_t = w[:, :, :dim].transpose(0, 2, 1)
    w_h_t = np.ascontiguousarray(w[:, :, dim:].transpose(0, 2, 1))
    bias = np.stack([b_fw, b_bw]).transpose(0, 2, 1)
    bias[:, :, :sig] *= -1
    block = min(steps, max(1, numeric._BLOCK_TOKENS // batch))
    z = np.empty((2, steps * batch, 4 * size), dtype=dtype)
    hs = np.zeros((2, steps + 1, batch, size), dtype=dtype)
    cells = np.zeros((steps + 1, 2, batch, size), dtype=dtype)
    with np.errstate(over="ignore"):
        for t in range(steps):
            if t % block == 0:
                span = slice(t * batch, min(t + block, steps) * batch)
                np.matmul(inputs(span), w_x_t, out=z[:, span])
                z[:, span] += bias
            n = live[t]
            at = t * batch
            slab = z[:, at:at + n]
            slab += hs[:, t, :n] @ w_h_t
            s = slab[:, :, :sig]
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(slab[:, :, sig:], out=slab[:, :, sig:])
            i, f = slab[:, :, :size], slab[:, :, size:2 * size]
            o, cand = slab[:, :, 2 * size:sig], slab[:, :, sig:]
            c = cells[t + 1, :, :n]
            np.multiply(f, cells[t, :, :n], out=c)
            c += i * cand
            h = hs[:, t + 1, :n]
            np.tanh(c, out=h)
            h *= o
    states = np.zeros((2 * size, steps * batch), dtype=dtype)
    halves = states.reshape(2, size, steps, batch)
    for j, (b, n) in enumerate(zip(order, k)):
        halves[0, :, :n, b] = hs[0, 1:n + 1, j].T
        halves[1, :, :n, b] = hs[1, n:0:-1, j].T
    if g is None:
        return states, None
    g_rows = g.reshape(2, size, -1).transpose(0, 2, 1)
    both = np.arange(2)[:, None]
    w_h = np.stack([w_fw[:, dim:], w_bw[:, dim:]])
    dh = np.zeros((2, batch, size), dtype=dtype)
    dc = np.zeros((2, batch, size), dtype=dtype)
    d_sig = np.empty((2, batch, sig), dtype=dtype)
    for t in range(steps - 1, -1, -1):
        n = live[t]
        at = t * batch
        z[:, at + n:at + batch] = 0.0
        slab = z[:, at:at + n]
        s = slab[:, :, :sig]
        i, f = slab[:, :, :size], slab[:, :, size:2 * size]
        o, cand = slab[:, :, 2 * size:sig], slab[:, :, sig:]
        tc = np.tanh(cells[t + 1, :, :n])
        h_grad, c_grad, d = dh[:, :n], dc[:, :n], d_sig[:, :n]
        h_grad += g_rows[both, rows[:, at:at + n]]
        c_grad += h_grad * o * (1.0 - tc * tc)
        np.multiply(c_grad, cand, out=d[:, :, :size])
        np.multiply(c_grad, cells[t, :, :n], out=d[:, :, size:2 * size])
        np.multiply(h_grad, tc, out=d[:, :, 2 * size:])
        d *= s
        cand[:] = c_grad * i * (1.0 - cand * cand)
        c_grad *= f
        np.subtract(1.0, s, out=s)
        np.multiply(d, s, out=s)
        np.matmul(slab, w_h, out=h_grad)
    z_t = z.transpose(0, 2, 1)
    gw = np.concatenate(
        [z_t @ inputs(), z_t @ hs[:, :steps].reshape(2, -1, size)], axis=2)
    gb = z.sum(axis=1)[:, :, None]
    return states, [gw[0], gb[0], gw[1], gb[1]]


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
        got = softmax(Tensor([[s] for s in scores])).data[:, 0]
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.allclose(got, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_masked_positions_exactly_zero(self):
        got = softmax(Tensor([[10.0], [10.0], [-1e9]]),
                      mask=np.array([True, True, False])).data[:, 0]
        assert got[2] == 0.0
        assert got[0] == pytest.approx(0.5, abs=1e-12)
        assert got[1] == pytest.approx(0.5, abs=1e-12)

    def test_extreme_scores_stay_finite(self):
        got = softmax(Tensor([[1000.0], [-1000.0]])).data
        assert np.all(np.isfinite(got))
        assert got[0, 0] == pytest.approx(1.0)

    def test_all_masked_raises(self):
        with pytest.raises(DegenerateInputError):
            softmax(Tensor([[1.0], [2.0]]), mask=np.array([False, False]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 1))
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
            want = softmax(Tensor(x[mask[:, b], b:b + 1])).data[:, 0]
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
            out = sum_all(affine(softmax(t, mask), weights))
        tape.backward(out)
        assert np.max(np.abs(numeric_gradient(value, t.data) - t.grad)) < 1e-7


class TestBatchLayout:
    def test_take_rows_sums_the_gradient_of_repeated_rows(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            rows = take_rows(table, [2, 0, 2])
            out = sum_all(affine(rows, np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 5.0]])))
        tape.backward(out)
        assert np.array_equal(rows.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
        assert np.array_equal(table.grad, [[3.0, 3.0], [0.0, 0.0], [6.0, 6.0]])
        with pytest.raises(ShapeError):
            take_rows(table, [3])

    def test_reshape_round_trips_gradient(self):
        t = Tensor(np.arange(6.0).reshape(6, 1), requires_grad=True)
        with Tape() as tape:
            out = sum_all(affine(reshape(t, 3, 2), np.arange(6.0).reshape(3, 2)))
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
        # 20 steps of BPTT through the kept gates; the second item is
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
            out = sum_all(affine(bilstm(x, lengths, *params), weights))
        tape.backward(out)
        for t in params:
            grad = np.zeros_like(t.data) if t.grad is None else t.grad
            assert np.max(np.abs(numeric_gradient(value, t.data) - grad)) < 1e-7
        unused = params[:2] if reverse else params[2:]
        assert all(t.grad is None or not t.grad.any() for t in unused)

    @pytest.mark.parametrize("x, lengths, error", [
        (np.zeros((3, 2)), np.array([3, 3]), ShapeError),
        (np.zeros((3, 2, 2)), np.array([3.0, 3.0]), ContractError),
        (np.zeros((3, 2, 2)), np.array([True, True]), ContractError),
        (np.zeros((3, 2, 2)), np.array([3, 4]), ShapeError),
        (np.zeros((3, 2, 2)), np.array([3, 0]), DegenerateInputError),
        (np.zeros((3, 0, 2)), np.array([], dtype=int), DegenerateInputError),
    ], ids=["2-D x", "float lengths", "bool lengths", "too long", "empty item",
            "empty batch"])
    def test_malformed_inputs_are_refused(self, x, lengths, error):
        params = [Tensor(np.zeros(shape)) for shape in [(4, 3), (4, 1)] * 2]
        with pytest.raises(error):
            bilstm(x, lengths, *params)

    @staticmethod
    def run(x, lengths, arrays, weights, dtype=np.float64, tape=True):
        params = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        if not tape:
            return bilstm(x, lengths, *params).data, None
        with Tape() as t:
            out = bilstm(x, lengths, *params)
            loss = sum_all(affine(out, weights))
        t.backward(loss)
        return out.data, [p.grad for p in params]

    @staticmethod
    def case(seed):
        # Four padded items of 30 steps; each gate block is a Glorot-sized
        # H x (d+H) draw, as the model initializes it.
        rng = np.random.default_rng(seed)
        steps, dim, size = 30, 5, 3
        x = rng.standard_normal((steps, 4, dim))
        lengths = np.array([steps, 1, 15, steps - 3])
        limit = np.sqrt(6.0 / (2 * size + dim))
        arrays = [rng.uniform(-limit, limit, shape)
                  for shape in [(4 * size, dim + size), (4 * size, 1)] * 2]
        return x, lengths, arrays, rng.standard_normal((2 * size, steps * 4))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_states_do_not_depend_on_the_tape(self, dtype):
        # Under a tape the op keeps its gates for BPTT; the arithmetic that
        # makes the states must be the same either way.
        x, lengths, arrays, weights = self.case(7)
        taped, _ = self.run(x, lengths, arrays, weights, dtype)
        untaped, _ = self.run(x, lengths, arrays, weights, dtype, tape=False)
        assert taped.dtype == untaped.dtype == dtype
        assert np.array_equal(taped, untaped)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-15), (np.float32, 1e-6)])
    def test_blocked_projection_matches_one_product(self, dtype, tol, monkeypatch):
        # The input projection is one product per block of steps; one
        # product over every step may round differently in the last bits,
        # so the states agree to a relative tolerance, not bit for bit.
        # Padded items end inside, at and past block boundaries.
        rng = np.random.default_rng(9)
        batch, dim, size = 3, 40, 8
        block = numeric._BLOCK_TOKENS // batch
        limit = np.sqrt(6.0 / (2 * size + dim))
        arrays = [rng.uniform(-limit, limit, shape)
                  for shape in [(4 * size, dim + size), (4 * size, 1)] * 2]
        for steps in (1, block - 1, block, block + 1, 3 * block + 5):
            x = rng.standard_normal((steps, batch, dim))
            lengths = np.array([steps, max(1, steps - block), 1])
            weights = rng.standard_normal((2 * size, steps * batch))
            blocked, g_blocked = self.run(x, lengths, arrays, weights, dtype)
            untaped, _ = self.run(x, lengths, arrays, weights, dtype, tape=False)
            with monkeypatch.context() as m:
                m.setattr(numeric, "_BLOCK_TOKENS", steps * batch)
                whole, g_whole = self.run(x, lengths, arrays, weights, dtype)
            assert np.array_equal(blocked, untaped), steps
            assert np.max(np.abs(blocked - whole)) <= tol * np.max(np.abs(whole)), steps
            for got, want in zip(g_blocked, g_whole):
                assert np.max(np.abs(got - want)) <= 10 * tol * np.max(np.abs(want))

    def test_live_items_match_each_item_alone(self):
        # Items step longest first and only while live; any mix of lengths,
        # ties and one-step items, in any order, must leave each item's
        # states as if it ran alone, its padding exactly zero, and the
        # gradient the sum of the items' own gradients.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rng = np.random.default_rng(10)
        dim, size = 3, 4
        limit = np.sqrt(6.0 / (2 * size + dim))
        arrays = [rng.uniform(-limit, limit, shape)
                  for shape in [(4 * size, dim + size), (4 * size, 1)] * 2]

        @hypothesis.settings(max_examples=40)
        @hypothesis.given(st.data())
        def check(data):
            pool = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
            lengths = np.array(data.draw(
                st.lists(st.sampled_from([1] + pool), min_size=1, max_size=9)))
            steps, batch = int(lengths.max()), len(lengths)
            x = rng.standard_normal((steps, batch, dim))
            weights = rng.standard_normal((2 * size, steps * batch))
            states, grads = self.run(x, lengths, arrays, weights)
            untaped, _ = self.run(x, lengths, arrays, weights, tape=False)
            assert np.array_equal(states, untaped)
            by_item = states.reshape(2 * size, steps, batch)
            w_by_item = weights.reshape(2 * size, steps, batch)
            want = [np.zeros_like(a) for a in arrays]
            for b, k in enumerate(lengths):
                alone, g_alone = self.run(x[:k, b:b + 1], [k], arrays,
                                          w_by_item[:, :k, b])
                assert np.max(np.abs(by_item[:, :k, b] - alone)) <= 1e-13
                assert not by_item[:, k:, b].any()
                want = [w + g for w, g in zip(want, g_alone)]
            for got, w in zip(grads, want):
                assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

        check()

    def test_matches_the_fused_slab_step_loop_bit_for_bit(self):
        # Gate-major slabs and slot-major states change only where values
        # sit, not one operation or product shape: states and all four
        # gradients equal the fused-slab loop's exactly, for any mix of
        # lengths, ties and one-step items, any width from one, both
        # dtypes, and products over one block or several.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            pool = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
            lengths = np.array(data.draw(
                st.lists(st.sampled_from([1] + pool), min_size=1, max_size=9)))
            size = data.draw(st.sampled_from([1, 2, 3, 5, 16, 64]))
            dim = data.draw(st.sampled_from([1, 3, 7, 100]))
            dtype = data.draw(st.sampled_from([np.float32, np.float64]))
            taped = data.draw(st.booleans())
            block_tokens = data.draw(st.sampled_from([8, 64, numeric._BLOCK_TOKENS]))
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            steps, batch = int(lengths.max()), len(lengths)
            x = rng.standard_normal((steps, batch, dim))
            limit = np.sqrt(6.0 / (2 * size + dim))
            arrays = [rng.uniform(-limit, limit, shape)
                      for shape in [(4 * size, dim + size), (4 * size, 1)] * 2]
            weights = rng.standard_normal((2 * size, steps * batch))
            with pytest.MonkeyPatch.context() as m:
                m.setattr(numeric, "_BLOCK_TOKENS", block_tokens)
                got, got_grads = self.run(x, lengths, arrays, weights, dtype, tape=taped)
                want, want_grads = fused_slab_bilstm(
                    x, lengths, *[a.astype(dtype) for a in arrays],
                    g=weights if taped else None)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            for g_got, g_want in zip(got_grads or [], want_grads or []):
                assert g_got.dtype == g_want.dtype and np.array_equal(g_got, g_want)

        check()

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [200, 400])
    def test_wide_passes_of_short_items_match_the_fused_slab_loop(self, batch, dtype,
                                                                  taped):
        # A scoring pass of up to 400 articles of 1-4 tokens: at these widths
        # every block holds one step, and most slots die within a few steps.
        rng = np.random.default_rng(batch)
        dim, size = 100, 16
        lengths = rng.integers(1, 5, batch)
        steps = int(lengths.max())
        assert min(steps, max(1, numeric._BLOCK_TOKENS // batch)) == 1
        x = rng.standard_normal((steps, batch, dim))
        limit = np.sqrt(6.0 / (2 * size + dim))
        arrays = [rng.uniform(-limit, limit, shape)
                  for shape in [(4 * size, dim + size), (4 * size, 1)] * 2]
        weights = rng.standard_normal((2 * size, steps * batch))
        got, got_grads = self.run(x, lengths, arrays, weights, dtype, tape=taped)
        want, want_grads = fused_slab_bilstm(x, lengths, *[a.astype(dtype) for a in arrays],
                                             g=weights if taped else None)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for g_got, g_want in zip(got_grads or [], want_grads or []):
            assert g_got.dtype == g_want.dtype and g_got.tobytes() == g_want.tobytes()

    @pytest.mark.parametrize("dtype, big", [(np.float32, 100.0), (np.float64, 1000.0)])
    def test_gates_past_exp_overflow_are_exactly_zero_or_one(self, dtype, big):
        # Gate preactivations of +-big overflow exp in this dtype.  With the
        # input and output gates open and the forget gate shut, every state
        # is tanh(tanh(cell bias)); with them flipped, every state is zero.
        rng = np.random.default_rng(11)
        steps, dim, size = 6, 3, 2
        x = rng.standard_normal((steps, 2, dim))
        lengths = np.array([steps, 3])
        weights = rng.standard_normal((2 * size, steps * 2))
        live = (np.arange(steps)[:, None] < lengths).reshape(-1)
        for sign in (1.0, -1.0):
            w = rng.uniform(-0.5, 0.5, (4 * size, dim + size))
            w[3 * size:] = 0.0
            cell = rng.uniform(0.1, 1.0)
            b = np.repeat([sign * big, -sign * big, sign * big, cell], size)[:, None]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states, grads = self.run(x, lengths, [w, b, w, b], weights, dtype)
            want = np.tanh(np.tanh(np.asarray(cell, dtype))) if sign > 0 else 0.0
            assert (states[:, live] == want).all()
            assert not states[:, ~live].any()
            assert all(np.isfinite(g).all() for g in grads)

    def test_float32_stays_within_bound_of_float64(self):
        # float32 rounds at 6e-8 relative; over 30 steps of Glorot-sized
        # weights the states (in (-1, 1)) stay within 1e-6 of the float64
        # op and every gradient within 1e-5 of its largest float64 entry.
        x, lengths, arrays, weights = self.case(8)
        s64, g64 = self.run(x, lengths, arrays, weights)
        s32, g32 = self.run(x, lengths, arrays, weights, np.float32)
        assert s32.dtype == np.float32
        assert np.max(np.abs(s32 - s64)) < 1e-6
        for got, want in zip(g32, g64):
            assert got.dtype == np.float32
            assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))


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

    def test_a_tape_is_replayed_once(self):
        a = Tensor([[2.0]], requires_grad=True)
        with Tape() as tape:
            out = mul(a, a)
        tape.backward(out)
        with pytest.raises(ContractError):
            tape.backward(out)
        assert a.grad[0, 0] == 4.0

    def test_a_second_open_tape_is_refused(self):
        a = Tensor([[2.0]], requires_grad=True)
        with Tape() as outer:
            with pytest.raises(ContractError, match="already open"):
                with Tape():
                    pass
            out = mul(a, a)
        outer.backward(out)
        assert a.grad[0, 0] == 4.0
        assert numeric.active_tape() is None

    def test_a_tape_opens_after_an_exception_inside_one(self):
        a = Tensor([[2.0]], requires_grad=True)
        with pytest.raises(ValueError):
            with Tape():
                mul(a, a)
                raise ValueError("inside the block")
        assert numeric.active_tape() is None
        with Tape() as tape:
            out = mul(a, a)
        tape.backward(out)
        assert len(tape) == 1 and a.grad[0, 0] == 4.0

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
            out = sum_all(affine(vstack([a, b]), np.array([[1.0], [10.0], [100.0]])))
        tape.backward(out)
        assert a.grad[0, 0] == 1.0
        assert b.grad[:, 0].tolist() == [10.0, 100.0]

    def test_row_gradient_lands_in_that_row(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            out = sum_all(take_rows(table, range(1, 2)))
        tape.backward(out)
        assert np.array_equal(table.grad, [[0, 0], [1, 1], [0, 0]])

    def test_take_rows_takes_a_range(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        with Tape() as tape:
            part = take_rows(table, range(1, 3))
            out = sum_all(affine(part, np.array([[1.0, 2.0], [3.0, 4.0]])))
        tape.backward(out)
        assert np.array_equal(part.data, [[2, 3], [4, 5]])
        assert np.array_equal(table.grad, [[0, 0], [1, 2], [3, 4], [0, 0]])

    @pytest.mark.parametrize("start,stop", [(-1, 1), (2, 2), (3, 1), (0, 5)])
    def test_take_rows_rejects_bad_ranges(self, start, stop):
        with pytest.raises(ShapeError):
            take_rows(Tensor(np.zeros((4, 2))), range(start, stop))

    @pytest.mark.parametrize("index", [[0.5], [True], np.array([1.0])],
                             ids=["float", "bool", "float array"])
    def test_take_rows_refuses_indices_that_are_not_integers(self, index):
        with pytest.raises(ContractError):
            take_rows(Tensor(np.zeros((4, 2))), index)

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

    @pytest.mark.parametrize("data", [5.0, [1.0, 2.0], np.zeros((2, 2, 2)),
                                      [[1.0], [2.0, 3.0]]],
                             ids=["scalar", "vector", "3-D", "ragged"])
    def test_anything_but_a_matrix_is_refused(self, data):
        with pytest.raises(ShapeError):
            Tensor(data)

    @pytest.mark.parametrize("data", [[[1, 2]], "abc", np.zeros((2, 2), dtype=np.float16)],
                             ids=["int", "str", "float16"])
    def test_anything_but_float32_or_float64_is_refused(self, data):
        with pytest.raises(ContractError):
            Tensor(data)


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


# Every primitive that returns through ``_op``, on the input shapes listed.
# ``bilstm`` records its own joint backward and has its own tests above.
_MASK = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
GRADIENT_CASES = {
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "add[same]": (add, [(3, 4), (3, 4)]),
    "add[scalar]": (add, [(3, 4), (1, 1)]),
    "add[column]": (add, [(3, 4), (3, 1)]),
    "add[row]": (add, [(3, 4), (1, 4)]),
    "mul": (mul, [(3, 4), (3, 4)]),
    "affine[array]": (lambda a: affine(a, np.linspace(-2.0, 2.0, 12).reshape(3, 4),
                                       np.arange(3.0).reshape(3, 1)), [(3, 4)]),
    "tanh": (tanh, [(3, 4)]),
    "sigmoid": (sigmoid, [(3, 4)]),
    "relu": (relu, [(3, 4)]),
    "log": (log, [(3, 4)]),
    "clip": (lambda a: clip(a, -1.0, 0.8), [(3, 4)]),
    "softmax": (softmax, [(4, 3)]),
    "softmax[masked]": (lambda a: softmax(a, _MASK), [(4, 3)]),
    "sum_all": (sum_all, [(3, 4)]),
    "transpose": (transpose, [(3, 4)]),
    "vstack": (lambda *parts: vstack(parts), [(2, 3), (1, 3), (3, 3)]),
    "take_rows": (lambda a: take_rows(a, [2, 0, 2, 1]), [(3, 4)]),
    "reshape": (lambda a: reshape(a, 2, 6), [(3, 4)]),
    "step_weighted_sum": (step_weighted_sum, [(3, 6), (3, 2)]),
}


def test_gradient_cases_cover_every_primitive_but_bilstm():
    primitives = set(numeric.__all__) - {"Tensor", "Tape", "bilstm", "zero_grads",
                                         "glorot_uniform"}
    assert {name.split("[")[0] for name in GRADIENT_CASES} == primitives


@pytest.mark.parametrize("name, constant", [
    *[(name, None) for name in GRADIENT_CASES],
    *[(name, i) for name, (_, shapes) in GRADIENT_CASES.items() if len(shapes) > 1
      for i in range(len(shapes))],
])
def test_every_primitive_gradient_matches_finite_difference(name, constant):
    # Input ``constant`` tracks no gradient, so its grad stays None; the
    # others get the finite-difference gradient of a weighted sum of the
    # output.  Entries keep 0.2 or more from relu's kink and log's pole at
    # zero; none of these seeded draws lies within a step of clip's bounds.
    fn, shapes = GRADIENT_CASES[name]
    rng = np.random.default_rng(list(GRADIENT_CASES).index(name))
    arrays = [rng.uniform(0.2, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
              for shape in shapes]
    if name == "log":
        arrays = [np.abs(a) for a in arrays]
    inputs = [Tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
    weights = rng.standard_normal(fn(*inputs).shape)
    with Tape() as tape:
        loss = sum_all(mul(fn(*inputs), Tensor(weights)))
    tape.backward(loss)
    for i, (t, a) in enumerate(zip(inputs, arrays)):
        if i == constant:
            assert t.grad is None
        else:
            expected = numeric_gradient(lambda: float((fn(*inputs).data * weights).sum()), a)
            np.testing.assert_allclose(t.grad, expected, rtol=1e-6, atol=1e-9)


def tape_recorders(source: str) -> list[str]:
    """Module-level functions and methods (``Tape``'s aside) of ``source``
    that call ``active_tape()`` or a ``._record`` method: the code that puts
    ops on a tape."""
    tree = ast.parse(source)
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [method for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name != "Tape"
             for method in node.body if isinstance(method, ast.FunctionDef)]
    return sorted(d.name for d in defs if any(
        isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == "active_tape"
             or getattr(call.func, "attr", None) == "_record")
        for call in ast.walk(d)))


def test_tape_recorder_finder_has_teeth():
    assert tape_recorders(
        "def own(a):\n    def backward(g):\n        pass\n"
        "    active_tape()._ops.append((a, backward))\n"
        "class Holder:\n    def put(self, tape):\n        tape._record(1, 2)\n"
        "class Tape:\n    def __enter__(self):\n        active_tape()\n"
        "def pure(a):\n    return _op(a, (a, None))\n") == ["own", "put"]


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "src" / "evicred").glob("*.py")),
    ids=lambda p: p.name)
def test_only_op_and_bilstm_record_on_a_tape(path):
    # A new primitive returns through ``_op`` and so cannot bring its own
    # recording protocol back; ``bilstm`` records its joint BPTT itself.
    expected = ["_op", "bilstm"] if path.name == "numeric.py" else []
    assert tape_recorders(path.read_text(encoding="utf-8")) == expected
