import numpy as np
import pytest

from qhybrid.optim import _BLOCK, Adam, lr_schedule
from qhybrid.rng import Rng


def test_first_step_unit_gradient():
    # bias correction makes m_hat = v_hat = 1, so the step is -alpha/(1+eps)
    adam = Adam(alpha=0.001)
    theta = np.zeros(4)
    adam.step([theta], [np.ones(4)])
    expected = -0.001 / (1.0 + 1e-8)
    assert np.max(np.abs(theta - expected)) < 1e-18
    assert adam.t == 1


def test_zero_gradient_zero_moments_is_identity():
    adam = Adam()
    theta = np.array([1.0, -2.0, 3.5])
    adam.step([theta], [np.zeros(3)])
    assert theta.tolist() == [1.0, -2.0, 3.5]


def test_two_steps_match_hand_recurrence():
    alpha, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    adam = Adam(alpha=alpha, beta1=b1, beta2=b2, eps=eps)
    theta = np.array([0.25])
    g = np.array([1.0])
    adam.step([theta], [g])
    adam.step([theta], [g])

    # the same five equations evaluated by hand on scalars
    th, m, v = 0.25, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        th = th - alpha * m_hat / (np.sqrt(v_hat) + eps)
    assert theta[0] == pytest.approx(th, abs=1e-18)


def test_shape_mismatch_rejected():
    adam = Adam()
    with pytest.raises(ValueError):
        adam.step([np.zeros(3)], [np.zeros(4)])


def test_moments_track_parameter_count():
    adam = Adam()
    adam.step([np.zeros(2)], [np.ones(2)])
    with pytest.raises(ValueError):
        adam.step([np.zeros(2), np.zeros(3)], [np.ones(2), np.ones(3)])


def test_lr_schedule_epoch_zero():
    assert lr_schedule(0.01, 0) == 0.01


def test_lr_schedule_direct_formula():
    assert lr_schedule(0.001, 30, step_size=15, factor=0.5) == pytest.approx(0.00025)


def test_lr_schedule_factor_one_is_constant():
    assert all(lr_schedule(0.3, e, 5, 1.0) == 0.3 for e in range(40))


def test_lr_schedule_validation():
    with pytest.raises(ValueError):
        lr_schedule(0.1, 1, step_size=0)
    with pytest.raises(ValueError):
        lr_schedule(0.1, 1, factor=0.0)


def _per_tensor_adam(params, grads, m, v, t, alpha, b1=0.9, b2=0.999, eps=1e-8):
    # the per-tensor, allocating form of the update, in its order of operations
    bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
    for p, g, mt, vt in zip(params, grads, m, v):
        mt *= b1
        mt += (1.0 - b1) * g
        vt *= b2
        vt += (1.0 - b2) * (g * g)
        p -= alpha * (mt / bias1) / (np.sqrt(vt / bias2) + eps)


def test_blocked_step_matches_per_tensor_formula_bit_for_bit():
    rng = Rng(17)
    shapes = [(3, _BLOCK // 2 + 7), (5,), (2, _BLOCK + 1)]  # 57 362 elements in all
    tensors = [rng.uniform(int(np.prod(s))).reshape(s) - 0.5 for s in shapes]
    flat = np.concatenate([t.ravel() for t in tensors])
    assert flat.size % _BLOCK
    listed = [t.copy() for t in tensors]
    m = [np.zeros_like(t) for t in tensors]
    v = [np.zeros_like(t) for t in tensors]
    adam_flat, adam_list = Adam(alpha=0.01), Adam(alpha=0.01)
    for step in range(5):
        alpha = lr_schedule(0.01, step, step_size=2, factor=0.3)
        adam_flat.alpha = adam_list.alpha = alpha
        grads = [rng.uniform(t.size).reshape(t.shape) - 0.5 for t in tensors]
        adam_flat.step([flat], [np.concatenate([g.ravel() for g in grads])])
        adam_list.step(listed, grads)
        _per_tensor_adam(tensors, grads, m, v, step + 1, alpha)
        expected = np.concatenate([t.ravel() for t in tensors])
        assert flat.tobytes() == expected.tobytes()
        assert np.concatenate([t.ravel() for t in listed]).tobytes() == expected.tobytes()


def test_param_that_cannot_be_flattened_in_place_rejected():
    with pytest.raises(ValueError):
        Adam().step([np.zeros((4, 4))[:, :2]], [np.ones((4, 2))])
