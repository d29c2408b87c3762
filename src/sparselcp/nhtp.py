"""Newton hard-thresholding pursuit (NHTP) for sparse complementarity.

Minimizes a complementarity merit f over the sparsity set ||x||_0 <= s.
Each iteration selects the working set T_k as the s largest magnitudes of
x - eta * grad f(x), solves the Newton system restricted to T_k (with a
correction for coordinates about to be zeroed), falls back to the
restricted gradient when the system is singular or the direction fails a
descent test, then backtracks along

    x(alpha) = x_T + alpha d_T on T,  0 off T,

so every iterate keeps at most s nonzeros.  Halting combines a
stationarity residual, an objective-stall test, and an iteration cap.

The threshold step eta controls only the working-set selection (and the
residual normalization), not the step length.  A fixed eta can be too
aggressive far from a solution: the selection then discards coordinates
carrying real progress and no backtracking step is acceptable.  When a
line search exhausts its budget the solver halves eta and retries the
iteration from the same point, so descent stays monotone; eta never
grows back.  Only when eta has been driven 2^40 times below its starting
value does the solver give up and report the failed line search.

At a fixed point and working set, the Newton solve, the fallback
direction and the line search do not depend on eta: eta enters only the
selection of T and the ||x_offT||^2 / (4 eta) term of the descent test,
which grows as eta halves.  So a retry that reselects the same T reuses
the Newton solve and reruns only the descent test, and a direction whose
line search already failed there is not searched again: the retry goes
straight to the next halving.  Each halving still adds 51 to the
reported backtrack count, whether or not its search ran.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import merit as mer
from .core import (SingularError, SolveReport, Termination, _check_finite,
                   dense_solve, top_s_by_magnitude)

logger = logging.getLogger("sparselcp.nhtp")

# curvature floor gamma of the Newton descent test; the inactive value
# applies when x already vanishes off the working set
_GAMMA_ACTIVE = 1e-4
_GAMMA_INACTIVE = 1e-10
# relative objective change below which the solve reports a stall
_OBJ_TOL = 1e-10
# largest backtracking exponent tried per line search
_MAX_BACKTRACKS = 50


@dataclass
class IterateState:
    """One solver iterate: the point, its working sets and derivatives.

    support is the current selection T_k and prev_support the set T_{k-1}
    whose coordinates may still be nonzero in x, both sorted index arrays.
    eta is the threshold step in effect for this iterate.

    The rest is what is known at (x, support) whatever eta is: newton
    holds the restricted Newton solve once newton_direction has run it,
    and failed the directions whose line search failed here (True for
    the Newton direction, False for the fallback).
    """

    x: np.ndarray
    y: np.ndarray
    support: np.ndarray
    prev_support: np.ndarray
    value: float
    grad: np.ndarray
    eta: float
    newton: tuple = None
    failed: set = field(default_factory=set)


def select_support(x, grad, eta, s):
    """Working set: indices of the s largest |x - eta * grad| entries."""
    return top_s_by_magnitude(x - eta * grad, s)


def residual(x, grad, T, eta, s):
    """Stationarity residual of x relative to the working set T.

    The first part stacks grad on T with x off T; the second part charges
    any off-T gradient entry exceeding the s-th largest |x_i| divided by
    eta.  Both vanish exactly at points satisfying the sparse
    stationarity conditions.
    """
    n = x.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[T] = True
    first = np.sqrt(np.sum(grad[T] ** 2) + np.sum(x[~mask] ** 2))
    if s >= n:
        return first
    xs = np.partition(np.abs(x), n - s)[n - s]
    slack = np.abs(grad[~mask]).max() - xs / eta
    return first + max(slack, 0.0)


def newton_direction(state, model, inst):
    """Restricted Newton direction, or None when the fallback must run.

    Solves H[T,T] d_T = H[T,J] x_J - grad_T with J the coordinates being
    dropped from the previous working set, and sets d = -x off T.  Returns
    None if the system is singular or d fails the descent margin test
        <grad_T, d_T> <= -gamma ||d||^2 + ||x_offT||^2 / (4 eta),
    with gamma = 1e-10 when x vanishes off T and 1e-4 otherwise.  Only
    the test reads eta, so the solve is kept in state.newton and a later
    call on the same state with a smaller eta reruns the test alone.
    """
    if state.newton is None:
        state.newton = _newton_solve(state, model, inst)
    d, slope, d_sq, off_sq = state.newton
    if d is None:
        return None
    gamma = _GAMMA_INACTIVE if off_sq == 0.0 else _GAMMA_ACTIVE
    if slope <= -gamma * d_sq + off_sq / (4.0 * state.eta):
        return d
    return None


def _newton_solve(state, model, inst):
    """The eta-free part of newton_direction: (d, <grad_T, d_T>, ||d||^2,
    ||x_offT||^2), with d None when the system is singular."""
    x, y, g, t = state.x, state.y, state.grad, state.support
    rhs = -g[t]
    j = np.setdiff1d(state.prev_support, t)
    xj = x[j]
    if np.any(xj != 0.0):
        rhs = rhs + mer.merit_hessian(model, inst, x, t, j, y=y) @ xj
    try:
        dt = dense_solve(mer.merit_hessian(model, inst, x, t, t, y=y), rhs)
    except SingularError:
        return None, None, None, None
    d = -x
    d[t] = dt
    off = np.ones(x.shape[0], dtype=bool)
    off[t] = False
    return d, np.dot(g[t], dt), np.dot(d, d), float(np.sum(x[off] ** 2))


def fallback_direction(state):
    """Restricted steepest descent: -grad on T, -x off T."""
    d = -state.x
    d[state.support] = -state.grad[state.support]
    return d


def line_search(state, direction, model, inst, config):
    """Armijo backtracking along the support-restricted update.

    Tries alpha = beta^t for t = 0..50 against
    f(x(alpha)) <= f(x) + sigma * alpha * <grad f(x), d>.  Returns
    (alpha, x_new, y_new, f_new, t) or None when every alpha fails.
    """
    x, g, f = state.x, state.grad, state.value
    t_idx = state.support
    slope = float(np.dot(g, direction))
    cols = inst.M[:, t_idx]
    xt = x[t_idx]
    dt = direction[t_idx]
    alpha = 1.0
    for t in range(_MAX_BACKTRACKS + 1):
        xt_new = xt + alpha * dt
        y_new = cols @ xt_new + inst.q
        x_new = np.zeros_like(x)
        x_new[t_idx] = xt_new
        f_new = mer.value_from_xy(model, x_new, y_new)
        if f_new <= f + config.sigma * alpha * slope:
            return alpha, x_new, y_new, f_new, t
        alpha *= config.beta
    return None


def solve(inst, model, config, x0=None, callback=None):
    """Run the pursuit on an instance; returns a SolveReport.

    x0 defaults to zero and must be finite.  The starting working set is
    top_s_by_magnitude(x0, s) and x0 is zeroed off it: nonzeros rank ahead
    of zeros and ties go to the lowest index, so a sparser start is padded
    with the lowest free indices.  callback(k, x, f),
    when given, observes every iterate including the start; it must not
    mutate x.

    When a line search exhausts its 51 trial steps the threshold step eta
    is halved and the iteration retried from the same point; a retry that
    reselects the same working set reuses its Newton solve and skips a
    direction already seen to fail (see the module docstring).  The solve
    reports LineSearchFailed only once eta has hit its floor.  The one
    selection and residual at the head of each iteration serve every
    exit, tested as stall, then residual, then iteration cap.
    """
    n = inst.n
    s = config.s
    if not 1 <= s <= n:
        raise ValueError("s out of range for this instance")
    eta = config.eta_for(n)
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError("x0 length must match the instance")
        _check_finite(x, "x0")
    prev_T = top_s_by_magnitude(x, s)
    x[np.setdiff1d(np.arange(n), prev_T)] = 0.0
    t_start = time.perf_counter()
    eta_floor = eta * 2.0**-40
    y = inst.M @ x + inst.q
    f = mer.value_from_xy(model, x, y)
    g = mer.gradient_from_xy(model, inst.M, x, y)
    trace = [f]
    if callback is not None:
        callback(0, x, f)
    logger.info("solve start: n=%d s=%d eta=%g merit=%s f0=%.6e",
                n, s, eta, model.kind, f)
    backtracks = 0
    k = 0
    state = None
    stalled = False
    while True:
        T = select_support(x, g, eta, s)
        res = residual(x, g, T, eta, s)
        if stalled:
            termination = Termination.OBJECTIVE_STALLED
            break
        if res <= config.tol:
            termination = Termination.RESIDUAL_MET
            break
        if k >= config.max_iter:
            termination = Termination.ITERATION_CAP
            break
        if state is None or not np.array_equal(T, state.support):
            state = IterateState(x, y, T, prev_T, f, g, eta)
        state.eta = eta
        d = newton_direction(state, model, inst)
        used_newton = d is not None
        step = None
        if used_newton not in state.failed:
            if d is None:
                d = fallback_direction(state)
            step = line_search(state, d, model, inst, config)
        if step is None:
            state.failed.add(used_newton)
            backtracks += _MAX_BACKTRACKS + 1
            if eta <= eta_floor:
                termination = Termination.LINE_SEARCH_FAILED
                break
            eta *= 0.5
            logger.debug("iter %d: line search exhausted, eta -> %g", k, eta)
            continue
        alpha, x_new, y_new, f_new, bt = step
        backtracks += bt
        stalled = abs(f_new - f) < _OBJ_TOL * (1.0 + abs(f))
        x, y, f = x_new, y_new, f_new
        prev_T = T
        state = None
        k += 1
        trace.append(f)
        if callback is not None:
            callback(k, x, f)
        g = mer.gradient_from_xy(model, inst.M, x, y)
        logger.debug("iter %d: f=%.9e res=%.3e alpha=%g newton=%s bt=%d",
                     k, f, res, alpha, used_newton, bt)
    wall = time.perf_counter() - t_start
    logger.info("solve end: %s iters=%d f=%.6e res=%.3e time=%.3fs",
                termination.value, k, f, res, wall)
    return SolveReport(x=x, support=prev_T, objective=f, residual=res,
                       iterations=k, backtracks_total=backtracks,
                       wall_time=wall, termination=termination,
                       f_trace=trace)
