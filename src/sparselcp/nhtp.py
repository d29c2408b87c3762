"""Newton hard-thresholding pursuit (NHTP) for sparse complementarity.

Minimizes a complementarity merit f over the sparsity set ||x||_0 <= s.
Each iteration selects the working set T_k as the s largest magnitudes of
x - eta * grad f(x), solves the Newton system restricted to T_k (with a
correction for coordinates about to be zeroed), falls back to the
restricted gradient when the system is singular or the direction fails a
descent test, then backtracks along

    x(alpha) = x_T + alpha d_T on T,  0 off T,

so every iterate keeps at most s nonzeros.  Since x(alpha) is affine in
alpha, so is y(alpha) = M x(alpha) + q: the line search forms its two
n-vectors once, and each trial costs O(n).  Each iterate gathers the
columns M[:, T] once: both Hessian blocks of the Newton system and the
line search's two products read that one n x s copy, and it is dropped
as soon as the search returns.

Each iteration's head tests, in order: the stationarity residual at
1e-10 (unless the last step stalled), the certificate of
core.certificate at 1e-12, the objective stall, and the cap of 2000
iterations.  The first that holds ends the solve as RESIDUAL_MET,
CERTIFIED, OBJECTIVE_STALLED or ITERATION_CAP.  Otherwise a short block
principal pivoting finish (_finish) tries to turn the current support
into an exact solution of the LCP; when it certifies one that does not
raise the merit, that point becomes the next iterate and the head ends
the solve.  The certificate, not the residual, ends many solves at a solution:
degenerate rows with y_i ~ 0 can keep the residual above 1e-10 there.

The solver runs in equilibrated units: it iterates on u = x / nu for
the LCP (M / mu, q / rho), with mu = inst.m_scale = max |M_ij| (1 when
M = 0), rho = inst.q_scale = max(1, ||q||_inf) and nu = rho / mu.  u
solves it, with v = M u / mu + q / rho, exactly when x = nu u solves
(M, q), with y = rho v.  M is never copied: the helpers take the
instance and scale = 1 / mu, which rides on every product with inst.M,
the pairing the merit functions use, plus q = q / rho.  eta, the
residual and its tolerance, the certificate test and every merit value
the solve reports (objective, callback's f) are in these units; only the
points it hands out, the report's x and callback's x, are in the
original ones.  So one default eta of 2 suits every scale of data: on 24
instances of sdp_gaussian at n = 5000 (seeds 0-18) it halves eta 0
times.  And f(0) stays finite where ||q||^2 would overflow.

The threshold step eta controls only the working-set selection (and the
residual normalization), not the step length.  A fixed eta can be too
aggressive far from a solution: the selection then discards coordinates
carrying real progress and no backtracking step is acceptable.  When a
line search exhausts its budget the solver halves eta and runs the
same pass again from the same point, finish included, so descent stays
monotone; eta never grows back.  Only when eta has been driven 2^40
times below its starting value does the solver give up and report the
failed line search.
"""

import logging
import time

import numpy as np

from . import merit as mer
from .core import (SingularError, SolveReport, Termination,
                   _check_finite, certificate, dense_solve,
                   top_s_by_magnitude)

logger = logging.getLogger("sparselcp.nhtp")

# curvature floor gamma of the Newton descent test; the inactive value
# applies when x already vanishes off the working set
_GAMMA_ACTIVE = 1e-4
_GAMMA_INACTIVE = 1e-10
# stationarity residual at or below which the solve ends RESIDUAL_MET
_TOL = 1e-10
# iterations after which the solve ends ITERATION_CAP
_MAX_ITER = 2000
# relative objective change below which the solve reports a stall
_OBJ_TOL = 1e-10
# Armijo slope fraction and backtracking shrink factor of the line search
_SIGMA = 1e-4
_BETA = 0.5
# largest backtracking exponent tried per line search
_MAX_BACKTRACKS = 50
# certificate bound at or below which a point counts as a solution
_CERT_TOL = 1e-12
# block pivoting passes the finish takes before it gives up
_FINISH_PASSES = 10


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


def newton_direction(x, y, g, T, prev_T, model, inst, cols, scale, eta):
    """Restricted Newton direction at x (y = M x / mu + q / rho, gradient
    g), or None when the fallback must run.

    Solves H[T,T] d_T = H[T,J] x_J - g_T with J = prev_T minus T, the
    coordinates being dropped from the previous working set, and sets
    d = -x off T.  T and prev_T are sorted index arrays, and cols is
    inst.columns(T): both blocks read it, so only the |J| columns of the
    T x J block are gathered here.  Returns None if
    the system is singular or d fails the descent margin test
        <g_T, d_T> <= -gamma ||d||^2 + ||x_offT||^2 / (4 eta),
    with gamma = 1e-10 when x vanishes off T and 1e-4 otherwise.  eta is
    read by this test alone.
    """
    off = np.ones(x.shape[0], dtype=bool)
    off[T] = False
    j = prev_T[off[prev_T]]
    xj = x[j]
    rhs = -g[T]
    if np.any(xj != 0.0):
        rhs = rhs + mer.merit_hessian(model, inst, x, T, j, y=y,
                                      scale=scale, gathered=cols) @ xj
    try:
        dt = dense_solve(mer.merit_hessian(model, inst, x, T, T, y=y,
                                           scale=scale, gathered=cols), rhs)
    except SingularError:
        return None
    d = -x
    d[T] = dt
    off_sq = float(np.sum(x[off] ** 2))
    gamma = _GAMMA_INACTIVE if off_sq == 0.0 else _GAMMA_ACTIVE
    if np.dot(g[T], dt) <= -gamma * np.dot(d, d) + off_sq / (4.0 * eta):
        return d
    return None


def line_search(x, f, g, T, direction, model, cols, scale, q):
    """Armijo backtracking along the support-restricted update from x,
    with merit f and gradient g, keeping the sorted index array T.

    Tries alpha = 0.5^t for t = 0..50 against
    f(x(alpha)) <= f + 1e-4 * alpha * <g, d>.  The products
    y0 = M[:, T] x_T / mu + q / rho and dy = M[:, T] d_T / mu are formed
    once from cols = M[:, T], the gather newton_direction read, with
    1 / mu riding on x_T and d_T, and each trial takes
    y(alpha) = y0 + alpha dy in O(n).  Returns
    (alpha, x_new, y_new, f_new, t) or None when every alpha fails.
    """
    slope = float(np.dot(g, direction))
    xt = x[T]
    dt = direction[T]
    y0 = cols @ (scale * xt) + q
    dy = cols @ (scale * dt)
    alpha = 1.0
    for t in range(_MAX_BACKTRACKS + 1):
        x_new = np.zeros_like(x)
        x_new[T] = xt + alpha * dt
        y_new = y0 + alpha * dy
        f_new = mer.value_from_xy(model, x_new, y_new)
        if f_new <= f + _SIGMA * alpha * slope:
            return alpha, x_new, y_new, f_new, t
        alpha *= _BETA
    return None


def _finish(inst, scale, q, x, s):
    """Block principal pivoting from F = supp(x_+) on the equilibrated
    LCP (M / mu, q / rho): (x_f, y_f) with y_f = M x_f / mu + q / rho, at
    most s nonzeros and a certificate of at most 1e-12, or None.  Below,
    M and q stand for M / mu and q / rho.

    Each pass solves M_FF z = -q_F and sets x_f = z on F, 0 off it, and
    y_f = M[:, F] z + q; that pass's gather of M[:, F] is dropped there,
    so only one is alive at a time.  Every index with z_i < -1e-12 in F,
    or y_i < -1e-12 off F, then swaps sides: rounding leaves the
    off-support y_i of a degenerate solution near -1e-13, not at 0.  Once
    the number of such indices stops falling, only the largest of them
    swaps (Murty's rule).  F never outgrows s: when too many indices
    would enter, those with the most negative y_i do.  z is never
    clipped.  Gives up when F is empty, when M_FF is singular, when no
    index can swap, or after 10 passes.  With no swap this is the
    hard-thresholding pursuit polish (Foucart, SIAM J. Numer. Anal.
    2011); the swaps follow Judice & Pires (Comput. Oper. Res. 1994).
    """
    inside = x > 0.0
    fewest = np.inf
    for _ in range(_FINISH_PASSES):
        F = np.flatnonzero(inside)
        if F.size == 0:
            return None
        cols = inst.columns(F)
        try:
            z = dense_solve(scale * cols[F], -q[F])
        except SingularError:
            return None
        y = cols @ (scale * z) + q
        del cols  # before the next pass gathers its own
        x_f = np.zeros_like(x)
        x_f[F] = z
        violation = -np.where(inside, x_f, y)
        # the swap tolerance 1e-12 max(1, ||q||_inf) is 1e-12 itself:
        # q here is q / rho with rho = max(1, ||q||_inf), so ||q||_inf <= 1
        bad = np.flatnonzero(violation > _CERT_TOL)
        if bad.size == 0:
            return (x_f, y) if certificate(x_f, y, q) <= _CERT_TOL else None
        if bad.size < fewest:
            fewest = bad.size
        else:
            bad = bad[-1:]
        leave = bad[inside[bad]]
        enter = bad[~inside[bad]]
        room = s - F.size + leave.size
        if enter.size > room:
            order = np.argsort(-violation[enter], kind="stable")
            enter = enter[order[:room]]
        if leave.size + enter.size == 0:
            return None  # the next pass would repeat this one
        inside[leave] = False
        inside[enter] = True
    return None


def solve(inst, model, config, x0=None, callback=None):
    """Run the pursuit on an instance; returns a SolveReport.

    x0 defaults to zero and must be finite.  The starting working set is
    top_s_by_magnitude(x0, s) and x0 is zeroed off it: nonzeros rank ahead
    of zeros and ties go to the lowest index, so a sparser start is padded
    with the lowest free indices.  callback(k, x, f),
    when given, observes every iterate including the start; it must not
    mutate x.

    The solve runs on the equilibrated LCP (M / m_scale, q / q_scale) of
    the module docstring; x0 comes in, and the report's x and callback's
    x go out, in the units of (M, q), while objective, residual and
    callback's f are those of the equilibrated problem.  callback is the
    one record of the path: the report keeps only its end.

    A failed line search halves eta and retries the iteration from the
    same point, as the module docstring sets out.  The one selection and
    residual at the head of each iteration serve every exit, tested as
    residual (skipped right after a stalled step), certificate, stall,
    then iteration cap.  The finish runs at every pass, before the Newton
    step; it reads only u, s and the instance, so a retry at the same
    point gets the answer it got before.  A certified point it returns is
    an iterate like any other: callback sees it, and the report's support
    is its top-s set.
    """
    n = inst.n
    s = config.s
    if not 1 <= s <= n:
        raise ValueError("s out of range for this instance")
    eta = float(config.eta)
    mu, rho = inst.m_scale, inst.q_scale
    scale, q, nu = 1.0 / mu, inst.q / rho, rho / mu
    if x0 is None:
        u = np.zeros(n)
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError("x0 length must match the instance")
        _check_finite(x, "x0")
        u = x / nu
    prev_T = top_s_by_magnitude(u, s)
    kept = u[prev_T]
    u[:] = 0.0
    u[prev_T] = kept
    t_start = time.perf_counter()
    eta_floor = eta * 2.0**-40
    # from zero, v is q / rho itself: skip the n^2 product
    v = q if x0 is None else inst.M @ (scale * u) + q
    f = mer.value_from_xy(model, u, v)
    g = mer.gradient_from_xy(model, inst.M, u, v, scale=scale)
    if callback is not None:
        callback(0, nu * u, f)
    logger.info("solve start: n=%d s=%d eta=%g mu=%g rho=%g merit=%s "
                "f0=%.6e", n, s, eta, mu, rho,
                model.kind, f)
    k = 0
    stalled = False
    while True:
        T = select_support(u, g, eta, s)
        res = residual(u, g, T, eta, s)
        if not stalled and res <= _TOL:
            termination = Termination.RESIDUAL_MET
            break
        if certificate(u, v, q) <= _CERT_TOL:
            termination = Termination.CERTIFIED
            break
        if stalled:
            termination = Termination.OBJECTIVE_STALLED
            break
        if k >= _MAX_ITER:
            termination = Termination.ITERATION_CAP
            break
        step = None
        polished = _finish(inst, scale, q, u, s)
        if polished is not None:
            f_f = mer.value_from_xy(model, *polished)
            if f_f <= f:
                step = (*polished, f_f, top_s_by_magnitude(polished[0], s))
                logger.debug("iter %d: finish certified f=%.9e", k + 1, f_f)
        if step is None:
            cols = inst.columns(T)  # the one gather of M[:, T] per iterate
            d = newton_direction(u, v, g, T, prev_T, model, inst, cols,
                                 scale, eta)
            used_newton = d is not None
            if d is None:  # restricted steepest descent
                d = -u
                d[T] = -g[T]
            searched = line_search(u, f, g, T, d, model, cols, scale, q)
            del cols  # so the next finish's gather of F is the only one
            if searched is None:
                if eta <= eta_floor:
                    termination = Termination.LINE_SEARCH_FAILED
                    break
                eta *= 0.5
                logger.debug("iter %d: line search exhausted, eta -> %g",
                             k, eta)
                continue
            alpha, u_new, v_new, f_new, bt = searched
            step = u_new, v_new, f_new, T
            logger.debug("iter %d: f=%.9e res=%.3e alpha=%g newton=%s bt=%d",
                         k + 1, f_new, res, alpha, used_newton, bt)
        u_new, v_new, f_new, prev_T = step
        stalled = abs(f_new - f) < _OBJ_TOL * (1.0 + abs(f))
        u, v, f = u_new, v_new, f_new
        k += 1
        if callback is not None:
            callback(k, nu * u, f)
        g = mer.gradient_from_xy(model, inst.M, u, v, scale=scale)
    wall = time.perf_counter() - t_start
    logger.info("solve end: %s iters=%d f=%.6e res=%.3e time=%.3fs",
                termination.value, k, f, res, wall)
    return SolveReport(x=nu * u, support=prev_T, objective=f,
                       residual=res, iterations=k, wall_time=wall,
                       termination=termination)
