"""Direct factorization of the equality-constrained quadratic x-step.

Each ADMM x-step minimizes (1/2) x'Cx + (rho/2)||x - v||^2 subject to
Dx = b, whose optimality system is the symmetric indefinite block matrix

    [ C + rho*I   D' ] [x ]   [ rho*z + y ]
    [ D           0  ] [nu] = [ b         ]

We factor the full (n+2) x (n+2) block once per rho with partial-pivot LU
and reuse it for every solve at that rho; a Schur-complement route would
be marginally cheaper but needlessly splits the accuracy story.  The loop
reads only x; the multiplier nu is solved for and dropped.

The block is built in Fortran order and factored in place by the float64
LAPACK ``getrf``.  The LAPACK and BLAS routines are looked up once, at
import.  PortfolioProblem has checked C and mu and factorize checks rho;
the right-hand side is finite unless rho*z + y overflows, and then the
engine's test on the next iterate ends the solve.

An x-step takes one of two forms:

- on the LU factors, ``getrs`` solves the block: these are the routine
  and arrays ``lu_solve`` uses, so the x is bitwise theirs, without their
  copies, finiteness scans and dispatch;
- once ``invert`` has replaced the factors by the explicit inverse K^-1
  (LAPACK ``getri`` on the same LU, in place), x is the head of the
  product K^-1 [rho*z + y; b], one BLAS ``symv`` that reads the upper
  triangle of the inverse, where ``getrs`` streams the whole LU twice.
  The inverse is symmetric up to rounding and to the 1e-12 of asymmetry
  PortfolioProblem lets C keep.

The LU stays while rho can still move: ``getri`` costs more than a
factorization, and a rho that moves again would discard the inverse
before its x-steps have paid for it.  So the engine inverts only a
factorization whose rho never moves, under fixed rho.

On the LU, Dx = b holds exactly but for the last bits of the triangular
solves; through the inverse it holds to rounding, as the product adds
the inverse's own error, which grows with the condition of the block.

Each factorization also owns a scratch right-hand side of length n+2 and
its rho as an n-vector.  factorize writes b into the scratch's tail once; a
solve writes rho*z + y into its head in place (one multiply and one add,
the same IEEE operations as the expression) and hands the whole vector to
LAPACK or BLAS, which write the solution to a fresh vector: the tail keeps
b, and the returned x shares no memory with the scratch or with an
earlier x.
Because of the scratch, a factorization belongs to one run at a time and
must not be shared across threads.

``solve_support`` solves another block: C without the rho shift,
restricted to a support S of the weights, [C_SS D_S'; D_S 0], against
[head; b].  With the weights off S held at zero and head = -lam*s for
signs s on S, its solution meets the penalized problem's stationarity
and feasibility conditions on S; head = 0 on the full support gives the
unpenalized, equality-constrained QP.  ``check_kkt`` measures how far a
candidate (x, nu, g) is from meeting all the optimality conditions, which
certifies such a solution.  The block is built and solved on each call:
a support's block shares no factorization with the x-step's.  It gathers
C_SS a few rows at a time and is factored in place by LAPACK ``gesv``,
so that a solve at n=500 holds no second block.

``certify`` is that polish (Stellato et al. 2020, OSQP, section 5) as a
bounded active-set finish from the support and signs of an ADMM iterate
z: each step is one ``solve_support`` against [-lam*s; b].  It accepts a
solution only where the signs on S hold, the subgradient off S lies in
[-1, 1] and ``check_kkt`` is within KKT_TOL; the conditions are
sufficient for this convex problem, so an accepted x is its optimum.
Where a check fails and steps remain, it corrects S by feature-sign
search (Lee, Battle, Raina and Ng, NIPS 2007): a sign that flips drops
its asset after a line search along a segment that keeps Dx = b, and
otherwise the worst subgradient violator joins S.  With one step it tests
z's own pattern.  A support of one asset j has a singular block; where
mu_j = e, ``single_asset_multipliers`` certifies it by an interval on the
multipliers, and where mu_j != e no x on it meets Dx = b, so a step that
is not the last moves to the feasible pair {j, i} of lowest objective
and goes on from there.  The test suite's exhaustive oracle solves its
candidate blocks through ``solve_support`` and
``single_asset_multipliers`` too, so an oracle support and a certified
one give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .model import PortfolioProblem, objective_value

_getrf, _getrs, _getri, _getri_lwork, _gesv = get_lapack_funcs(
    ("getrf", "getrs", "getri", "getri_lwork", "gesv"), dtype=np.float64)
_symv = get_blas_funcs("symv", dtype=np.float64)

# check_kkt's bound on a certified solution's worst violation
KKT_TOL = 1e-9
# rows of C_SS a support block gathers at a time
_GATHER_ROWS = 64


@dataclass(frozen=True)
class KktFactorization:
    """The block system in solvable form, with what its solves need.

    lu holds the LU factors with their pivots piv or, after ``invert``,
    the inverse of the block, and then piv is None; either way lu is
    (n+2) x (n+2).  rho_vector is the rho the block was built at, as an
    n-vector.  rhs is the solves' scratch right-hand side, whose tail is the
    right-hand side b of the two equality rows, so every solve uses the rho
    and b it was factored for, and x is the solution without its last two
    entries.  head is the view of the first n entries of rhs; solves
    overwrite it, so one factorization serves one thread.
    """

    rho_vector: np.ndarray = field(repr=False)
    lu: np.ndarray = field(repr=False)
    piv: Optional[np.ndarray] = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    head: np.ndarray = field(repr=False)


def factorize(problem: PortfolioProblem, rho: float) -> KktFactorization:
    """Assemble and factor the block matrix for a positive, finite rho.

    The matrix is nonsingular: C is positive definite and PortfolioProblem
    guarantees that D has rank 2.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    n = problem.n
    K = np.zeros((n + 2, n + 2), order="F")
    # C + 0.0, not a copy: a -0.0 entry becomes 0.0, as in C + rho*I
    np.add(problem.C, 0.0, out=K[:n, :n])
    K.flat[:n * (n + 3):n + 3] += rho  # the diagonal of the C block
    K[:n, n:] = problem.D.T
    K[n:, :n] = problem.D
    lu, piv, info = _getrf(K, overwrite_a=True)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info} of the KKT block")
    rhs = np.empty(n + 2)
    rhs[n:] = problem.b
    return KktFactorization(rho_vector=np.full(n, float(rho)), lu=lu, piv=piv,
                            rhs=rhs, head=rhs[:n])


def invert(factorization: KktFactorization) -> KktFactorization:
    """The factorization's block as its explicit inverse, for the same x-steps.

    ``getri`` writes the inverse over factorization's LU, which leaves
    factorization unusable; the result shares rho_vector and the scratch
    rhs with it.
    """
    # the blocked getri needs the workspace size LAPACK asks for; the
    # wrapper's default of 3(n+2) makes it fall back to the unblocked code
    work, _ = _getri_lwork(factorization.lu.shape[0])
    inverse, info = _getri(factorization.lu, factorization.piv,
                           lwork=int(work), overwrite_lu=True)
    if info != 0:
        raise ValueError(f"getri failed with info {info} on the KKT block")
    return replace(factorization, lu=inverse, piv=None)


def solve_x_update(factorization: KktFactorization, z: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """The x-step: the minimizer for the current (z, y) subject to Dx = b."""
    head = factorization.head
    np.multiply(z, factorization.rho_vector, out=head)
    np.add(head, y, out=head)
    if factorization.piv is None:
        return _symv(1.0, factorization.lu, factorization.rhs)[:-2]
    solution, info = _getrs(factorization.lu, factorization.piv,
                            factorization.rhs)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info} of the x-step solve")
    return solution[:-2]


def solve_support(problem: PortfolioProblem, support: np.ndarray,
                  head: np.ndarray) -> np.ndarray:
    """Solve the block of C restricted to a support against [head; b].

    support is a boolean mask over the n assets with k entries set, and
    head is (k,) or (k, s), one right-hand side per column.  Returns
    [x_S; nu] of [C_SS D_S'; D_S 0] [x_S; nu] = [head; b], shaped like the
    right-hand side.  C_SS is positive definite, so the block is
    nonsingular when D_S has rank 2, which needs k >= 2; an exactly
    singular one raises numpy.linalg.LinAlgError.

    The block is symmetric, as PortfolioProblem makes C symmetric up to
    1e-12, so ``gesv`` factors it in place through its transpose, the
    Fortran-ordered view of the same memory.
    """
    index = np.flatnonzero(support)
    k = index.size
    A = np.zeros((k + 2, k + 2))
    for start in range(0, k, _GATHER_ROWS):
        rows = index[start:start + _GATHER_ROWS]
        A[start:start + rows.size, :k] = problem.C[rows][:, index]
    D_S = problem.D[:, index]
    A[:k, k:] = D_S.T
    A[k:, :k] = D_S
    rhs = np.empty((k + 2,) + head.shape[1:], order="F")
    rhs[:k] = head
    rhs[k:] = problem.b if head.ndim == 1 else problem.b[:, None]
    _, _, solution, info = _gesv(A.T, rhs, overwrite_a=True, overwrite_b=True)
    if info < 0:
        raise ValueError(f"gesv rejected argument {-info} of the support block")
    if info > 0:
        raise np.linalg.LinAlgError("the support block is singular")
    return solution


def single_asset_multipliers(problem: PortfolioProblem, lam: float,
                             j: int) -> Optional[np.ndarray]:
    """The multipliers nu that certify x = e_j, asset j alone, or None.

    x = e_j meets Dx = b only where mu_j = e, and its block is singular, so
    nu is a family: stationarity on row j, C_jj + lam + mu_j nu_1 + nu_2 = 0,
    fixes nu_2 given nu_1, and off S each |g_i| <= 1 is the interval
    (mu_i - mu_j) nu_1 in [C_jj - C_ij, C_jj - C_ij + 2 lam].  Returns nu at
    the middle of the intervals' intersection; None where lam = 0, mu_j is
    not e or the intersection is empty.  As not all means are equal, some
    interval is bounded, and so is the intersection.
    """
    mu, C = problem.mu, problem.C
    if not (lam > 0 and mu[j] == problem.b[0]):
        return None
    slope = mu - mu[j]
    ends = C[j, j] - C[j] + np.array([[0.0], [2 * lam]])
    tied = slope == 0
    if np.any(tied & ((ends[0] > 0) | (ends[1] < 0))):
        return None
    bounds = np.sort(ends[:, ~tied] / slope[~tied], axis=0)
    low, high = bounds[0].max(), bounds[1].min()
    if not low <= high:
        return None
    nu_1 = 0.5 * (low + high)
    return np.array([nu_1, -C[j, j] - lam - mu[j] * nu_1])


def certify(problem: PortfolioProblem, lam: float, z: np.ndarray,
            steps: int = 1,
            ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The optimum found from z's support S and signs s in at most steps
    block solves, with its certificate, or None.

    Each step solves the block of S against [-lam*s; b] (solve_support;
    a lone asset through single_asset_multipliers, with no block solve).
    A lone asset j with mu_j != e is infeasible: a step that is not the
    last takes the cheapest feasible pair {j, i} (_cheapest_pair) as the
    current point, with its support and signs, and makes no block solve.
    Where the solution keeps the signs s and, off S, the subgradient
    g = -(Cx + D'nu)/lam lies in [-1, 1], it returns (x, nu, g): the
    optimum x (exactly zero off S), the multipliers nu of Dx = b and g (s
    on S, 0 off S at lam = 0), provided check_kkt(problem, lam, x, nu, g)
    <= KKT_TOL.  Otherwise, while steps remain, it corrects S
    (feature-sign search, Lee, Battle, Raina and Ng 2007):
    - the signs hold but some |g_j| > 1: add the worst such j, with
      s_j = sign(g_j), and take the solution as the current point;
    - a sign flips: take the point of lowest objective among the zero
      crossings of the segment from the current point to the solution and
      the solution itself, and let S and s be its support and signs, so
      the coordinates that reach zero drop; the first step has no current
      point and takes the solution.
    Every point on the segments keeps Dx = b.  It returns None where S is
    empty, a block is singular, a lone asset whose mean is e is not
    certified, a check fails with no step left or the final check_kkt
    exceeds KKT_TOL.  So it accepts only a certified optimum, and with
    steps=1 it tests z's own pattern.
    """
    n = problem.n
    support = z != 0
    signs = np.sign(z)
    current = None
    for step in range(steps):
        index = np.flatnonzero(support)
        k = index.size
        last = step + 1 == steps
        if k == 0:
            return None
        if k == 1:
            j = index[0]
            nu = single_asset_multipliers(problem, lam, j)
            if nu is None:
                if last or problem.mu[j] == problem.b[0]:
                    return None
                # e_j misses the target: go on from the cheapest pair instead
                current = _cheapest_pair(problem, lam, j)
                support = current != 0
                signs = np.sign(current)
                continue
            solution = np.concatenate(([1.0], nu))
        else:
            try:
                solution = solve_support(problem, support, -lam * signs[support])
            except np.linalg.LinAlgError:
                return None
        x = np.zeros(n)
        x[support] = solution[:k]
        nu = solution[k:]
        if np.all(signs[support] * solution[:k] > 0):
            g = np.zeros(n)
            g[support] = signs[support]
            if lam > 0:
                off = np.flatnonzero(~support)
                g[off] = (problem.C @ x + problem.D.T @ nu)[off] / -lam
                if not np.all(np.abs(g[off]) <= 1.0):
                    if last:
                        return None
                    j = off[np.argmax(np.abs(g[off]))]
                    support[j] = True
                    signs[j] = np.sign(g[j])
                    current = x
                    continue
            if not check_kkt(problem, lam, x, nu, g) <= KKT_TOL:
                return None
            return x, nu, g
        if last:
            return None
        if current is not None:
            x = _line_search(problem, lam, current, x)
        current = x
        support = x != 0
        signs = np.sign(x)
    return None


def _cheapest_pair(problem: PortfolioProblem, lam: float,
                   j: int) -> np.ndarray:
    """The point of lowest objective among those that hold two assets, j and
    one i with mu_i != mu_j, and meet Dx = b: x_i = t, x_j = 1 - t with
    t = (e - mu_j)/(mu_i - mu_j); the first lowest wins.

    The quadratic is taken along x = e_j + t(e_i - e_j), whose curvature
    (e_i - e_j)'C(e_i - e_j) is positive, so an overflow gives an infinite
    cost; the one NaN, lam * inf at lam = 0, counts as infinite too.
    """
    mu, C = problem.mu, problem.C
    others = np.flatnonzero(mu != mu[j])
    c_jj, c_ij = C[j, j], C[others, j]
    with np.errstate(over="ignore", invalid="ignore"):
        t = (problem.b[0] - mu[j]) / (mu[others] - mu[j])
        cost = (0.5 * (c_jj + t * (2 * (c_ij - c_jj)
                                   + t * (C[others, others] - 2 * c_ij + c_jj)))
                + lam * (np.abs(t) + np.abs(1 - t)))
    best = int(np.argmin(np.where(np.isnan(cost), np.inf, cost)))
    x = np.zeros(problem.n)
    x[others[best]] = t[best]
    x[j] = 1 - t[best]
    return x


def _line_search(problem: PortfolioProblem, lam: float, current: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """The point of lowest objective on the segment from current to x among
    x and the points where a coordinate crosses zero, with the coordinates
    that cross there set to exactly zero; the first lowest wins."""
    direction = x - current
    crossing = np.flatnonzero(current * x < 0)
    at = current[crossing] / -direction[crossing]
    candidates = np.append(np.unique(at), 1.0)
    values = [objective_value(problem.C, current + t * direction, lam)
              for t in candidates]
    t = candidates[int(np.argmin(values))]
    if t == 1.0:
        return x
    point = current + t * direction
    point[crossing[at == t]] = 0.0
    return point


def check_kkt(problem: PortfolioProblem, lam: float, x: np.ndarray,
              nu: np.ndarray, g: np.ndarray) -> float:
    """Worst violation across stationarity, feasibility, and the subgradient.

    The subgradient terms (|g_i| <= 1 off the support, g_i = sign(x_i) on
    it) only constrain anything when lam > 0; at lam = 0 the conditions
    reduce to the plain equality-constrained QP system.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    stationarity = float(np.abs(problem.C @ x + lam * g + problem.D.T @ nu).max())
    feasibility = float(np.abs(problem.D @ x - problem.b).max())
    worst = max(stationarity, feasibility)
    if lam > 0:
        on_support = x != 0
        if on_support.any():
            worst = max(worst, float(np.abs(g[on_support] - np.sign(x[on_support])).max()))
        off_support = ~on_support
        if off_support.any():
            worst = max(worst, max(float(np.abs(g[off_support]).max()) - 1.0, 0.0))
    return worst
