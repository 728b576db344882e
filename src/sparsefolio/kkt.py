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
LAPACK ``getrf``, its C part copied from C' (which is C, as PortfolioProblem
stores C exactly symmetric) in the block's memory order.  LAPACK and BLAS
routines are looked up once, at import.  PortfolioProblem has checked C
and mu and factorize checks rho; the right-hand side is finite unless
rho*z + y overflows, and then the engine's test on the next iterate ends
the solve.

An x-step is one ``getrs`` on the LU factors: these are the routine and
arrays ``lu_solve`` uses, so the x is bitwise theirs, without their
copies, finiteness scans and dispatch.  Dx = b holds exactly but for the
last bits of the triangular solves.

Each factorization also owns a reusable right-hand side of length n+2.
The block does not depend on b, so one serves every target of a C and
mu: factorize writes its problem's b into that vector's tail, and each
run writes its own there when it starts.  A solve writes rho*z + y into
the head in place (one multiply and one add, the same IEEE operations as
the expression) and hands the whole vector to LAPACK, which writes the
solution to a fresh vector: the tail keeps b, and the returned x shares
no memory with the right-hand side or an earlier x.  As solves overwrite
that head, a factorization belongs to one run at a time and must not be
shared across threads.

``solve_support`` solves another block: C without the rho shift,
restricted to a support S of the weights, [C_SS D_S'; D_S 0], against
[head; b].  With the weights off S held at zero and head = -lam*s for
signs s on S, its solution meets the penalized problem's stationarity
and feasibility conditions on S; head = 0 on the full support gives the
unpenalized, equality-constrained QP.  ``check_kkt`` measures how far a
candidate (x, nu, g) is from meeting all the optimality conditions, which
certifies such a solution.  Each ``solve_support`` call builds and
factors its block afresh, sharing no factorization with the x-step's: it
gathers C_SS a few rows at a time and factors it in place by LAPACK
``gesv``, so that a solve at n=500 holds no second block.

``Finish`` is that polish (Stellato et al. 2020, OSQP, section 5) as a
bounded active-set finish from the support and signs of an ADMM iterate
z: each step solves the block of S against [-lam*s; b].  It accepts a
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

The first step of a finish is one ``solve_support``; the later ones keep
C_SS^-1 in one buffer for the finish (``_SupportInverse``) and update it
by a rank-one term as an asset joins or leaves, as active-set methods
update their factorizations (Gill, Golub, Murray and Saunders 1974;
Nocedal and Wright 2006, section 16.5), and keeps C_SS^-1 [mu_S, 1_S]
with it by O(n) updates, so that a step solves by one ``symv``.  The
buffer is n x n, so a step costs O(n^2), like an x-step, against O(k^3)
for a fresh factorization; a support so small that its fresh
factorization costs less than an attempt's interpreter overhead
(``attempt_floor``) is solved afresh at every step instead.  An x the
kept inverse would accept is solved once more by ``solve_support`` and
checked as that, so certified weights are ``solve_support``'s on their
support, bitwise.  The line search takes the quadratic along the segment
in closed form, so a candidate costs its O(n) L1 term.

A finish takes the same steps whatever its budget, so ``Finish.run`` on
a larger budget goes on where the last run stopped, which the engine
does when it tries the same pattern again.  The steps are a generator
that the Finish advances one step per ``next``: a step that decides
returns its verdict, and one that does not yields before it corrects S,
so no correction is made that no step uses.  ``finish_steps`` prices a
finish in x-steps for the engine's rationing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .model import PortfolioProblem

_getrf, _getrs, _gesv = get_lapack_funcs(("getrf", "getrs", "gesv"),
                                         dtype=np.float64)
_potrf, _potri = get_lapack_funcs(("potrf", "potri"), dtype=np.float64)
_symv, _syr = get_blas_funcs(("symv", "syr"), dtype=np.float64)

# check_kkt's bound on a certified solution's worst violation
KKT_TOL = 1e-9
# a finish's modelled cost in x-steps (finish_steps): the most the cheapest
# attempt costs, and the price of each step after an attempt's first
ATTEMPT_FLOOR = 4
STEP_COST = 2
_EPS = np.finfo(float).eps
# entries of the candidates-by-assets block a line search's L1 term takes
# at a time
_L1_ENTRIES = 1 << 16
# rows of C_SS a support block gathers at a time
_GATHER_ROWS = 64


@dataclass(frozen=True)
class KktFactorization:
    """The block system in solvable form, with what its solves need.

    lu holds the (n+2) x (n+2) LU factors and piv their pivots.  rho is
    the rho the block was built at.  rhs is the solves' reusable
    right-hand side, whose tail is the right-hand side b of the two
    equality rows, and x is the solution without its last two entries.
    head is the view of the first n entries of rhs; solves overwrite it,
    so one factorization serves one thread.
    """

    rho: float
    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
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
    # C' + 0.0, not a copy: a -0.0 entry becomes 0.0, as in C + rho*I
    np.add(problem.C.T, 0.0, out=K[:n, :n])
    K.flat[:n * (n + 3):n + 3] += rho  # the diagonal of the C block
    K[:n, n:] = problem.D.T
    K[n:, :n] = problem.D
    lu, piv, info = _getrf(K, overwrite_a=True)
    if info < 0:
        raise ValueError(f"getrf rejected argument {-info} of the KKT block")
    rhs = np.empty(n + 2)
    rhs[n:] = problem.b
    return KktFactorization(rho=rho, lu=lu, piv=piv, rhs=rhs, head=rhs[:n])


def solve_x_update(factorization: KktFactorization, z: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """The x-step: the minimizer for the current (z, y) subject to Dx = b."""
    head = factorization.head
    np.multiply(z, factorization.rho, out=head)
    np.add(head, y, out=head)
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

    The block is symmetric, as PortfolioProblem stores C exactly
    symmetric, so ``gesv`` factors it in place through its transpose, the
    Fortran-ordered view of the same memory.
    """
    index = support.nonzero()[0]
    k = index.size
    C = problem.C
    A = np.empty((k + 2, k + 2))
    for start in range(0, k, _GATHER_ROWS):
        rows = index[start:start + _GATHER_ROWS]
        A[start:start + rows.size, :k] = C.take(rows, 0).take(index, 1)
    D_S = problem.D.take(index, 1)
    A[:k, k:] = D_S.T
    A[k:, :k] = D_S
    A[k:, k:] = 0.0
    if head.ndim == 1:
        rhs = np.concatenate((head, problem.b))
    else:
        rhs = np.empty((k + 2, head.shape[1]), order="F")
        rhs[:k] = head
        rhs[k:] = problem.b[:, None]
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


@dataclass
class FinishCounts:
    """What a solve's certificate attempts did: attempts made and failed, fresh
    O(k^3) factorizations of a support block (solve_support calls and
    _SupportInverse builds) and finish steps solved on a kept one."""

    attempts: int = 0
    failed: int = 0
    factorizations: int = 0
    updates: int = 0


class Finish:
    """The optimum found from z's support S and signs s in at most steps
    block solves, with its certificate, kept where it stands, so that a
    larger budget takes it further instead of again.

    run(steps) brings it to at most steps steps in all.  Each step solves
    the block of S against [-lam*s; b]: the first by solve_support, the
    later ones on a _SupportInverse that the second step builds and every
    further step updates for the assets that joined or left S (a lone asset
    through single_asset_multipliers, with no block solve).  A solution
    from the kept inverse that would be accepted is solved again by
    solve_support, and that solution is the one checked, so an accepted x
    is solve_support's on its support.
    A lone asset j with mu_j != e is infeasible: a step that is not the
    last takes the cheapest feasible pair {j, i} (_cheapest_pair) as the
    current point, with its support and signs, and makes no block solve.
    Where the solution keeps the signs s and, off S, the subgradient
    g = -(Cx + D'nu)/lam lies in [-1, 1], run returns (x, nu, g): the
    optimum x (exactly zero off S), the multipliers nu of Dx = b and g (s
    on S, 0 off S at lam = 0), provided check_kkt(problem, lam, x, nu, g)
    <= KKT_TOL.  Otherwise, while steps remain, it corrects S
    (feature-sign search, Lee, Battle, Raina and Ng 2007):
    - the signs hold but some |g_j| > 1: add the worst such j, with
      s_j = sign(g_j), and take the solution as the current point;
    - a sign flips: take the point of lowest objective among the zero
      crossings of the segment from the current point to the solution and
      the solution itself (_line_search), and let S and s be its support
      and signs, so the coordinates that reach zero drop; the first step
      has no current point and takes the solution.
    Every point on the segments keeps Dx = b.  run returns None where S is
    empty, a block is singular, a lone asset whose mean is e is not
    certified, a check fails with no step left or the final check_kkt
    exceeds KKT_TOL.  So it accepts only a certified optimum, and
    Finish(problem, lam, z).run(1) tests z's own pattern.

    The finish takes the same steps whatever its budget, so a finish that
    ran out of steps goes on from its last solution with the steps a fresh
    one would take next, and its outcome and bits are the fresh one's on
    the larger budget; counts, when given, gains the fresh factorizations
    and kept-inverse steps as they are made.  A finish that has decided,
    by a certificate or for a reason more steps do not change, returns None
    from then on, as does a run on a budget it has already spent.  pattern
    is sign(z) and budget the largest steps it was run with.  It holds its
    kept inverse, an n x n buffer, until it decides or is dropped.
    """

    def __init__(self, problem: PortfolioProblem, lam: float, z: np.ndarray,
                 counts: Optional[FinishCounts] = None):
        self.problem, self.lam = problem, lam
        self.pattern = np.sign(z)
        self.budget = 0
        # the steps hold no reference to self, so a dropped finish frees its
        # kept inverse at once, without waiting for the cyclic collector
        self._steps = _steps(problem, lam, self.pattern,
                             FinishCounts() if counts is None else counts)

    def run(self, steps: int,
            ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        taken, self.budget = self.budget, max(self.budget, steps)
        try:
            for _ in range(taken, steps):
                next(self._steps)
        except StopIteration as verdict:
            return verdict.value
        return None


def _steps(problem: PortfolioProblem, lam: float, pattern: np.ndarray,
           counts: FinishCounts,
           ) -> Generator[None, None, Optional[tuple[np.ndarray, np.ndarray,
                                                      np.ndarray]]]:
    """Finish's steps from the support and signs of pattern, one per next:
    each solves and tests a step and returns the verdict, the polish or
    None, once it has one; otherwise it yields, and corrects S by the
    step's solution only when it is resumed."""
    n = problem.n
    floor = attempt_floor(n)
    support, signs = pattern != 0, pattern.copy()
    current = None  # the point the next line search starts from
    kept = None  # the _SupportInverse of the steps after the first
    while True:
        k = np.count_nonzero(support)
        if k == 0:
            return None
        if k == 1:
            j = int(np.argmax(support))
            nu = single_asset_multipliers(problem, lam, j)
            if nu is None:
                if problem.mu[j] == problem.b[0]:
                    return None
                yield
                # e_j misses the target: go on from the cheapest pair
                current = _cheapest_pair(problem, lam, j)
                support, signs = current != 0, np.sign(current)
                continue
            x = np.zeros(n)
            x[j] = 1.0
            test = _subgradient(problem, lam, support, signs, k, x, nu)
        else:
            # only the first step has no current point
            fresh = current is None or _factor_cost(n, k) < floor
            try:
                if fresh:
                    x, nu = _solve_fresh(problem, lam, support, signs, counts)
                else:
                    if kept is None:
                        kept = _SupportInverse(problem, support)
                        counts.factorizations += 1
                    else:
                        counts.factorizations += kept.move_to(support)
                    counts.updates += 1
                    # signs is zero off S
                    x, nu = kept.solve(-lam * signs)
                test = _subgradient(problem, lam, support, signs, k, x, nu)
                if not fresh and test is not None and test[1] is None:
                    # accepted on the kept inverse: check solve_support's x,
                    # with the inverse's memory given back first
                    kept = None
                    x, nu = _solve_fresh(problem, lam, support, signs, counts)
                    test = _subgradient(problem, lam, support, signs, k, x, nu)
            except np.linalg.LinAlgError:
                return None
        if test is None:  # a sign flipped
            yield
            if current is not None:
                x = _line_search(problem, lam, current, x)
            current, support, signs = x, x != 0, np.sign(x)
        elif test[1] is not None:  # the worst violator joins S
            yield
            g, worst = test
            support[worst] = True
            signs[worst] = np.sign(g[worst])
            current = x
        else:
            polish = x, nu, test[0]
            return polish if check_kkt(problem, lam, *polish) <= KKT_TOL else None


def finish_steps(n: int, k: int, work: float) -> int:
    """The block solves that work x-steps pay for in a finish from a support
    of k of n assets: 0 where work is below the first solve's price
    max(attempt_floor(n), k^3/(3n^2)), else one plus one per STEP_COST of
    what is left."""
    first = max(attempt_floor(n), _factor_cost(n, k))
    if work < first:
        return 0
    return 1 + int((work - first) // STEP_COST)


def attempt_floor(n: int) -> int:
    """The price of the cheapest attempt in x-steps: min(ceil(n/3),
    ATTEMPT_FLOOR).  ceil(n/3) is a full-support factorization's price, and
    ATTEMPT_FLOOR the interpreter cost of an attempt, which is what a
    factorization costs at n = 10 and what stays of its cost below that."""
    return min(-(-n // 3), ATTEMPT_FLOOR)


def _factor_cost(n: int, k: int) -> float:
    """A fresh factorization of a k-asset support block in x-steps: its
    k^3/3 flops against the 3n^2 or so of one x-step's solve."""
    return k ** 3 / (3 * n * n)


def _solve_fresh(problem: PortfolioProblem, lam: float, support: np.ndarray,
                 signs: np.ndarray, counts: FinishCounts,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """x (zero off S) and nu: one solve_support of S against [-lam*s; b]."""
    counts.factorizations += 1
    solution = solve_support(problem, support, -lam * signs[support])
    k = solution.size - 2
    x = np.zeros(problem.n)
    x[support] = solution[:k]
    return x, solution[k:]


def _subgradient(problem: PortfolioProblem, lam: float, support: np.ndarray,
                 signs: np.ndarray, k: int, x: np.ndarray, nu: np.ndarray,
                 ) -> Optional[tuple[np.ndarray, Optional[int]]]:
    """Finish's test of a solution x (zero off S) on the k assets of S,
    whose signs s are signs (zero off S): None where a sign on S flips,
    else (g, worst), with g s on S and -(Cx + D'nu)/lam off S (0 there at
    lam = 0) and worst the off-support asset of largest |g_j| > 1, or None
    if there is none."""
    if np.count_nonzero(signs * x > 0) != k:
        return None
    if not lam > 0:
        return np.where(support, signs, 0.0), None
    g = np.where(support, signs, (problem.C @ x + problem.D.T @ nu) / -lam)
    worst = int(np.argmax(np.where(support, 0.0, np.abs(g))))
    return g, (None if abs(g[worst]) <= 1.0 else worst)


class _SupportInverse:
    """H = C_SS^-1 for a support S, kept n x n with exact zeros off S, so
    that an asset joins or leaves S by one rank-one update of the whole
    buffer in place instead of a fresh factorization.  Only the upper
    triangle is stored and read: BLAS symv and syr.

    With H, the block [C_SS D_S'; D_S 0] [x_S; nu] = [h; b] is solved
    through the 2 x 2 Schur complement D_S H D_S', from Hh and M = H R,
    R = [mu_S, 1_S] (zero off S), which it keeps with H.  Asset j joins by
    the bordering formula: with c = C_Sj, u = Hc and sigma = C_jj - c'u,
    the inverse on S + j is H + w w'/sigma with w = u - e_j, and M gains
    w (w'R)/sigma for the new R.  It leaves by the downdate H - w w'/H_jj
    with w = H e_j, and M by w (w'R)/H_jj for the old R, after which row
    and column j of H and row j of M are set to exact zero.  So a solve is
    one symv, Hh.  A pivot sigma or H_jj that is not positive and finite,
    which rounding can give on a nearly singular C_SS, or more changes than
    two, makes it factor S afresh (LAPACK potrf and potri).  The buffer
    belongs to one finish.
    """

    def __init__(self, problem: PortfolioProblem, support: np.ndarray):
        self.C, self.mu, self.b = problem.C, problem.mu, problem.b
        self.H = np.zeros((problem.n, problem.n), order="F")
        self.R = np.zeros((problem.n, 2))
        self.support = support.copy()
        self._factor()

    def _factor(self) -> None:
        index = self.support.nonzero()[0]
        # C_SS is symmetric, so its transpose is the Fortran-ordered copy
        block = self.C.take(index, 0).take(index, 1).T
        # clean zeroes the strict lower triangle, which potri leaves alone
        upper, info = _potrf(block, lower=False, overwrite_a=True, clean=True)
        if info == 0:
            upper, info = _potri(upper, lower=False, overwrite_c=True)
        if info != 0:
            raise np.linalg.LinAlgError("C_SS is not positive definite")
        self.H.fill(0.0)
        self.H[np.ix_(index, index)] = upper
        self.R[:, 0] = np.where(self.support, self.mu, 0.0)
        self.R[:, 1] = self.support
        self.M = np.column_stack([_symv(1.0, self.H, r) for r in self.R.T])

    def move_to(self, support: np.ndarray) -> int:
        """Make H the inverse for support; returns the fresh factorizations
        that took (0 or 1)."""
        changed = np.flatnonzero(support != self.support)
        if changed.size > 2:
            self.support = support.copy()
            self._factor()
            return 1
        for j in changed:
            if not (self._join(j) if support[j] else self._leave(j)):
                self.support = support.copy()
                self._factor()
                return 1
        return 0

    def _join(self, j: int) -> bool:
        c = np.where(self.support, self.C[:, j], 0.0)
        u = _symv(1.0, self.H, c)
        sigma = self.C[j, j] - c @ u
        if not 0 < sigma < math.inf:
            return False
        u[j] = -1.0
        self.H = _syr(1.0 / sigma, u, a=self.H, overwrite_a=True)
        self.support[j] = True
        self.R[j] = self.mu[j], 1.0
        self.M += np.outer(u, (u @ self.R) / sigma)
        return True

    def _leave(self, j: int) -> bool:
        H = self.H
        w = np.concatenate((H[:j, j], H[j, j:]))  # column j, from the upper
        if not 0 < w[j] < math.inf:
            return False
        self.H = H = _syr(-1.0 / w[j], w, a=H, overwrite_a=True)
        H[j, :] = 0.0
        H[:, j] = 0.0
        self.support[j] = False
        self.M -= np.outer(w, (w @ self.R) / w[j])
        self.M[j] = 0.0
        self.R[j] = 0.0
        return True

    def solve(self, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x (zero off S) and nu of the block of S against [head_S; b];
        head is an n-vector, zero off S."""
        Hh = _symv(1.0, self.H, head)
        # [mu_S, 1_S]' H [h, mu_S, 1_S] holds D_S H h and D_S H D_S'
        (p, a, c), (q, _, d) = (self.R.T @ np.column_stack((Hh, self.M))
                                ).tolist()
        det = a * d - c * c
        if not det > 0:
            raise np.linalg.LinAlgError("D_S H D_S' is singular")
        r, s = p - self.b[0], q - self.b[1]
        nu = np.array(((d * r - c * s) / det, (a * s - c * r) / det))
        return Hh - self.M @ nu, nu


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
    that cross there set to exactly zero; the first lowest wins, where
    values within rounding of the lowest count as equal.

    Along current + t*d the quadratic is c'Cc/2 + t c'Cd + t^2 d'Cd/2, from
    one product of C with [current, d], so a candidate costs only its O(n)
    L1 term, taken for a block of candidates at a time."""
    direction = x - current
    crossing = (current * x < 0).nonzero()[0]
    at = current[crossing] / -direction[crossing]
    # a repeated candidate repeats its value, and the first lowest wins
    candidates = np.empty(at.size + 1)
    candidates[:-1] = at
    candidates[:-1].sort()
    candidates[-1] = 1.0
    ends = np.array((current, direction))
    (cc, cd), (_, dd) = ((ends @ problem.C) @ ends.T).tolist()
    rows = max(1, _L1_ENTRIES // current.size)
    penalty = np.empty(candidates.size)
    for i in range(0, candidates.size, rows):
        block = candidates[i:i + rows, None] * direction
        block += current
        np.abs(block, out=block)
        block.sum(axis=1, out=penalty[i:i + rows])
    penalty *= lam
    values = 0.5 * (cc + candidates * (2 * cd + candidates * dd)) + penalty
    # values within rounding of the lowest tie, and the first of them wins
    scale = 0.5 * (abs(cc) + 2 * abs(cd) + abs(dd)) + penalty.max()
    t = candidates[(values <= values.min() + 8 * _EPS * scale).argmax()]
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
    residual = problem.C @ x + lam * g + problem.D.T @ nu
    worst = max(float(np.abs(residual).max()),
                float(np.abs(problem.D @ x - problem.b).max()))
    if lam > 0:
        on_support = x != 0
        if on_support.any():
            worst = max(worst, float(np.abs(g[on_support] - np.sign(x[on_support])).max()))
        off_support = ~on_support
        if off_support.any():
            worst = max(worst, max(float(np.abs(g[off_support]).max()) - 1.0, 0.0))
    return worst
