"""Augmentations of braid closures: residuals, rank, search, and construction.

A rank-n augmentation of the closure of beta in B_n is determined by complex
generator values under which both action matrices evaluate to the diagonal
sign matrix of the writhe.  The solver looks for such values by damped
Gauss-Newton (Levenberg-Marquardt style) least squares over seeded random
restarts, a chunk of restarts at a time in lockstep; the satellite
constructor instead produces the values of a maximal-rank augmentation of a
satellite directly from certificates for the companion and the pattern, with
no search.

Numeric fast path: evaluating the action matrices under an assignment never
builds symbolic entries.  The word is folded letter by letter by the fold
that also builds the symbolic matrices (:func:`augrank.action.fold_block`,
which alone seeds the block array [[PhiL, v], [0, PhiR]] and reads it out),
given the complex numbers' one, zero and y -= a*b: the evaluated matrices
sit beside the generator values v pushed forward through each letter's
substitution.  One letter is a row operation, a column operation and a
2 x 2 patch of v, O(n) scalar operations, and the whole fold is batched
over many points at once (every restart of a chunk and its finite
differences) along the array's trailing axes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .braids import BraidWord, Perm, component_count, perm, satellite_braid, writhe
from .action import fold_block
# re-exported: perfbench/workloads.py, its only reader, imports the suite from here
from .checks import check_block_structure  # noqa: F401
from .freealg import Assignment, Gen, gen_order
from .splitting import split_gen
from . import jsonio

ACCEPT_TOL = 1e-9
RANK_REL_THRESHOLD = 1e-8
MU_UNITY_GAP = 1e-12


class MuOneError(ValueError):
    """mu = 1 is outside the theory; rank is undefined there."""


class ConstructionError(RuntimeError):
    """The deterministic satellite construction failed verification."""


def values_to_array(values: Mapping[Gen, complex], n: int) -> np.ndarray:
    v = np.zeros((n, n), dtype=complex)
    for (i, j), val in values.items():
        v[i - 1, j - 1] = val
    return v


# ---------------------------------------------------------------------------
# Numeric letter fold
# ---------------------------------------------------------------------------


def eval_phi_matrices(beta: BraidWord, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both action matrices of beta at the given generator values.

    values has shape (..., n, n) and its diagonal is ignored; both results
    share the leading batch shape and are C-contiguous.  The fold is
    :func:`augrank.action.fold_block` over the complex numbers.
    """
    v = np.asarray(values, dtype=complex)
    if v.shape[-2:] != (beta.n, beta.n):
        raise ValueError(f"values must have trailing shape ({beta.n}, {beta.n})")
    return fold_block(beta, v, 1, 0, _sub_mul)


def _sub_mul(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    y -= a * b


def delta_diag(beta: BraidWord) -> np.ndarray:
    d = np.ones(beta.n, dtype=complex)
    d[0] = (-1) ** (writhe(beta) % 2)
    return d


def matrix_delta(beta: BraidWord) -> np.ndarray:
    """The diagonal sign matrix diag[(-1)^writhe, 1, ..., 1]."""
    return np.diag(delta_diag(beta))


def matrix_a(n: int, eps: Assignment) -> np.ndarray:
    """The n x n matrix with a_ij above, -mu a_ij below, 1-mu on the diagonal, at eps."""
    if eps.n != n:
        raise ValueError("assignment ambient mismatch")
    mu = eps.mu
    # Python's complex product: numpy's may round differently in the last bit
    out = values_to_array({(i, j): -mu * a if i > j else a for (i, j), a in eps.values.items()}, n)
    out.flat[:: n + 1] = 1 - mu
    return out


def _sign_errors(beta: BraidWord, ml: np.ndarray, mr: np.ndarray) -> tuple[float, float]:
    d = matrix_delta(beta)
    return float(np.abs(ml - d).max()), float(np.abs(mr - d).max())


def _relation_error(
    beta: BraidWord, eps: Assignment, ml: np.ndarray, mr: np.ndarray, a0: np.ndarray
) -> float:
    """Max-abs error of the relations at eps, from its action matrices and matrix_a(n, eps)."""
    lam_d = np.ones(beta.n, dtype=complex)
    lam_d[0] = eps.lam * eps.mu ** writhe(beta)
    e1 = a0 - lam_d[:, None] * (ml @ a0)
    e2 = a0 - (a0 @ mr) / lam_d[None, :]
    return float(max(np.abs(e1).max(), np.abs(e2).max()))


def _fold_point(beta: BraidWord, eps: Assignment) -> tuple[np.ndarray, np.ndarray]:
    """Both action matrices of beta evaluated at the generator values of eps."""
    if eps.n != beta.n:
        raise ValueError("assignment ambient mismatch")
    return eval_phi_matrices(beta, values_to_array(eps.values, beta.n))


def full_rank_residual(beta: BraidWord, eps: Assignment) -> tuple[float, float]:
    """Max-abs entry error of each evaluated action matrix against the sign matrix."""
    return _sign_errors(beta, *_fold_point(beta, eps))


def ideal_residual(beta: BraidWord, eps: Assignment) -> float:
    """Max-abs evaluated value over the 2n^2 defining relations of the closure."""
    return _relation_error(beta, eps, *_fold_point(beta, eps), matrix_a(beta.n, eps))


def numerical_rank(m: np.ndarray) -> int:
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = RANK_REL_THRESHOLD * max(1.0, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


def _require_knot(beta: BraidWord, message: str = "closure must be a knot") -> None:
    """Raise ValueError(message) unless the closure of beta has one component."""
    if component_count(beta) != 1:
        raise ValueError(message)


def _check_mu(eps: Assignment) -> None:
    if abs(eps.mu - 1) < MU_UNITY_GAP:
        raise MuOneError("augmentation rank is undefined at mu = 1")


def aug_rank(eps: Assignment, n: int) -> int:
    """Numerical rank of the evaluated relation matrix; undefined at mu = 1."""
    _check_mu(eps)
    return numerical_rank(matrix_a(n, eps))


# ---------------------------------------------------------------------------
# Restart-batched Levenberg-Marquardt core
# ---------------------------------------------------------------------------

FD_STEP = 1e-7
FLOOR = 1e-14  # a restart whose max-abs residual falls below this stops
STALL_ABOVE = 1e-6  # a restart can stall only while its max-abs residual is at least this
FTOL = 1e-8  # a step lowering the cost by at most this fraction of it stalls a restart at or above STALL_ABOVE
TRIALS = 10  # damping increases tried per iteration before a restart gives up
MAX_ITER = 120  # Levenberg-Marquardt iterations per restart
LAM_START, LAM_MIN, LAM_MAX = 1e-3, 1e-14, 1e12
# Restart 0 runs alone, then the rest CHUNK at a time: successful searches
# mostly accept restart 0, while a nonexistence search spends its budget in full chunks.
CHUNK = 64
STOP_REASONS = ("floor", "no_descent", "damping_overflow", "max_iter", "non_finite", "stalled", "rejected")
# a row's stop code: 0 while it runs, then 1 + the index of its reason in STOP_REASONS
_FLOOR, _NO_DESCENT, _DAMPING_OVERFLOW, _MAX_ITER, _NON_FINITE, _STALLED, _REJECTED = range(1, len(STOP_REASONS) + 1)


def _chunks(restarts: int) -> Iterator[int]:
    """Sizes of the successive chunks of a search with this many restarts, lazily: 1, CHUNK, CHUNK, ..."""
    if restarts > 0:
        yield 1
    yield from (min(CHUNK, restarts - k) for k in range(1, restarts, CHUNK))


def _sign_residual(beta: BraidWord) -> Callable[[np.ndarray], np.ndarray]:
    """c(z) = [Phi^L - Delta, Phi^R - Delta] flattened, for generator values z of shape (B, m).

    Every entry is a polynomial in z, so c is holomorphic.
    """
    n = beta.n
    rows, cols = np.array(list(gen_order(n)), dtype=int).reshape(-1, 2).T - 1  # empty on one strand
    on_diag = np.arange(n) * (n + 1)  # flat positions of an n x n diagonal
    diag, d = np.concatenate([on_diag, n * n + on_diag]), np.tile(delta_diag(beta), 2)

    def resid(z: np.ndarray) -> np.ndarray:
        b = z.shape[0]
        v = np.zeros((b, n, n), dtype=complex)
        v[:, rows, cols] = z
        c = np.concatenate(eval_phi_matrices(beta, v), axis=1).reshape(b, 2 * n * n)
        c[:, diag] -= d
        return c

    return resid


def _cost(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c.real**2 + c.imag**2).sum(axis=1)


def _evaluate(resid: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c at every row of z and its forward-difference Jacobian, from one fold.

    The fold takes the B (m + 1) points z and z + h e_j.  The Jacobian has
    shape (B, m, d): its row j is the difference quotient along Re z_j.  c is
    holomorphic, so its derivative along Im z is i times this one: the m
    complex rows carry the whole real Jacobian.
    """
    b, m = z.shape
    h = FD_STEP * np.maximum(1.0, np.abs(z))
    points = np.repeat(z[:, None, :], m + 1, axis=1)
    points.reshape(b, -1)[:, m :: m + 1] += h  # points[:, j + 1, j]
    out = resid(points.reshape(b * (m + 1), m)).reshape(b, m + 1, -1)
    # times the real 1 / h: the same numbers as dividing by h, which numpy would promote to complex
    return out[:, 0].copy(), (out[:, 1:] - out[:, :1]) * (1.0 / h)[:, :, None]


def _normal_equations(jac: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^H c and J^H J per row, for a Jacobian of shape (B, m, d)."""
    jh = jac.conj()
    return (jh @ c[:, :, None])[:, :, 0], jh @ jac.transpose(0, 2, 1)


def _damped_steps(jtj: np.ndarray, lam: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve (J^H J + lam D) s = -J^H c per row, D = max(Re diag J^H J, 1e-12); NaN where singular.

    This is the real 2m x 2m damped system in its complex form.
    """
    a = jtj.copy()
    diag = a.reshape(len(a), -1)[:, :: a.shape[-1] + 1]
    diag += lam[:, None] * np.maximum(diag.real, 1e-12)
    rhs = -grad[:, :, None]
    try:
        return np.linalg.solve(a, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(grad, np.nan)
        for k in range(len(a)):
            try:
                steps[k] = np.linalg.solve(a[k : k + 1], rhs[k : k + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def _lm_chunk(
    resid: Callable[[np.ndarray], np.ndarray], z0: np.ndarray, accept: Callable[[int, np.ndarray], Certificate | None]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Certificate | None]:
    """Minimize 0.5 |c(z)|^2 from every row of z0, the rows in lockstep.

    Each row keeps its own point, Jacobian, damping lam, iteration count and
    normal equations, and stops for one of STOP_REASONS.  A step gives every
    running row one damping trial: a row either starts an iteration, with
    its stop checks and its normal equations at its point, or retries its
    current one at its raised damping.  All of a step's trials share one
    fold, and no row's arithmetic reads another row, so a row ends where it
    would end alone.  A trial that lowers the row's cost is a descent: the
    row moves there and lam falls to lam / 3.  Any other trial, the NaN step
    of a singular damped system among them, multiplies lam by 10; a miss
    that takes it past LAM_MAX stops the row (damping_overflow).  An
    iteration ends with a descent or after TRIALS trials (no_descent).  A row
    that stops finite with max-abs residual at most ACCEPT_TOL, as every
    accepted certificate's is, goes to accept(k, z_k), lowest row first: it
    returns the row's accepted certificate, or None and the row stops as
    rejected.  Once some row is accepted, the rows after the lowest one enter
    no further fold, frozen where that step left them: the lowest-index
    accepted restart wins, so they cannot change the outcome.  The chunk ends
    once every row before it has stopped (every row, while none is accepted);
    rows cut off there keep the stop code 0.  Returns the final points, their
    max-abs residuals, the stop codes and the winner's certificate (or None).

    A row that descends by at most FTOL times its cost while its max-abs
    residual is at least STALL_ABOVE stops as stalled, keeping the step:
    Gauss-Newton converges only linearly at a nonzero minimum, so it would
    crawl there until the damping gives out (the relative ftol test of
    MINPACK's lmder).  Near a zero Gauss-Newton converges fast again, and the
    STALL_ABOVE guard keeps the test off the rows that are there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = z0.astype(complex)
        c, jac = _evaluate(resid, z)  # jac[k] is the Jacobian at z[k] for every running row k
        cost, ma = _cost(c), np.abs(c).max(axis=1)
        b, m = z.shape
        lam = np.full(b, LAM_START)
        stop = np.zeros(b, dtype=np.int8)  # stop codes, 0 while running
        iters = np.zeros(b, dtype=int)  # descents so far
        missed = np.zeros(b, dtype=int)  # levels missed in the current iteration; 0 starts a new one
        grad, jtj = np.empty((b, m), complex), np.empty((b, m, m), complex)
        cut, won = b, None  # the lowest accepted row and its certificate; no row from it on runs
        while not stop[:cut].all():
            running = (stop[:cut] == 0).nonzero()[0]
            new = running[missed[running] == 0]  # the rows starting an iteration
            if new.size:
                bad = ~np.isfinite(cost[new])
                stop[new[bad]] = _NON_FINITE
                new = new[~bad]
                low = ma[new] < FLOOR
                stop[new[low]] = _FLOOR
                new = new[~low]
                done = iters[new] == MAX_ITER
                stop[new[done]] = _MAX_ITER
                new = new[~done]
                g, a = _normal_equations(jac[new], c[new])
                bad = ~(np.isfinite(g).all(axis=1) & np.isfinite(a).all(axis=(1, 2)))
                stop[new[bad]] = _NON_FINITE
                grad[new], jtj[new] = g, a
            live = running[stop[running] == 0]
            if live.size:
                zt = z[live] + _damped_steps(jtj[live], lam[live], grad[live])
                ct, jt = _evaluate(resid, zt)
                costt = _cost(ct)
                down = costt < cost[live]  # a NaN trial is never a descent
                h, zt, ct, costt = live[down], zt[down], ct[down], costt[down]
                stalled = cost[h] - costt <= FTOL * cost[h]
                z[h], c[h], cost[h], jac[h], ma[h] = zt, ct, costt, jt[down], np.abs(ct).max(axis=1)
                stop[h[stalled & (ma[h] >= STALL_ABOVE)]] = _STALLED
                lam[h] = np.maximum(lam[h] / 3.0, LAM_MIN)
                iters[h] += 1
                missed[h] = 0
                del zt, ct, jt, costt  # a step's trial arrays would otherwise live on through the next
                miss = live[~down]
                lam[miss] *= 10.0
                missed[miss] += 1
                stop[miss[missed[miss] == TRIALS]] = _NO_DESCENT
                stop[miss[lam[miss] > LAM_MAX]] = _DAMPING_OVERFLOW
            offered = [k for k in (ma[:cut] <= ACCEPT_TOL).nonzero()[0] if stop[k] not in (0, _NON_FINITE, _REJECTED)]
            for k in offered:
                if (cert := accept(k, z[k])) is not None:
                    cut, won = k, cert
                    break
                stop[k] = _REJECTED
        return z, ma, stop, won


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _search_obj(record: "Certificate | NotFound", fields: dict) -> dict:
    """JSON object of a search outcome: the braid, its own fields, then the run settings."""
    settings = {"seed": record.seed, "restarts": record.restarts, "tol": record.tol}
    return {"braid": record.braid.to_obj(), **fields, **settings}


@dataclass(frozen=True)
class Certificate:
    """A numeric witness for a maximal-rank augmentation of a braid closure."""

    braid: BraidWord
    assignment: Assignment
    residual_L: float
    residual_R: float
    ideal_residual: float
    rank: int
    seed: int
    restarts: int
    tol: float

    found = True

    @property
    def accepted(self) -> bool:
        """Maximal rank, and both sign residuals and the ideal residual at most tol; inf or NaN never is."""
        residuals = (self.residual_L, self.residual_R, self.ideal_residual)
        return self.rank == self.braid.n and all(r <= self.tol for r in residuals)

    @classmethod
    def measure(
        cls, beta: BraidWord, eps: Assignment, seed: int, restarts: int, tol: float
    ) -> "Certificate":
        """The certificate of eps for beta (a knot), its residuals and rank from one fold and one matrix_a."""
        _require_knot(beta)
        # an overflow, or a division by a lambda mu^w that underflowed, is a non-finite residual
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ml, mr = _fold_point(beta, eps)
            res_l, res_r = _sign_errors(beta, ml, mr)
            a0 = matrix_a(beta.n, eps)
            ideal = _relation_error(beta, eps, ml, mr, a0)
        _check_mu(eps)
        return cls(
            braid=beta,
            assignment=eps,
            residual_L=res_l,
            residual_R=res_r,
            ideal_residual=ideal,
            rank=numerical_rank(a0),
            seed=seed,
            restarts=restarts,
            tol=tol,
        )

    def to_obj(self) -> dict:
        gens = [
            {"i": i, "j": j, "re": self.assignment.value(i, j).real, "im": self.assignment.value(i, j).imag}
            for i, j in gen_order(self.braid.n)
        ]
        return _search_obj(
            self,
            {
                "lambda": {"re": self.assignment.lam.real, "im": self.assignment.lam.imag},
                "mu": {"re": self.assignment.mu.real, "im": self.assignment.mu.imag},
                "generators": gens,
                "residual_L": self.residual_L,
                "residual_R": self.residual_R,
                "ideal_residual": self.ideal_residual,
                "rank": self.rank,
            },
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "Certificate":
        def cnum(x, field: str) -> complex:
            return complex(*(jsonio.number(x[part], f"{field}.{part}") for part in ("re", "im")))

        try:
            braid = BraidWord.from_obj(obj["braid"])
            values: dict[Gen, complex] = {}
            for g in obj["generators"]:
                key = (jsonio.integer(g["i"], "generator i"), jsonio.integer(g["j"], "generator j"))
                if key in values:
                    raise ValueError(f"certificate repeats generator a_{key[0]},{key[1]}")
                values[key] = cnum(g, f"generator a_{key[0]},{key[1]}")
            assignment = Assignment(
                braid.n, values, cnum(obj["lambda"], "lambda"), cnum(obj["mu"], "mu")
            )
            return cls(
                braid=braid,
                assignment=assignment,
                residual_L=jsonio.number(obj["residual_L"], "residual_L"),
                residual_R=jsonio.number(obj["residual_R"], "residual_R"),
                ideal_residual=jsonio.number(obj["ideal_residual"], "ideal_residual"),
                rank=jsonio.integer(obj["rank"], "rank"),
                seed=jsonio.integer(obj["seed"], "seed"),
                restarts=jsonio.integer(obj["restarts"], "restarts"),
                tol=jsonio.number(obj["tol"], "tol"),
            )
        except KeyError as exc:
            raise ValueError(f"not a certificate object (missing {exc})") from exc
        except TypeError as exc:
            raise ValueError(f"not a certificate object (malformed: {exc})") from exc

    def save(self, path: str) -> None:
        jsonio.dump_file(path, self.to_obj())

    @classmethod
    def load(cls, path: str) -> "Certificate":
        """The certificate in the JSON file at path; an error that it does not load names the file."""
        try:
            return cls.from_obj(jsonio.load_file(path))
        except ValueError as exc:  # json.JSONDecodeError among them
            raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class NotFound:
    """Search outcome when no acceptable point was reached.

    It is at most statistical evidence of nonexistence, never proof; its JSON
    says so with ``"label": "evidence-only"``.  When no restart ran, or more
    than half of the restarts broke down (``max_iter`` or ``non_finite``), the
    label is ``"inconclusive"``: the search failed, which says nothing about
    the braid.  So is a search with a ``rejected`` restart, which reached a
    zero of the sign equations.  A ``stalled`` restart ended at a local
    minimum and counts as evidence, like ``no_descent``.
    """

    braid: BraidWord
    seed: int
    restarts: int
    tol: float
    residual_summary: dict

    found = False

    @property
    def best_residual(self) -> float:
        """The lowest final residual of a finite restart; inf when there is none (null in JSON)."""
        return self.residual_summary.get("min", math.inf)

    @property
    def label(self) -> str:
        stops, count = self.residual_summary["stops"], self.residual_summary["count"]
        broken = stops["max_iter"] + stops["non_finite"]
        return "inconclusive" if count == 0 or stops["rejected"] or 2 * broken > count else "evidence-only"

    def to_obj(self) -> dict:
        return _search_obj(
            self,
            {
                "found": self.found,
                "label": self.label,
                "best_residual": self.residual_summary.get("min"),
                "residual_summary": dict(self.residual_summary),
            },
        )


@dataclass(frozen=True)
class SolveOptions:
    restarts: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _summary(finals: np.ndarray, codes: np.ndarray) -> dict:
    """Quartiles of the final residuals of the restarts that stayed finite, and the stop counts.

    ``count`` is the number of restarts run; ``stops`` counts ``non_finite`` and
    ``rejected`` ones too, but they are not evidence and stay out of the quartiles.
    """
    out: dict = {"count": len(finals)}
    arr = np.sort(finals[~np.isin(codes, (_NON_FINITE, _REJECTED))])
    if arr.size:
        q = lambda t: float(arr[min(len(arr) - 1, int(t * (len(arr) - 1)))])
        out.update(min=float(arr[0]), q25=q(0.25), median=q(0.5), q75=q(0.75), max=float(arr[-1]))
    counts = np.bincount(codes, minlength=len(STOP_REASONS) + 1)[1:].tolist()
    out["stops"] = dict(zip(STOP_REASONS, counts))
    return out


def _sample_mu(rng: np.random.Generator) -> complex:
    """exp(i theta), theta uniform in [0.3, 2 pi - 0.3]: |lambda| = |mu|^-w = 1 at any writhe w."""
    theta = rng.uniform(0.3, 2 * math.pi - 0.3)
    return complex(math.cos(theta), math.sin(theta))


def _certificate_from_values(
    beta: BraidWord,
    values: dict[Gen, complex],
    rng: np.random.Generator,
    seed: int,
    restarts: int,
) -> Certificate:
    """Complete generator values to a certificate measured against ACCEPT_TOL.

    Every nonzero mu != 1 extends a solution of the sign-matrix equations:
    lambda = (-1)^w mu^-w zeroes both relation families, with mu drawn from rng.
    """
    w = writhe(beta)
    mu = _sample_mu(rng)
    eps = Assignment(beta.n, values, (-1) ** (w % 2) * mu ** (-w), mu)
    return Certificate.measure(beta, eps, seed, restarts, ACCEPT_TOL)


def _accept(beta: BraidWord, rngs: list, seed: int, restarts: int, k: int, z: np.ndarray) -> Certificate | None:
    """Restart k's certificate at the generator values z, mu drawn from its rngs[k], if it is accepted."""
    cert = _certificate_from_values(beta, dict(zip(gen_order(beta.n), map(complex, z))), rngs[k], seed, restarts)
    return cert if cert.accepted else None


def solve_full_rank(beta: BraidWord, options: SolveOptions = SolveOptions()) -> Certificate | NotFound:
    """Multi-start search for generator values satisfying the sign-matrix equations.

    Restart t starts from the t-th substream spawned from the seed.  Restart
    0 runs alone, then the rest CHUNK at a time (see _chunks and _lm_chunk),
    and the lowest-index accepted restart wins, the one a restart-by-restart
    search would return first; so the outcome is a deterministic function of
    (seed, restarts), whatever the chunk sizes.  A restart is accepted only
    when its certificate is (Certificate.accepted, the rule verify runs).
    """
    _require_knot(beta)
    m = beta.n * (beta.n - 1)
    resid = _sign_residual(beta)
    seeds = np.random.SeedSequence(options.seed)
    # one empty array each, so that a search with no chunk summarises zero restarts
    finals, codes = [np.empty(0)], [np.empty(0, dtype=np.int8)]
    for size in _chunks(options.restarts):
        # spawning continues the numbering, so chunk by chunk gives the same substreams
        rngs = [np.random.default_rng(child) for child in seeds.spawn(size)]
        x0 = np.array([rng.standard_normal(2 * m) for rng in rngs])
        accept = functools.partial(_accept, beta, rngs, options.seed, options.restarts)
        _, ma, code, cert = _lm_chunk(resid, x0[:, :m] + 1j * x0[:, m:], accept)
        if cert is not None:
            return cert
        finals.append(ma)
        codes.append(code)
    summary = _summary(np.concatenate(finals), np.concatenate(codes))
    return NotFound(beta, options.seed, options.restarts, ACCEPT_TOL, summary)


# ---------------------------------------------------------------------------
# Satellite construction
# ---------------------------------------------------------------------------


def sign_vector(pattern_perm: Perm, p: int) -> dict[int, int]:
    """Alternating signs along the strand cycle of the pattern permutation.

    The permutation restricted to 1..p must be a single p-cycle (the pattern
    closure is a knot).  Signs alternate along the cycle; for odd p the first
    two cycle entries share the sign so the alternation closes up.
    """
    xs = [1]
    for _ in range(p - 1):
        xs.append(pattern_perm(xs[-1]))
    if sorted(xs) != list(range(1, p + 1)) or (p > 0 and pattern_perm(xs[-1]) != 1):
        raise ValueError("pattern permutation is not a single cycle on 1..p")
    g = {xs[0]: 1}
    for l in range(1, p):
        if p % 2 == 1 and l == 1:
            g[xs[l]] = g[xs[l - 1]]
        else:
            g[xs[l]] = -g[xs[l - 1]]
    return g


def construct_satellite_aug(cert_alpha: Certificate, cert_gamma: Certificate) -> Certificate:
    """Build a maximal-rank certificate for the satellite from its two factors.

    The generator values are read off through the splitting homomorphism: the
    companion certificate feeds the block part, the pattern certificate (sign
    twisted when the companion writhe is odd) feeds the offset part.  Each
    factor is measured afresh against ACCEPT_TOL, whatever residuals and tol
    it stores, and a factor that fails is bad input (ValueError).  The result
    is verified the same way and must pass; a failure there indicates an
    internal convention bug.
    """
    alpha, gamma = cert_alpha.braid, cert_gamma.braid
    k, p = alpha.n, gamma.n
    for name, cert in (("companion", cert_alpha), ("pattern", cert_gamma)):
        _require_knot(cert.braid, f"{name} closure is not a knot")
        rec = Certificate.measure(cert.braid, cert.assignment, cert.seed, cert.restarts, ACCEPT_TOL)
        if not rec.accepted:
            raise ValueError(
                f"{name} certificate is not accepted: recomputed residuals "
                f"({rec.residual_L:.3e}, {rec.residual_R:.3e}, ideal {rec.ideal_residual:.3e}) "
                f"over {ACCEPT_TOL:g}, rank {rec.rank} of {cert.braid.n}"
            )

    if writhe(alpha) % 2 == 0:
        g = {i: 1 for i in range(1, p + 1)}
    else:
        g = sign_vector(perm(gamma), p)

    def delta_val(i: int, j: int) -> complex:
        return g[i] * g[j] * cert_gamma.assignment.value(i, j)

    values: dict[Gen, complex] = {}
    for i, j in gen_order(k * p):
        image = split_gen(i, j, p)
        if image is None:
            values[(i, j)] = 0j
        else:
            factors = [cert_alpha.assignment.value(*g) for g in image[0]]
            factors += [delta_val(*g) for g in image[1]]
            values[(i, j)] = functools.reduce(operator.mul, factors)

    braid = satellite_braid(alpha, gamma)
    rng = np.random.default_rng(np.random.SeedSequence(0))
    cert = _certificate_from_values(braid, values, rng, seed=0, restarts=0)
    if not cert.accepted:
        raise ConstructionError(
            f"constructed satellite assignment failed verification: "
            f"residuals ({cert.residual_L:.3e}, {cert.residual_R:.3e}, ideal {cert.ideal_residual:.3e})"
        )
    return cert


# ---------------------------------------------------------------------------
# Nonexistence evidence
# ---------------------------------------------------------------------------


def nonexistence_search(
    beta: BraidWord, options: SolveOptions = SolveOptions(restarts=4096)
) -> Certificate | NotFound:
    """solve_full_rank with a large default restart budget.

    A NotFound outcome is statistical evidence of nonexistence, nothing more;
    a found certificate refutes nonexistence outright.
    """
    return solve_full_rank(beta, options)
