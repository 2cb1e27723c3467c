"""Augmentations of braid closures: residuals, rank, search, and construction.

A rank-n augmentation of the closure of beta in B_n is determined by complex
generator values under which both action matrices evaluate to the diagonal
sign matrix of the writhe.  The solver looks for such values by damped
Gauss-Newton (Levenberg-Marquardt style) least squares over seeded random
restarts, a chunk of restarts at a time in lockstep; the satellite constructor instead produces the values of a
maximal-rank augmentation of a satellite directly from certificates for the
companion and the pattern, with no search.

Numeric fast path: evaluating the action matrices under an assignment never
builds symbolic entries.  Folding the word letter by letter, keep the current
evaluated matrices together with the generator values pushed forward through
each letter's substitution; one letter costs O(n) scalar operations, and the
whole fold is batched over many points at once (every restart of a chunk and
its finite differences).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .braids import BraidWord, Perm, component_count, perm, satellite_braid, tau_word, writhe
from .braids import cable, include_bar
from .action import phi_left
from .freealg import Assignment, Gen, NCPoly
from .reporting import CheckReport
from . import jsonio

ACCEPT_TOL = 1e-9
RANK_REL_THRESHOLD = 1e-8
MU_UNITY_GAP = 1e-12


class MuOneError(ValueError):
    """mu = 1 is outside the theory; rank is undefined there."""


class ConstructionError(RuntimeError):
    """The deterministic satellite construction failed verification."""


def gen_order(n: int) -> list[Gen]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def values_to_array(values: Mapping[Gen, complex], n: int) -> np.ndarray:
    v = np.zeros((n, n), dtype=complex)
    for (i, j), val in values.items():
        v[i - 1, j - 1] = val
    return v


def array_to_values(v: np.ndarray) -> dict[Gen, complex]:
    n = v.shape[-1]
    return {(i, j): complex(v[i - 1, j - 1]) for i, j in gen_order(n)}


# ---------------------------------------------------------------------------
# Numeric letter fold
# ---------------------------------------------------------------------------


def _letter_step(ml: np.ndarray, mr: np.ndarray, v: np.ndarray, e: int) -> np.ndarray:
    """Advance the fold by one letter; updates ml/mr in place, returns new values."""
    n = v.shape[-1]
    k0 = abs(e) - 1
    k1 = k0 + 1
    oth = np.array([t for t in range(n) if t not in (k0, k1)], dtype=int)
    a_k1k = v[..., k1, k0].copy()
    a_kk1 = v[..., k0, k1].copy()
    if e > 0:
        row = -a_k1k[..., None] * ml[..., k0, :] + ml[..., k1, :]
        ml[..., k1, :] = ml[..., k0, :]
        ml[..., k0, :] = row
        col = -a_kk1[..., None] * mr[..., :, k0] + mr[..., :, k1]
        mr[..., :, k1] = mr[..., :, k0]
        mr[..., :, k0] = col
    else:
        row = ml[..., k0, :] - a_kk1[..., None] * ml[..., k1, :]
        ml[..., k0, :] = ml[..., k1, :]
        ml[..., k1, :] = row
        col = mr[..., :, k0] - a_k1k[..., None] * mr[..., :, k1]
        mr[..., :, k0] = mr[..., :, k1]
        mr[..., :, k1] = col
    w = v.copy()
    if e > 0:
        if oth.size:
            w[..., k1, oth] = v[..., k0, oth]
            w[..., oth, k1] = v[..., oth, k0]
            w[..., k0, oth] = v[..., k1, oth] - a_k1k[..., None] * v[..., k0, oth]
            w[..., oth, k0] = v[..., oth, k1] - v[..., oth, k0] * a_kk1[..., None]
        w[..., k0, k1] = -a_k1k
        w[..., k1, k0] = -a_kk1
    else:
        if oth.size:
            w[..., k0, oth] = v[..., k1, oth]
            w[..., oth, k0] = v[..., oth, k1]
            w[..., k1, oth] = v[..., k0, oth] - a_kk1[..., None] * v[..., k1, oth]
            w[..., oth, k1] = v[..., oth, k0] - v[..., oth, k1] * a_k1k[..., None]
        w[..., k0, k1] = -a_k1k
        w[..., k1, k0] = -a_kk1
    return w


def eval_phi_matrices(beta: BraidWord, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both action matrices of beta at the given generator values.

    values has shape (..., n, n); both results share the leading batch shape.
    """
    n = beta.n
    v = np.array(values, dtype=complex)
    if v.shape[-2:] != (n, n):
        raise ValueError(f"values must have trailing shape ({n}, {n})")
    batch = v.shape[:-2]
    eye = np.eye(n, dtype=complex)
    ml = np.broadcast_to(eye, batch + (n, n)).copy()
    mr = np.broadcast_to(eye, batch + (n, n)).copy()
    for e in beta.letters:
        v = _letter_step(ml, mr, v, e)
    return ml, mr


def delta_diag(beta: BraidWord) -> np.ndarray:
    d = np.ones(beta.n, dtype=complex)
    d[0] = (-1) ** (writhe(beta) % 2)
    return d


def matrix_delta(beta: BraidWord) -> np.ndarray:
    """The diagonal sign matrix diag[(-1)^writhe, 1, ..., 1]."""
    return np.diag(delta_diag(beta))


def matrix_lambda(beta: BraidWord, lam: complex, mu: complex) -> np.ndarray:
    """diag[lambda mu^writhe, 1, ..., 1]."""
    if lam == 0 or mu == 0:
        raise ValueError("lambda and mu must be nonzero")
    d = np.ones(beta.n, dtype=complex)
    d[0] = lam * mu ** writhe(beta)
    return np.diag(d)


def matrix_a(n: int, eps: Assignment | None = None):
    """The n x n matrix with a_ij above, -mu a_ij below, 1-mu on the diagonal.

    With an assignment the matrix is numeric; without one it is returned as a
    grid of canonical strings.
    """
    if eps is None:
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                if i == j:
                    row.append("1 - mu")
                elif i < j:
                    row.append(NCPoly.gen(n, i, j).render())
                else:
                    row.append(f"-mu*{NCPoly.gen(n, i, j).render()}")
            rows.append(row)
        return rows
    if eps.n != n:
        raise ValueError("assignment ambient mismatch")
    out = np.empty((n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                out[i - 1, j - 1] = 1 - eps.mu
            elif i < j:
                out[i - 1, j - 1] = eps.value(i, j)
            else:
                out[i - 1, j - 1] = -eps.mu * eps.value(i, j)
    return out


def _sign_errors(beta: BraidWord, ml: np.ndarray, mr: np.ndarray) -> tuple[float, float]:
    d = matrix_delta(beta)
    return float(np.abs(ml - d).max()), float(np.abs(mr - d).max())


def _relation_error(beta: BraidWord, eps: Assignment, ml: np.ndarray, mr: np.ndarray) -> float:
    a0 = matrix_a(beta.n, eps)
    lam_d = np.ones(beta.n, dtype=complex)
    lam_d[0] = eps.lam * eps.mu ** writhe(beta)
    e1 = a0 - lam_d[:, None] * (ml @ a0)
    e2 = a0 - (a0 @ mr) / lam_d[None, :]
    return float(max(np.abs(e1).max(), np.abs(e2).max()))


def full_rank_residual(beta: BraidWord, eps: Assignment) -> tuple[float, float]:
    """Max-abs entry error of each evaluated action matrix against the sign matrix."""
    if eps.n != beta.n:
        raise ValueError("assignment ambient mismatch")
    return _sign_errors(beta, *eval_phi_matrices(beta, values_to_array(eps.values, beta.n)))


def ideal_residual(beta: BraidWord, eps: Assignment) -> float:
    """Max-abs evaluated value over the 2n^2 defining relations of the closure."""
    if eps.n != beta.n:
        raise ValueError("assignment ambient mismatch")
    return _relation_error(beta, eps, *eval_phi_matrices(beta, values_to_array(eps.values, beta.n)))


def numerical_rank(m: np.ndarray, rel_threshold: float = RANK_REL_THRESHOLD) -> int:
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = rel_threshold * max(1.0, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


def aug_rank(eps: Assignment, n: int) -> int:
    """Numerical rank of the evaluated relation matrix; undefined at mu = 1."""
    if abs(eps.mu - 1) < MU_UNITY_GAP:
        raise MuOneError("augmentation rank is undefined at mu = 1")
    return numerical_rank(matrix_a(n, eps))


# ---------------------------------------------------------------------------
# Restart-batched Levenberg-Marquardt core
# ---------------------------------------------------------------------------

FD_STEP = 1e-7
FLOOR = 1e-14  # a restart whose max-abs residual falls below this stops
POLISH_BELOW = 1e-6  # stopped restarts below this get up to two plain Gauss-Newton steps
TRIALS = 10  # damping increases tried per iteration before a restart gives up
LAM_START, LAM_MIN, LAM_MAX = 1e-3, 1e-14, 1e12
# Restarts run in chunks of 1, 8, 64, 64, ...: successful searches mostly
# accept restart 0, while a nonexistence search spends its budget 64 at a time.
LEAD_CHUNKS = (1, 8)
CHUNK = 64
STOP_REASONS = ("floor", "no_descent", "damping_overflow", "max_iter", "non_finite")


def _chunks(restarts: int):
    """Sizes of the successive chunks of a search with this many restarts."""
    for size in itertools.chain(LEAD_CHUNKS, itertools.repeat(CHUNK)):
        if restarts <= 0:
            return
        yield min(size, restarts)
        restarts -= size


def _sign_residual(beta: BraidWord) -> Callable[[np.ndarray], np.ndarray]:
    """c(z) = [Phi^L - Delta, Phi^R - Delta] flattened, for generator values z of shape (B, m).

    Every entry is a polynomial in z, so c is holomorphic.
    """
    n = beta.n
    rows, cols = (np.array(t) - 1 for t in zip(*gen_order(n)))
    diag = np.arange(n)
    d = delta_diag(beta)

    def resid(z: np.ndarray) -> np.ndarray:
        b = z.shape[0]
        v = np.zeros((b, n, n), dtype=complex)
        v[:, rows, cols] = z
        ml, mr = eval_phi_matrices(beta, v)
        ml[:, diag, diag] -= d
        mr[:, diag, diag] -= d
        return np.concatenate([ml.reshape(b, n * n), mr.reshape(b, n * n)], axis=1)

    return resid


def _cost(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c.real**2 + c.imag**2).sum(axis=1)


def _jacobian(resid: Callable[[np.ndarray], np.ndarray], z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Forward differences along Re z for all rows in one fold; shape (B, d, m).

    c is holomorphic, so its derivative along Im z is i times this one: the m
    complex columns carry the whole real Jacobian.
    """
    b, m = z.shape
    h = FD_STEP * np.maximum(1.0, np.abs(z))
    cp = resid((z[:, None, :] + h[:, :, None] * np.eye(m)).reshape(b * m, m)).reshape(b, m, -1)
    return ((cp - c[:, None, :]) / h[:, :, None]).transpose(0, 2, 1)


def _normal_equations(jac: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^H c and J^H J per row."""
    jh = jac.conj().transpose(0, 2, 1)
    return (jh @ c[:, :, None])[:, :, 0], jh @ jac


def _damped_steps(
    jtj: np.ndarray, dg: np.ndarray, lam: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (J^H J + lam diag J^H J) s = -J^H c per row; ok is False where singular.

    This is the real 2m x 2m damped system in its complex form.
    """
    a = jtj + (lam[:, None] * dg)[:, :, None] * np.eye(jtj.shape[-1])
    rhs = -grad[:, :, None]
    ok = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, rhs)[:, :, 0], ok
    except np.linalg.LinAlgError:
        steps = np.zeros_like(grad)
        for k in range(len(a)):
            try:
                steps[k] = np.linalg.solve(a[k : k + 1], rhs[k : k + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[k] = False
        return steps, ok


def _accepted(ma: np.ndarray, stop: np.ndarray, tol: float) -> np.ndarray:
    return (stop != "") & (stop != "non_finite") & (ma <= tol)


def _polish(resid: Callable[[np.ndarray], np.ndarray], z, c, ma, rows: np.ndarray) -> None:
    """Up to two undamped Gauss-Newton steps per row, kept while max-abs falls."""
    for _ in range(2):
        if not rows.size:
            return
        jac = _jacobian(resid, z[rows], c[rows])
        steps = np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(jac, c[rows])])
        ct = resid(z[rows] + steps)
        mt = np.abs(ct).max(axis=1)
        down = mt < ma[rows]
        rows = rows[down]
        z[rows] += steps[down]
        c[rows], ma[rows] = ct[down], mt[down]


def _lm_chunk(
    resid: Callable[[np.ndarray], np.ndarray], z0: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize 0.5 |c(z)|^2 from every row of z0, the rows in lockstep.

    Each row keeps its own damping and stops for one of STOP_REASONS.  Only
    running rows enter a fold, and no row's arithmetic reads another row, so
    a row ends where it would end alone.  The chunk ends once every row has
    stopped, or once some row is accepted (max-abs residual <= tol) and every
    row before it has stopped; rows cut off there keep the stop reason "".
    Returns the final points, their max-abs residuals and the stop reasons.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b, m = z0.shape
        z = z0.astype(complex)
        c = resid(z)
        cost, ma = _cost(c), np.abs(c).max(axis=1)
        lam = np.full(b, LAM_START)
        stop = np.full(b, "", dtype=object)
        for it in range(max_iter + 1):
            running = stop == ""
            live = np.flatnonzero(running)
            bad = ~np.isfinite(cost[live])
            stop[live[bad]] = "non_finite"
            live = live[~bad]
            low = ma[live] < FLOOR
            stop[live[low]] = "floor"
            live = live[~low]
            if it == max_iter:
                stop[live] = "max_iter"
            elif live.size:
                grad, jtj = _normal_equations(_jacobian(resid, z[live], c[live]), c[live])
                bad = ~(np.isfinite(grad).all(axis=1) & np.isfinite(jtj).all(axis=(1, 2)))
                stop[live[bad]] = "non_finite"
                live, grad, jtj = live[~bad], grad[~bad], jtj[~bad]
                dg = np.maximum(np.diagonal(jtj, axis1=1, axis2=2).real, 1e-12)
                pending = np.arange(live.size)  # positions in live still without a descent step
                for _ in range(TRIALS):
                    if not pending.size:
                        break
                    rows = live[pending]
                    steps, ok = _damped_steps(jtj[pending], dg[pending], lam[rows], grad[pending])
                    lam[rows[~ok]] *= 10.0
                    tried, rows = pending[ok], rows[ok]
                    zt = z[rows] + steps[ok]
                    ct = resid(zt)
                    costt = _cost(ct)
                    down = costt < cost[rows]
                    hit, miss = rows[down], rows[~down]
                    z[hit], c[hit], cost[hit] = zt[down], ct[down], costt[down]
                    ma[hit] = np.abs(ct[down]).max(axis=1)
                    lam[hit] = np.maximum(lam[hit] / 3.0, LAM_MIN)
                    lam[miss] *= 10.0
                    over = lam[miss] > LAM_MAX
                    stop[miss[over]] = "damping_overflow"
                    pending = np.sort(np.concatenate([pending[~ok], tried[~down][~over]]))
                stop[live[pending]] = "no_descent"
            just = np.flatnonzero(running & (stop != "") & (stop != "non_finite"))
            _polish(resid, z, c, ma, just[ma[just] < POLISH_BELOW])
            done = stop != ""
            won = np.flatnonzero(_accepted(ma, stop, tol))
            if done.all() or (won.size and done[: won[0]].all()):
                break
        return z, ma, stop


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


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

    @property
    def accepted(self) -> bool:
        return self.residual_L <= self.tol and self.residual_R <= self.tol

    def to_obj(self) -> dict:
        gens = [
            {"i": i, "j": j, "re": self.assignment.value(i, j).real, "im": self.assignment.value(i, j).imag}
            for i, j in gen_order(self.braid.n)
        ]
        return {
            "braid": {"n": self.braid.n, "word": list(self.braid.letters)},
            "lambda": {"re": self.assignment.lam.real, "im": self.assignment.lam.imag},
            "mu": {"re": self.assignment.mu.real, "im": self.assignment.mu.imag},
            "generators": gens,
            "residual_L": self.residual_L,
            "residual_R": self.residual_R,
            "ideal_residual": self.ideal_residual,
            "rank": self.rank,
            "seed": self.seed,
            "restarts": self.restarts,
            "tol": self.tol,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Certificate":
        try:
            braid = BraidWord(int(obj["braid"]["n"]), tuple(int(e) for e in obj["braid"]["word"]))
            values = {
                (int(g["i"]), int(g["j"])): complex(float(g["re"]), float(g["im"]))
                for g in obj["generators"]
            }
            assignment = Assignment(
                braid.n,
                values,
                complex(float(obj["lambda"]["re"]), float(obj["lambda"]["im"])),
                complex(float(obj["mu"]["re"]), float(obj["mu"]["im"])),
            )
            return cls(
                braid=braid,
                assignment=assignment,
                residual_L=float(obj["residual_L"]),
                residual_R=float(obj["residual_R"]),
                ideal_residual=float(obj["ideal_residual"]),
                rank=int(obj["rank"]),
                seed=int(obj["seed"]),
                restarts=int(obj["restarts"]),
                tol=float(obj["tol"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a certificate object (missing {exc})") from exc

    def to_json(self) -> str:
        return jsonio.dumps(self.to_obj())

    def save(self, path: str) -> None:
        jsonio.dump_file(path, self.to_obj())

    @classmethod
    def load(cls, path: str) -> "Certificate":
        return cls.from_obj(jsonio.load_file(path))


def _finite_or_none(x: float) -> float | None:
    """A best residual with no finite restart behind it is written as null."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class NotFound:
    """Search outcome when no acceptable point was reached; carries evidence."""

    braid: BraidWord
    best_residual: float
    seed: int
    restarts: int
    tol: float
    residual_summary: dict

    def to_obj(self) -> dict:
        return {
            "braid": {"n": self.braid.n, "word": list(self.braid.letters)},
            "found": False,
            "best_residual": _finite_or_none(self.best_residual),
            "residual_summary": dict(self.residual_summary),
            "seed": self.seed,
            "restarts": self.restarts,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class SolveOptions:
    restarts: int = 256
    seed: int = 0
    tol: float = ACCEPT_TOL
    max_iter: int = 120


def _summary(finals: list[float], stops: list[str]) -> dict:
    """Quartiles of the final residuals of the restarts that stayed finite, and the stop counts.

    ``count`` is the number of restarts run; ``non_finite`` restarts are
    counted in ``stops`` but are not evidence, so they stay out of the quartiles.
    """
    out: dict = {"count": len(finals)}
    arr = np.sort(np.array([r for r, why in zip(finals, stops) if why != "non_finite"]))
    if arr.size:
        q = lambda t: float(arr[min(len(arr) - 1, int(t * (len(arr) - 1)))])
        out.update(min=float(arr[0]), q25=q(0.25), median=q(0.5), q75=q(0.75), max=float(arr[-1]))
    out["stops"] = {why: stops.count(why) for why in STOP_REASONS}
    return out


def _sample_mu(rng: np.random.Generator) -> complex:
    while True:
        mu = complex(rng.standard_normal(), rng.standard_normal())
        if 0.3 <= abs(mu) <= 3.0 and abs(mu - 1) >= 0.3:
            return mu


def _certificate_from_values(
    beta: BraidWord,
    values: dict[Gen, complex],
    rng: np.random.Generator,
    seed: int,
    restarts: int,
    tol: float,
) -> Certificate:
    """Complete generator values to a certificate, folding the word once.

    Every nonzero mu != 1 extends a solution of the sign-matrix equations:
    lambda = (-1)^w mu^-w zeroes both relation families, with mu drawn from rng.
    """
    w = writhe(beta)
    mu = _sample_mu(rng)
    eps = Assignment(beta.n, values, (-1) ** (w % 2) * mu ** (-w), mu)
    ml, mr = eval_phi_matrices(beta, values_to_array(values, beta.n))
    res_l, res_r = _sign_errors(beta, ml, mr)
    return Certificate(
        braid=beta,
        assignment=eps,
        residual_L=res_l,
        residual_R=res_r,
        ideal_residual=_relation_error(beta, eps, ml, mr),
        rank=aug_rank(eps, beta.n),
        seed=seed,
        restarts=restarts,
        tol=tol,
    )


def solve_full_rank(beta: BraidWord, options: SolveOptions = SolveOptions()) -> Certificate | NotFound:
    """Multi-start search for generator values satisfying the sign-matrix equations.

    Restart t starts from the t-th substream spawned from the seed.  Restarts
    run in chunks (see LEAD_CHUNKS) and the lowest-index accepted restart wins,
    the one a restart-by-restart search would return first; so the outcome
    is a deterministic function of (seed, restarts, tol, max_iter).
    """
    if component_count(beta) != 1:
        raise ValueError("closure must be a knot")
    n = beta.n
    m = n * (n - 1)

    if m == 0:
        rng = np.random.default_rng(np.random.SeedSequence(options.seed))
        return _certificate_from_values(beta, {}, rng, options.seed, options.restarts, options.tol)

    resid = _sign_residual(beta)
    seeds = np.random.SeedSequence(options.seed)
    finals: list[float] = []
    stops: list[str] = []
    for size in _chunks(options.restarts):
        # spawning continues the numbering, so chunk by chunk gives the same substreams
        rngs = [np.random.default_rng(child) for child in seeds.spawn(size)]
        x0 = np.array([rng.standard_normal(2 * m) for rng in rngs])
        z, ma, stop = _lm_chunk(resid, x0[:, :m] + 1j * x0[:, m:], options.max_iter, options.tol)
        won = np.flatnonzero(_accepted(ma, stop, options.tol))
        if won.size:
            k = won[0]
            values = {g: complex(val) for g, val in zip(gen_order(n), z[k])}
            return _certificate_from_values(beta, values, rngs[k], options.seed, options.restarts, options.tol)
        finals.extend(ma.tolist())
        stops.extend(stop.tolist())
    summary = _summary(finals, stops)
    return NotFound(
        braid=beta,
        best_residual=summary.get("min", math.inf),
        seed=options.seed,
        restarts=options.restarts,
        tol=options.tol,
        residual_summary=summary,
    )


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


def construct_satellite_aug(
    cert_alpha: Certificate,
    cert_gamma: Certificate,
    tol: float = ACCEPT_TOL,
) -> Certificate:
    """Build a maximal-rank certificate for the satellite from its two factors.

    The generator values are read off through the splitting homomorphism: the
    companion certificate feeds the block part, the pattern certificate (sign
    twisted when the companion writhe is odd) feeds the offset part.  The
    result is verified against the sign-matrix equations and must pass; a
    failure indicates an internal convention bug, not bad input.
    """
    alpha, gamma = cert_alpha.braid, cert_gamma.braid
    k, p = alpha.n, gamma.n
    for name, cert in (("companion", cert_alpha), ("pattern", cert_gamma)):
        if not cert.accepted:
            raise ValueError(f"{name} certificate is not accepted")
        if component_count(cert.braid) != 1:
            raise ValueError(f"{name} closure is not a knot")

    if writhe(alpha) % 2 == 0:
        g = {i: 1 for i in range(1, p + 1)}
    else:
        g = sign_vector(perm(gamma), p)

    def delta_val(i: int, j: int) -> complex:
        return g[i] * g[j] * cert_gamma.assignment.value(i, j)

    values: dict[Gen, complex] = {}
    for i, j in gen_order(k * p):
        qi, ri = divmod(i - 1, p)
        qj, rj = divmod(j - 1, p)
        qi, ri, qj, rj = qi + 1, ri + 1, qj + 1, rj + 1
        if qi == qj:
            values[(i, j)] = delta_val(ri, rj)
        elif ri == rj:
            values[(i, j)] = cert_alpha.assignment.value(qi, qj)
        elif (qi - qj) * (ri - rj) < 0:
            values[(i, j)] = 0j
        else:
            values[(i, j)] = cert_alpha.assignment.value(qi, qj) * delta_val(ri, rj)

    braid = satellite_braid(alpha, gamma)
    rng = np.random.default_rng(np.random.SeedSequence(0))
    cert = _certificate_from_values(braid, values, rng, seed=0, restarts=0, tol=tol)
    if not cert.accepted:
        raise ConstructionError(
            f"constructed satellite assignment failed verification: "
            f"residuals ({cert.residual_L:.3e}, {cert.residual_R:.3e})"
        )
    return cert


# ---------------------------------------------------------------------------
# Block structure and nonexistence evidence
# ---------------------------------------------------------------------------


def check_block_structure(n: int, p: int) -> CheckReport:
    """Exact block facts about the cabled ascending word and the pattern row.

    For tau = sigma_1..sigma_{n-1} the left matrix of its p-cable, cut into
    p x p blocks, has (a) identity across block-rows < n and block-columns > 1,
    (b) identity in the bottom-left block, (c) zero in the rest of the bottom
    block-row; and (d) the left matrix of sigma_1..sigma_{p-1} included in
    B_np has row p equal to the first standard basis vector.
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    np_total = n * p
    diffs: list[dict] = []
    big = phi_left(cable(tau_word(1, n - 1, n), p))

    def expect(claim: str, i: int, j: int, got: NCPoly, want: NCPoly) -> None:
        if got != want:
            diffs.append({"claim": claim, "i": i, "j": j, "lhs": got.render(), "rhs": want.render()})

    one, zero = NCPoly.one(np_total), NCPoly.zero(np_total)
    for i in range(1, (n - 1) * p + 1):
        for j in range(p + 1, np_total + 1):
            expect("a", i, j, big.at(i, j), one if j - p == i else zero)
    for s in range(1, p + 1):
        for t in range(1, p + 1):
            expect("b", (n - 1) * p + s, t, big.at((n - 1) * p + s, t), one if s == t else zero)
    for s in range(1, p + 1):
        for j in range(p + 1, np_total + 1):
            expect("c", (n - 1) * p + s, j, big.at((n - 1) * p + s, j), zero)
    pattern = phi_left(include_bar(tau_word(1, p - 1, p), np_total))
    for j in range(1, np_total + 1):
        expect("d", p, j, pattern.at(p, j), one if j == 1 else zero)
    return CheckReport(
        claim="cabled ascending-word block structure and pattern row",
        parameters={"n": n, "p": p},
        diffs=diffs,
    )


@dataclass(frozen=True)
class EvidenceReport:
    """Outcome of a large-budget search, labeled as evidence (never proof)."""

    braid: BraidWord
    found: bool
    certificate: Certificate | None
    best_residual: float
    residual_summary: dict
    seed: int
    restarts: int
    tol: float

    def to_obj(self) -> dict:
        obj = {
            "label": "evidence-only",
            "braid": {"n": self.braid.n, "word": list(self.braid.letters)},
            "found": self.found,
            "best_residual": _finite_or_none(self.best_residual),
            "residual_summary": dict(self.residual_summary),
            "seed": self.seed,
            "restarts": self.restarts,
            "tol": self.tol,
        }
        if self.certificate is not None:
            obj["certificate"] = self.certificate.to_obj()
        return obj


def nonexistence_search(beta: BraidWord, options: SolveOptions = SolveOptions(restarts=4096)) -> EvidenceReport:
    """Exhaust a restart budget looking for a certificate; report what happened.

    A NotFound outcome is statistical evidence of nonexistence, nothing more;
    a found certificate refutes nonexistence outright.
    """
    out = solve_full_rank(beta, options)
    if isinstance(out, Certificate):
        return EvidenceReport(
            braid=beta,
            found=True,
            certificate=out,
            best_residual=max(out.residual_L, out.residual_R),
            residual_summary={},
            seed=options.seed,
            restarts=options.restarts,
            tol=options.tol,
        )
    return EvidenceReport(
        braid=beta,
        found=False,
        certificate=None,
        best_residual=out.best_residual,
        residual_summary=out.residual_summary,
        seed=options.seed,
        restarts=options.restarts,
        tol=options.tol,
    )
