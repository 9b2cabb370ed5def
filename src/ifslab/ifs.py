"""Iterated-function systems: iteration, invariant-measure sampling, contractivity.

A system is a finite family of maps h_i with selection probabilities p_i;
iterating w_k = h_{U_k}(w_{k-1}) with U_k ~ p approximates the stationary
(invariant) measure after burn-in.  A system holds its maps as one table:
an ``AffineSystem`` stacks the matrices M_i and offsets q_i of its affine
maps M_i w + q_i, and an ``SgdSystem`` holds one problem, dataset, eta and
preconditioner and a (n_maps, b) table of batches, map i being the SGD step
on batch i.  Jacobian norms of SGD steps live in ``complexity``, a system's
batches at once.  Systems compare and hash by identity, since their tables
are arrays.

Affine chains and plain-SGD problem-backed chains run parallel in time
through one settle loop, ``_settle``: the index stream is cut into segments
that are stepped in lockstep from guessed starts, and a segment is kept once
the start it ran from equals its predecessor's end bit for bit.  Chains
that contract on average forget their start, and in float64 two chains
driven by one index stream become bit-equal (they coalesce), so two rounds
usually settle every segment; chains that never coalesce finish in one
serial lane.  Coalescence also ends a re-run early: from round 2 on, a
segment whose state after a chunk of SETTLE_CHUNK steps equals its state
there in the previous round has rejoined that run, and leaves the round, so
round 2 of a fast-coalescing chain costs a chunk or a few, not a segment.
Affine segments step through ``_lockstep`` and SGD ones through ``run_sgd``
on stacked rows, and every record equals the serial loop bit for bit.
Every problem-backed chain is stepped by one SGD loop, ``run_sgd``, along
a table of batches and a stream of map indices into it, its rows gathered
once per chunk of steps and passed to the gradient kernel of
``problems.grad_rows``, whose buffers it allocates once per call: a system's
index-drawn batches (one chain, or its segments in lockstep), the sweep's K
chains in lockstep (``experiments``), or subset mode's b-subsets
(``optimizers``), drawn up front into a table stepped in order.  A stack of
K chains takes one kernel call per step, each chain bit-equal to its
run alone.  Preconditioned chains, and those whose steps cost too much per
extra segment (b * dim above SGD_MAX_WORK), run serially.  No other code
steps a state: ``lyapunov_exponent`` takes its states from these loops and
only pushes a tangent vector through each step's Jacobian.

Geometric ergodicity of problem-backed systems is *not* certified here;
stationarity is only spot-checked empirically (see the KS-distance test).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import problems as pr
from .errors import ConfigError, NonFiniteState
from .fileio import FLOAT, atomic_write_text, csv_text, read_csv
from .rng import Xoshiro256PP, draw_indices, require_probs

# --------------------------------------------------------------------------
# systems


def _require_probs(probs: np.ndarray, n_maps: int) -> np.ndarray:
    """``probs`` as floats: one entry per map, passing :func:`rng.require_probs`."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (n_maps,):
        raise ConfigError(f"probs has shape {probs.shape}, but the system has {n_maps} maps")
    return require_probs(probs)


def _batch_table(batches, n_rows: int) -> np.ndarray:
    """``batches`` as a C-contiguous (n_maps, b) int64 table of row indices
    into a dataset of ``n_rows`` rows.  A ragged, non-integer or
    out-of-range table is a ConfigError that names the bad batch or entry."""
    rows = [np.asarray(batch) for batch in batches]
    for i, row in enumerate(rows):
        if row.ndim != 1 or not row.size or row.size != rows[0].size:
            raise ConfigError(
                f"an SgdSystem needs nonempty batches of one length, got lengths "
                f"{sorted({r.size for r in rows})}: batch {i} has shape {row.shape}"
            )
    table = np.stack(rows)
    if table.dtype.kind not in "iu":
        off = np.argwhere(table != np.round(table)) if table.dtype.kind == "f" else ()
        i, j = off[0] if len(off) else (0, 0)
        raise ConfigError(
            f"batch {i}, entry {j} is {table[i, j].item()!r}: a batch holds integer row indices, not {table.dtype}"
        )
    bad = np.argwhere((table < 0) | (table >= n_rows))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"batch {i}, entry {j} is row {table[i, j]}, but the dataset has rows 0..{n_rows - 1}")
    return np.ascontiguousarray(table, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """Affine maps h_i(w) = M_i w + q_i, chosen with probabilities p_i:
    ``matrices`` (n_maps, d, d), ``offsets`` (n_maps, d) and ``probs``
    (n_maps,), positive and summing to one.  Map i's Jacobian is the
    constant M_i."""

    matrices: np.ndarray
    offsets: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        M = np.ascontiguousarray(self.matrices, dtype=float)
        q = np.ascontiguousarray(self.offsets, dtype=float)
        if M.ndim != 3 or M.shape[1] != M.shape[2] or q.shape != M.shape[:2]:
            raise ConfigError(f"an AffineSystem needs matrices (n_maps, d, d) and offsets (n_maps, d), "
                              f"got {M.shape} and {q.shape}")
        object.__setattr__(self, "matrices", M)
        object.__setattr__(self, "offsets", q)
        object.__setattr__(self, "probs", _require_probs(self.probs, M.shape[0]))

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def apply(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.matrices[i] @ w + self.offsets[i]

    def jacobian_matvec(self, i: int, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.matrices[i] @ v


@dataclass(frozen=True, eq=False)
class SgdSystem:
    """SGD steps h_i(w) = w - eta * P(grad of the batch risk at w), chosen
    with probabilities p_i, that differ only in their batch: row i of
    ``batches`` (n_maps, b) holds batch i's row indices into ``dataset``.

    ``solve`` is the preconditioner application P (identity when None); it
    must accept a block (dim, k) as well as a vector.  The Jacobian
    I - eta * P H_i(w) is ``problems.jacobian_apply``; its log norms, for
    all batches at once, are ``complexity.log_norm_table``.
    """

    problem: pr.Problem
    dataset: pr.Dataset
    batches: np.ndarray
    eta: float
    probs: np.ndarray
    solve: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _require_probs(self.probs, len(self.batches)))
        object.__setattr__(self, "batches", _batch_table(self.batches, self.dataset.n))

    @property
    def dim(self) -> int:
        return pr.param_dim(self.problem, self.dataset)

    def apply(self, i: int, w: np.ndarray) -> np.ndarray:
        g = pr.grad(self.problem, w, self.dataset, self.batches[i])
        if self.solve is not None:
            g = self.solve(g)
        return w - self.eta * g

    def jacobian_matvec(self, i: int, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        return pr.jacobian_apply(self.problem, w, self.dataset, self.batches[i], self.eta, v, self.solve)


IfsSystem = Union[AffineSystem, SgdSystem]


# --------------------------------------------------------------------------
# results


@dataclass
class Trajectory:
    states: np.ndarray  # (k+1, d), w0 first
    indices: np.ndarray  # (k,) chosen map per step
    seed: int


@dataclass
class SampleCloud:
    """Post-burn-in iterates: row j is iterate burn_in + (j+1)*thin."""

    points: np.ndarray  # (n_samples, d)
    burn_in: int
    thin: int
    seed: int

    @property
    def iterations(self) -> np.ndarray:
        n = self.points.shape[0]
        return self.burn_in + self.thin * np.arange(1, n + 1, dtype=np.int64)

    def write_csv(self, path: str) -> None:
        d = self.points.shape[1]
        header = ["iter"] + [f"w{i}" for i in range(d)]
        rows = zip(self.iterations.tolist(), *self.points.T.tolist())
        atomic_write_text(path, csv_text(header, ",".join(["%d"] + [FLOAT] * d), rows))


def read_cloud_csv(path: str) -> SampleCloud:
    """Inverse of SampleCloud.write_csv (burn_in/thin recovered from iters,
    which must be integers, increasing and evenly spaced)."""
    table = read_csv(path, "sample-cloud", lambda n: ["iter"] + [f"w{i}" for i in range(n - 1)] if n > 1 else None,
                     int_columns=1)
    iters = table[:, 0]
    thin = int(iters[1] - iters[0]) if len(iters) > 1 else 1
    bad = np.flatnonzero((np.diff(iters) != thin) | (thin <= 0))
    if bad.size:
        j = bad[0] + 1  # data row j is file row j + 2
        raise ConfigError(
            f"{path}: row {j + 2}: iter {int(iters[j])} after {int(iters[j - 1])} breaks the increasing, "
            f"evenly spaced iters"
        )
    return SampleCloud(points=table[:, 1:].copy(), burn_in=int(iters[0]) - thin, thin=thin, seed=0)


@dataclass
class ContractivityReport:
    lipschitz: tuple[float, ...]
    mean_log: float
    contractive: bool  # sum_i p_i log L_i < -norm_rounding(dim)


@dataclass
class LyapunovEstimate:
    rho: float
    chain_length: int
    seed: int


# --------------------------------------------------------------------------
# iteration cores


# ``run_sgd`` gathers the batch rows, and ``_lockstep`` the affine maps, of
# as many steps at once as fit this many bytes (at least one step), so the
# gather costs a few numpy calls per chunk and its memory does not grow with
# the batch size or the stack.
ROW_CHUNK_BYTES = 1 << 16


def run_sgd(
    problem: pr.Problem, dataset: pr.Dataset, table: np.ndarray, eta: Union[float, np.ndarray],
    w0: np.ndarray, idx: np.ndarray, record_from: int, thin: int, n_record: int,
    solve: Optional[Callable] = None,
) -> tuple:
    """The SGD chain loop: w_t = w_{t-1} - eta * P(grad_rows(problem, w_{t-1}, A_t, y_t)),
    with P = ``solve`` (identity when None) and (A_t, y_t) the rows of
    ``dataset`` in step t's batch ``table[idx[..., t]]``, table (n_maps, b)
    holding data indices.

    One chain has ``w0`` (dim,), a float ``eta`` and map indices ``idx``
    (T,); K plain-SGD chains in lockstep have ``w0`` (K, dim), ``eta`` (K, 1)
    and ``idx`` (K, T), and take one gradient per step on rows (K, b, d),
    (K, b).  Each chunk of steps takes one gather of features and one of
    targets; a step's rows are C-contiguous views, laid out as
    ``problems.grad`` lays out its own gather.  The call builds one
    ``problems.GradWorkspace`` (the kernel of ``grad_rows``), copies ``w0``
    into its state buffer once and steps that buffer in place; ``w0`` itself
    is never written.  A step writes the gradient and eta * P(gradient) into
    the workspace's gradient buffer, so it allocates nothing beyond what
    ``solve`` and a GLM margin derivative return.  Returns the states after
    steps record_from + j*thin, j = 1..n_record, as (n_record, dim) or
    (K, n_record, dim), and whether each chain's records and final state are
    finite (a bool, or one per chain).
    """
    ws = pr.GradWorkspace(problem, np.shape(w0), table.shape[1], dataset.d)
    w, g = ws.w, ws.g
    w[...] = w0
    out = np.empty(w.shape[:-1] + (n_record, w.shape[-1]))
    lanes = 1 if idx.ndim == 1 else idx.shape[0]
    chunk = max(1, ROW_CHUNK_BYTES // (8 * (dataset.d + 1) * table.shape[1] * lanes))
    r = 0
    # overflow to inf/nan is an anticipated outcome here, reported through
    # the finite flags rather than as a numpy warning mid-loop
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, idx.shape[-1], chunk):
            rows = zip(*dataset.rows(table.take(idx[..., a : a + chunk].T, axis=0)))
            for t, (A, y) in enumerate(rows, start=a + 1):
                ws.grad(A, y)
                np.subtract(w, np.multiply(eta, g if solve is None else solve(g), out=g), out=w)
                if t > record_from and (t - record_from) % thin == 0 and r < n_record:
                    out[..., r, :] = w
                    r += 1
    out = out[..., :r, :]
    return out, np.isfinite(out).all(axis=(-2, -1)) & np.isfinite(w).all(axis=-1)


# Affine chains of at least MIN_SEGMENTS segments of about SEG steps run in
# lockstep (``_run_system``).  A lockstep step costs a few numpy calls however
# many segments it carries, so fewer segments would not repay its two rounds;
# scalar chains, whose serial step is Python float arithmetic, need more.
# ``_settle`` steps its segments SETTLE_CHUNK steps at a time and drops those
# that met their previous run after each chunk.  A smaller chunk drops them
# sooner but pays a chunk's gathers and checks more often: over 15
# interleaved runs of the benchmark's five preset chains (Cantor 3.1e5
# steps, linreg2d 4 x 1.1e5, 2 CPUs), chunks of 16, 32, 64, 128 and 256
# steps took 95, 87, 80, 85 and 93 ms of CPU at best.
SEG = 2048
SETTLE_CHUNK = 64
MIN_SEGMENTS = 16
MIN_SEGMENTS_SCALAR = 128

# Plain-SGD chains run in lockstep segments of about SGD_SEG steps, at most
# SGD_MAX_SEGMENTS of them at once, when b * dim <= SGD_MAX_WORK
# (``_run_system``).  A lockstep step costs a solo step plus a share per
# segment that grows with b * dim, and a chain that never coalesces wastes
# two or three rounds before the settle loop gives up.  Up to b * dim = 32
# that share is at most about 3 % of a solo step, so such a chain runs under
# 10 % slower than serially; the sweep's student (b = 16, dim 32, eta 0.17;
# 1,000 + 20,000 steps through ``sample_invariant``, CPU time, median over
# 24 processes on 2 shared vCPUs) ran 24, 23 and 25 % slower in lockstep
# at widths 16, 32 and 64 than serially.
SGD_SEG = 256
SGD_MAX_SEGMENTS = 64
SGD_MAX_WORK = 32

# ``lyapunov_exponent`` renormalizes its tangent vector every this many steps;
# every step would nearly double the time of a 2-D affine chain.
RENORM_INTERVAL = 16


def _lockstep(M: np.ndarray, Q: np.ndarray, idx: np.ndarray, w: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """Step K affine chains at once: chain k runs from ``w[k]`` along the map
    indices ``idx[k]`` (idx is (K, S)), w <- M[i] w + Q[i].

    The states of the last ``rec.shape[0]`` chains after each step land in
    ``rec`` (shape (K', S, d)); the K end states are returned.  The maps of
    as many steps as fit ROW_CHUNK_BYTES (at least one) are gathered at
    once, so each step makes one call on contiguous (K, d, d) matrices.  A
    step rounds as ``M[i] @ w + Q[i]`` does: a batched matmul (gemv per
    chain) at d > 1; at d = 1 that product is a dot, round(m*w) + 0.0,
    written out here on the gathered slopes.
    """
    K, d = w.shape
    off = K - rec.shape[0]
    if d == 1:
        M = M[:, 0]  # the slopes, (n_maps, 1)
    chunk = max(1, ROW_CHUNK_BYTES // (8 * K * (d * d + d)))
    for a in range(0, idx.shape[1], chunk):
        cols = idx[:, a : a + chunk].T
        Ms, Qs = M.take(cols, axis=0), Q.take(cols, axis=0)
        states = np.empty(Qs.shape)  # (steps, K, d)
        for k in range(cols.shape[0]):
            prod = Ms[k] * w + 0.0 if d == 1 else np.matmul(Ms[k], w[..., None])[..., 0]
            w = np.add(prod, Qs[k], out=states[k])
        rec[:, a : a + cols.shape[0]] = states[:, off:].swapaxes(0, 1)
    return w


def _lane(M: np.ndarray, Q: np.ndarray, idx: np.ndarray, w: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """``_lockstep`` for one chain, with the same rounding: a Python loop over
    per-map arrays (floats at d = 1), which costs less per step than the
    gathers.  The states after the last ``len(rec)`` steps land in ``rec``."""
    skip = idx.shape[0] - rec.shape[0]
    if M.shape[1] == 1:
        ms, qs, v, out = M[:, 0, 0].tolist(), Q[:, 0].tolist(), float(w[0]), rec[:, 0]
        for k, i in enumerate(idx.tolist()):
            v = ms[i] * v + 0.0 + qs[i]
            if k >= skip:
                out[k - skip] = v
        return np.array([v])
    ms, qs, v = list(M), list(Q), w
    for k, i in enumerate(idx.tolist()):
        v = ms[i] @ v + qs[i]
        if k >= skip:
            rec[k - skip] = v
    return v


def _settle(step: Callable, idx: np.ndarray, w0: np.ndarray, rec: np.ndarray) -> tuple:
    """Lockstep rounds over the L segments ``idx`` (L, S) of one chain from w0.

    ``step(idx, w, rec)`` steps K segments at once, segment k from ``w[k]``
    along ``idx[k]``, as ``_lockstep`` steps affine chains and
    ``_sgd_lockstep`` plain-SGD ones: it writes the states of the last
    ``rec.shape[0]`` segments after each step to ``rec`` and returns the K
    end states.  Each round steps every segment from the first unsettled
    one on, each from its predecessor's current end (all from w0 in round
    1), in chunks of SETTLE_CHUNK steps, and keeps each segment's state
    after every chunk.  From round 2 on, a segment whose state after a
    chunk equals, bit for bit, its state there in the previous round has
    met its previous run: a step is a function of the state and the map
    index alone, so its later states, records and end are those of that
    run, and it leaves the round.  The recorded segments are a suffix of
    the sorted active ones, so each chunk gathers their records once.

    A segment is settled once the start it last ran from equals, bit for
    bit, its settled predecessor's end: by induction from segment 0 it
    then holds the serial chain.  The segment a round starts at always
    settles; chains that contract on average also coalesce in float64 from
    different starts, so two rounds usually settle all, and slowly
    contracting ones a few more.  Rounds stop when at most one segment is
    left, or when a round settles only that one and its largest start/end
    mismatch (the Euclidean norm per segment) is not below half the
    previous round's: a family that never coalesces, such as rotations,
    whose mismatches keep their norms.  The states of segments L - len(rec)
    on land in ``rec``.  Returns the chain's state after the last settled
    segment, the count of settled segments and the count of rounds.
    """
    L, S = idx.shape
    j_lo = L - rec.shape[0]
    cuts = list(range(0, S, SETTLE_CHUNK)) + [S]
    snap = np.empty((L, len(cuts) - 1, w0.shape[0]))  # each segment's state after each chunk
    snap_bits = snap.view(np.uint64)
    starts = np.tile(w0, (L, 1))
    first, gap, rounds = 0, math.inf, 0
    while True:
        rounds += 1
        act, w = np.arange(first, L), starts[first:]
        for c, (a, b) in enumerate(zip(cuts, cuts[1:])):
            r0 = int(np.count_nonzero(act < j_lo))  # act[r0:] are recorded
            part = np.empty((act.size - r0, b - a, w.shape[1]))
            w = step(idx[act, a:b], w, part)
            rec[act[r0:] - j_lo, a:b] = part
            going = slice(None) if rounds == 1 else (w.view(np.uint64) != snap_bits[act, c]).any(axis=1)
            snap[act, c] = w
            act, w = act[going], w[going]
            if not act.size:
                break
        ends = snap[first:, -1]
        same = (starts[first + 1:].view(np.uint64) == ends[:-1].view(np.uint64)).all(axis=1)
        settled = first + 1 + int(np.logical_and.accumulate(same).sum())
        last_gap, gap = gap, float(np.linalg.norm(starts[first + 1:] - ends[:-1], axis=1).max())
        if L - settled <= 1 or (settled == first + 1 and not gap < 0.5 * last_gap):
            return ends[settled - 1 - first].copy(), settled, rounds
        starts[first + 1:] = ends[:-1]
        first = settled


def _run_segments(
    step: Callable, lane: Callable, L: int, w0: np.ndarray, idx: np.ndarray,
    record_from: int, thin: int, n_record: int,
) -> np.ndarray:
    """A chain of ``_run_system``, parallel in time.

    Its n steps split into L segments of S = n // L steps, which ``_settle``
    brings to the serial chain in lockstep rounds of ``step``, each round in
    chunks of steps after which the segments that rejoined their previous
    run drop out; the rest (the tail of fewer than L steps, and the segments
    left unsettled) runs as one serial ``lane(idx, w, rec)`` from there,
    which writes the states after its last ``len(rec)`` steps to ``rec`` and
    returns its end state.  L = 1 runs the whole chain in the lane.  Every
    record is bit-equal to the serial loop.  States are kept from the start
    of the first segment that holds a recorded step.
    """
    n, d = idx.shape[0], w0.shape[0]
    S = n // L
    lo = record_from if L == 1 else min(record_from // S, L) * S
    buf = np.empty((n - lo, d))  # the states after steps lo + 1, ..., n
    w, a = w0, 0  # the chain's state after a steps
    # overflow to inf/nan is an anticipated outcome here, reported as
    # NonFiniteState below rather than as a numpy warning mid-loop
    with np.errstate(over="ignore", invalid="ignore"):
        if L > 1:
            w, settled, _ = _settle(step, idx[: L * S].reshape(L, S), w, buf[: L * S - lo].reshape(-1, S, d))
            a = settled * S
        w = lane(idx[a:], w, buf[max(a - lo, 0):])
    rows = buf[record_from - lo + thin - 1 :: thin][:n_record]
    if not (np.isfinite(rows).all() and np.isfinite(w).all()):
        raise NonFiniteState()
    return rows if thin == 1 else rows.copy()


def _sgd_lockstep(s: SgdSystem, idx: np.ndarray, w: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """``_lockstep`` for plain-SGD chains: K chains of the system ``s``,
    chain k from ``w[k]`` along the map indices ``idx[k]``, stepped as one
    stack by ``run_sgd``."""
    S = idx.shape[1]
    keep = S if rec.shape[0] else 1  # every state for ``rec``, else the ends
    out, _ = run_sgd(s.problem, s.dataset, s.batches, s.eta, w, idx, S - keep, 1, keep)
    if rec.shape[0]:
        rec[...] = out[w.shape[0] - rec.shape[0]:]
    return out[:, -1]


def _sgd_lane(s: SgdSystem, idx: np.ndarray, w: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """``_lane`` for one plain-SGD chain: a solo ``run_sgd``."""
    if not len(rec):
        return w  # the lane has no steps: every state is in ``rec``
    rec[...], _ = run_sgd(s.problem, s.dataset, s.batches, s.eta, w, idx, len(idx) - len(rec), 1, len(rec))
    return rec[-1]


def _run_system(
    system: IfsSystem, w0: np.ndarray, idx: np.ndarray, record_from: int, thin: int, n_record: int
) -> np.ndarray:
    """Step ``system`` along the map indices ``idx``.

    Affine chains and plain-SGD ones run parallel in time (``_run_segments``):
    affine ones in L = n // SEG segments when there are at least
    MIN_SEGMENTS of them (MIN_SEGMENTS_SCALAR at d = 1), stepped by
    ``_lockstep``; SGD ones with b * dim <= SGD_MAX_WORK in L = n // SGD_SEG
    segments, at most SGD_MAX_SEGMENTS, when there are at least two, stepped
    by ``run_sgd`` on stacked rows.  The other problem-backed chains
    (preconditioned, wider or shorter ones) run serially through
    ``run_sgd``.  All return the same records, bit for bit.
    """
    w0 = np.asarray(w0, dtype=float)
    n = idx.shape[0]
    if isinstance(system, AffineSystem):
        M, Q = system.matrices, system.offsets
        L = n // SEG
        if L < (MIN_SEGMENTS_SCALAR if system.dim == 1 else MIN_SEGMENTS):
            L = 1
        return _run_segments(functools.partial(_lockstep, M, Q), functools.partial(_lane, M, Q), L,
                             w0, idx, record_from, thin, n_record)
    L = min(n // SGD_SEG, SGD_MAX_SEGMENTS)
    if system.solve is None and L >= 2 and system.batches.shape[1] * system.dim <= SGD_MAX_WORK:
        return _run_segments(functools.partial(_sgd_lockstep, system), functools.partial(_sgd_lane, system),
                             L, w0, idx, record_from, thin, n_record)
    rows, finite = run_sgd(system.problem, system.dataset, system.batches, system.eta, w0, idx,
                           record_from, thin, n_record, system.solve)
    if not finite:
        raise NonFiniteState()
    return rows


def require_eta(eta: float) -> None:
    """Reject a step size that is not positive (nan included)."""
    if not eta > 0.0:
        raise ConfigError(f"eta must be positive, got {eta}")


def require_start(w0: np.ndarray, dim: int) -> np.ndarray:
    """``w0`` as a float vector, rejected unless it has the ``dim`` parameters
    of the chain, all finite."""
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    if w0.shape != (dim,):
        raise ConfigError(f"w0 has shape {w0.shape}, but the chain has {dim} parameters")
    if not np.isfinite(w0).all():
        raise ConfigError("w0 has non-finite entries (nan or inf)")
    return w0


def iterate(system: IfsSystem, w0: np.ndarray, k: int, seed: int) -> Trajectory:
    """Run w_t = h_{U_t}(w_{t-1}) for k steps; returns all k+1 states.

    The seed's uniform stream is consumed only by the index draws, one per
    step in step order.
    """
    if k < 0:
        raise ConfigError("k must be nonnegative")
    w0 = require_start(w0, system.dim)
    gen = Xoshiro256PP(seed)
    idx = draw_indices(gen, system.probs, k)
    states = np.empty((k + 1, system.dim))
    states[0] = w0
    if k:
        states[1:] = _run_system(system, w0, idx, record_from=0, thin=1, n_record=k)
    return Trajectory(states=states, indices=idx, seed=seed)


def require_schedule(burn_in: int, n_samples: int, thin: int) -> None:
    """Reject a recording schedule that records nothing or starts before step 0."""
    if burn_in < 0 or n_samples <= 0 or thin <= 0:
        raise ConfigError("need burn_in >= 0, n_samples > 0, thin > 0")


def sample_invariant(
    system: IfsSystem,
    w0: np.ndarray,
    burn_in: int,
    n_samples: int,
    thin: int = 1,
    seed: int = 0,
) -> SampleCloud:
    """Approximate the invariant measure: record iterates burn_in + j*thin,
    j = 1..n_samples.  Burn-in states are not kept, except for up to one
    segment of them in a chain run in lockstep segments (affine or plain SGD)."""
    require_schedule(burn_in, n_samples, thin)
    w0 = require_start(w0, system.dim)
    total = burn_in + n_samples * thin
    gen = Xoshiro256PP(seed)
    idx = draw_indices(gen, system.probs, total)
    pts = _run_system(system, w0, idx, record_from=burn_in, thin=thin, n_record=n_samples)
    return SampleCloud(points=pts, burn_in=burn_in, thin=thin, seed=seed)


# --------------------------------------------------------------------------
# contractivity and Lyapunov exponents


def norm_rounding(dim: int) -> float:
    """dim * eps, the rounding bound of a computed map norm on R^dim.

    A computed L_i is taken to be within a relative dim * eps of the true
    norm: an SVD's (or a Jacobian table cell's) singular values are exact
    for a matrix within a few eps * ||M|| per coordinate.  So log L_i, and their
    p-weighted mean, are known to within dim * eps, and a mean within it
    of 0 is no contraction: the norm-neutral maps I - eta a a^T of
    linreg2d (norm exactly 1) compute as 1 +- 1.5 eps at dim 2.
    """
    return dim * float(np.finfo(float).eps)


def contractivity_report(system: IfsSystem) -> ContractivityReport:
    """Per-map Lipschitz constants L_i = ||M_i||_2 of an affine system, exact
    at every dim (an SVD of each M_i), and the average-contractivity
    criterion sum_i p_i log L_i < 0, beyond the norms' rounding: a mean log
    within ``norm_rounding(dim)`` of 0 is not contractive.

    Problem-backed systems are rejected: their mean log Jacobian norm over a
    cloud is ``complexity.log_norm_table``'s, as ``dimension.rams_ratio``
    reads it.
    """
    if not isinstance(system, AffineSystem):
        raise ConfigError(
            "contractivity_report needs affine maps; for SGD steps use dimension.rams_ratio "
            "or complexity.log_norm_table on a sampled cloud"
        )
    lip = np.linalg.norm(system.matrices, 2, axis=(-2, -1)).tolist()
    logs = np.array([math.log(L) if L > 0.0 else -math.inf for L in lip])
    mean_log = float(np.dot(system.probs, logs))
    contractive = mean_log < -norm_rounding(system.dim)
    return ContractivityReport(lipschitz=tuple(lip), mean_log=mean_log, contractive=contractive)


def lyapunov_exponent(system: IfsSystem, w0: np.ndarray, k: int, seed: int = 0) -> LyapunovEstimate:
    """Top Lyapunov exponent: average log growth of a random unit vector
    pushed through J_{h_{U_k}}(w_{k-1}) ... J_{h_{U_1}}(w_0), renormalized
    every RENORM_INTERVAL steps and after the last.

    The states come from ``_run_system`` in blocks, each from the previous
    block's end: 1024 steps, then twice as many each time up to SEG *
    MIN_SEGMENTS, so state memory does not grow with k and a Jacobian that
    annihilates the vector early costs little; every state is bit-equal to
    the serial loop.  That Jacobian gives -inf, unless its block diverges first.
    Stream order: the direction's gaussians first, then the index draws.
    """
    if k < 1000:
        raise ConfigError("lyapunov_exponent needs k >= 1000")
    w = require_start(w0, system.dim)
    gen = Xoshiro256PP(seed)
    v = gen.normals(system.dim)
    v /= np.linalg.norm(v)
    idx = draw_indices(gen, system.probs, k)
    a, block, total = 0, 1024, 0.0
    # an overflowing tangent is reported as NonFiniteState below, as _run_system reports states
    with np.errstate(over="ignore", invalid="ignore"):
        while a < k:
            ids = idx[a : a + block]
            states = _run_system(system, w, ids, record_from=0, thin=1, n_record=len(ids))
            for t, (i, w_next) in enumerate(zip(ids.tolist(), states), start=a + 1):
                v = system.jacobian_matvec(i, w, v)
                w = w_next
                if t % RENORM_INTERVAL == 0 or t == k:
                    nv = float(np.linalg.norm(v))
                    if nv == 0.0:
                        return LyapunovEstimate(-math.inf, k, seed)
                    total += math.log(nv)
                    v /= nv
            a, block = a + len(ids), min(2 * block, SEG * MIN_SEGMENTS)
    if not math.isfinite(total):
        raise NonFiniteState()
    return LyapunovEstimate(rho=total / k, chain_length=k, seed=seed)
