"""Shared domain types, seeded randomness and parameter formulas.

The contention rule itself (exponents, keys, the minislot map and the
resolution of a contention) lives in policies; this module only
describes a network and its protocol parameters, grades and recommends
those parameters, and supplies the seeded streams every draw comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1
# The seed of every preset, config file and check that names none.
DEFAULT_SEED = 20260808


class ParameterError(ValueError):
    """Raised for structurally invalid configuration or call parameters."""


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

class RngStream:
    """A reproducible pseudorandom substream.

    A stream is identified by a 64-bit seed plus a path of non-negative
    integer substream ids.  Identical (seed, path, call sequence) always
    reproduces identical draws bit-for-bit.
    """

    _BUFFER = 4096

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not 0 <= seed <= _SEED_MASK:
            raise ParameterError(f"seed must fit in 64 bits, got {seed}")
        if any(p < 0 for p in path):
            raise ParameterError(f"substream ids must be non-negative, got {path}")
        self.seed = seed
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence((seed, *self.path))
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._buf = np.empty(0)
        self._pos = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"

    def uniform(self) -> float:
        """One draw from Uniform[0, 1); served from an internal block cache."""
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(self._BUFFER)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def uniforms(self, size: "int | tuple[int, ...]") -> np.ndarray:
        """Bulk Uniform[0, 1) draws of a size or shape, bypassing the
        scalar cache.

        The draws fill the shape in row-major order and continue the same
        sequence across calls, so uniforms((k, n)) holds in its rows what
        k calls of uniforms(n) would return.  Deterministic for a fixed
        call sequence, like every draw here, but interleaving scalar and
        bulk draws maps onto the underlying generator differently than
        scalar draws alone would.
        """
        return self._gen.random(size)

    def unit_exponentials(self, n: int) -> np.ndarray:
        """Bulk inverse-CDF draws from exp(1); strictly positive.

        Zero uniforms are redrawn in place and numpy's log1p is used, so
        the values are not those of exponential_sequence.
        """
        u = self._gen.random(n)
        while np.any(u == 0.0):
            zeros = u == 0.0
            u[zeros] = self._gen.random(int(zeros.sum()))
        return -np.log1p(-u)

    def exponential_sequence(self, n: int) -> np.ndarray:
        """The next n terms of this stream's exp(1) sequence.

        Term k is -log1p(-u) of the stream's k-th non-zero uniform, so the
        sequence does not depend on how it is split into calls.  Each
        term goes through math.log1p: numpy's vector log1p can differ from
        it in the last bit, which would move float ties between timers.
        """
        u = self._gen.random(n)
        while not u.all():
            u = u[u != 0.0]
            u = np.concatenate([u, self._gen.random(n - len(u))])
        return -np.fromiter(map(math.log1p, (-u).tolist()), float, n)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ParameterError(f"integer() needs n >= 1, got {n}")
        return min(int(self.uniform() * n), n - 1)

    def integers(self, n: int, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform integers in [0, n) from bulk uniforms (see uniforms())."""
        if n <= 0:
            raise ParameterError(f"integers() needs n >= 1, got {n}")
        return np.minimum((self.uniforms(shape) * n).astype(np.int64), n - 1)


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one single-hop network run.

    theorem_exact restricts weights to positive integers, which the
    per-frame match and drift guarantees assume; the default leaves
    weights free (sqrt-of-index weights are a standard benchmark).
    """

    n_sources: int
    weights: tuple[float, ...]
    horizon_frames: int
    seed: int
    theorem_exact: bool = False

    def __post_init__(self):
        if self.n_sources < 1:
            raise ParameterError(f"n_sources must be >= 1, got {self.n_sources}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != self.n_sources:
            raise ParameterError(
                f"need {self.n_sources} weights, got {len(self.weights)}")
        if any(not 0 < w < math.inf for w in self.weights):
            raise ParameterError(
                f"weights must be positive and finite, got {self.weights}")
        if self.horizon_frames < 1:
            raise ParameterError(f"horizon_frames must be >= 1, got {self.horizon_frames}")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ParameterError(f"seed must fit in 64 bits, got {self.seed}")
        if self.theorem_exact:
            bad = [w for w in self.weights if w != int(w)]
            if bad:
                raise ParameterError(
                    f"theorem-exactness mode requires integer weights, got {bad}")

    @property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class BackoffParams:
    """Contention-protocol parameters.

    alpha drives the state-dependent rate alpha**exponent, beta and
    b_offset control the log-scale minislot discretization, and
    minislots_per_update (M) is the update transmission length in
    minislots.  delta_scale only rescales the continuous idealized
    timers; it cannot change which timer is smallest, and is carried for
    protocol fidelity and trace output.
    """

    alpha: float
    beta: float = 1.1
    b_offset: int = 250
    minislots_per_update: int = 10_000
    delta_scale: float = 0.01

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and > 1, got {self.alpha}")
        if not 1.0 < self.beta < math.inf:
            raise ParameterError(f"beta must be finite and > 1, got {self.beta}")
        if self.b_offset < 0:
            raise ParameterError(f"b_offset must be >= 0, got {self.b_offset}")
        if self.minislots_per_update < 1:
            raise ParameterError(
                f"minislots_per_update must be >= 1, got {self.minislots_per_update}")
        if not 0.0 < self.delta_scale <= 1.0:
            raise ParameterError(
                f"delta_scale must be in (0, 1], got {self.delta_scale}")

    @property
    def ln_alpha(self) -> float:
        return math.log(self.alpha)

    @property
    def ln_beta(self) -> float:
        return math.log(self.beta)


# ---------------------------------------------------------------------------
# Parameter validation and recommended defaults
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamsReport:
    """Advisory report on protocol parameters for a given network.

    match_alpha_threshold is the alpha above which the distributed rule
    lands on the max-weight argmax set with probability >= 1 - delta in
    every frame; drift_alpha_threshold is the alpha above which its
    one-frame Lyapunov drift is dominated by the optimal stationary
    randomized policy's.  Falling short of either is a warning, not an
    error: small alphas are routinely used and perform well.
    """

    match_delta: float
    match_alpha_threshold: float
    match_ok: bool
    drift_alpha_threshold: float
    drift_ok: bool
    recommended: BackoffParams
    warnings: tuple[str, ...] = field(default_factory=tuple)


def match_alpha_threshold(n_sources: int, delta: float) -> float:
    """Smallest alpha guaranteeing per-frame match probability 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    return (n_sources - 1) * (1.0 - delta) / delta


def drift_alpha_threshold(weights: Sequence[float]) -> "float | np.ndarray":
    """Alpha above which the drift-domination guarantee applies; one per
    weight vector along the last axis."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w <= 0):
        raise ParameterError("weights must be a non-empty positive vector")
    s = np.sqrt(w)
    return (w.shape[-1] - 1) * s.sum(axis=-1) / s.min(axis=-1)


def recommended_defaults(n_sources: int, weights: Sequence[float], *,
                         aoii: bool = False,
                         log_base: float = 10.0) -> BackoffParams:
    """Benchmark parameter formulas for a network of this size and weighting.

    log_base selects the logarithm used inside the beta formula.  The
    base-10 default keeps beta near 1.1 for mid-sized networks, which is
    where the collision rate bottoms out; pass math.e for a natural-log
    sensitivity check (it yields markedly coarser minislot grids).
    """
    if n_sources < 1:
        raise ParameterError(f"n_sources must be >= 1, got {n_sources}")
    w = np.asarray(weights, dtype=float)

    def _log(x: float) -> float:
        return math.log(x, log_base)

    # log(log(n)) is undefined at n = 1 and negative for small n; the
    # outer max() clamp keeps beta strictly above 1 in both formulas.
    loglog = _log(_log(n_sources)) if n_sources >= 2 and _log(n_sources) > 0 else -math.inf
    if aoii:
        return BackoffParams(alpha=2.1,
                             beta=1.05 + max(loglog, 0.0),
                             b_offset=250 + n_sources // 4)
    return BackoffParams(alpha=1.0 + 1.0 / float(w.sum()),
                         beta=1.1 + max(loglog, 0.0),
                         b_offset=250 + n_sources)


def validate_params(config: NetworkConfig, params: BackoffParams,
                    delta: float = 0.1) -> ParamsReport:
    """Check protocol parameters against the per-frame and long-horizon
    guarantee thresholds and report the recommended defaults.

    Structural validity is enforced by the dataclasses themselves; this
    only grades an already-valid pairing.
    """
    n = config.n_sources
    thr_match = match_alpha_threshold(n, delta)
    thr_drift = float(drift_alpha_threshold(config.weights))
    warnings = []
    match_ok = params.alpha >= thr_match
    drift_ok = params.alpha > thr_drift
    if not match_ok:
        warnings.append(
            f"alpha={params.alpha:g} is below the per-frame match threshold "
            f"{thr_match:g} for delta={delta:g}; match probability is not guaranteed")
    if not drift_ok:
        warnings.append(
            f"alpha={params.alpha:g} is below the drift-domination threshold "
            f"{thr_drift:g}; the long-horizon guarantee does not apply")
    return ParamsReport(
        match_delta=delta,
        match_alpha_threshold=thr_match,
        match_ok=match_ok,
        drift_alpha_threshold=thr_drift,
        drift_ok=drift_ok,
        recommended=recommended_defaults(n, config.weights),
        warnings=tuple(warnings),
    )
