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

def _check_counts(method: str, size: "int | tuple[int, ...]") -> None:
    """Raise ParameterError naming size, a count or a shape, when a count
    in it is negative; numpy would only say that negative dimensions are
    not allowed."""
    if min((size,) if np.ndim(size) == 0 else size, default=0) < 0:
        raise ParameterError(
            f"{method}() needs non-negative counts, got {size}")


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
        self._jumped: list[np.random.Generator] = []

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
        _check_counts("uniforms", size)
        return self._gen.random(size)

    def unit_exponentials(self, n: int) -> np.ndarray:
        """Bulk inverse-CDF draws -log1p(-u) from exp(1); strictly positive.

        Zero uniforms are redrawn in place and numpy's log1p is used, so
        the values are not those of exponential_sequence.  The map runs
        in place on the drawn uniforms (negation is exact), so a draw
        allocates its result and nothing else.
        """
        _check_counts("unit_exponentials", n)
        u = self._gen.random(n)
        while not u.all():
            zeros = u == 0.0
            u[zeros] = self._gen.random(int(zeros.sum()))
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.negative(u, out=u)

    def jump_ahead(self, offsets: Sequence[int],
                   total: int) -> list[np.random.Generator]:
        """Generators at the given offsets of this stream's bulk sequence,
        with the stream itself moved past its next total bulk draws.

        A generator at offset k next draws what uniforms(k + 1)[-1] would
        return now: offsets count from the stream's generator, not from
        uniform()'s cache, as every bulk draw does.  Each generator is
        independent of the stream and of the others, so threads can fill
        disjoint ranges of one sequence with the bits sequential calls
        would give.  The stream reuses them, so they are valid until its
        next jump_ahead.  PCG64 advances modulo 2**128 in O(log k) steps
        (O'Neill's LCG jump-ahead), so jump_ahead((), -total) moves the
        stream back.
        """
        state = self._gen.bit_generator.state
        while len(self._jumped) < len(offsets):
            self._jumped.append(np.random.Generator(np.random.PCG64(0)))
        gens = self._jumped[:len(offsets)]
        for gen, k in zip(gens, offsets):
            gen.bit_generator.state = state
            gen.bit_generator.advance(k)
        self._gen.bit_generator.advance(total)
        return gens

    def exponential_sequence(self, n: int) -> np.ndarray:
        """The next n terms of this stream's exp(1) sequence.

        Term k is -log1p(-u) of the stream's k-th non-zero uniform, so the
        sequence does not depend on how it is split into calls.  numpy's
        inverse-CDF sampler takes the same uniforms random() would and
        calls the C library's log1p per term, as math.log1p does: numpy's
        vector log1p can differ from it in the last bit, which would move
        float ties between timers.  A term of 0.0 is a zero uniform.
        """
        _check_counts("exponential_sequence", n)
        e = self._gen.standard_exponential(n, method="inv")
        while not e.all():
            e = e[e != 0.0]
            e = np.concatenate(
                [e, self._gen.standard_exponential(n - len(e), method="inv")])
        return e

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ParameterError(f"integer() needs n >= 1, got {n}")
        return min(int(self.uniform() * n), n - 1)

    def integers(self, n: int, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform integers in [0, n) from bulk uniforms (see uniforms())."""
        if n <= 0:
            raise ParameterError(f"integers() needs n >= 1, got {n}")
        _check_counts("integers", shape)
        return np.minimum((self.uniforms(shape) * n).astype(np.int64), n - 1)


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------

def weight_vectors(weights: Sequence[float]) -> np.ndarray:
    """weights as a float array of weight vectors along the last axis,
    each weight positive and finite."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or not np.all((w > 0) & (w < math.inf)):
        raise ParameterError(
            f"weights must be non-empty and positive and finite, got {w}")
    return w


def _checked_weights(n_sources: int, weights: Sequence[float]
                     ) -> tuple[float, ...]:
    """n_sources >= 1 weights as floats, each positive and finite."""
    if n_sources < 1:
        raise ParameterError(f"n_sources must be >= 1, got {n_sources}")
    weights = tuple(float(w) for w in weights)
    if len(weights) != n_sources:
        raise ParameterError(f"need {n_sources} weights, got {len(weights)}")
    weight_vectors(weights)
    return weights


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
        object.__setattr__(self, "weights",
                           _checked_weights(self.n_sources, self.weights))
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
    minislots.  delta_scale rescales the continuous idealized timers.
    It keeps their order, but the key ln(delta) + ln Z is rounded, so
    two adjacent ln-timers can share one key and collide where delta = 1
    keeps them apart (policies.key_of).  ln_alpha, ln_beta and
    ln_delta_scale are their natural logs, taken once at construction;
    they are not fields, so repr, equality and hashing see the five
    parameters alone.
    """

    alpha: float
    beta: float = 1.1
    b_offset: int = 250
    minislots_per_update: int = 10_000
    delta_scale: float = 0.01

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and > 1, got {self.alpha}")
        # The domain where every minislot is exact in floats: an exp(1) draw
        # from a 53-bit uniform is at most 53 ln 2 and a rate at least 1, so
        # a key ln(Z) / ln(beta) is at most ln(53 ln 2) / ln(beta) ~ 3.96e12
        # and B + floor(key) stays below 2**53.  beta itself is compared so
        # that the stated edge is accepted.
        if not 1.0 + 2**-40 <= self.beta < math.inf:
            raise ParameterError(f"beta must be finite and >= 1 + 2**-40, got {self.beta}")
        if not 0 <= self.b_offset <= 2**52:
            raise ParameterError(f"b_offset must be in [0, 2**52], got {self.b_offset}")
        if self.minislots_per_update < 1:
            raise ParameterError(
                f"minislots_per_update must be >= 1, got {self.minislots_per_update}")
        if not 0.0 < self.delta_scale <= 1.0:
            raise ParameterError(
                f"delta_scale must be in (0, 1], got {self.delta_scale}")
        object.__setattr__(self, "ln_alpha", math.log(self.alpha))
        object.__setattr__(self, "ln_beta", math.log(self.beta))
        object.__setattr__(self, "ln_delta_scale", math.log(self.delta_scale))


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
    w = weight_vectors(weights)
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
    w = np.asarray(_checked_weights(n_sources, weights))
    if not 1.0 < log_base < math.inf:
        raise ParameterError(f"log_base must be finite and > 1, got {log_base}")

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
