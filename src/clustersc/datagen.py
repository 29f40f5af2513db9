"""Synthetic two-group panels built from shared sinusoid bases.

Each group draws one basis of n_components sinusoid rows (gen_group)

    v_i(j) = alpha_i * sin(2 pi omega_i * j / T + phi_i),   j = 1..T

with alpha ~ Beta, omega ~ Uniform, phi ~ Normal, then every unit mixes the
basis with fresh Uniform[0, 1] weights. Time is normalized to j / T so the
frequency parameter means the same thing at every panel length. Observations
add i.i.d. noise on top of the low-rank signal. Flags, config files and
reports write a noise distribution one way, kind:params (gaussian:0.3,
uniform:0.5, student_t:4.0:0.3): parse_noise reads that grammar and
noise_tag writes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ClusterScError, ConfigError, InvalidParamsError
from .panel import InterventionSplit, TimePanel


@dataclass(frozen=True)
class SignalSpec:
    """One group's basis distribution: rank and (alpha, omega, phi) params."""

    n_components: int
    alpha: tuple[float, float]  # Beta(a, b)
    omega: tuple[float, float]  # Uniform(lo, hi)
    phi: tuple[float, float]  # Normal(mean, sd)

    def __post_init__(self):
        if self.n_components < 1:
            raise InvalidParamsError(
                f"n_components must be >= 1, got {self.n_components}"
            )
        a, b = self.alpha
        if a <= 0 or b <= 0:
            raise InvalidParamsError(f"Beta parameters must be > 0, got {self.alpha}")
        lo, hi = self.omega
        if not lo < hi:
            raise InvalidParamsError(f"omega range must have lo < hi, got {self.omega}")
        if self.phi[1] < 0:
            raise InvalidParamsError(f"phi sd must be >= 0, got {self.phi[1]}")


GROUP_A_SPEC = SignalSpec(3, (2.0, 2.0), (1.0, 3.0), (0.0, 1.0))
GROUP_B_SPEC = SignalSpec(3, (2.0, 5.0), (3.0, 6.0), (0.0, 1.0))


@dataclass(frozen=True)
class NoiseSpec:
    """i.i.d. noise: gaussian(sd), uniform(half_width), or student_t(dof, scale).
    A spec checks its own kind and parameter count, naming the grammar.
    Every parameter is a finite number (a bool is not one), as is a
    uniform's range 2 * half_width; scales may be zero (noiseless), and dof
    must be >= 3 so the variance exists."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        arity = {"gaussian": 1, "uniform": 1, "student_t": 2}.get(self.kind)
        if len(self.params) != arity:
            raise InvalidParamsError(
                "expected gaussian:SD, uniform:HALF_WIDTH or student_t:DOF:SCALE, "
                f"got kind {self.kind!r} with {len(self.params)} parameter(s)"
            )
        if not all(isinstance(p, Real) and not isinstance(p, bool) for p in self.params):
            raise InvalidParamsError(f"{self.kind} parameters must be numbers, got {self.params}")
        if not np.isfinite(self.params).all():
            raise InvalidParamsError(f"{self.kind} parameters must be finite, got {self.params}")
        widest = float(np.finfo(float).max) / 2  # the range 2 * half_width stays finite
        if self.kind == "gaussian" and self.params[0] < 0:
            raise InvalidParamsError(f"gaussian needs sd >= 0, got {self.params}")
        if self.kind == "uniform" and not 0 <= self.params[0] <= widest:
            raise InvalidParamsError(
                f"uniform needs 0 <= half_width <= {widest!r} (a finite range), got {self.params}"
            )
        if self.kind == "student_t" and (self.params[0] < 3 or self.params[1] < 0):
            raise InvalidParamsError(f"student_t needs dof >= 3 and scale >= 0, got {self.params}")

    @classmethod
    def gaussian(cls, sd: float) -> "NoiseSpec":
        return cls("gaussian", (float(sd),))

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseSpec":
        return cls("uniform", (float(half_width),))

    @classmethod
    def student_t(cls, dof: float, scale: float) -> "NoiseSpec":
        return cls("student_t", (float(dof), float(scale)))

    @property
    def scale(self) -> float:
        return self.params[-1]

    def sample(self, shape, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.params[0], size=shape) if self.params[0] else np.zeros(shape)
        if self.kind == "uniform":
            h = self.params[0]
            return rng.uniform(-h, h, size=shape) if h else np.zeros(shape)
        dof, scale = self.params
        with np.errstate(over="ignore"):  # the panel and the gap check refuse infinite draws
            return scale * rng.standard_t(dof, size=shape)


def parse_noise(text: str) -> NoiseSpec:
    """Parse the noise grammar kind:params, e.g. gaussian:0.3 or student_t:4:0.3."""
    kind, *params = text.split(":")
    try:
        return NoiseSpec(kind.strip().lower(), tuple(float(p) for p in params))
    except ValueError:
        raise ConfigError(f"noise {text!r}: parameters must be numbers") from None
    except ClusterScError as exc:
        raise ConfigError(f"noise {text!r}: {exc}") from None


def noise_tag(noise: NoiseSpec) -> str:
    """A noise spec in the grammar parse_noise reads, e.g. gaussian:0.3."""
    return ":".join([noise.kind] + [repr(float(p)) for p in noise.params])


def gen_group(spec: SignalSpec, n_units: int, t_count: int, rng) -> np.ndarray:
    """One shared basis of n_components sinusoid rows at times 1/T .. T/T (alpha,
    omega, phi drawn in that order), then fresh Uniform[0,1] weights per unit."""
    rng = np.random.default_rng(rng)
    r = spec.n_components
    alphas = rng.beta(*spec.alpha, size=r)[:, None]
    omegas = rng.uniform(*spec.omega, size=r)[:, None]
    phis = rng.normal(*spec.phi, size=r)[:, None]
    t = np.arange(1, t_count + 1) / t_count
    basis = alphas * np.sin(2.0 * np.pi * omegas * t + phis)
    weights = rng.uniform(0.0, 1.0, size=(n_units, r))
    return weights @ basis


def add_noise(signal, noise: NoiseSpec, rng) -> np.ndarray:
    """signal + i.i.d. draws from the noise distribution."""
    signal = np.asarray(signal, dtype=float)
    rng = np.random.default_rng(rng)
    return signal + noise.sample(signal.shape, rng)


@dataclass
class SyntheticDataset:
    """A generated panel, its noiseless signal, each unit's group and the seed."""

    panel: TimePanel
    group_labels: list[str]
    true_signal: np.ndarray
    seed: int


def gen_dataset(
    spec_a: SignalSpec,
    spec_b: SignalSpec,
    n_a: int,
    n_b: int,
    t_count: int,
    t0: int,
    noise: NoiseSpec,
    seed: int,
) -> SyntheticDataset:
    """Stack group A over group B and add noise; reproducible from seed."""
    if n_a < 1 or n_b < 1:
        raise InvalidParamsError(f"both groups need units, got n_a={n_a}, n_b={n_b}")
    split = InterventionSplit(t0, t_count)  # validates 1 <= t0 < t_count
    rng = np.random.default_rng(seed)
    signal_a = gen_group(spec_a, n_a, t_count, rng)
    signal_b = gen_group(spec_b, n_b, t_count, rng)
    true_signal = np.vstack([signal_a, signal_b])
    values = add_noise(true_signal, noise, rng)
    width = len(str(n_a + n_b))
    unit_ids = [f"A{i + 1:0{width}d}" for i in range(n_a)]
    unit_ids += [f"B{i + 1:0{width}d}" for i in range(n_b)]
    t_width = len(str(t_count))
    time_labels = [f"t{j + 1:0{t_width}d}" for j in range(t_count)]
    panel = TimePanel(
        unit_ids=unit_ids, time_labels=time_labels, values=values, split=split
    )
    return SyntheticDataset(
        panel=panel,
        group_labels=["A"] * n_a + ["B"] * n_b,
        true_signal=true_signal,
        seed=seed,
    )
