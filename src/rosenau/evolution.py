"""Exact Fourier-space solution operator and energy evaluation.

Each Fourier mode of the model obeys the parameter ODE

    (1 + delta |xi|^(2 theta)) w_tt + (mu |xi|^4 + kappa |xi|^2) w = 0,

whose solution is w(t) = cos(t f) w0 + sin(t f)/f * w1 with f the dispersion
rate at |xi|.  This module supplies the propagator sin(t f)/f (with its
removable singularity at f = 0 filled by the limit t), the kernel
(1 - cos x)/x^2 of the running time integral, a periodic-box DFT
realization for non-radial data, and the conserved quadratic energy.

Both energies and the box path take many times or states per call, and
compute what does not depend on t once: one transform per distinct datum
for all the times of evolve_grid_times, whose one-time case is
evolve_grid.  Each phase t f takes one sine, which serves both sin(t f)/f
and f sin(t f), and a field passed as both parts of a state is
transformed once for its energy.

The box path runs in real arithmetic on the half spectrum (rfftn/irfftn).
The multipliers cos(t f), sin(t f)/f and f sin(t f) are real and even in
xi, so a complex field evolves as its real and imaginary parts evolve apart,
and its energy is the sum of theirs: a complex field goes through the same
real transforms as the stack of its two real parts.

Conventions: u_hat(xi) = integral exp(-i x.xi) u(x) dx, so physical L2 norms
carry the factor (2 pi)^(-n/2) relative to spectral ones.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.fft import fftfreq, irfftn, rfftfreq, rfftn

from .artifacts import open_output
from .errors import InputDomainError, UncertifiedTailError
from .model import ModelParams, dispersion_slope, eval_dispersion, unit_sphere_area
from .quadrature import _row_blocks, integrate_radial
from .records import Record, replace
from .tails import TailBound

if TYPE_CHECKING:
    from .moments import RadialProfile

__all__ = [
    "RadialInitialData",
    "GridField",
    "propagator",
    "evolve_grid",
    "evolve_grid_times",
    "total_energy",
    "total_energy_grid",
]

# |K21 - G10| overstates a smooth panel's error: this resolves the density to round-off
_ENERGY_REL_TOL = 1e-12
# below this |t f|, sin(t f)/f equals t to double precision (relative gap (t f)^2/6)
_FLAT_PHASE = 1e-8


def _check_time(t) -> None:
    """Raise InputDomainError unless the time, or every time of an array, is
    finite and nonnegative."""
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0)):
        raise InputDomainError(f"time must be finite and nonnegative, got {t}")


def _check_dim(params: ModelParams, dim: int) -> None:
    if params.dim != dim:
        raise InputDomainError("params.dim and data.dim disagree")


def propagator(t, f):
    """sin(t f)/f in real arithmetic, with its f = 0 limit t; |value| <= t for f >= 0.

    t may be an array broadcasting against an array f.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 0:
        phase = t * float(f)
        return float(t) if abs(phase) < _FLAT_PHASE else math.sin(phase) / float(f)
    phase = t * f
    return _sine_over(t, f, phase, np.sin(phase))


def _sine_over(t, f, phase, sine):
    """propagator(t, f) on arrays from phase = t f and its sine, for a
    caller that uses that sine for f sin(t f) too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sine / f
    flat = np.abs(phase) < _FLAT_PHASE
    if flat.any():
        out[flat] = np.broadcast_to(t, out.shape)[flat]
    return out


_ZERO_TAIL = TailBound(kind="compact", cutoff=0.0)


def _zero_density(r):
    return np.zeros_like(np.asarray(r, dtype=float))


# the radii at which construction checks the densities
_PROBE = np.linspace(0.0, 20.0, 41)


class RadialInitialData(Record):
    """The initial data through the three real spectral densities that the
    radial integrals read.

    w0_sq, w1_sq and cross map |xi| (array) to the spherical means of |w0|^2,
    |w1|^2 and Re(w0 conj(w1)), w0 and w1 the transforms of u0 and u1.  A
    missing component is the zero density with the zero tail.  The tails
    bound |w0| and |w1| pointwise and certify truncation.  kinks are the
    radii where a density jumps; radial integrals are cut there.
    velocity_profile is u1 itself, the physical radial profile, for a datum
    that has one in closed form; the moments and envelopes read it.

    Construction probes 41 radii in [0, 20] and rejects densities no datum
    has: complex or not finite; w0_sq or w1_sq negative, above the square of
    its Gaussian tail or nonzero past its compact cutoff; cross^2 above
    w0_sq w1_sq beyond 1e-9 relative.
    """

    dim: int
    w0_sq: Callable[[np.ndarray], np.ndarray] = _zero_density
    w1_sq: Callable[[np.ndarray], np.ndarray] = _zero_density
    cross: Callable[[np.ndarray], np.ndarray] = _zero_density
    w0_tail: TailBound = _ZERO_TAIL
    w1_tail: TailBound = _ZERO_TAIL
    label: str = ""
    kinks: tuple = ()
    velocity_profile: RadialProfile | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputDomainError("dim must be >= 1")
        if self.velocity_profile is not None and self.velocity_profile.dim != self.dim:
            raise InputDomainError("the velocity profile and the data disagree in dim")
        probed = {}
        for name in ("w0_sq", "w1_sq", "cross"):
            probed[name] = vals = np.asarray(getattr(self, name)(_PROBE))
            if np.iscomplexobj(vals) or not np.all(np.isfinite(vals)):
                raise InputDomainError(f"{name} must be real and finite")
        for name, tail in (("w0_sq", self.w0_tail), ("w1_sq", self.w1_tail)):
            vals = probed[name]
            if np.any(vals < 0):
                raise InputDomainError(f"{name} must be nonnegative")
            if tail.kind == "gaussian":
                bound = tail.amplitude * np.exp(-tail.rate * _PROBE**2)
                if np.any(np.sqrt(vals) > bound * (1.0 + 1e-9) + 1e-300):
                    raise InputDomainError(f"{name} exceeds the square of its declared gaussian tail")
            if tail.kind == "compact" and np.any(vals[_PROBE > tail.cutoff] != 0):
                raise InputDomainError(f"{name} is nonzero past its compact cutoff {tail.cutoff}")
        if np.any(probed["cross"] ** 2 > probed["w0_sq"] * probed["w1_sq"] * (1.0 + 1e-9)):
            raise InputDomainError("cross^2 exceeds w0_sq * w1_sq")

    # False when the tail certifies the density zero: integrals skip it and cross
    has_w0 = property(lambda self: not self.w0_tail.vanishes)
    has_w1 = property(lambda self: not self.w1_tail.vanishes)

    def densities(self, r) -> tuple:
        """(w0_sq, w1_sq, cross) at the radii r, 0.0 for each that has_w0 and has_w1 skip."""
        w0, w1 = self.has_w0, self.has_w1
        return self.w0_sq(r) if w0 else 0.0, self.w1_sq(r) if w1 else 0.0, self.cross(r) if w0 and w1 else 0.0

    def support_radius(self) -> float | None:
        """Common support bound when both tails are compact, else None."""
        if self.w0_tail.kind == "compact" and self.w1_tail.kind == "compact":
            return max(self.w0_tail.cutoff, self.w1_tail.cutoff)
        return None


# ---------------------------------------------------------------------------
# periodic-box DFT path


class GridField(Record):
    """Real (float64) or complex (complex128) samples of a field on a
    periodic box [0, box_length)^dim; the file format stores re/im pairs
    either way."""

    dim: int
    box_length: float
    samples_per_axis: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise InputDomainError("grid dimension must be 1, 2 or 3")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise InputDomainError(f"box_length must be finite and positive, got {self.box_length}")
        n = self.samples_per_axis
        if n < 16 or (n & (n - 1)) != 0:
            raise InputDomainError("samples_per_axis must be a power of two >= 16")
        expected = (n,) * self.dim
        if self.values.shape != expected:
            raise InputDomainError(
                f"values shape {self.values.shape} does not match {expected}"
            )
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        if self.values.dtype != dtype:
            object.__setattr__(self, "values", self.values.astype(dtype))

    @property
    def dx(self) -> float:
        return self.box_length / self.samples_per_axis

    def l2_norm(self) -> float:
        """Physical L2 norm over the box."""
        return float(
            math.sqrt(np.sum(np.abs(self.values) ** 2).real * self.dx**self.dim)
        )

    @classmethod
    def from_function(cls, fn, dim: int, box_length: float, samples_per_axis: int) -> "GridField":
        """Sample fn(x1, ..., xn) on the box with coordinates centred at
        box/2; real values of fn give a real field, complex ones a complex field."""
        axis = (np.arange(samples_per_axis) * (box_length / samples_per_axis)
                - box_length / 2.0)
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        return cls(dim, box_length, samples_per_axis, np.asarray(fn(*grids)))

    def save(self, path) -> None:
        """Header lines (dim, box_length, samples_per_axis) + little-endian re/im pairs."""
        header = (
            "rosenau-grid-field v1\n"
            f"dim={self.dim}\n"
            f"box_length={self.box_length!r}\n"
            f"samples_per_axis={self.samples_per_axis}\n"
            "\n"
        )
        flat = np.empty(2 * self.values.size, dtype="<f8")
        flat[0::2] = self.values.real.ravel()
        flat[1::2] = self.values.imag.ravel()
        with open_output(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(flat.tobytes())

    @classmethod
    def load(cls, path) -> "GridField":
        """Read a file written by save(): a real field when every stored
        imaginary part is 0, else a complex one; a malformed file raises
        InputDomainError."""
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise InputDomainError(f"cannot read grid-field file {path}: {exc.strerror}") from None
        head, blank, body = blob.partition(b"\n\n")
        if not blank or not head.startswith(b"rosenau-grid-field v1\n"):
            raise InputDomainError(f"{path} is not a grid-field file")
        try:
            fields = dict(line.split("=", 1) for line in head.decode("ascii").splitlines()[1:])
            dim = int(fields["dim"])
            box_length = float(fields["box_length"])
            n = int(fields["samples_per_axis"])
            flat = np.frombuffer(body, dtype="<f8")
            if flat.size != 2 * n**dim:
                raise ValueError(f"{flat.size} values for {n}^{dim} re/im pairs")
            re, im = flat[0::2], flat[1::2]
            values = (re + 1j * im if im.any() else re).reshape((n,) * dim)
        except (KeyError, ValueError) as exc:
            raise InputDomainError(f"malformed grid-field file {path}: {exc!r}") from None
        return cls(dim, box_length, n, values.copy())


def _grid_xi_norm(field: GridField) -> np.ndarray:
    """|xi| on the rfftn half spectrum of the grid: full axes, then the
    nonnegative frequencies of the last axis."""
    n, d = field.samples_per_axis, field.dx
    freqs = [fftfreq(n, d=d)] * (field.dim - 1) + [rfftfreq(n, d=d)]
    grids = np.meshgrid(*(2.0 * math.pi * a for a in freqs), indexing="ij")
    return np.sqrt(sum(g**2 for g in grids))


def _half_spectrum(values: np.ndarray, split: bool) -> np.ndarray:
    """rfftn over the grid axes of the stack of real parts of values: the
    real and imaginary parts when split, else values alone."""
    parts = np.stack((values.real, values.imag)) if split else values[np.newaxis]
    return rfftn(parts, s=values.shape, axes=tuple(range(1, parts.ndim)))


def _from_half_spectrum(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    """The samples whose stack of real parts has this half spectrum: real
    for one part, complex for two."""
    parts = irfftn(spectrum, s=shape, axes=tuple(range(1, spectrum.ndim)))
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def _grid_of(field: GridField) -> tuple:
    return field.dim, field.box_length, field.samples_per_axis


def evolve_grid_times(
    params: ModelParams,
    field0: GridField,
    field1: GridField,
    times,
    with_velocity: bool = False,
):
    """Evolve box data by the per-mode multipliers at each DFT frequency:
    an iterator over the states u, or (u, u_t) when with_velocity, one per
    time.

    |xi|, f, the wrap-around window and the forward transforms of the data
    are computed once; each state then costs its inverse transforms, made
    only when the iterator reaches it, so that a caller taking the states
    one at a time holds one at a time.  The box approximates free space
    only while wave fronts cannot wrap: each time from
    t = box_length / (2 sup f') on warns.  Real data evolve to real fields;
    when either datum is complex, both go through the real transforms as
    their stacked real and imaginary parts, and the states are complex.
    """
    if _grid_of(field0) != _grid_of(field1):
        raise InputDomainError("field0 and field1 must share one grid")
    _check_dim(params, field0.dim)
    times = np.asarray(times, dtype=float).ravel()
    _check_time(times)

    rho = _grid_xi_norm(field0)
    if times.max(initial=0.0) > 0:
        v_max = float(np.max(np.abs(dispersion_slope(params, rho[rho > 0])[1])))
        window = field0.box_length / (2.0 * v_max) if v_max > 0 else math.inf
        for t in times[times >= window].tolist():
            warnings.warn(
                f"t = {t} exceeds the wrap-around window {window:.6g} of this box",
                stacklevel=2,
            )
    f = eval_dispersion(params, rho)
    del rho  # the transforms need only f
    split = np.iscomplexobj(field0.values) or np.iscomplexobj(field1.values)
    shape = field0.values.shape
    hat0 = _half_spectrum(field0.values, split)
    # one datum passed as both (the energy-conservation bump) is transformed once
    hat1 = hat0 if field1.values is field0.values else _half_spectrum(field1.values, split)

    def state(t: float):
        phase = t * f
        cosine, sine = np.cos(phase), np.sin(phase)
        u = _from_half_spectrum(cosine * hat0 + _sine_over(t, f, phase, sine) * hat1, shape)
        if not with_velocity:
            return replace(field0, values=u)
        u_t = _from_half_spectrum(-f * sine * hat0 + cosine * hat1, shape)
        return replace(field0, values=u), replace(field0, values=u_t)

    return map(state, times.tolist())


def evolve_grid(
    params: ModelParams,
    field0: GridField,
    field1: GridField,
    t: float,
    with_velocity: bool = False,
):
    """The state at the one time t: evolve_grid_times for [t]."""
    (state,) = evolve_grid_times(params, field0, field1, [t], with_velocity)
    return state


# ---------------------------------------------------------------------------
# energy


def _energy_radius(data: RadialInitialData) -> float:
    """Radius beyond which the energy density of the data is negligible: the
    support when both tails are compact, else at least 15 and far enough
    that every Gaussian tail has fallen below e^-80 of its amplitude.  A tail
    of kind "none" certifies no radius and raises UncertifiedTailError."""
    support = data.support_radius()
    if support is not None:
        return max(support, 1e-6)
    if "none" in (data.w0_tail.kind, data.w1_tail.kind):
        raise UncertifiedTailError("decay class gives no tail certificate for the energy")
    hi = 15.0
    for tail in (data.w0_tail, data.w1_tail):
        if tail.kind == "gaussian":
            hi = max(hi, math.sqrt(80.0 / tail.rate))
    return hi


def total_energy(params: ModelParams, data: RadialInitialData, t):
    """Energy of the radial state at time t, computed spectrally.

    Integrates the conserved density
    (1/2) [(1 + delta r^(2 theta)) |w_t|^2 + (mu r^4 + kappa r^2) |w|^2] r^(n-1)
    with the Plancherel factor (2 pi)^(-n), |w|^2 and |w_t|^2 formed at each
    t from RadialInitialData.densities; it equals its t = 0 value pointwise,
    so the total is conserved to round-off.  The density is integrated over
    [0, R] by quadrature.integrate_radial, cut at the data's kinks; an array
    of times gives one value per time, each a row of that one call.
    """
    _check_time(t)
    _check_dim(params, data.dim)
    n = params.dim
    ts = np.atleast_1d(np.asarray(t, dtype=float))[:, None]

    def density(r):
        f = eval_dispersion(params, r)
        w0_sq, w1_sq, cross = data.densities(r)
        inertia = 1.0 + params.delta * r ** (2.0 * params.theta)
        stiffness = params.mu * r**4 + params.kappa * r**2
        radial = r ** (n - 1)
        out = np.empty((ts.shape[0], r.size))
        # the rows in blocks, so that no temporary exceeds the row bound
        for rows in _row_blocks(ts.shape[0], r.size):
            phase = ts[rows] * f
            c, sine = np.cos(phase), np.sin(phase)
            p, q = _sine_over(ts[rows], f, phase, sine), -f * sine
            w_sq = c * c * w0_sq + p * p * w1_sq + 2.0 * c * p * cross
            wt_sq = q * q * w0_sq + c * c * w1_sq + 2.0 * q * c * cross
            out[rows] = 0.5 * (inertia * wt_sq + stiffness * w_sq) * radial
        return out

    value = integrate_radial(density, 0.0, _energy_radius(data), data.kinks, rel_tol=_ENERGY_REL_TOL)
    energy = unit_sphere_area(n) / (2.0 * math.pi) ** n * value
    return energy if np.ndim(t) else float(energy[0])


def total_energy_grid(params: ModelParams, states) -> np.ndarray:
    """Energy of each box state (u, u_t) of an iterable on one grid, such as
    evolve_grid_times, via DFT Plancherel sums: |xi| and its powers once,
    two forward transforms per state, each state dropped before the next
    is drawn.

    The sums run over the rfftn half spectrum of the real parts of each
    field (its real and imaginary parts when complex), each column weighted
    by its multiplicity in the full spectrum: 2, except 1 on the xi_last = 0
    column and on the Nyquist column, which are their own mirror images."""
    states = iter(states)
    first = next(states, None)
    if first is None:
        return np.empty(0)
    energy = _grid_energy(params, first[0])
    first = energy(first)  # drops the first state
    return np.array([first, *map(energy, states)])


def _grid_energy(params: ModelParams, field: GridField):
    """The energy of a state (u, u_t) on the grid of field, as a function
    of the state, with |xi|, its powers and the column multiplicities
    computed here once."""
    _check_dim(params, field.dim)
    grid = _grid_of(field)
    n = field.samples_per_axis
    cell = field.dx**field.dim / n**field.dim
    rho = _grid_xi_norm(field)
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[[0, n // 2]] = 1.0
    inertia = multiplicity * (1.0 + params.delta * rho ** (2.0 * params.theta))
    stiffness = multiplicity * (params.mu * rho**4 + params.kappa * rho**2)
    del rho

    def power(values: np.ndarray) -> np.ndarray:
        hat = _half_spectrum(values, np.iscomplexobj(values))
        return hat.real**2 + hat.imag**2

    def energy(state) -> float:
        u, u_t = state
        if not _grid_of(u) == _grid_of(u_t) == grid:
            raise InputDomainError("the states must share one grid")
        u_power = power(u.values)
        # one field as both, as the first state (bump, bump), is transformed once
        u_t_power = u_power if u_t.values is u.values else power(u_t.values)
        kinetic = float(np.sum(inertia * u_t_power))
        potential = float(np.sum(stiffness * u_power))
        return 0.5 * (kinetic + potential) * cell

    return energy
