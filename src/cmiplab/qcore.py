"""Exact finite-dimensional quantum state and operator arithmetic.

Everything here is plain dense linear algebra over labeled tensor-product
mode bases (polarization, path, idler polarization).  States are immutable;
every operation returns a new value, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Canonical factor labels, in the fixed global order used by all modules
# and by every serialized state.
SIGNAL_POL = "signal_pol"
SIGNAL_PATH = "signal_path"
IDLER_POL = "idler_pol"

POL_SYMBOLS = ("H", "V")
PATH_SYMBOLS = ("1", "2")

# Norms this close to 1 are repaired silently; anything further out is a
# construction bug and gets rejected.
NORM_REPAIR_TOL = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class ModeBasis:
    """Ordered tensor product of labeled subsystem factors."""

    factors: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in basis: {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(syms) for _, syms in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape)) if self.factors else 1

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise ValueError(f"unknown factor label {label!r}; have {self.labels}")

    def symbols_of(self, label: str) -> tuple[str, ...]:
        return self.factors[self.axis(label)][1]

    def index(self, *symbols: str) -> int:
        """Flat amplitude index for one symbol per factor, in factor order."""
        if len(symbols) != len(self.factors):
            raise ValueError(
                f"need {len(self.factors)} symbols, got {len(symbols)}")
        multi = []
        for sym, (lab, syms) in zip(symbols, self.factors):
            if sym not in syms:
                raise ValueError(f"symbol {sym!r} not in factor {lab!r} {syms}")
            multi.append(syms.index(sym))
        return int(np.ravel_multi_index(multi, self.shape)) if multi else 0

    def symbols_at(self, flat_index: int) -> tuple[str, ...]:
        multi = np.unravel_index(flat_index, self.shape)
        return tuple(syms[i] for i, (_, syms) in zip(multi, self.factors))

    def combine(self, other: "ModeBasis") -> "ModeBasis":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"overlapping factor labels: {sorted(overlap)}")
        return ModeBasis(self.factors + other.factors)

    def drop(self, label: str) -> "ModeBasis":
        ax = self.axis(label)
        return ModeBasis(self.factors[:ax] + self.factors[ax + 1:])

    def keep(self, labels) -> "ModeBasis":
        keep_set = set(labels)
        unknown = keep_set - set(self.labels)
        if unknown:
            raise ValueError(f"unknown factor labels {sorted(unknown)}")
        return ModeBasis(tuple(f for f in self.factors if f[0] in keep_set))


def polarization_basis(label: str = SIGNAL_POL) -> ModeBasis:
    return ModeBasis(((label, POL_SYMBOLS),))


def path_basis(label: str = SIGNAL_PATH) -> ModeBasis:
    return ModeBasis(((label, PATH_SYMBOLS),))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a ModeBasis.

    Normalized states have squared norm 1; branch components produced by
    splitting a state are deliberately left unnormalized and carry their
    squared norm as a probability.
    """

    basis: ModeBasis
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex).reshape(-1)
        if a.size != self.basis.dim:
            raise ValueError(
                f"amplitude length {a.size} != basis dimension {self.basis.dim}")
        object.__setattr__(self, "amps", a)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, *symbols: str) -> complex:
        return complex(self.amps[self.basis.index(*symbols)])

    def normalized(self) -> "StateVector":
        n = self.norm
        if n < 1e-300:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.basis, self.amps / n)


def ensure_normalized(s: StateVector) -> StateVector:
    """Repair a nearly-normalized state, reject anything further out.

    Norms inside [1 - 1e-9, 1 + 1e-9] are renormalized silently; larger
    deviations indicate a construction bug and raise ValueError.
    """
    dev = abs(s.norm - 1.0)
    if dev > NORM_REPAIR_TOL:
        raise ValueError(f"state norm {s.norm} deviates from 1 by {dev:.3e}")
    return s if dev == 0.0 else s.normalized()


@dataclass(frozen=True)
class Operator:
    """Square matrix on a ModeBasis; unitary=True validates U†U = I."""

    basis: ModeBasis
    matrix: np.ndarray = field(repr=False)
    unitary: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        if self.unitary:
            err = np.max(np.abs(m.conj().T @ m - np.eye(d)))
            if err > 1e-12:
                raise ValueError(f"operator flagged unitary but ‖U†U−I‖∞ = {err:.3e}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a ModeBasis."""

    basis: ModeBasis
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > 1e-10:
            raise ValueError(f"not Hermitian: max |ρ − ρ†| = {herm:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr} deviates from 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -1e-8:
            raise ValueError(f"negative eigenvalue {lo:.3e} beyond repair tolerance")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, s: StateVector) -> "DensityMatrix":
        s = ensure_normalized(s)
        return cls(s.basis, np.outer(s.amps, s.amps.conj()))


def apply(U: Operator, s: StateVector) -> StateVector:
    """Apply U to the leading factors of s; any trailing factors are untouched.

    The amplitudes are viewed as a (U's dimension, rest) matrix, so this is
    U ⊗ I on the full basis without building the lifted matrix.
    """
    n = len(U.basis.factors)
    if s.basis.factors[:n] != U.basis.factors:
        raise ValueError("operator basis is not the leading factors of the state basis")
    return StateVector(s.basis, U.matrix @ s.amps.reshape(U.basis.dim, -1))


def postselect(s: StateVector, factor: str, symbol: str):
    """Project onto one symbol of one factor and drop that factor.

    Parameters
    ----------
    s : StateVector
        Normalized input state.
    factor, symbol : str
        Which subsystem to measure and which outcome to keep.

    Returns
    -------
    (StateVector or None, float)
        The renormalized conditional state on the remaining factors and the
        outcome probability.  Probabilities below 1e-15 are flagged as
        impossible: the state slot is None.
    """
    s = ensure_normalized(s)
    ax = s.basis.axis(factor)
    syms = s.basis.symbols_of(factor)
    if symbol not in syms:
        raise ValueError(f"symbol {symbol!r} not in factor {factor!r} {syms}")
    grid = s.amps.reshape(s.basis.shape)
    kept = np.take(grid, syms.index(symbol), axis=ax).reshape(-1)
    prob = float(np.vdot(kept, kept).real)
    if prob < 1e-15:
        return None, prob
    out = StateVector(s.basis.drop(factor), kept / math.sqrt(prob))
    return out, prob


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not named in `keep` (order preserved)."""
    if isinstance(keep, str):
        keep = [keep]
    new_basis = rho.basis.keep(keep)
    shape = rho.basis.shape
    t = rho.matrix.reshape(shape + shape)
    # contract traced (row, column) axis pairs from the highest row axis down
    # so the positions of the remaining pairs stay aligned
    traced_axes = [i for i, lab in enumerate(rho.basis.labels) if lab not in set(keep)]
    for ax in reversed(traced_axes):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d = new_basis.dim
    return DensityMatrix(new_basis, t.reshape(d, d))


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """Overlap fidelity ⟨target|ρ|target⟩ for a pure target."""
    if rho.basis != target.basis:
        raise ValueError("density matrix and target bases differ")
    t = ensure_normalized(target).amps
    return float(np.real(np.vdot(t, rho.matrix @ t)))


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    The λi are the square roots of the eigenvalues of the Hermitian product
    √ρ·ρ̃·√ρ with ρ̃ = (σy⊗σy) ρ* (σy⊗σy).  They are computed as the singular
    values of M = √ρ·(σy⊗σy)·√ρ*, which satisfies M·M† = √ρ·ρ̃·√ρ; taking
    singular values directly avoids the ~1e-8 noise that sqrt-of-eigenvalue
    picks up near zero and keeps pure states exact to ~1e-15.
    """
    if rho.basis.dim != 4:
        raise ValueError(f"concurrence needs a 4-dimensional state, got dim {rho.basis.dim}")
    w, V = np.linalg.eigh(rho.matrix)
    sqrt_rho = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    lam = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def state_to_json(s: StateVector) -> str:
    doc = {
        "basis": [{"factor": lab, "symbols": list(syms)} for lab, syms in s.basis.factors],
        "amplitudes": [[float(a.real), float(a.imag)] for a in s.amps],
    }
    return json.dumps(doc)


def state_from_json(text: str) -> StateVector:
    doc = json.loads(text)
    basis = ModeBasis(tuple((f["factor"], tuple(f["symbols"])) for f in doc["basis"]))
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return StateVector(basis, amps)
