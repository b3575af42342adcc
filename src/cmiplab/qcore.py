"""Exact finite-dimensional quantum state and operator arithmetic.

Everything here is plain dense linear algebra over labeled tensor-product
mode bases (polarization, path, idler polarization).  States are immutable;
every operation returns a new value, so concurrent use needs no locking.

The arithmetic is array-shaped: the `*_rows` functions and `concurrences`
act on a stack of n states or matrices at once and validate each stack with
one vectorised check.  `StateVector.norm`, the `DensityMatrix` check,
`postselect`, `fidelity` and `concurrence` are the n = 1 calls into them, so
a row of a batch and the scalar call give the same bits.
"""

from __future__ import annotations

import json
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

#: postselection outcomes less likely than this are impossible: no state
POSTSELECT_MIN = 1e-15

#: rows per pass of a batched call; bounds its temporaries for any batch size
CHUNK_ROWS = 256

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def in_chunks(fn, *rows):
    """fn applied to aligned chunks of at most CHUNK_ROWS rows of the arrays,
    its outputs (an array or a tuple of arrays) stacked back together."""
    n, step = len(rows[0]), CHUNK_ROWS
    if n <= step:
        return fn(*rows)
    parts = [fn(*(r[lo:lo + step] for r in rows)) for lo in range(0, n, step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def row_norms(amps: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) complex stack.

    Computed as sqrt(re·re + im·im) with one dot product per row, the same
    sum np.linalg.norm forms for a single vector, so the bits agree.
    """
    re, im = amps.real, amps.imag
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def normalize_rows(amps: np.ndarray) -> np.ndarray:
    """Repair nearly-normalized rows, reject the batch if any is further out.

    Rows whose norm is within NORM_REPAIR_TOL of 1 but not exactly 1 are
    divided by their norm; one row outside (or with a NaN norm) raises
    ValueError.
    """
    norms = row_norms(amps)
    dev = np.abs(norms - 1.0)
    bad = np.flatnonzero(~(dev <= NORM_REPAIR_TOL))
    if bad.size:
        i = bad[0]
        raise ValueError(f"state norm {float(norms[i])} deviates from 1 by {dev[i]:.3e}")
    fix = dev != 0.0
    if fix.any():
        amps = amps.copy()
        amps[fix] /= norms[fix, None]
    return amps


def check_unitary_rows(mats: np.ndarray):
    """Reject a stack of (n, d, d) matrices unless every one has ‖U†U−I‖∞ ≤ 1e-12
    (a NaN entry fails)."""
    d = mats.shape[-1]
    err = np.max(np.abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(d)))
    if not err <= 1e-12:
        raise ValueError(f"operator is not unitary: ‖U†U−I‖∞ = {err:.3e}")


def check_density_rows(mats: np.ndarray):
    """Reject a stack of (n, d, d) matrices unless every one is Hermitian,
    of unit trace and positive semidefinite up to -1e-8 (a NaN entry fails)."""
    herm = np.max(np.abs(mats - mats.conj().swapaxes(1, 2)))
    if not herm <= 1e-10:
        raise ValueError(f"not Hermitian: max |ρ − ρ†| = {herm:.3e}")
    tr = np.trace(mats, axis1=1, axis2=2).real
    off = np.flatnonzero(~(np.abs(tr - 1.0) <= 1e-10))
    if off.size:
        raise ValueError(f"trace {float(tr[off[0]])} deviates from 1")
    lo = float(np.min(np.linalg.eigvalsh(mats)[:, 0]))
    if not lo >= -1e-8:
        raise ValueError(f"negative eigenvalue {lo:.3e} beyond repair tolerance")


def density_rows(amps: np.ndarray) -> np.ndarray:
    """|ψ⟩⟨ψ| for each row of an (n, d) stack of states, after the norm repair."""
    amps = normalize_rows(amps)
    return amps[:, :, None] * amps.conj()[:, None, :]


@dataclass(frozen=True)
class ModeBasis:
    """Ordered tensor product of labeled subsystem factors."""

    factors: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in basis: {labels}")
        for lab, syms in self.factors:
            if len(set(syms)) != len(syms):
                raise ValueError(f"duplicate symbols in factor {lab!r}: {list(syms)}")

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

    def combine(self, other: "ModeBasis") -> "ModeBasis":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"overlapping factor labels: {sorted(overlap)}")
        return ModeBasis(self.factors + other.factors)

    def drop(self, label: str) -> "ModeBasis":
        ax = self.axis(label)
        return ModeBasis(self.factors[:ax] + self.factors[ax + 1:])


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
        return float(row_norms(self.amps[None])[0])


@dataclass(frozen=True)
class Operator:
    """Square matrix on a ModeBasis."""

    basis: ModeBasis
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
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
        check_density_rows(m[None])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, s: StateVector) -> "DensityMatrix":
        return cls(s.basis, density_rows(s.amps[None])[0])


def apply_rows(mats: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Apply each (k, k) operator of a stack to the leading factors of the
    matching row of an (n, d) state stack; trailing factors are untouched.

    Each row is viewed as a (k, d/k) matrix, so this is U ⊗ I on the full
    basis without building the lifted matrix.
    """
    n, k = mats.shape[:2]
    if len(amps) != n:
        raise ValueError(f"{n} operators for {len(amps)} states")
    return (mats @ np.ascontiguousarray(amps).reshape(n, k, -1)).reshape(n, -1)


def postselect_rows(amps: np.ndarray, basis: ModeBasis, factor: str, symbol: str):
    """Project each row of an (n, d) state stack onto one symbol of one factor.

    Returns (states, probs): the renormalized conditional states on the
    remaining factors, (n, d'), and the outcome probabilities, (n,).  A row
    whose probability is below POSTSELECT_MIN has no state; its row of
    `states` is zero.  The rows are taken as normalized: callers run
    `normalize_rows` first.
    """
    ax = basis.axis(factor)
    syms = basis.symbols_of(factor)
    if symbol not in syms:
        raise ValueError(f"symbol {symbol!r} not in factor {factor!r} {syms}")
    n = len(amps)
    grid = amps.reshape((n,) + basis.shape)
    kept = np.take(grid, syms.index(symbol), axis=ax + 1).reshape(n, -1)
    probs = (kept.conj()[:, None, :] @ kept[:, :, None]).real[:, 0, 0]
    live = probs >= POSTSELECT_MIN
    states = np.zeros_like(kept)
    states[live] = kept[live] / np.sqrt(probs[live])[:, None]
    return states, probs


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
    states, probs = postselect_rows(normalize_rows(s.amps[None]), s.basis, factor, symbol)
    prob = float(probs[0])
    if prob < POSTSELECT_MIN:
        return None, prob
    return StateVector(s.basis.drop(factor), states[0]), prob


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """Overlap fidelity ⟨target|ρ|target⟩ for a pure target."""
    if rho.basis != target.basis:
        raise ValueError("density matrix and target bases differ")
    t = normalize_rows(target.amps[None])[0]
    return float(np.real(np.vdot(t, rho.matrix @ t)))


def _wootters(mats: np.ndarray) -> np.ndarray:
    """Concurrence of each validated (4, 4) density matrix of a stack.

    The λi are the square roots of the eigenvalues of the Hermitian product
    √ρ·ρ̃·√ρ with ρ̃ = (σy⊗σy) ρ* (σy⊗σy).  They are computed as the singular
    values of M = √ρ·(σy⊗σy)·√ρ*, which satisfies M·M† = √ρ·ρ̃·√ρ; taking
    singular values directly avoids the ~1e-8 noise that sqrt-of-eigenvalue
    picks up near zero and keeps pure states exact to ~1e-15.
    """
    w, V = np.linalg.eigh(mats)
    sqrt_rho = (V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ V.conj().swapaxes(1, 2)
    lam = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ sqrt_rho.conj(), compute_uv=False)
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.where(c > 0.0, c, 0.0)


def concurrences(rows: np.ndarray) -> np.ndarray:
    """Wootters concurrence of a stack of two-qubit states.

    `rows` is either (n, 4) pure-state amplitudes, which get the norm repair
    of `normalize_rows`, or (n, 4, 4) density matrices.  The density-matrix
    checks run once per chunk of rows.
    """
    rows = np.asarray(rows, dtype=complex)
    if rows.shape[1:] not in ((4,), (4, 4)):
        raise ValueError(f"concurrence needs two-qubit states, got shape {rows.shape[1:]}")
    if not len(rows):
        return np.zeros(0)

    def chunk(r):
        mats = density_rows(r) if r.ndim == 2 else r
        check_density_rows(mats)
        return _wootters(mats)

    return in_chunks(chunk, rows)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix (see `_wootters`)."""
    if rho.basis.dim != 4:
        raise ValueError(f"concurrence needs a 4-dimensional state, got dim {rho.basis.dim}")
    return float(_wootters(rho.matrix[None])[0])


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
