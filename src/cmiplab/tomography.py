"""Simulated polarization-state tomography with finite counts.

Measurement model: the overcomplete six-projector catalog {H, V, D, A, R, L}
per qubit (36 product settings for a pair), binomial counting statistics per
setting, linear inversion as an exact projection on the integer Pauli design
and eigenvalue clipping as positivity repair.  shots_per_setting=None is the
exact-Born-rule sentinel used as the noiseless oracle.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .qcore import (PAIR_BASIS, POL_BASIS, DensityMatrix, StateVector, concurrence,
                    fidelity)

_SQ = 1.0 / math.sqrt(2.0)
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ, _SQ], dtype=complex),
    "A": np.array([_SQ, -_SQ], dtype=complex),
    "R": np.array([_SQ, -1j * _SQ], dtype=complex),
    "L": np.array([_SQ, 1j * _SQ], dtype=complex),
}
LABELS = tuple(_KETS)

_PAULIS = [np.eye(2, dtype=complex),
           np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex)]
#: tr(Π P) of the settings H, V, D, A, R, L (rows) and the Paulis I, X, Y, Z
_TRACES = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [1, 1, 0, 0],
                    [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 1, 0]])


class Catalog(NamedTuple):
    """Measurement settings of n qubits and the arrays built from them."""

    basis: tuple             # POL_BASIS, or PAIR_BASIS for a pair
    settings: tuple          # label tuples in catalog order: HH, HV, ..., LL
    projectors: np.ndarray   # rank-1 product projectors, (6^n, 2^n, 2^n)
    paulis: np.ndarray       # Pauli products spanning the operators, (4^n, 2^n, 2^n)
    design: np.ndarray       # tr(Π_i P_k), exact integers: _TRACES' Kronecker power

    def born(self, m: np.ndarray) -> np.ndarray:
        """Born probabilities tr(ρ Π_i) of every setting, in catalog order, of
        one (d, d) matrix or of each of an (n, d, d) stack."""
        return np.trace(m[..., None, :, :] @ self.projectors, axis1=-2, axis2=-1).real


def _catalog(n_qubits: int) -> Catalog:
    basis = PAIR_BASIS if n_qubits == 2 else POL_BASIS
    settings = tuple(itertools.product(LABELS, repeat=n_qubits))
    kets = [functools.reduce(np.kron, [_KETS[lab] for lab in labs]) for labs in settings]
    projectors = np.array([np.outer(ket, ket.conj()) for ket in kets])
    paulis = np.array([functools.reduce(np.kron, ps)
                       for ps in itertools.product(_PAULIS, repeat=n_qubits)])
    design = functools.reduce(np.kron, [_TRACES] * n_qubits)
    return Catalog(basis, settings, projectors, paulis, design)


#: the six-projector catalog per qubit count, built once
CATALOG = {n: _catalog(n) for n in (1, 2)}


@dataclass(frozen=True)
class CountsTable:
    """Per-setting click counts; in exact mode the counts are Born probabilities."""

    counts: dict
    shots_per_setting: int | None
    seed: int

    @property
    def n_qubits(self) -> int:
        return len(next(iter(self.counts)))

    def frequencies(self) -> np.ndarray:
        settings = CATALOG[self.n_qubits].settings
        f = np.array([self.counts[labs] for labs in settings], dtype=float)
        if self.shots_per_setting is not None:
            f = f / self.shots_per_setting
        return f

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# seed={self.seed}\n")
        buf.write("setting,count,shots,seed\n")
        shots = "exact" if self.shots_per_setting is None else self.shots_per_setting
        for labs in sorted(self.counts):
            count = self.counts[labs]
            count_txt = repr(float(count)) if self.shots_per_setting is None else int(count)
            buf.write(f"{''.join(labs)},{count_txt},{shots},{self.seed}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CountsTable":
        """Read a table written by to_csv.

        Raises ValueError unless the rows cover every setting of the one- or
        two-qubit catalog exactly once, share one shots value, and each count
        lies in [0, shots] (a probability in [0, 1] in exact mode).
        """
        rows = [line.split(",") for line in map(str.strip, text.splitlines())
                if line and not line.startswith(("#", "setting,"))]
        if any(len(row) != 4 for row in rows):
            raise ValueError("every counts row needs 4 fields: setting,count,shots,seed")
        shots_values = {row[2] for row in rows}
        if len(shots_values) != 1:
            raise ValueError(f"counts table needs one shots value, got {sorted(shots_values)}")
        shots_txt = shots_values.pop()
        shots = None if shots_txt == "exact" else int(shots_txt)
        if shots is not None and shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        counts = {tuple(setting): float(count) if shots is None else int(count)
                  for setting, count, _, _ in rows}
        n_qubits = len(rows[0][0])
        expected = set(CATALOG[n_qubits].settings) if n_qubits in CATALOG else set()
        if len(counts) != len(rows) or set(counts) != expected:
            raise ValueError("counts table must list each setting of the 1- or 2-qubit "
                             "catalog exactly once")
        bound = 1.0 if shots is None else shots
        outside = ["".join(labs) for labs, count in counts.items() if not 0 <= count <= bound]
        if outside:
            raise ValueError(f"counts of settings {outside} outside [0, {bound}]")
        return cls(counts, shots, int(rows[-1][3]))


def simulate_counts(rho: DensityMatrix, shots_per_setting: int | None,
                    seed: int) -> CountsTable:
    """Binomial counts per setting; exact Born probabilities when shots is None.

    Every setting's count comes from one binomial call on the stream
    (seed, 'tomo'), in catalog order, so the table is reproducible per seed.
    """
    catalog = next((c for c in CATALOG.values() if c.basis == rho.basis), None)
    if catalog is None:
        raise ValueError(f"tomography measures the H/V polarization of signal_pol or "
                         f"(signal_pol, idler_pol), got {rho.basis}")
    if shots_per_setting is not None and shots_per_setting < 1:
        raise ValueError(f"shots_per_setting must be >= 1, got {shots_per_setting}")
    probs = np.clip(catalog.born(rho.matrix), 0.0, 1.0).tolist()
    counts = probs if shots_per_setting is None else (
        rng.stream(seed, "tomo").binomial(shots_per_setting, probs).tolist())
    return CountsTable(dict(zip(catalog.settings, counts)), shots_per_setting, seed)


@dataclass(frozen=True)
class TomoReport:
    rho_hat: DensityMatrix
    fidelity_vs_target: float | None
    concurrence: float | None
    residual: float

    def to_json(self) -> str:
        m = self.rho_hat.matrix
        doc = {
            "basis": [lab for lab, _ in self.rho_hat.basis],
            "rho_hat": [[[float(z.real), float(z.imag)] for z in row] for row in m],
            "fidelity_vs_target": self.fidelity_vs_target,
            "concurrence": self.concurrence,
            "residual": self.residual,
        }
        return json.dumps(doc, indent=2)


def estimate_rows(n_qubits: int, freqs: np.ndarray) -> np.ndarray:
    """Linear inversion by exact projection, with positivity repair, of each
    row of an (n, 6^k) stack of k-qubit frequencies; returns (n, 2^k, 2^k).

    The integer design D = tr(Π_i P_k) has orthogonal columns, so the
    least-squares c of D c = f is D^T f / diag(D^T D).  Each Hermitian
    estimate is clipped to nonnegative eigenvalues and scaled to unit trace.
    """
    catalog = CATALOG[n_qubits]
    c = (catalog.design.T @ freqs[:, :, None])[:, :, 0] / (catalog.design ** 2).sum(axis=0)
    w, V = np.linalg.eigh((c[:, :, None, None] * catalog.paulis).sum(axis=1))
    w = np.clip(w, 0.0, None)
    if np.any((total := w.sum(axis=1)) < 1e-300):
        raise ValueError("reconstruction collapsed to the zero matrix")
    return (V * (w / total[:, None])[:, None, :]) @ V.conj().swapaxes(1, 2)


def reconstruct(counts: CountsTable, target: StateVector | None = None) -> TomoReport:
    """The table's `estimate_rows` estimate; its residual, the RMS mismatch of
    its Born probabilities and the frequencies, shows when the repair mattered."""
    catalog = CATALOG[counts.n_qubits]
    f = counts.frequencies()
    rho_hat = DensityMatrix(catalog.basis, estimate_rows(counts.n_qubits, f[None])[0])
    residual = float(np.sqrt(np.mean((catalog.born(rho_hat.matrix) - f) ** 2)))
    fid = None if target is None else fidelity(rho_hat, target)
    conc = concurrence(rho_hat) if catalog.basis == PAIR_BASIS else None
    return TomoReport(rho_hat, fid, conc, residual)
