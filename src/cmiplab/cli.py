"""Command-line front end: figure sweeps, tomography demos, key-distribution
sessions, and the invariant suite.

Angles are decimal radians, rational multiples of pi ("1/2pi", "0.44pi", "pi")
or "arcsin <x>" (x may carry its own minus), with an optional leading minus,
one per state-spec argument.  Numbers and angles are ASCII with no "_", no
leading "+" and only ASCII padding; a refused number is named, and refused
text is quoted with any argv byte that is not UTF-8 as \\xNN.  Sweeps are
"start:stop:steps" with inclusive endpoints.  Every CSV starts with a
"# seed=<n>" comment; the default seed comes from the CMIPLAB_SEED
environment variable (42 when unset) and --seed overrides both.

Exit codes: 0 success, 1 usage/parse error, 2 I/O error, 3 verification
failure.  `main` is the one error boundary: any ValueError (a UsageError, or
an argument the model rejects) ends in one "error:" line and exit 1, an
OutputError (a file or stdout that cannot be written) in one and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from . import entanglement_lab as elab
from . import interferometer as ifo
from . import qkd42, tomography, verify
from .qcore import DensityMatrix, StateVector, state_from_json, state_to_json

ENV_SEED = "CMIPLAB_SEED"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class UsageError(ValueError):
    """Bad flags, angles, or state specs (exit code 1)."""


class OutputError(Exception):
    """Unreadable input or unwritable output (exit code 2)."""


_FRACTION = re.compile(r"^(\d+)/(\d+)pi$", re.ASCII)
_MULTIPLE = re.compile(r"^(\d+\.?\d*|\.\d+)?pi$", re.ASCII)


def quote(text: str) -> str:  # repr, but argv's undecodable bytes as \xNN, not \udcNN
    return re.sub(r"(\\\\)|\\udc([89a-f][0-9a-f])", lambda m: m[1] or rf"\x{m[2]}", repr(text))


def number(text: str, what: str, kind=int):
    """kind(text), refusing a "_", a leading "+" and any non-ASCII character
    (a non-ASCII space too), all of which int(), float() and str.strip()
    take: a UsageError that names `what` and quotes the text."""
    try:
        if text.strip().startswith("+") or "_" in text or not text.isascii():
            raise ValueError(text)
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{what} {quote(text)} is not {noun}") from None


def parse_angle(text: str) -> float:
    """Parse an angle literal to radians.  A literal that names no finite
    float (nan, inf, or a number past the float range) is a UsageError."""
    try:  # the raw text passes number's guard before strip() can drop a space
        s = number(text, "angle", str).strip()
        sign, s = (-1.0, s[1:].strip()) if s.startswith("-") else (1.0, s)
        arcsin = s.startswith("arcsin")
        x = s[len("arcsin"):] if arcsin else s
        if s.startswith("-"):  # float() would take a second minus
            raise ValueError(text)
        compact = s.replace(" ", "")
        fraction, multiple = _FRACTION.match(compact), _MULTIPLE.match(compact)
        if fraction:
            value = int(fraction.group(1)) * math.pi / int(fraction.group(2))
        elif multiple:
            value = float(multiple.group(1) or 1.0) * math.pi
        else:  # a decimal, or the argument x of "arcsin x"
            value = number(x, "angle", float)
    except ValueError:  # number's refusal, or an integer past int()'s digit limit
        raise UsageError(f"cannot parse angle {quote(text)}") from None
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in angle {quote(text)}") from None
    except OverflowError:  # an integer past the float range
        value = math.inf
    if arcsin:
        if not -1.0 <= value <= 1.0:
            raise UsageError(f"arcsin argument {value} outside [-1, 1]")
        value = math.asin(value)
    if not math.isfinite(value):
        raise UsageError(f"angle {quote(text)} is not finite")
    return sign * value


#: a sweep holds its whole grid's columns, though `evolve` builds the device
#: unitaries one chunk at a time: at 2^19 - 1 points the run peaks at 150 MiB
#: RSS (cmip with shots) and 265 MiB (entangle)
MAX_SWEEP_STEPS = 2 ** 19


def parse_sweep(text: str, name: str) -> np.ndarray:
    """The inclusive grid of a "start:stop:steps" sweep, checked before it is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name} sweep must be start:stop:steps, got {quote(text)}")
    steps = number(parts[2], f"{name} sweep step count")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    if steps < 2:
        raise UsageError(f"{name} sweep needs >= 2 steps, got {steps}")
    if steps >= MAX_SWEEP_STEPS:
        raise UsageError(f"{name} sweep needs < {MAX_SWEEP_STEPS} steps, got {steps}")
    if start == stop:
        raise UsageError(f"{name} sweep endpoints coincide")
    if not math.isfinite(stop - start):
        raise UsageError(f"{name} sweep span {parts[0]}:{parts[1]} is past the float range")
    return np.linspace(start, stop, steps)


def resolve_seed(flag_value: str | None) -> int:
    source = flag_value if flag_value is not None else os.environ.get(ENV_SEED)
    if source is None:
        return 42
    seed = number(source, "seed")
    if not 0 <= seed < 2 ** 64:
        raise UsageError(f"seed {seed} outside [0, 2^64)")
    return seed


def parse_shots(text: str, allow_exact: bool):
    if text == "exact":
        if not allow_exact:
            raise UsageError("this command needs an integer shot count")
        return None
    shots = number(text, "--shots")
    if not 0 <= shots < 2 ** 63:  # the draws take int64 counts
        raise UsageError(f"shots {shots} outside [0, 2^63)")
    return shots


def _stdout():
    """sys.stdout, or under python -u, where it drops the rest of a short write
    to its raw file, a buffered file on its descriptor, which retries a short
    write and raises on a closed pipe; closing it leaves the descriptor open."""
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        return open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                    errors=sys.stdout.errors, closefd=False)
    return nullcontext(sys.stdout)


@contextmanager
def _open_out(path: str | None):
    """Text stream for `path`, or stdout for None and "-"; any OSError on
    opening, writing, flushing or closing it becomes an OutputError."""
    stdout = path is None or path == "-"
    try:
        with (_stdout() if stdout
              else open(path, "w", encoding="utf-8", newline="\n")) as fh:
            yield fh
            fh.flush()  # stdout's buffer would otherwise fail only at exit
    except OSError as exc:  # for stdout: a full device, or a pipe closed early
        if stdout:  # the interpreter flushes stdout again at exit: send that to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write {'stdout' if stdout else path}: {exc}") from None


_STATE_CALL = re.compile(r"^(\w+)\s*\((.*)\)$")


def parse_state_spec(text: str) -> StateVector:
    """Named constructor, e.g. psi_plus(1/4pi), two_photon(arcsin 0.51, 0),
    or json:<path> to load a serialized state."""
    s = text.strip()
    if s.startswith("json:"):
        path = s[len("json:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return state_from_json(fh.read())
        except OSError as exc:
            raise OutputError(f"cannot read {path}: {exc}") from None
        except UnicodeDecodeError as exc:  # its repr would quote every byte read
            raise UsageError(f"cannot load a state from {path}: {exc}") from None
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # deep nesting
            raise UsageError(f"cannot load a state from {path}: {exc!r}") from None
    m = _STATE_CALL.match(s)
    if not m:
        raise UsageError(f"cannot parse state spec {quote(text)}")
    name, arg_text = m.group(1), m.group(2)
    args = arg_text.split(",")  # unstripped: parse_angle reads each one's raw text
    pair_signs = {"psi_plus": +1, "psi_minus": -1, "phi_plus": +1, "phi_minus": -1}
    if name in pair_signs:
        if len(args) != 1:
            raise UsageError(f"{name} takes one angle, got {len(args)}")
        return ifo.target_state(parse_angle(args[0]), pair_signs[name])
    if name == "two_photon":
        if len(args) != 2:
            raise UsageError(f"two_photon takes (alpha, delta), got {len(args)} args")
        cfg = elab.TwoPhotonConfig(parse_angle(args[0]), parse_angle(args[1]))
        return elab.polarization_pair_state(cfg)
    raise UsageError(f"unknown state constructor {quote(name)}")


def cmd_cmip(args) -> int:
    alpha = parse_angle(args.alpha)
    betas = parse_sweep(args.betas, "beta")
    shots = parse_shots(args.shots, allow_exact=False)
    seed = resolve_seed(args.seed)
    p_closed, p_mc = ifo.success_probability_sweep(alpha, betas, shots, seed)
    mcs = [""] * len(betas) if p_mc is None else [f"{p:.9g}" for p in p_mc.tolist()]
    lead, tail = f"{alpha:.9g},", f",{shots},{seed}\n"  # the same in every row
    with _open_out(args.out) as out:
        out.write(f"# seed={seed}\nalpha_rad,beta_rad,p_closed_form,p_monte_carlo,shots,seed\n"
                  + "".join([f"{lead}{b:.9g},{c:.9g},{mc}{tail}"
                             for b, c, mc in zip(betas.tolist(), p_closed.tolist(), mcs)]))
    return EXIT_OK


def cmd_entangle(args) -> int:
    if args.e_in is not None:
        e_in = number(args.e_in, "--e-in", float)
        if not 0.0 <= e_in <= 1.0:
            raise UsageError(f"--e-in {e_in} outside [0, 1]")
        alpha = math.asin(e_in)
    else:
        alpha = parse_angle(args.alpha)
        e_in = abs(math.sin(alpha))
    gamma2 = parse_angle(args.gamma2)
    delta = parse_angle(args.delta)
    grid = parse_sweep(args.gamma1s, "gamma1")
    seed = resolve_seed(args.seed)
    if not args.out:  # the files would be "_n1.csv" and "_e1.csv" in the working directory
        raise OutputError("cannot write : empty --out prefix")
    res = elab.concentration_sweep(alpha, grid, gamma2, delta)

    g1s, n1c, n1s, e1c, e1s = (a.tolist() for a in (
        grid, res["n1_closed"], res["n1_state"], res["e1_closed"], res["e1_state"]))
    lead, g2 = f"{e_in:.17g},{alpha:.17g},", f"{gamma2:.17g}"  # the same in every row
    with _open_out(f"{args.out}_n1.csv") as out:
        out.write(f"# seed={seed}\nE_in,alpha_rad,gamma1_rad,gamma2_rad,n1_closed,n1_sim\n"
                  + "".join([f"{lead}{g1:.17g},{g2},{c:.17g},{s:.17g}\n"
                             for g1, c, s in zip(g1s, n1c, n1s)]))
    with _open_out(f"{args.out}_e1.csv") as out:
        out.write(f"# seed={seed}\ngamma1_rad,e1_closed,e1_from_state,n1\n"
                  + "".join([f"{g1:.17g},{c:.17g},{s:.17g},{n:.17g}\n"
                             for g1, c, s, n in zip(g1s, e1c, e1s, n1c)]))
    return EXIT_OK


def cmd_tomo(args) -> int:
    target = parse_state_spec(args.state)
    shots = parse_shots(args.shots, allow_exact=True)
    if shots == 0:
        raise UsageError("tomography needs shots >= 1 or 'exact'")
    seed = resolve_seed(args.seed)
    table = tomography.simulate_counts(DensityMatrix.from_state(target), shots, seed)
    if args.counts_out is not None:
        with _open_out(args.counts_out) as out:
            out.write(table.to_csv())
    if args.emit_target is not None:
        with _open_out(args.emit_target) as out:
            out.write(state_to_json(target) + "\n")
    report = tomography.reconstruct(table, target=target)
    with _open_out(args.out) as out:
        out.write(report.to_json() + "\n")
    return EXIT_OK


def _parse_eve(text: str | None) -> float | None:
    if text is None:
        return None
    if text == "intercept":
        return 0.0
    if text.startswith("intercept:"):
        return parse_angle(text[len("intercept:"):])
    raise UsageError(f"unknown eavesdropper policy {quote(text)} "
                     f"(use intercept or intercept:<angle>)")


def cmd_qkd(args) -> int:
    seed = resolve_seed(args.seed)
    common = dict(gamma0=parse_angle(args.gamma0), n_pulses=number(args.pulses, "--pulses"),
                  seed=seed, eve_basis=_parse_eve(args.eve))
    if args.theta is not None:
        if args.gamma1 is not None or args.gamma2 is not None:
            raise UsageError("--theta replaces --gamma1/--gamma2")
        cfg = qkd42.config_for_theta(parse_angle(args.theta), **common)
    else:
        cfg = qkd42.QkdConfig(
            gamma1=parse_angle("1/8pi" if args.gamma1 is None else args.gamma1),
            gamma2=parse_angle("1/8pi" if args.gamma2 is None else args.gamma2), **common)
    # the log streams to its file chunk by chunk as the session runs
    with nullcontext() if args.log is None else _open_out(args.log) as log:
        stats = qkd42.run_session(cfg, log=log)
    with _open_out(args.out) as out:
        out.write(stats.to_json() + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    solver = None
    if args.mutate == "gamma1":
        def solver(alpha, beta):
            # stay inside the plate's range so the fault shows up in the
            # physics, not in an argument check
            return min(ifo.solve_gamma1(alpha, beta) + 1e-3, math.pi / 4)
    results = verify.run_all(gamma1_solver=solver)
    failed = sum(not r.passed for r in results)
    with _open_out(None) as out:
        for r in results:
            out.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n")
        out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_VERIFY if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        """Help goes to stdout through _open_out, so a failed write is exit 2."""
        with _open_out(None) as out:
            out.write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="cmiplab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("cmip", help="success-probability sweep over beta")
    p.add_argument("--alpha", required=True, help="input inner angle")
    p.add_argument("--betas", required=True, metavar="START:STOP:STEPS")
    p.add_argument("--shots", default="4096", help="Monte Carlo shots per point; 0 disables")
    p.add_argument("--seed")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_cmip)

    p = sub.add_parser("entangle", help="concentration sweep over gamma1")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--e-in", dest="e_in", help="input degree of entanglement in [0,1]")
    source.add_argument("--alpha", help="input state angle (alternative to --e-in)")
    p.add_argument("--gamma2", required=True)
    p.add_argument("--gamma1s", required=True, metavar="START:STOP:STEPS")
    p.add_argument("--delta", default="0", help="relative phase of the pair state")
    p.add_argument("--seed")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <prefix>_n1.csv and <prefix>_e1.csv")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("tomo", help="simulate counts and reconstruct a state")
    p.add_argument("state", help="psi_plus(a)|psi_minus(a)|phi_plus(b)|"
                                 "phi_minus(b)|two_photon(a,d)|json:<path>")
    p.add_argument("--shots", default="exact", help="per-setting shots or 'exact'")
    p.add_argument("--seed")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--counts-out", help="also write the simulated counts CSV")
    p.add_argument("--emit-target", help="write the ideal state as JSON")
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("qkd", help="run a key-distribution session")
    p.add_argument("--gamma1")
    p.add_argument("--gamma2")
    p.add_argument("--gamma0", default="1/8pi", help="encoding sign/angle, ±pi/8")
    p.add_argument("--theta", help="set gamma1/gamma2 for equal family angles")
    p.add_argument("--pulses", default="10000")
    p.add_argument("--seed")
    p.add_argument("--eve", help="intercept or intercept:<angle>")
    p.add_argument("--log", help="write the per-pulse CSV log here")
    p.add_argument("--out", help="session JSON path (default stdout)")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("verify", help="run the invariant checks")
    p.add_argument("--mutate", choices=["gamma1"],
                   help="intentionally perturb a solver to prove the checks bite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # every option but --help takes one value, and argparse reads a value such
    # as "-1/8pi" as an option unless it is joined on: --gamma0=-1/8pi
    for i in range(len(argv) - 1, 0, -1):  # from the right: a join moves no unseen token
        opt, value = argv[i - 1], argv[i]
        if (opt.startswith("--") and "=" not in opt and not "--help".startswith(opt)
                and value.startswith("-") and not value.startswith("--") and value != "-h"):
            argv[i - 1:i + 1] = [f"{opt}={value}"]
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            raise UsageError("a command is required (cmip, entangle, tomo, qkd, verify)")
        return args.func(args)
    except (ValueError, OutputError) as exc:  # ValueError: a UsageError or a rejected value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OutputError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
