"""Command-line front end: figure sweeps, tomography demos, key-distribution
sessions, and the invariant suite.

Angles on the command line are decimal radians or rational multiples of pi
("1/2pi", "0.44pi", "pi"), optionally "arcsin <x>", with an optional leading
minus.  Sweeps are "start:stop:steps" with inclusive endpoints.  Every CSV
starts with a "# seed=<n>" comment; the default seed comes from the
CMIPLAB_SEED environment variable (42 when unset) and --seed overrides both.

Exit codes: 0 success, 1 usage/parse error, 2 I/O error, 3 verification
failure.  `main` is the one error boundary: any ValueError (a UsageError, or
an argument the model rejects) ends in one "error:" line and exit 1, an
OutputError in one "error:" line and exit 2.
"""

from __future__ import annotations

import argparse
import functools
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


_FRACTION = re.compile(r"^(\d+)/(\d+)pi$")
_MULTIPLE = re.compile(r"^(\d+\.?\d*|\.\d+)?pi$")


def parse_angle(text: str) -> float:
    """Parse an angle literal to radians.  A literal that names no finite
    float (nan, inf, or a number past the float range) is a UsageError."""
    s = text.strip()
    sign = 1.0
    if s.startswith("-"):
        sign, s = -1.0, s[1:].strip()
    compact = s.replace(" ", "")
    fraction, multiple = _FRACTION.match(compact), _MULTIPLE.match(compact)
    arcsin = s.startswith("arcsin")
    try:
        if arcsin:
            value = float(s[len("arcsin"):].strip())
        elif fraction:
            value = int(fraction.group(1)) * math.pi / int(fraction.group(2))
        elif multiple:
            value = float(multiple.group(1) or 1.0) * math.pi
        else:
            value = float(s)
    except ValueError:  # not a number, or an integer past int()'s digit limit
        raise UsageError(f"cannot parse angle {text!r}") from None
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in angle {text!r}") from None
    except OverflowError:  # an integer past the float range
        value = math.inf
    if arcsin:
        if not -1.0 <= value <= 1.0:
            raise UsageError(f"arcsin argument {value} outside [-1, 1]")
        value = math.asin(value)
    if not math.isfinite(value):
        raise UsageError(f"angle {text!r} is not finite")
    return sign * value


#: a sweep evolves its whole grid in one device stack; at 2^31 points the
#: (n, 4, 4) complex unitaries alone take 512 GiB
MAX_SWEEP_STEPS = 2 ** 31


def parse_sweep(text: str, name: str) -> np.ndarray:
    """The inclusive grid of a "start:stop:steps" sweep, checked before it
    is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"{name} sweep must be start:stop:steps, got {text!r}")
    try:
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"sweep step count {parts[2]!r} is not an integer") from None
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    if steps < 2:
        raise UsageError(f"{name} sweep needs >= 2 steps, got {steps}")
    if steps >= MAX_SWEEP_STEPS:
        raise UsageError(f"{name} sweep needs < 2^31 steps, got {steps}")
    if start == stop:
        raise UsageError(f"{name} sweep endpoints coincide")
    return np.linspace(start, stop, steps)


def resolve_seed(flag_value: str | None) -> int:
    source = flag_value if flag_value is not None else os.environ.get(ENV_SEED)
    if source is None:
        return 42
    try:
        seed = int(source)
    except ValueError:
        raise UsageError(f"seed {source!r} is not an integer") from None
    if not 0 <= seed < 2 ** 64:
        raise UsageError(f"seed {seed} outside [0, 2^64)")
    return seed


def parse_shots(text: str, allow_exact: bool):
    if text == "exact":
        if not allow_exact:
            raise UsageError("this command needs an integer shot count")
        return None
    try:
        shots = int(text)
    except ValueError:
        raise UsageError(f"shots {text!r} must be an integer or 'exact'") from None
    if not 0 <= shots < 2 ** 63:  # the draws take int64 counts
        raise UsageError(f"shots {shots} outside [0, 2^63)")
    return shots


@contextmanager
def _open_out(path: str | None):
    """Text stream for `path`, or stdout for None and "-"; any OSError on
    opening, writing or closing the file becomes an OutputError."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


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
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"cannot load a state from {path}: {exc!r}") from None
    m = _STATE_CALL.match(s)
    if not m:
        raise UsageError(f"cannot parse state spec {text!r}")
    name, arg_text = m.group(1), m.group(2)
    args = [a for a in (p.strip() for p in arg_text.split(",")) if a]
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
    raise UsageError(f"unknown state constructor {name!r}")


def cmd_cmip(args) -> int:
    alpha = parse_angle(args.alpha)
    betas = parse_sweep(args.betas, "beta")
    shots = parse_shots(args.shots, allow_exact=False)
    seed = resolve_seed(args.seed)
    p_closed, p_mc = ifo.success_probability_sweep(alpha, betas, shots, seed)
    with _open_out(args.out) as out:
        out.write(f"# seed={seed}\n")
        out.write("alpha_rad,beta_rad,p_closed_form,p_monte_carlo,shots,seed\n")
        for i, beta in enumerate(betas):
            mc = "" if p_mc is None else f"{p_mc[i]:.9g}"
            out.write(f"{alpha:.9g},{beta:.9g},{p_closed[i]:.9g},{mc},{shots},{seed}\n")
    return EXIT_OK


def cmd_entangle(args) -> int:
    if args.e_in is not None:
        try:
            e_in = float(args.e_in)
        except ValueError:
            raise UsageError(f"--e-in {args.e_in!r} is not a number") from None
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
    res = elab.concentration_sweep(alpha, grid, gamma2, delta)

    with _open_out(f"{args.out}_n1.csv") as out:
        out.write(f"# seed={seed}\n")
        out.write("E_in,alpha_rad,gamma1_rad,gamma2_rad,n1_closed,n1_sim\n")
        for i, g1 in enumerate(grid):
            out.write(f"{e_in:.17g},{alpha:.17g},{g1:.17g},{gamma2:.17g},"
                      f"{res['n1_closed'][i]:.17g},{res['n1_state'][i]:.17g}\n")
    with _open_out(f"{args.out}_e1.csv") as out:
        out.write(f"# seed={seed}\n")
        out.write("gamma1_rad,e1_closed,e1_from_state,n1\n")
        for i, g1 in enumerate(grid):
            out.write(f"{g1:.17g},{res['e1_closed'][i]:.17g},"
                      f"{res['e1_state'][i]:.17g},{res['n1_closed'][i]:.17g}\n")
    return EXIT_OK


def cmd_tomo(args) -> int:
    target = parse_state_spec(args.state)
    shots = parse_shots(args.shots, allow_exact=True)
    if shots == 0:
        raise UsageError("tomography needs shots >= 1 or 'exact'")
    seed = resolve_seed(args.seed)
    table = tomography.simulate_counts(DensityMatrix.from_state(target), shots, seed)
    if args.counts_out:
        with _open_out(args.counts_out) as out:
            out.write(table.to_csv())
    if args.emit_target:
        with _open_out(args.emit_target) as out:
            out.write(state_to_json(target) + "\n")
    report = tomography.reconstruct(table, target=target)
    with _open_out(args.out) as out:
        out.write(report.to_json() + "\n")
    return EXIT_OK


def _parse_eve(text: str | None):
    if text is None:
        return None
    if text == "intercept":
        return qkd42.InterceptResend(0.0)
    if text.startswith("intercept:"):
        return qkd42.InterceptResend(parse_angle(text[len("intercept:"):]))
    raise UsageError(f"unknown eavesdropper policy {text!r} "
                     f"(use intercept or intercept:<angle>)")


def cmd_qkd(args) -> int:
    seed = resolve_seed(args.seed)
    eve = _parse_eve(args.eve)
    common = dict(gamma0=parse_angle(args.gamma0), n_pulses=args.pulses,
                  seed=seed, eve=eve)
    if args.theta is not None:
        if args.gamma1 is not None or args.gamma2 is not None:
            raise UsageError("--theta replaces --gamma1/--gamma2")
        cfg = qkd42.config_for_theta(parse_angle(args.theta), **common)
    else:
        cfg = qkd42.QkdConfig(gamma1=parse_angle(args.gamma1 or "1/8pi"),
                              gamma2=parse_angle(args.gamma2 or "1/8pi"), **common)
    # the log streams to its file chunk by chunk as the session runs
    with _open_out(args.log) if args.log else nullcontext() as log:
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
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise UsageError(message)


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
    p.add_argument("--pulses", type=int, default=10_000)
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
    except ValueError as exc:  # a UsageError, or a value the model rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
