"""Command-line interface and the statistical verification harness.

Verbs: ``monotone`` evaluates a pure-state monotone, ``roof`` runs the
convex-roof optimizer, ``verify`` stress-tests monotonicity under random
covariant channels, ``channel sample`` emits a random channel, ``twirl``
dephases a state file, and ``appendix`` prints the qubit closed forms.

Exit codes: 0 on success, 1 when verification found violations, 2 on
invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .channels import (
    U1Channel,
    apply_slots_pure,
    channel_to_dict,
    coefficient_channel,
    random_channel,
    sample_coefficients,
    squared_moduli,
    validate_channel,
)
from .convexroof import RoofConfig, convex_roof
from .errors import BadTrialCount, FramenessError
from .monotones import KINDS, MonotoneId, appendix_closed_form, weight_evaluator
from .states import (
    SectoredPureState,
    StandardState,
    density_from_dict,
    density_to_dict,
    load_density,
    random_weights,
    standard_form,
    state_from_dict,
    twirl,
)

VIOLATION_TOL = 1e-9
# Array entries per (trials, slots, dim) batch in run_verification: enough
# trials to amortize the numpy call overhead, while each batch's working
# arrays stay within about 10 MB whatever --dim and --kraus-per-shift.
VERIFY_ELEMENTS = 2**16


@dataclass(frozen=True)
class VerificationReport:
    """Summary of a monotonicity stress run."""

    measure: MonotoneId
    dim: int
    trials: int
    seed: int
    violations: int
    worst_margin: float
    runtime_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


def sample_trials(
    dim: int,
    shifts: tuple[int, ...],
    kraus_per_shift: int,
    seed: int,
    trials: range,
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Deterministic (state, channel) arrays for a range of verification trials.

    Trial ``t`` draws its state from ``default_rng([seed, t, 0])`` and its
    channel from ``default_rng([seed, t, 1])``, so every measure sees the
    same trial stream. Returns the ``(T, dim)`` weights, the shift of each
    channel slot and the ``(T, S, dim)`` channel coefficients.
    """
    weights = random_weights(dim, [np.random.default_rng([seed, t, 0]) for t in trials])
    slot_shifts, coeffs = sample_coefficients(
        dim, shifts, kraus_per_shift, [np.random.default_rng([seed, t, 1]) for t in trials]
    )
    return weights, slot_shifts, coeffs


def sample_trial(
    dim: int,
    shifts: tuple[int, ...],
    kraus_per_shift: int,
    seed: int,
    trial: int,
) -> tuple[StandardState, U1Channel]:
    """The (state, channel) pair of one verification trial, as objects."""
    weights, slot_shifts, coeffs = sample_trials(
        dim, shifts, kraus_per_shift, seed, range(trial, trial + 1)
    )
    return StandardState(weights[0]), coefficient_channel(slot_shifts, coeffs[0])


def run_verification(
    measure: MonotoneId,
    dim: int,
    trials: int,
    seed: int,
    shifts: tuple[int, ...],
    kraus_per_shift: int = 1,
) -> tuple[VerificationReport, list[tuple[int, float, int]]]:
    """Monotonicity margins over seeded random (state, channel) trials.

    The margin of a trial is the input value minus the probability-weighted
    average over channel outcomes; a violation is a margin below
    ``-VIOLATION_TOL``. Trials are sampled, transformed and evaluated in
    batches of about ``VERIFY_ELEMENTS`` channel coefficients (at least one
    trial). Returns the report plus per-trial rows ``(trial, margin, p_count)``.
    """
    if trials < 1:
        raise BadTrialCount(f"trials must be at least 1, got {trials}")
    evaluator = weight_evaluator(measure, dim)
    start = time.perf_counter()
    slot_count = len(set(shifts)) * kraus_per_shift
    batch_size = max(1, VERIFY_ELEMENTS // max(1, slot_count * dim))
    margins, counts = [], []
    for lo in range(0, trials, batch_size):
        batch = range(lo, min(lo + batch_size, trials))
        weights, slot_shifts, coeffs = sample_trials(dim, shifts, kraus_per_shift, seed, batch)
        probs, posts, kept = apply_slots_pure(slot_shifts, squared_moduli(coeffs), weights)
        terms = np.where(kept, probs * evaluator(posts), 0.0)
        # Outcomes add up in slot order, as a sum over the outcome ensemble would.
        after = np.zeros(len(batch))
        for j in range(len(slot_shifts)):
            after += terms[:, j]
        margins.append(evaluator(weights) - after)
        counts.append(kept.sum(axis=1))
    margins = np.concatenate(margins)
    runtime_ms = (time.perf_counter() - start) * 1e3

    rows = list(zip(range(trials), margins.tolist(), np.concatenate(counts).tolist()))
    report = VerificationReport(
        measure=measure,
        dim=dim,
        trials=trials,
        seed=seed,
        violations=int((margins < -VIOLATION_TOL).sum()),
        worst_margin=float(margins.min()),
        runtime_ms=runtime_ms,
    )
    return report, rows


def _parse_shifts(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("empty shift list")
    return tuple(int(p) for p in parts)


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _load_weights(path: str, dim: int | None) -> StandardState:
    with open(path, encoding="utf-8") as fh:
        state = state_from_dict(json.load(fh))
    if isinstance(state, SectoredPureState):
        state = standard_form(state)
    if dim is not None:
        w = state.weights
        if dim < w.size:
            if w.size and float(w[dim:].max(initial=0.0)) > 0.0:
                raise ValueError(
                    f"cannot restrict to dimension {dim}: weight above it"
                )
            w = w[:dim]
        else:
            w = np.pad(w, (0, dim - w.size))
        state = StandardState(w)
    return state


def cmd_monotone(args: argparse.Namespace) -> int:
    measure = MonotoneId(args.measure, args.k)
    state = _load_weights(args.state, args.dim)
    value = weight_evaluator(measure, state.dim)(state.weights)
    print(f"{value:.12f}")
    return 0


def cmd_roof(args: argparse.Namespace) -> int:
    measure = MonotoneId(args.measure, args.k)
    rho = load_density(args.rho)
    cfg = RoofConfig(
        ensemble_size=args.ensemble_size,
        restarts=args.restarts,
        max_iters=args.max_iters,
        step_tolerance=args.step_tolerance,
        seed=args.seed,
    )
    result = convex_roof(measure, rho, cfg)
    _emit(
        {
            "value": result.value,
            "converged": result.converged,
            "iterations_used": result.iterations_used,
            "gapped_support": result.gapped_support,
            "ensemble": [
                {"p": p, "state": [[z.real, z.imag] for z in vec]}
                for p, vec in result.ensemble.members
            ],
        }
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    measure = MonotoneId(args.measure, args.k)
    report, rows = run_verification(
        measure=measure,
        dim=args.dim,
        trials=args.trials,
        seed=args.seed,
        shifts=_parse_shifts(args.shifts),
        kraus_per_shift=args.kraus_per_shift,
    )
    if args.csv is not None:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "margin", "p_count"])
            writer.writerows(rows)
    _emit(report.to_dict())
    return 0 if report.violations == 0 else 1


def cmd_channel_sample(args: argparse.Namespace) -> int:
    channel = random_channel(
        args.dim, _parse_shifts(args.shifts), args.kraus_per_shift, args.seed
    )
    _emit(channel_to_dict(channel))
    if args.check:
        report = validate_channel(channel)
        for n, total in enumerate(report.per_sector_sums):
            print(f"sector {n}: completeness {float(total)!r}", file=sys.stderr)
    return 0


def cmd_twirl(args: argparse.Namespace) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        data = json.load(fh)
    if "matrix" in data:
        rho = density_from_dict(data)
    else:
        state = state_from_dict(data)
        if isinstance(state, SectoredPureState):
            state = standard_form(state)
        rho = state.projector()
    _emit(density_to_dict(twirl(rho)))
    return 0


def cmd_appendix(args: argparse.Namespace) -> int:
    res = appendix_closed_form(args.p, args.alpha)
    _emit(
        {
            "mu1": res.mu1,
            "mu2": res.mu2,
            "concurrence": res.concurrence,
            "fof": res.fof,
            "rho": density_to_dict(res.rho),
        }
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="frameness",
        description="Frameness monotones under a charge superselection rule",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--measure",
            required=True,
            choices=KINDS,
        )
        p.add_argument("--k", type=int, default=None)

    p_mono = sub.add_parser("monotone", help="evaluate a pure-state monotone")
    add_measure(p_mono)
    p_mono.add_argument("--state", required=True)
    p_mono.add_argument("--dim", type=int, default=None)
    p_mono.set_defaults(func=cmd_monotone)

    p_roof = sub.add_parser("roof", help="convex-roof value of a density matrix")
    add_measure(p_roof)
    p_roof.add_argument("--rho", required=True)
    p_roof.add_argument("--ensemble-size", type=int, default=None)
    p_roof.add_argument("--restarts", type=int, default=32)
    p_roof.add_argument("--max-iters", type=int, default=120)
    p_roof.add_argument("--step-tolerance", type=float, default=1e-6)
    p_roof.add_argument("--seed", type=int, default=0)
    p_roof.set_defaults(func=cmd_roof)

    p_verify = sub.add_parser("verify", help="stress-test ensemble monotonicity")
    add_measure(p_verify)
    p_verify.add_argument("--dim", type=int, required=True)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--shifts", required=True, help="e.g. --shifts=-1,0,1")
    p_verify.add_argument("--kraus-per-shift", type=int, default=1)
    p_verify.add_argument("--csv", default=None, help="write per-trial rows here")
    p_verify.set_defaults(func=cmd_verify)

    p_channel = sub.add_parser("channel", help="channel utilities")
    channel_sub = p_channel.add_subparsers(dest="channel_command", required=True)
    p_sample = channel_sub.add_parser("sample", help="sample a random channel")
    p_sample.add_argument("--dim", type=int, required=True)
    p_sample.add_argument("--shifts", required=True, help="e.g. --shifts=-1,0,1")
    p_sample.add_argument("--kraus-per-shift", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--check", action="store_true")
    p_sample.set_defaults(func=cmd_channel_sample)

    p_twirl = sub.add_parser("twirl", help="dephase a state in the charge basis")
    p_twirl.add_argument("--in", dest="infile", required=True)
    p_twirl.set_defaults(func=cmd_twirl)

    p_appendix = sub.add_parser("appendix", help="qubit closed forms on the two-parameter family")
    p_appendix.add_argument("--p", type=float, required=True)
    p_appendix.add_argument("--alpha", type=float, required=True)
    p_appendix.set_defaults(func=cmd_appendix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FramenessError, OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
