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
import functools
import json
import os
import stat
import sys
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    U1Channel,
    _shown_shifts,
    _slot_layout,
    apply_slots_pure,
    channel_to_dict,
    coefficient_channel,
    coefficient_draws,
    random_channel,
    sample_coefficients,
    squared_moduli,
    validate_channel,
)
from .convexroof import RoofConfig, convex_roof
from .errors import BadParameter, FramenessError, InvalidChannel, InvalidDensity, InvalidState
from .monotones import KINDS, MonotoneId, appendix_closed_form, evaluate_pure, weight_evaluator
from .numerics import MAX_DIM, ZERO_TOL, in_order_sum, integer, trial_normals
from .states import (
    StandardState,
    _density_matrix,
    density_to_dict,
    random_weights,
    state_from_dict,
    twirl,
)

VIOLATION_TOL = 1e-9
# Array entries per (trials, slots, dim) batch of _trial_batch: enough
# trials to amortize the numpy call overhead, while each batch's working
# arrays stay within about 10 MB whatever --dim and --kraus-per-shift.
VERIFY_ELEMENTS = 2**16
# Most trials of one verify run: at this bound its rows, with their CSV text, peak near 300 MB.
MAX_TRIALS = 2**20
_ROOF_BUDGET = ("ensemble_size", "restarts", "max_iters", "seed")


@dataclass(frozen=True)
class VerificationReport:
    """Summary of a monotonicity stress run.

    ``runtime_ms`` is the wall time of the sampling, channel application
    and evaluation; on a batch reused from the previous call on the same
    stream it covers the evaluation only.
    """

    measure: MonotoneId
    dim: int
    trials: int
    seed: int
    violations: int
    worst_margin: float
    runtime_ms: float

    def to_dict(self) -> dict:
        # Equal to dataclasses.asdict(self), without its recursive deep copy.
        return {**vars(self), "measure": {**vars(self.measure)}}


def sample_trials(layout: tuple[tuple[int, ...], int], seed: int, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """The sampled trials of a range, as arrays.

    ``layout`` is the channel slot layout of :func:`_slot_layout`. Stream 0
    of :func:`trial_normals` draws the states and stream 1 the channels, each
    advanced once for the whole range. Returns the ``(T, dim)`` weights and
    the ``(T, S, dim)`` channel coefficients.
    """
    dim = layout[1]
    state_draws, channel_draws = trial_normals(seed, trials, (2 * dim, coefficient_draws(layout)))
    return random_weights(dim, state_draws), sample_coefficients(layout, channel_draws)


def sample_trial(
    dim: int,
    shifts: tuple[int, ...],
    kraus_per_shift: int,
    seed: int,
    trial: int,
) -> tuple[StandardState, U1Channel]:
    """The (state, channel) pair of one verification trial.

    It is :func:`sample_trials` on the one-trial range, which reads only that
    trial's words of each stream, so every batch that holds the trial has
    these rows bit for bit and every measure sees the same trial stream.
    The channel has one singleton outcome per slot of the layout. ``trial``
    must be an integer in 0..2**32-1.
    """
    layout = _slot_layout(dim, shifts, kraus_per_shift)
    trial = integer(trial, BadParameter, "trial")
    weights, coeffs = sample_trials(layout, seed, range(trial, trial + 1))
    return StandardState(weights[0]), coefficient_channel(layout, coeffs[0])


@functools.lru_cache(maxsize=1)
def _trial_batch(
    layout: tuple[tuple[int, ...], int], seed: int, lo: int, trials: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The batch of sampled trials from ``lo`` passed through their channels, read-only.

    ``layout`` is the slot layout of :func:`_slot_layout`, a hashable value
    of Python ints like the other arguments. The batch holds about
    ``VERIFY_ELEMENTS`` entries of its ``(T, S, dim)`` coefficients and at
    least one trial; it ends at ``trials`` at the latest. Returns the batch
    end, the ``(T, dim)`` weights, and the ``(T, S)`` probabilities and
    ``(T, S, dim)`` post-states of :func:`apply_slots_pure`, where a
    dropped outcome has probability 0 and an all-zero post-state. None of
    it depends on the measure, so the last batch is kept for the next call
    on the same layout and stream.
    """
    slot_shifts, dim = layout
    batch = range(lo, min(lo + max(1, VERIFY_ELEMENTS // (len(slot_shifts) * dim)), trials))
    weights, coeffs = sample_trials(layout, seed, batch)
    probs, posts = apply_slots_pure(slot_shifts, squared_moduli(coeffs), weights)
    for array in (weights, probs, posts):
        array.flags.writeable = False
    return batch.stop, weights, probs, posts


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
    ``-VIOLATION_TOL``. ``trials`` is checked first, in 1..``MAX_TRIALS``.
    Trials are sampled, transformed and evaluated in batches of about
    ``VERIFY_ELEMENTS`` channel coefficients (at least one trial).
    Consecutive calls on the same slot layout, seed and trials reuse the
    last sampled and transformed batch: shift sets that differ only in
    shifts with ``|shift| >= dim`` lay out the same slots. Returns
    the report plus per-trial rows ``(trial, margin, p_count)``.
    """
    trials = integer(trials, BadParameter, "trials", 1, MAX_TRIALS)
    dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
    evaluator = weight_evaluator(measure, dim)
    layout = _slot_layout(dim, shifts, kraus_per_shift)
    seed = integer(seed, BadParameter, "seed", 0)
    start = time.perf_counter()
    margins, counts, lo = [], [], 0
    while lo < trials:
        lo, weights, probs, posts = _trial_batch(layout, seed, lo, trials)
        # Outcomes add up in slot order, as a sum over the outcome ensemble would. A
        # dropped outcome's all-zero post-state has value 0.0, so its term is +0.0.
        margins.append(evaluator(weights) - in_order_sum(probs * evaluator(posts), 1))
        counts.append(np.count_nonzero(probs, axis=1))
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
        raise InvalidChannel("empty shift list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidChannel(f"shifts {_shown_shifts(text, len(parts))} are not integers") from None


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _read_json(path: str, error: type[FramenessError]) -> dict:
    """The JSON object in a file; ``error`` is raised if the file holds anything else."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes and deep nesting
            raise error(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def _load_weights(path: str, dim: int | None) -> StandardState:
    state = state_from_dict(_read_json(path, InvalidState))
    if dim is not None:
        dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
        w = state.weights
        if dim < w.size:
            if float(w[dim:].max()) > ZERO_TOL:
                raise InvalidState(f"cannot restrict to dimension {dim}: weight above it")
            w = w[:dim]
        else:
            w = np.pad(w, (0, dim - w.size))
        state = StandardState(w)
    return state


def _write_rows(path: str, rows: list[tuple[int, float, int]]) -> None:
    """Write the per-trial rows as CSV, overwriting ``path`` in place.

    The bytes equal those of ``csv.writer`` (excel dialect). The file is
    not truncated to zero on open, since a truncated regular file is
    flushed to disk at close on ext4 and XFS; it is written over and then
    cut to the new length. A pipe, tty or device is written, never cut.
    """
    text = "trial,margin,p_count\r\n" + "".join(f"{t},{m!r},{c}\r\n" for t, m, c in rows)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def cmd_monotone(args: argparse.Namespace) -> int:
    measure = MonotoneId(args.measure, args.k)
    print(f"{evaluate_pure(measure, _load_weights(args.state, args.dim)):.12f}")
    return 0


def cmd_roof(args: argparse.Namespace) -> int:
    measure = MonotoneId(args.measure, args.k)
    rho = _density_matrix(_read_json(args.rho, InvalidDensity))
    cfg = RoofConfig(**{name: getattr(args, name) for name in _ROOF_BUDGET})
    result = convex_roof(measure, rho, cfg)
    ensemble = [{"p": p, "state": [[z.real, z.imag] for z in vec]} for p, vec in result.ensemble.members]
    _emit({**vars(result), "ensemble": ensemble})
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
        _write_rows(args.csv, rows)
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
    data = _read_json(args.infile, InvalidDensity)
    if "matrix" in data:
        rho = _density_matrix(data)
    else:
        rho = state_from_dict(data).projector()
    _emit(density_to_dict(twirl(rho)))
    return 0


def cmd_appendix(args: argparse.Namespace) -> int:
    res = appendix_closed_form(args.p, args.alpha)
    _emit({**vars(res), "rho": density_to_dict(res.rho)})
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]]:
    """The root parser, and each parser with subcommands mapped to theirs by name; built once."""
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

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--shifts", required=True, help="e.g. --shifts=-1,0,1")
        p.add_argument("--kraus-per-shift", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    p_mono = sub.add_parser("monotone", help="evaluate a pure-state monotone")
    add_measure(p_mono)
    p_mono.add_argument("--state", required=True)
    p_mono.add_argument("--dim", type=int, default=None)
    p_mono.set_defaults(func=cmd_monotone)

    p_roof = sub.add_parser("roof", help="convex-roof value of a density matrix")
    add_measure(p_roof)
    p_roof.add_argument("--rho", required=True)
    for name in _ROOF_BUDGET:
        p_roof.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(RoofConfig, name))
    p_roof.set_defaults(func=cmd_roof)

    p_verify = sub.add_parser("verify", help="stress-test ensemble monotonicity")
    add_measure(p_verify)
    add_sampling(p_verify)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--csv", default=None, help="write per-trial rows here")
    p_verify.set_defaults(func=cmd_verify)

    p_channel = sub.add_parser("channel", help="channel utilities")
    channel_sub = p_channel.add_subparsers(dest="channel_command", required=True)
    p_sample = channel_sub.add_parser("sample", help="sample a random channel")
    add_sampling(p_sample)
    p_sample.add_argument("--check", action="store_true")
    p_sample.set_defaults(func=cmd_channel_sample)

    p_twirl = sub.add_parser("twirl", help="dephase a state in the charge basis")
    p_twirl.add_argument("--in", dest="infile", required=True)
    p_twirl.set_defaults(func=cmd_twirl)

    p_appendix = sub.add_parser("appendix", help="qubit closed forms on the two-parameter family")
    p_appendix.add_argument("--p", type=float, required=True)
    p_appendix.add_argument("--alpha", type=float, required=True)
    p_appendix.set_defaults(func=cmd_appendix)

    return parser, {parser: sub.choices, p_channel: channel_sub.choices}


def main(argv: list[str] | None = None) -> int:
    root, subcommands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    # Down the leading subcommand names to the deepest parser, which reads the rest once:
    # what the root parser's parse_args does, without each level's own pass over the tokens.
    parser, depth = root, 0
    while depth < len(argv) and argv[depth] in subcommands.get(parser, ()):
        parser = subcommands[parser][argv[depth]]
        depth += 1
    args, extras = parser.parse_known_args(argv[depth:])
    if extras:
        root.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (FramenessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
