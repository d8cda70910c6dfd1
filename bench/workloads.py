"""The four workloads: their inputs, their operations and how each is checked.

A workload turns ``--seed`` into a fixed list of operations, one round.
A run repeats that round, so every round makes the same calls on the same
inputs. Each operation goes through the package's public entry points,
looked up on the module at call time so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import checks

VERIFY_DIMS = (2, 3, 4, 6)
VERIFY_SHIFTS = ("-1,0,1", "0,2")
VERIFY_TRIALS = 50
VERIFY_CHECKED_TRIALS = 2
QUBIT_STATES = 8
QUBIT_ROOF_ARGS = ["--ensemble-size", "2", "--restarts", "8", "--seed", "1"]
FULL_RANK_DIMS = (3, 4)
FULL_RANK_ROOF_ARGS = ["--restarts", "1", "--max-iters", "60", "--seed", "1"]
CLOSED_FORM_STATES = 50
CLOSED_FORM_RANK1_EVERY = 10


class Op:
    """One call into the package: ``run`` is timed, ``check`` is not.

    ``check(raw)`` returns (problems, observation); ``items`` is the number
    of work items the call completes (trials, roofs or states).
    """

    def __init__(self, run, check, items: int = 1) -> None:
        self.run = run
        self.check = check
        self.items = items


def _cli(argv: list[str]) -> tuple[int, str]:
    from frameness import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _measure_args(kind: str, k: int | None) -> list[str]:
    return ["--measure", kind] + ([] if k is None else ["--k", str(k)])


def ginibre_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density from a complex Gaussian dim x dim factor."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def pure_density(psi: np.ndarray) -> np.ndarray:
    psi = psi / np.linalg.norm(psi)
    m = np.outer(psi, psi.conj())
    return 0.5 * (m + m.conj().T)


def write_density(path: Path, rho: np.ndarray) -> None:
    data = {
        "dim": int(rho.shape[0]),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }
    path.write_text(json.dumps(data), encoding="utf-8")


# --- verify_sweep ----------------------------------------------------------


def _verify_measures(dim: int) -> list[tuple[str, int | None]]:
    return (
        [("vidal", k) for k in range(2, dim + 1)]
        + [("entropy", None)]
        + [("concurrence", k) for k in range(2, dim + 1)]
        + [("variance", None)]
    )


class VerifySweep:
    item = "trial"

    def make_inputs(self, seed: int, work: Path) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        points = []
        for dim in VERIFY_DIMS:
            for shifts in VERIFY_SHIFTS:
                for kind, k in _verify_measures(dim):
                    chosen = rng.choice(VERIFY_TRIALS, size=VERIFY_CHECKED_TRIALS, replace=False)
                    points.append(
                        {
                            "dim": dim,
                            "shifts": shifts,
                            "kind": kind,
                            "k": k,
                            "trials": VERIFY_TRIALS,
                            "seed": seed,
                            "check_trials": sorted(int(t) for t in chosen),
                            "csv": work / "verify.csv",
                        }
                    )
        return points

    def _argv(self, point: dict, trials: int) -> list[str]:
        return (
            ["verify"]
            + _measure_args(point["kind"], point["k"])
            + ["--dim", str(point["dim"]), "--trials", str(trials), "--seed", str(point["seed"])]
            + [f"--shifts={point['shifts']}", "--csv", str(point["csv"])]
        )

    def ops(self, points: list[dict]) -> list[Op]:
        return [self._op(p) for p in points]

    def _op(self, point: dict) -> Op:
        argv = self._argv(point, point["trials"])

        def check(raw):
            from frameness import cli

            rc, out = raw
            with open(point["csv"], newline="", encoding="utf-8") as fh:
                body = list(csv.reader(fh))[1:]
            rows = [(int(t), float(m), int(c)) for t, m, c in body]
            shifts = tuple(int(s) for s in point["shifts"].split(","))

            def regen(t):
                return cli.sample_trial(point["dim"], shifts, 1, point["seed"], t)

            return checks.check_verify(point, rc, json.loads(out), rows, regen), None

        return Op(lambda: _cli(argv), check, items=point["trials"])

    def warm_up(self, points: list[dict]) -> None:
        _cli(self._argv(points[0], 4))


# --- roof_qubit and roof_full_rank -----------------------------------------


class Roofs:
    item = "roof"

    def __init__(self, regime: str, states, measures, roof_args: list[str]) -> None:
        self.regime = regime
        self.states = states
        self.measures = measures
        self.roof_args = roof_args

    def make_inputs(self, seed: int, work: Path) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        inputs = []
        for i, dim in enumerate(self.states):
            rho = ginibre_density(rng, dim)
            path = work / f"rho{i}.json"
            write_density(path, rho)
            for kind, k in self.measures:
                inputs.append({"rho": rho, "path": path, "kind": kind, "k": k})
        return inputs

    def ops(self, inputs: list[dict]) -> list[Op]:
        return [self._op(x) for x in inputs]

    def _op(self, x: dict) -> Op:
        argv = ["roof"] + _measure_args(x["kind"], x["k"]) + ["--rho", str(x["path"])] + self.roof_args

        def check(raw):
            rc, out = raw
            if rc != 0:
                return [f"exit code {rc}"], None
            data = json.loads(out)
            obs = {
                "value": float(data["value"]),
                "converged": bool(data["converged"]),
                "sweeps": int(data["iterations_used"]),
            }
            return checks.check_roof(x["rho"], x["kind"], x["k"], data, self.regime), obs

        return Op(lambda: _cli(argv), check)

    def warm_up(self, inputs: list[dict]) -> None:
        x = inputs[0]
        _cli(["roof"] + _measure_args(x["kind"], x["k"]) + ["--rho", str(x["path"]), "--restarts", "1", "--max-iters", "1"])


# --- qubit_closed_form -----------------------------------------------------


class QubitClosedForm:
    item = "state"

    def make_inputs(self, seed: int, work: Path) -> list[dict]:
        rng = np.random.default_rng([seed, 3])
        inputs = []
        for i in range(CLOSED_FORM_STATES):
            if i % CLOSED_FORM_RANK1_EVERY == 0:
                psi = rng.normal(size=2) + 1j * rng.normal(size=2)
                inputs.append({"rho": pure_density(psi), "psi": psi})
            else:
                inputs.append({"rho": ginibre_density(rng, 2), "psi": None})
        return inputs

    def ops(self, inputs: list[dict]) -> list[Op]:
        return [self._op(x) for x in inputs]

    @staticmethod
    def _calls(rho: np.ndarray):
        from frameness import monotones

        c = monotones.qubit_concurrence(rho)
        fof = monotones.qubit_fof(rho)
        ens = monotones.optimal_qubit_decomposition(rho)
        return c, fof, ens

    def _op(self, x: dict) -> Op:
        def check(raw):
            c, fof, ens = raw
            members = [(float(p), np.asarray(v, dtype=np.complex128)) for p, v in ens.members]
            return checks.check_closed_form(x["rho"], x["psi"], float(c), float(fof), members), None

        return Op(lambda: self._calls(x["rho"]), check)

    def warm_up(self, inputs: list[dict]) -> None:
        self._calls(inputs[1]["rho"])


WORKLOADS = {
    "verify_sweep": VerifySweep(),
    "roof_qubit": Roofs(
        "qubit",
        states=[2] * QUBIT_STATES,
        measures=[("concurrence", 2), ("variance", None), ("entropy", None)],
        roof_args=QUBIT_ROOF_ARGS,
    ),
    "roof_full_rank": Roofs(
        "full_rank",
        states=FULL_RANK_DIMS,
        measures=[("entropy", None), ("concurrence", 2)],
        roof_args=FULL_RANK_ROOF_ARGS,
    ),
    "qubit_closed_form": QubitClosedForm(),
}
