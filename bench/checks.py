"""Reference computations and output checks, written apart from the package.

Nothing here imports ``frameness``. Every check takes the inputs a workload
generated and the outputs the package returned, and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

# Outcomes below this probability are dropped by the program; the count of
# kept outcomes is compared exactly, so the benchmark uses the same floor.
PROB_FLOOR = 1e-12

MARGIN_TOL = 1e-12
RECONSTRUCT_TOL = 1e-9
VALUE_TOL = 1e-12
QUBIT_ROOF_TOL = {"concurrence": 1e-3, "variance": 2e-3, "entropy": 1e-3}
UPPER_BOUND_TOL = 1e-9
LOWER_BOUND_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
FOF_TOL = 1e-12
MEMBER_TOL = 1e-9

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


# --- pure-state monotones on weight vectors -------------------------------


def tail_sum(w: np.ndarray, k: int) -> float:
    """Sum of the descending weights from position k (1-based) onward."""
    return float(np.sort(w)[: w.size - k + 1].sum())


def shannon_bits(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def concurrence(w: np.ndarray, k: int) -> float:
    """(e_k(w) / e_k(flat))^(1/k), with e_k read off numpy.poly."""
    d = w.size
    e_k = float(np.real(np.poly(-w)[k]))
    ratio = e_k / (math.comb(d, k) / d**k)
    return min(ratio, 1.0) ** (1.0 / k)


def variance4(w: np.ndarray) -> float:
    n = np.arange(w.size)
    mean = float(w @ n)
    return 4.0 * float(w @ (n - mean) ** 2)


def monotone(kind: str, k: int | None):
    """Reference evaluator for one monotone, as a function of the weights."""
    if kind == "vidal":
        return lambda w: tail_sum(w, k)
    if kind == "entropy":
        return shannon_bits
    if kind == "concurrence":
        return lambda w: concurrence(w, k)
    if kind == "variance":
        return variance4
    raise ValueError(f"unknown monotone kind {kind!r}")


# --- verify ----------------------------------------------------------------


def dense_kraus(kraus, dim: int) -> np.ndarray:
    """Dense matrix of one charge-shifting Kraus operator from its coefficient map."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    for n, c in kraus.coeffs.items():
        if c != 0:
            m[n + kraus.shift, n] = c
    return m


def trial_margin(weights: np.ndarray, channel, dim: int, f) -> tuple[float, int]:
    """Monotone margin f(psi) - sum_i p_i f(psi_i) and the number of outcomes kept."""
    psi = np.sqrt(weights).astype(np.complex128)
    after = 0.0
    kept = 0
    for group in channel.outcomes:
        for kraus in group:
            out = dense_kraus(kraus, dim) @ psi
            amps = np.abs(out) ** 2
            p = float(amps.sum())
            if p > PROB_FLOOR:
                after += p * f(amps / p)
                kept += 1
    return f(weights) - after, kept


def check_verify(point: dict, rc: int, report: dict, rows: list, regen) -> list[str]:
    """Check one ``verify`` call.

    ``point`` holds dim, shifts, kind, k, trials, seed and the trial indices
    to recompute; ``rows`` are the CSV rows (trial, margin, p_count);
    ``regen(trial)`` regenerates that trial's (state, channel) pair.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report.get("violations") != 0:
        problems.append(f"violations = {report.get('violations')}")
    if len(rows) != point["trials"] or [r[0] for r in rows] != list(range(point["trials"])):
        problems.append(f"CSV holds {len(rows)} rows, expected trials 0..{point['trials'] - 1}")
        return problems
    worst = min(r[1] for r in rows)
    if report.get("worst_margin") != worst:
        problems.append(f"worst_margin {report.get('worst_margin')!r} != CSV minimum {worst!r}")
    f = monotone(point["kind"], point["k"])
    for t in point["check_trials"]:
        state, channel = regen(t)
        margin, kept = trial_margin(np.asarray(state.weights, dtype=float), channel, point["dim"], f)
        if abs(margin - rows[t][1]) > MARGIN_TOL:
            problems.append(f"trial {t}: margin {rows[t][1]!r} != reference {margin!r}")
        if kept != rows[t][2]:
            problems.append(f"trial {t}: p_count {rows[t][2]} != reference {kept}")
    return problems


# --- densities, concurrence and roofs --------------------------------------


def binary_entropy(x: float) -> float:
    return shannon_bits(np.array([x, 1.0 - x]))


def von_neumann_bits(rho: np.ndarray) -> float:
    return shannon_bits(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


def qubit_concurrence_eig(rho: np.ndarray) -> float:
    """|mu1 - mu2| with mu the square roots of the eigenvalues of rho X rho* X."""
    ev = np.linalg.eigvals(rho @ _FLIP @ rho.conj() @ _FLIP)
    mu = np.sqrt(np.sort(np.clip(ev.real, 0.0, None))[::-1])
    return float(abs(mu[0] - mu[1]))


def pure_qubit_concurrence(psi: np.ndarray) -> float:
    return float(2.0 * abs(psi[0]) * abs(psi[1]))


def mixture(members) -> np.ndarray:
    return sum(p * np.outer(v, v.conj()) for p, v in members)


def check_ensemble(rho: np.ndarray, members) -> list[str]:
    """The members (p, normalized vector) must average back to rho."""
    if not members:
        return ["empty ensemble"]
    err = float(np.max(np.abs(mixture(members) - rho)))
    if err > RECONSTRUCT_TOL:
        return [f"ensemble reconstructs rho only within {err:.3e}"]
    return []


def eig_average(rho: np.ndarray, f) -> float:
    """Average of the pure monotone over the eigendecomposition of rho."""
    lam, vecs = np.linalg.eigh(rho)
    return float(
        sum(l * f(np.abs(vecs[:, j]) ** 2) for j, l in enumerate(lam) if l > PROB_FLOOR)
    )


def g_asymmetry_bits(rho: np.ndarray) -> float:
    """S(Delta rho) - S(rho): a convex lower bound on the weight-entropy roof."""
    return shannon_bits(np.clip(np.diag(rho).real, 0.0, None)) - von_neumann_bits(rho)


def check_roof(rho: np.ndarray, kind: str, k: int | None, out: dict, regime: str) -> list[str]:
    """Check one ``roof`` output; ``regime`` is ``"qubit"`` or ``"full_rank"``."""
    f = monotone(kind, k)
    members = [
        (float(m["p"]), np.array([complex(re, im) for re, im in m["state"]]))
        for m in out["ensemble"]
    ]
    value = float(out["value"])
    problems = check_ensemble(rho, members)
    again = sum(p * f(np.abs(v) ** 2) for p, v in members)
    if abs(value - again) > VALUE_TOL:
        problems.append(f"value {value!r} != re-evaluation {again!r}")
    if regime == "qubit":
        c = qubit_concurrence_eig(rho)
        target = {
            "concurrence": c,
            "variance": c * c,
            "entropy": binary_entropy((1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0),
        }[kind]
        if abs(value - target) > QUBIT_ROOF_TOL[kind]:
            problems.append(f"{kind} roof {value!r} vs closed form {target!r}")
    else:
        upper = eig_average(rho, f)
        if value > upper + UPPER_BOUND_TOL:
            problems.append(f"roof {value!r} above the eigendecomposition average {upper!r}")
        if kind == "entropy":
            lower = g_asymmetry_bits(rho)
            if value < lower - LOWER_BOUND_TOL:
                problems.append(f"entropy roof {value!r} below S(Delta rho) - S(rho) = {lower!r}")
    return problems


def check_closed_form(rho: np.ndarray, psi: np.ndarray | None, c: float, fof: float, members) -> list[str]:
    """Check the qubit closed forms on one state.

    ``psi`` is the generating vector of a rank-1 state, ``None`` for a
    full-rank one; ``members`` is the decomposition as (p, vector) pairs.
    """
    problems = []
    ref = pure_qubit_concurrence(psi / np.linalg.norm(psi)) if psi is not None else qubit_concurrence_eig(rho)
    if abs(c - ref) > CLOSED_FORM_TOL:
        problems.append(f"concurrence {c!r} vs reference {ref!r}")
    if abs(fof - c * c) > FOF_TOL:
        problems.append(f"fof {fof!r} != concurrence^2 {c * c!r}")
    problems += check_ensemble(rho, members)
    for i, (_, v) in enumerate(members):
        cm = pure_qubit_concurrence(v)
        if abs(cm - ref) > MEMBER_TOL:
            problems.append(f"member {i} has concurrence {cm!r}, expected {ref!r}")
    return problems
