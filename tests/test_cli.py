import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import frameness
from frameness import (
    BadAngle,
    BadTrialCount,
    InvalidDensity,
    MonotoneId,
    appendix_closed_form,
    qubit_concurrence,
)
from frameness.channels import channel_from_dict, validate_channel
from frameness.cli import (
    VerificationReport,
    main,
    run_verification,
    sample_trial,
    sample_trials,
)
from frameness.states import density_from_dict, density_to_dict, random_density_matrix

RT2_INV = 1.0 / np.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MARGINS = GOLDEN / "verify_margins.csv"
# (golden file, dimension, roof arguments) on a full-rank density seeded by dim.
ROOF_GOLDENS = [
    ("roof_qubit_concurrence2.json", 2, ["--measure", "concurrence", "--k", "2", "--restarts", "2"]),
    ("roof_qubit_variance.json", 2, ["--measure", "variance", "--restarts", "2"]),
    ("roof_qubit_entropy.json", 2, ["--measure", "entropy", "--restarts", "2"]),
    ("roof_d3_entropy.json", 3, ["--measure", "entropy", "--restarts", "1", "--max-iters", "20"]),
]


@pytest.fixture
def plus_file(tmp_path):
    path = tmp_path / "plus.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "sectors": [
                    {"n": 0, "amplitudes": [[RT2_INV, 0.0]]},
                    {"n": 1, "amplitudes": [[RT2_INV, 0.0]]},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def eigenstate_file(tmp_path):
    path = tmp_path / "n0.json"
    path.write_text(json.dumps({"dim": 2, "weights": [1.0, 0.0]}))
    return str(path)


def write_density(tmp_path, rho, name="rho.json"):
    path = tmp_path / name
    path.write_text(json.dumps(density_to_dict(np.asarray(rho, dtype=complex))))
    return str(path)


def test_monotone_variance_plus(capsys, plus_file):
    assert main(["monotone", "--measure", "variance", "--state", plus_file]) == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_monotone_entropy_plus(capsys, plus_file):
    assert main(["monotone", "--measure", "entropy", "--state", plus_file]) == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_monotone_concurrence_eigenstate(capsys, eigenstate_file):
    code = main(
        ["monotone", "--measure", "concurrence", "--k", "2", "--state", eigenstate_file]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.000000000000"


def test_monotone_dim_override(capsys, plus_file):
    assert main(["monotone", "--measure", "concurrence", "--k", "2", "--state", plus_file]) == 0
    two = float(capsys.readouterr().out)
    assert main(
        ["monotone", "--measure", "concurrence", "--k", "2", "--state", plus_file, "--dim", "3"]
    ) == 0
    three = float(capsys.readouterr().out)
    assert two == pytest.approx(1.0, abs=1e-12)
    assert three != two


def test_monotone_missing_k_is_input_error(capsys, plus_file):
    assert main(["monotone", "--measure", "vidal", "--state", plus_file]) == 2
    assert "error:" in capsys.readouterr().err


def test_monotone_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["monotone", "--measure", "entropy", "--state", str(bad)]) == 2
    assert main(["monotone", "--measure", "entropy", "--state", str(tmp_path / "nope.json")]) == 2


def test_monotone_rejects_nan_weight(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"weights": [NaN, 0.5, 0.5]}')
    assert main(["monotone", "--measure", "entropy", "--state", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "weights must be finite" in captured.err


def test_roof_deterministic_bytes(capsys, tmp_path):
    rho = write_density(tmp_path, [[0.6, 0.2], [0.2, 0.4]])
    argv = [
        "roof", "--measure", "concurrence", "--k", "2", "--rho", rho,
        "--ensemble-size", "2", "--restarts", "4", "--seed", "11",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert abs(payload["value"] - qubit_concurrence(np.array([[0.6, 0.2], [0.2, 0.4]]))) < 1e-3
    assert payload["converged"] is True
    assert not payload["gapped_support"]
    total = sum(m["p"] for m in payload["ensemble"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_roof_rank_one_exact(capsys, tmp_path):
    rho = write_density(tmp_path, [[0.5, 0.5], [0.5, 0.5]])
    assert main(["roof", "--measure", "variance", "--rho", rho, "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)
    assert payload["iterations_used"] == 0


def test_roof_invalid_density(capsys, tmp_path):
    rho = write_density(tmp_path, [[0.9, 0.0], [0.0, 0.9]])
    assert main(["roof", "--measure", "variance", "--rho", rho]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize("verb", ["roof", "twirl"])
def test_density_rejects_non_finite_entries(capsys, tmp_path, verb, bad):
    path = tmp_path / "rho.json"
    path.write_text(f'{{"dim": 2, "matrix": [[[{bad}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}}')
    if verb == "roof":
        argv = ["roof", "--measure", "entropy", "--rho", str(path)]
    else:
        argv = ["twirl", "--in", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "density matrix has non-finite entries" in captured.err


ZERO = [0.0, 0.0]
# (case, density dictionary, text naming the fault)
MALFORMED_DENSITIES = [
    ("no-dim", {"matrix": [[[1.0, 0.0], ZERO], [ZERO, ZERO]]}, "needs a 'dim' key"),
    ("no-matrix", {"dim": 2}, "needs a 'matrix' key"),
    ("dim-not-integer", {"dim": "two", "matrix": []}, "dim 'two' is not an integer"),
    ("dim-fractional", {"dim": 2.5, "matrix": []}, "dim 2.5 is not an integer"),
    ("dim-infinite", {"dim": float("inf"), "matrix": []}, "dim inf is not an integer"),
    ("matrix-not-rows", {"dim": 2, "matrix": [0.5, 0.5]}, "matrix must be a list of rows"),
    ("ragged-rows", {"dim": 2, "matrix": [[[1.0, 0.0], ZERO], [ZERO]]}, "rows differ in length"),
    ("one-number", {"dim": 2, "matrix": [[[1.0], ZERO], [ZERO, ZERO]]}, "entry [1.0] is not a [re, im] pair"),
    ("non-numeric", {"dim": 2, "matrix": [[["a", 0.0], ZERO], [ZERO, ZERO]]}, "entry ['a', 0.0] is not a [re, im] pair"),
]


@pytest.mark.parametrize(
    "verb, data, fault",
    [
        pytest.param(verb, data, fault, id=f"{verb}-{case}")
        for case, data, fault in MALFORMED_DENSITIES
        for verb in ("roof", "twirl")
        # twirl reads a file without a "matrix" key as a pure state
        if verb == "roof" or "matrix" in data
    ],
)
def test_malformed_density_is_typed(capsys, tmp_path, verb, data, fault):
    with pytest.raises(InvalidDensity, match=re.escape(fault)):
        density_from_dict(data)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(data))
    if verb == "roof":
        argv = ["roof", "--measure", "entropy", "--rho", str(path)]
    else:
        argv = ["twirl", "--in", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert fault in captured.err


@pytest.mark.parametrize("verb", ["roof", "twirl"])
def test_density_file_is_diagonalized_once(monkeypatch, capsys, tmp_path, verb):
    path = write_density(tmp_path, random_density_matrix(3, np.random.default_rng(5)))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    if verb == "roof":
        argv = ["roof", "--measure", "entropy", "--rho", path, "--restarts", "1", "--max-iters", "2"]
    else:
        argv = ["twirl", "--in", path]
    assert main(argv) == 0
    assert len(calls) == 1


def test_package_exports_are_defined_once():
    names = frameness.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(frameness, n)] == []


def test_verify_reports_clean_run(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code = main(
        [
            "verify", "--measure", "vidal", "--k", "2", "--dim", "3",
            "--trials", "40", "--seed", "5", "--shifts=-1,0,1",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert payload["trials"] == 40
    assert payload["measure"] == {"kind": "vidal", "k": 2}
    assert payload["runtime_ms"] > 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,margin,p_count"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == 3


def test_verify_exit_one_on_violations(monkeypatch, capsys):
    fake_report = VerificationReport(
        measure=MonotoneId("vidal", 2),
        dim=2,
        trials=1,
        seed=0,
        violations=3,
        worst_margin=-0.5,
        runtime_ms=1.0,
    )
    monkeypatch.setattr(
        "frameness.cli.run_verification", lambda **kw: (fake_report, [(0, -0.5, 1)])
    )
    code = main(
        ["verify", "--measure", "vidal", "--k", "2", "--dim", "2", "--shifts=0"]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["violations"] == 3


def test_verify_trials_independent_of_measure():
    shifts = (-1, 0, 1)
    _, vidal_rows = run_verification(MonotoneId("vidal", 2), 4, 12, 9, shifts)
    _, entropy_rows = run_verification(MonotoneId("entropy"), 4, 12, 9, shifts)
    assert [c for _, _, c in vidal_rows] == [c for _, _, c in entropy_rows]
    assert [m for _, m, _ in vidal_rows] != [m for _, m, _ in entropy_rows]


@pytest.mark.parametrize("dim, shifts, kraus_per_shift", [(3, (-1, 0, 1), 1), (4, (-2, 0, 1), 2)])
def test_batched_sampler_rows_match_sample_trial(dim, shifts, kraus_per_shift):
    weights, slot_shifts, coeffs = sample_trials(dim, shifts, kraus_per_shift, 9, range(6))
    for trial in range(6):
        state, channel = sample_trial(dim, shifts, kraus_per_shift, 9, trial)
        assert np.array_equal(weights[trial], state.weights)
        kraus = list(channel.all_kraus())
        assert [k.shift for k in kraus] == list(slot_shifts)
        for k, row in zip(kraus, coeffs[trial]):
            assert k.coeffs == {n: complex(row[n]) for n in np.flatnonzero(row)}


def test_run_verification_matches_golden_margins():
    """Margins equal, bit for bit, those captured from an earlier implementation.

    The CSV holds dims 2, 3, 4 and 6, shift sets (-1, 0, 1) and (0, 2), every
    measure valid for each dim, seed 11 and 10 trials, with ``repr(margin)``.
    """
    with open(GOLDEN_MARGINS, newline="", encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    combos = {}
    for row in golden:
        key = (int(row["dim"]), row["shifts"], row["kind"], row["k"])
        combos.setdefault(key, []).append((int(row["trial"]), row["margin"], int(row["p_count"])))
    assert len(combos) == 60
    for (dim, shifts, kind, k), expected in combos.items():
        shift_tuple = tuple(int(s) for s in shifts.split())
        measure = MonotoneId(kind, int(k) if k else None)
        _, rows = run_verification(measure, dim, trials=10, seed=11, shifts=shift_tuple)
        assert [(t, repr(m), c) for t, m, c in rows] == expected, (dim, shifts, kind, k)


def test_run_verification_matches_wide_golden_margins():
    """Margins equal, bit for bit, those captured from the one-trial-at-a-time code.

    The CSV holds dims 8 and 12 with shifts (-1, 0, 1), and dim 4 with shifts
    (-2, 0, 1) and two Kraus operators per shift; every measure valid for
    each dim, seed 11 and 10 trials, with ``repr(margin)``.
    """
    with open(GOLDEN / "verify_margins_wide.csv", newline="", encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    combos = {}
    for row in golden:
        key = (int(row["dim"]), row["shifts"], int(row["kraus_per_shift"]), row["kind"], row["k"])
        combos.setdefault(key, []).append((int(row["trial"]), row["margin"], int(row["p_count"])))
    assert len(combos) == 48
    for (dim, shifts, kraus_per_shift, kind, k), expected in combos.items():
        measure = MonotoneId(kind, int(k) if k else None)
        _, rows = run_verification(
            measure,
            dim,
            trials=10,
            seed=11,
            shifts=tuple(int(s) for s in shifts.split()),
            kraus_per_shift=kraus_per_shift,
        )
        assert [(t, repr(m), c) for t, m, c in rows] == expected, (dim, shifts, kind, k)


@pytest.mark.parametrize("elements, sizes", [(60, [4, 4, 3]), (1, [1] * 11)])
def test_run_verification_batch_size_invariant(monkeypatch, elements, sizes):
    # 3 slots x dim 5: a budget of 60 entries makes batches of 4 trials,
    # a budget below one trial's 15 entries makes batches of 1.
    measure = MonotoneId("concurrence", 3)
    _, whole = run_verification(measure, 5, 11, 4, (-1, 0, 2))
    monkeypatch.setattr("frameness.cli.VERIFY_ELEMENTS", elements)
    batches = []

    def recording(*args):
        batches.append(len(args[-1]))
        return sample_trials(*args)

    monkeypatch.setattr("frameness.cli.sample_trials", recording)
    _, pieces = run_verification(measure, 5, 11, 4, (-1, 0, 2))
    assert pieces == whole
    assert batches == sizes


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(capsys, trials):
    code = main(
        [
            "verify", "--measure", "vidal", "--k", "2", "--dim", "3",
            "--trials", trials, "--shifts=-1,0,1",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"trials must be at least 1, got {trials}" in captured.err
    with pytest.raises(BadTrialCount):
        run_verification(MonotoneId("vidal", 2), 3, int(trials), 0, (-1, 0, 1))


def test_verify_rejects_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--measure", "entropy", "--dim", "2", "--shifts=0", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_channel_sample_deterministic(capsys):
    argv = ["channel", "sample", "--dim", "4", "--shifts=-1,0,1", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    channel = channel_from_dict(json.loads(first))
    report = validate_channel(channel)
    assert report.trace_preserving
    assert np.max(np.abs(report.per_sector_sums - 1.0)) < 1e-12


def test_channel_sample_matches_golden_bytes(capsys):
    argv = [
        "channel", "sample", "--dim", "5", "--shifts=-1,0,1",
        "--kraus-per-shift", "2", "--seed", "3",
    ]
    assert main(argv) == 0
    expected = (GOLDEN / "channel_sample_d5.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name, dim, args", ROOF_GOLDENS)
def test_roof_matches_golden_bytes(capsys, tmp_path, name, dim, args):
    """``roof`` output equals, byte for byte, a capture from the code that
    validated and diagonalized each density several times."""
    path = write_density(tmp_path, random_density_matrix(dim, np.random.default_rng([29, dim])))
    assert main(["roof", "--rho", path, "--seed", "1", *args]) == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_channel_sample_check_prints_sums(capsys):
    code = main(
        ["channel", "sample", "--dim", "3", "--shifts=0,2", "--seed", "1", "--check"]
    )
    assert code == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    sums = captured.err.strip().splitlines()
    assert len(sums) == 3
    for line in sums:
        value = float(line.split()[-1])
        assert abs(value - 1.0) < 1e-12


def test_twirl_pure_input(capsys, plus_file):
    assert main(["twirl", "--in", plus_file]) == 0
    rho = density_from_dict(json.loads(capsys.readouterr().out))
    assert np.max(np.abs(rho - np.diag([0.5, 0.5]))) < 1e-12


def test_twirl_idempotent_bytes(capsys, tmp_path):
    rho = write_density(tmp_path, [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    assert main(["twirl", "--in", rho]) == 0
    once = capsys.readouterr().out
    again_path = tmp_path / "twirled.json"
    again_path.write_text(once)
    assert main(["twirl", "--in", str(again_path)]) == 0
    assert capsys.readouterr().out == once
    assert json.loads(once)["matrix"][0][1] == [0.0, 0.0]


def test_appendix_values(capsys):
    assert main(["appendix", "--p", "0.25", "--alpha", str(np.pi / 2)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu1"] == pytest.approx(0.75, abs=1e-12)
    assert payload["mu2"] == pytest.approx(0.25, abs=1e-12)
    assert payload["concurrence"] == pytest.approx(0.5, abs=1e-12)
    assert payload["fof"] == pytest.approx(0.25, abs=1e-12)
    rho = density_from_dict(payload["rho"])
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_appendix_rejects_bad_probability(capsys):
    assert main(["appendix", "--p", "1.5", "--alpha", "0.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_appendix_rejects_non_finite_alpha(capsys):
    for alpha in ("nan", "inf"):
        assert main(["appendix", "--p", "0.2", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
    with pytest.raises(BadAngle):
        appendix_closed_form(0.2, float("nan"))
