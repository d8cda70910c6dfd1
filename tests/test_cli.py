import argparse
import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frameness
from frameness import (
    BadMonotone,
    BadParameter,
    InvalidChannel,
    InvalidDensity,
    InvalidState,
    MonotoneId,
    RoofConfig,
    appendix_closed_form,
    convex_roof,
    qubit_concurrence,
    qubit_formation,
    random_channel,
)
from frameness import channels, cli, numerics
from frameness.channels import (
    _slot_layout,
    channel_from_dict,
    coefficient_draws,
    sample_coefficients,
    validate_channel,
)
from frameness.cli import (
    MAX_TRIALS,
    VerificationReport,
    main,
    run_verification,
    sample_trial,
    sample_trials,
)
from frameness.numerics import seeded_normals
from frameness.states import (
    density_from_dict,
    density_to_dict,
    random_density_matrix,
    random_weights,
)
from test_states import density_payloads, state_payloads

RT2_INV = 1.0 / np.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MARGINS = GOLDEN / "verify_margins.csv"
# (golden file, dimension, roof arguments) on a full-rank density seeded by dim.
ROOF_GOLDENS = [
    ("roof_qubit_concurrence2.json", 2, ["--measure", "concurrence", "--k", "2", "--restarts", "2"]),
    ("roof_qubit_variance.json", 2, ["--measure", "variance", "--restarts", "2"]),
    ("roof_qubit_entropy.json", 2, ["--measure", "entropy", "--restarts", "2"]),
    ("roof_d3_entropy.json", 3, ["--measure", "entropy", "--restarts", "1", "--max-iters", "20"]),
    (
        "roof_d4_concurrence2.json",
        4,
        ["--measure", "concurrence", "--k", "2", "--restarts", "1", "--max-iters", "200"],
    ),
    (
        "roof_d3_variance_restarts32.json",
        3,
        ["--measure", "variance", "--restarts", "32", "--max-iters", "20"],
    ),
    (
        "roof_qubit_concurrence2_restarts8.json",
        2,
        ["--measure", "concurrence", "--k", "2", "--restarts", "8"],
    ),
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
    # Down to the length of the state again: the weight cut off is zero, or
    # at most ZERO_TOL, which `spectrum` counts as empty too.
    padded = Path(plus_file).with_name("padded.json")
    argv = ["monotone", "--measure", "concurrence", "--k", "2", "--state", str(padded), "--dim", "2"]
    for weights in ([0.5, 0.5, 0.0], [0.5, 0.49999999999999999, 1e-17]):
        padded.write_text(json.dumps({"weights": weights}))
        assert main(argv) == 0
        assert float(capsys.readouterr().out) == two
    padded.write_text(json.dumps({"weights": [0.5, 0.5 - 2e-12, 2e-12]}))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: cannot restrict to dimension 2: weight above it\n")


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


LONG_TEXT = "x" * 100000
SHOWN_TEXT = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
# (case, state file contents, error text), read by monotone and twirl.
MALFORMED_STATES = [
    ("not-json", b"{not json", "is not a JSON file: Expecting property name"),
    ("not-utf8", b"\xff{}", "is not a JSON file: 'utf-8' codec can't decode byte 0xff"),
    ("too-deep", b"[" * 100_000, "is not a JSON file: maximum recursion depth exceeded"),
    ("list", b"[0.5, 0.5]", "holds a JSON list, not an object"),
    ("no-key", b'{"foo": 1}', "state dictionary needs a 'sectors' or 'weights' key"),
    ("no-dim", b'{"sectors": [{"n": 0, "amplitudes": [[1, 0]]}]}', "state dictionary needs a 'dim' key"),
    ("dim-fractional", b'{"dim": 2.9, "sectors": [{"n": 1, "amplitudes": [[1, 0]]}]}', "dimension must be an integer, got 2.9"),
    ("n-fractional", b'{"dim": 2, "sectors": [{"n": 1.7, "amplitudes": [[1, 0]]}]}', "sector must be an integer, got 1.7"),
    ("no-n", b'{"dim": 2, "sectors": [{"amplitudes": [[1, 0]]}]}', "each sector needs an integer 'n'"),
    ("amplitude-text", b'{"dim": 1, "sectors": [{"n": 0, "amplitudes": [["a", 0]]}]}', "entry ['a', 0] is not a [re, im] pair of numbers"),
    ("weight-text", b'{"weights": ["a", 1]}', "weight must be a number, got 'a'"),
    ("weight-overflow", b'{"weights": [1' + b"0" * 400 + b"]}", "weight out of float range"),
    # Each of these loaded before: as dim 1, sector 1, amplitude 1+0j and weights 0.5.
    ("dim-bool", b'{"dim": true, "sectors": [{"n": 0, "amplitudes": [[1, 0]]}]}', "dimension must be an integer, got True"),
    ("n-bool", b'{"dim": 2, "sectors": [{"n": true, "amplitudes": [[1, 0]]}]}', "sector must be an integer, got True"),
    ("amplitude-string", b'{"dim": 1, "sectors": [{"n": 0, "amplitudes": [["1", "0"]]}]}', "entry ['1', '0'] is not a [re, im] pair of numbers"),
    ("weight-string", b'{"weights": ["0.5", "0.5"]}', "weight must be a number, got '0.5'"),
    # Loaded before as weights [1.0]: the repeated sector kept its last block.
    (
        "sector-repeated",
        b'{"dim": 1, "sectors": [{"n": 0, "amplitudes": [[0.6, 0]]}, {"n": 0, "amplitudes": [[1, 0]]}]}',
        "sector 0 is given twice",
    ),
    # Each of these loaded before as a dim-2 state: a dim next to weights was not read.
    ("weights-dim-mismatch", b'{"dim": 3, "weights": [0.5, 0.5]}', "dimension 3 does not match the 2 weights"),
    ("weights-dim-text", b'{"dim": "x", "weights": [0.5, 0.5]}', "dimension must be an integer, got 'x'"),
    # Each of these once echoed the whole value, on an error line of 4,038 to 100,055 bytes.
    ("dim-long", json.dumps({"dim": LONG_TEXT, "sectors": [{"n": 0, "amplitudes": [[1, 0]]}]}).encode(), f"dimension must be an integer, got {SHOWN_TEXT}"),
    ("weight-long", json.dumps({"weights": [LONG_TEXT, 0.5]}).encode(), f"weight must be a number, got {SHOWN_TEXT}"),
    ("n-long", json.dumps({"dim": 2, "sectors": [{"n": LONG_TEXT, "amplitudes": [[1, 0]]}]}).encode(), f"sector must be an integer, got {SHOWN_TEXT}"),
    ("n-4000-digits", json.dumps({"dim": 2, "sectors": [{"n": int("1" * 4000), "amplitudes": [[1, 0]]}]}).encode(), f"sector must be at most 1, got {'1' * 18}...{'1' * 19}"),
    ("amplitude-long", json.dumps({"dim": 1, "sectors": [{"n": 0, "amplitudes": [[LONG_TEXT, 0]]}]}).encode(), f"entry [{SHOWN_TEXT}, 0] is not a [re, im] pair of numbers"),
    ("weights-dim-long", json.dumps({"dim": LONG_TEXT, "weights": [0.5, 0.5]}).encode(), f"dimension must be an integer, got {SHOWN_TEXT}"),
]


@pytest.mark.parametrize(
    "verb, contents, fault",
    [
        pytest.param(verb, contents, fault, id=f"{verb}-{case}")
        for case, contents, fault in MALFORMED_STATES
        for verb in ("monotone", "twirl")
        # twirl reads a file that is not a JSON object as a density
        if verb == "monotone" or contents.startswith(b"{\"")
    ],
)
def test_malformed_state_file_is_typed(capsys, tmp_path, verb, contents, fault):
    path = tmp_path / "state.json"
    path.write_bytes(contents)
    if verb == "monotone":
        argv = ["monotone", "--measure", "entropy", "--state", str(path)]
    else:
        argv = ["twirl", "--in", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert fault in captured.err
    assert len(captured.err.replace(str(path), "")) < 200


def test_main_lets_package_bugs_propagate(monkeypatch):
    def broken(**kwargs):
        raise TypeError("a bug in the package")

    monkeypatch.setattr("frameness.cli.run_verification", broken)
    with pytest.raises(TypeError, match="a bug in the package"):
        main(["verify", "--measure", "entropy", "--dim", "3", "--shifts=-1,0,1"])


@pytest.mark.parametrize(
    "argv, code",
    [
        (["appendix", "--p", "0.25", "--alpha", "0"], 0),
        (["verify", "--measure", "entropy", "--dim", "0", "--shifts=-1,0,1"], 2),
    ],
    ids=["appendix", "verify-dim-0"],
)
def test_entry_exits_with_the_code_of_main(monkeypatch, argv, code):
    # The console script: entry() reads sys.argv and exits with main's return value.
    monkeypatch.setattr(sys, "argv", ["frameness", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == code


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
    ("dim-not-integer", {"dim": "two", "matrix": []}, "dimension must be an integer, got 'two'"),
    ("dim-fractional", {"dim": 2.5, "matrix": []}, "dimension must be an integer, got 2.5"),
    ("dim-infinite", {"dim": float("inf"), "matrix": []}, "dimension must be an integer, got inf"),
    ("matrix-not-rows", {"dim": 2, "matrix": [0.5, 0.5]}, "matrix must be a list of rows"),
    ("ragged-rows", {"dim": 2, "matrix": [[[1.0, 0.0], ZERO], [ZERO]]}, "rows differ in length"),
    ("one-number", {"dim": 2, "matrix": [[[1.0], ZERO], [ZERO, ZERO]]}, "entry [1.0] is not a [re, im] pair"),
    ("non-numeric", {"dim": 2, "matrix": [[["a", 0.0], ZERO], [ZERO, ZERO]]}, "entry ['a', 0.0] is not a [re, im] pair"),
    ("entry-overflow", {"dim": 1, "matrix": [[[10**400, 0.0]]]}, "0, 0.0] is not a [re, im] pair"),
    # Each of these loaded before: as dim 1 and as the entry 0.5.
    ("dim-bool", {"dim": True, "matrix": [[[1.0, 0.0]]]}, "dimension must be an integer, got True"),
    ("entry-string", {"dim": 2, "matrix": [[["0.5", "0"], ZERO], [ZERO, [0.5, 0.0]]]}, "entry ['0.5', '0'] is not a [re, im] pair of numbers"),
    ("wrong-size", {"dim": 2, "matrix": [[[1.0, 0.0]]]}, "matrix shape (1, 1) does not match dim 2"),
    # Each of these once echoed the whole value, on an error line of about 100,050 bytes.
    ("dim-long", {"dim": LONG_TEXT, "matrix": [[[1.0, 0.0]]]}, f"dimension must be an integer, got {SHOWN_TEXT}"),
    ("entry-long", {"dim": 2, "matrix": [[[LONG_TEXT, 0.0], ZERO], [ZERO, [0.5, 0.0]]]}, f"entry [{SHOWN_TEXT}, 0.0] is not a [re, im] pair of numbers"),
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
    assert len(captured.err.replace(str(path), "")) < 200


@pytest.mark.parametrize("verb", ["roof", "twirl"])
def test_density_file_is_diagonalized_once(monkeypatch, capsys, tmp_path, verb):
    path = write_density(tmp_path, random_density_matrix(3, np.random.default_rng(5)))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # An earlier test may have left this matrix in the density check's memo.
    numerics._density_spectrum.cache_clear()
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


def test_package_exports_every_public_import():
    # validate_channel was imported but missing from __all__.
    tree = ast.parse(Path(frameness.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(frameness.__all__) == sorted(n for n in imported if not n.startswith("_"))


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


VERIFY_ARGV = ["verify", "--measure", "entropy", "--dim", "4", "--trials", "30", "--seed", "7", "--shifts=-1,0,1"]


def _csv_writer_bytes(rows) -> bytes:
    """The bytes the standard library's ``csv.writer`` writes for the verify rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["trial", "margin", "p_count"])
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "before", [None, b"x" * 100_000, b"trial,margin\r\n"], ids=["fresh", "longer", "shorter"]
)
def test_verify_csv_equals_csv_writer_bytes(capsys, tmp_path, before):
    path = tmp_path / "rows.csv"
    if before is not None:
        path.write_bytes(before)
        path.chmod(0o600)
        old = path.stat()
    assert main(VERIFY_ARGV + ["--csv", str(path)]) == 0
    _, rows = run_verification(MonotoneId("entropy"), 4, 30, 7, (-1, 0, 1))
    assert path.read_bytes() == _csv_writer_bytes(rows)
    capsys.readouterr()
    if before is not None:
        # Rewritten in place: the same file, cut to the new length.
        new = path.stat()
        assert (new.st_ino, new.st_mode) == (old.st_ino, old.st_mode)


def test_verify_csv_formats_every_float_as_csv_writer(monkeypatch, capsys, tmp_path):
    rows = [(0, -0.0, 1), (1, math.nan, 0), (2, math.inf, 3), (3, 5e-324, 2), (10**20, -1.5e300, 7)]
    report = VerificationReport(MonotoneId("entropy"), 2, len(rows), 0, 0, 0.0, 1.0)
    monkeypatch.setattr("frameness.cli.run_verification", lambda **kw: (report, rows))
    path = tmp_path / "rows.csv"
    assert main(["verify", "--measure", "entropy", "--dim", "2", "--shifts=0", "--csv", str(path)]) == 0
    assert path.read_bytes() == _csv_writer_bytes(rows)
    capsys.readouterr()


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null and named pipes")
def test_verify_csv_to_device_or_pipe_is_not_truncated(capsys, tmp_path):
    assert main(VERIFY_ARGV + ["--csv", os.devnull]) == 0
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(VERIFY_ARGV + ["--csv", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    _, rows = run_verification(MonotoneId("entropy"), 4, 30, 7, (-1, 0, 1))
    assert received == [_csv_writer_bytes(rows)]
    capsys.readouterr()


def test_verify_csv_into_missing_directory_exits_2(capsys, tmp_path):
    assert main(VERIFY_ARGV + ["--csv", str(tmp_path / "missing" / "rows.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_report_dict_equals_asdict():
    report, _ = run_verification(MonotoneId("vidal", 2), 3, 5, 1, (-1, 0, 1))
    assert report.to_dict() == dataclasses.asdict(report)
    assert report.to_dict()["measure"] is not vars(report.measure)


def test_verify_trials_independent_of_measure():
    shifts = (-1, 0, 1)
    _, vidal_rows = run_verification(MonotoneId("vidal", 2), 4, 12, 9, shifts)
    _, entropy_rows = run_verification(MonotoneId("entropy"), 4, 12, 9, shifts)
    assert [c for _, _, c in vidal_rows] == [c for _, _, c in entropy_rows]
    assert [m for _, m, _ in vidal_rows] != [m for _, m, _ in entropy_rows]


@pytest.mark.parametrize("dim, shifts, kraus_per_shift", [(3, (-1, 0, 1), 1), (4, (-2, 0, 1), 2)])
def test_batched_sampler_rows_match_sample_trial(dim, shifts, kraus_per_shift):
    layout = _slot_layout(dim, shifts, kraus_per_shift)
    weights, coeffs = sample_trials(layout, 9, range(6))
    for trial in range(6):
        state, channel = sample_trial(dim, shifts, kraus_per_shift, 9, trial)
        assert np.array_equal(weights[trial], state.weights)
        kraus = list(channel.all_kraus())
        assert [k.shift for k in kraus] == list(layout[0])
        for k, row in zip(kraus, coeffs[trial]):
            assert k.coeffs == {n: complex(row[n]) for n in np.flatnonzero(row)}


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize(
    "trials", [range(3), range(2**32 - 3, 2**32), range(7, 0, -2), range(2**32 - 1, 2**32 - 8, -3)]
)
def test_sampler_rows_match_default_rng_streams(seed, trials):
    """Rows equal the draws of generators seeded by ``[seed, t, k]``, built here.

    Seeds from 2**32 on are two or more SeedSequence entropy words; a trial
    is always one, and the ranges at the top of that word, ascending and
    reversed with a step, pin its upper end.
    """
    dim, shifts, kraus_per_shift = 3, (-1, 0, 1), 2
    layout = _slot_layout(dim, shifts, kraus_per_shift)
    weights, coeffs = sample_trials(layout, seed, trials)
    size = coefficient_draws(layout)
    state_draws = np.array([np.random.default_rng([seed, t, 0]).normal(size=2 * dim) for t in trials])
    channel_draws = np.array([np.random.default_rng([seed, t, 1]).normal(size=size) for t in trials])
    draws = seeded_normals(seed, trials, (2 * dim, size))
    assert np.array_equal(draws[0], state_draws)
    assert np.array_equal(draws[1], channel_draws)
    assert np.array_equal(weights, random_weights(dim, state_draws))
    assert np.array_equal(coeffs, sample_coefficients(layout, channel_draws))


def fresh_normals(seed, trials, sizes):
    """The draws ``seeded_normals`` promises, from generators built here."""
    return [
        np.array([np.random.default_rng([seed, t, k]).normal(size=n) for t in trials]).reshape(len(trials), n)
        for k, n in enumerate(sizes)
    ]


# Ascending requests: k = 0 grows alone, then both, and the last adds a third k.
TAPE_SIZES = [(0, 1), (1, 2), (3, 2), (3, 5), (8, 11), (8, 11, 6)]


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_tape_serves_default_rng_prefixes(monkeypatch, order):
    """Every request equals fresh draws, whether the kept draws grow, serve a prefix or are replaced.

    Ascending requests go key by key and grow the kept draws, descending
    ones are served as their prefixes. Interleaved requests cycle the two
    seeds and two ranges on every size, so each call replaces the record.
    """
    monkeypatch.setattr(numerics, "_tape", (None, ()))
    keys = [(seed, trials) for seed in (3, 2**32 + 1) for trials in (range(2**32 - 4, 2**32), range(7, 0, -2))]
    if order == "interleaved":
        mixed = [TAPE_SIZES[i] for i in (3, 0, 5, 1, 4, 2)]
        calls = [(key, sizes) for sizes in mixed for key in keys]
    else:
        requests = TAPE_SIZES if order == "ascending" else TAPE_SIZES[::-1]
        calls = [(key, sizes) for key in keys for sizes in requests]
    for (seed, trials), sizes in calls:
        got = seeded_normals(seed, trials, sizes)
        assert [g.shape for g in got] == [(len(trials), n) for n in sizes]
        for g, expected in zip(got, fresh_normals(seed, trials, sizes)):
            assert np.array_equal(g, expected), (seed, trials, sizes)


def test_tape_views_are_read_only(monkeypatch):
    monkeypatch.setattr(numerics, "_tape", (None, ()))
    drawn = seeded_normals(5, range(3), (4, 0, 2))
    served = seeded_normals(5, range(3), (1, 0, 2))
    for array in drawn + served:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert np.array_equal(served[0], drawn[0][:, :1])


@pytest.fixture
def seeded_streams(monkeypatch):
    """The streams seeded from here on, one entry per PCG64 built, starting from no kept draws."""
    built = []

    class Counting(numerics._Words):
        def __init__(self, words):
            built.append(1)
            super().__init__(words)

    monkeypatch.setattr(numerics, "_Words", Counting)
    monkeypatch.setattr(numerics, "_tape", (None, ()), raising=False)
    cli._trial_batch.cache_clear()
    return built


def test_sweep_draws_each_stream_set_at_most_three_times(seeded_streams):
    """A criterion-4 sweep at 1000 trials seeds 6 sets of 1000 streams, not one set per group and k.

    Each group needs its own widths for k = 0 and k = 1; a request wider
    than the kept draws redraws at twice their width, so both k are drawn
    at dims 2, 3 and 6 only.
    """
    for dim in (2, 3, 4, 6):
        for shifts in ((-1, 0, 1), (0, 2)):
            for kind, k in [("vidal", k) for k in range(2, dim + 1)] + [("entropy", None)]:
                run_verification(MonotoneId(kind, k), dim, 1000, 0, shifts)
    assert len(seeded_streams) <= 6000


def test_size_zero_seeds_no_stream(seeded_streams):
    state, channel = seeded_normals(2, range(10), (0, 3))
    assert state.shape == (10, 0) and channel.shape == (10, 3)
    assert len(seeded_streams) == 10


def test_sample_trial_reads_no_tape(monkeypatch):
    dim, shifts, seed, trial = 3, (-1, 0, 1), 4, 5
    sizes = (2 * dim, coefficient_draws(_slot_layout(dim, shifts, 1)))
    poison = tuple(np.full((1, n), np.nan) for n in sizes)
    monkeypatch.setattr(numerics, "_tape", ((seed, range(trial, trial + 1)), poison))
    assert np.isnan(seeded_normals(seed, range(trial, trial + 1), sizes)[0]).all()
    state, channel = sample_trial(dim, shifts, 1, seed, trial)
    assert numerics._tape[1] is poison
    assert np.array_equal(state.weights, random_weights(dim, fresh_normals(seed, [trial], sizes)[0])[0])
    expected = random_channel(dim, shifts, 1, (seed, trial, 1))
    assert [k.coeffs for k in channel.all_kraus()] == [k.coeffs for k in expected.all_kraus()]


def test_tape_shared_by_two_threads_serves_fresh_draws(monkeypatch):
    """Two threads alternating seeds each read one key's draws, whoever published last."""
    monkeypatch.setattr(numerics, "_tape", (None, ()))
    trials, widths = range(3), [(2, 3), (6, 1), (4, 8), (1, 1)]
    expected = {seed: fresh_normals(seed, trials, (6, 8)) for seed in (1, 2)}
    failures, done = [], []

    def worker(first):
        for i in range(300):
            seed = 1 + (first + i) % 2
            sizes = widths[i % len(widths)]
            got = seeded_normals(seed, trials, sizes)
            if not all(np.array_equal(g, e[:, :n]) for g, e, n in zip(got, expected[seed], sizes)):
                failures.append((seed, sizes))
        done.append(first)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(first,)) for first in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1]
    assert failures == []


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


def test_run_verification_reads_numpy_integers():
    # dim and seed are read as trials is: numpy integers give the report and
    # rows of Python ints, and the report serializes.
    measure = MonotoneId("concurrence", 2)
    expected, expected_rows = run_verification(measure, 3, 5, 2, (-1, 0, 1))
    report, rows = run_verification(measure, np.int64(3), np.int64(5), np.int64(2), (-1, 0, 1), np.int64(1))
    masked = {**report.to_dict(), "runtime_ms": None}
    assert masked == {**expected.to_dict(), "runtime_ms": None}
    assert [type(masked[key]) for key in ("dim", "trials", "seed")] == [int, int, int]
    assert rows == expected_rows
    assert json.loads(json.dumps(report.to_dict()))["seed"] == 2


# (VERIFY_ELEMENTS, batch sizes, shifts, kraus_per_shift) of 11 trials at d = 5.
BATCH_PLANS = [
    (60, [4, 4, 3], (-1, 0, 2), 1),
    (1, [1] * 11, (-1, 0, 2), 1),
    (60, [4, 4, 3], (-9, -1, 0, 2, 5), 1),
    (60, [2] * 5 + [1], (-1, 0, 2), 2),
]


@pytest.mark.parametrize(
    "elements, sizes, shifts, kraus_per_shift",
    BATCH_PLANS,
    ids=[f"{plan[0]}-sizes{i}" for i, plan in enumerate(BATCH_PLANS)],
)
def test_run_verification_batch_size_invariant(monkeypatch, elements, sizes, shifts, kraus_per_shift):
    # 3 slots x dim 5: a budget of 60 entries makes batches of 4 trials,
    # a budget below one trial's 15 entries makes batches of 1. The shifts
    # -9 and 5 lay out no slot at d = 5, so they leave the batches as they
    # are; 2 Kraus operators per shift make 6 slots, and batches of 2.
    measure = MonotoneId("concurrence", 3)
    _, whole = run_verification(measure, 5, 11, 4, shifts, kraus_per_shift)
    monkeypatch.setattr("frameness.cli.VERIFY_ELEMENTS", elements)
    batches = []

    def recording(*args):
        batches.append(len(args[-1]))
        return sample_trials(*args)

    monkeypatch.setattr("frameness.cli.sample_trials", recording)
    cli._trial_batch.cache_clear()
    _, pieces = run_verification(measure, 5, 11, 4, shifts, kraus_per_shift)
    assert pieces == whole
    assert batches == sizes


# Every measure valid at d = 4, in the order of a verify sweep.
SWEEP_MEASURES = (
    [MonotoneId("vidal", k) for k in range(2, 5)]
    + [MonotoneId("entropy")]
    + [MonotoneId("concurrence", k) for k in range(2, 5)]
    + [MonotoneId("variance")]
)


def test_measure_sweep_samples_each_batch_once(monkeypatch):
    calls = []

    def recording(layout, seed, trials):
        calls.append((layout[0], seed, trials))
        return sample_trials(layout, seed, trials)

    monkeypatch.setattr("frameness.cli.sample_trials", recording)
    cli._trial_batch.cache_clear()
    for measure in SWEEP_MEASURES:
        run_verification(measure, 4, 12, 9, (-1, 0, 1))
    assert calls == [((-1, 0, 1), 9, range(12))]


def test_slot_layout_is_built_once_per_sample(monkeypatch):
    # One checked layout per sampled batch and per random channel: the draw
    # count and the coefficients both read it.
    calls = []

    def counting(*args):
        calls.append(args)
        return _slot_layout(*args)

    monkeypatch.setattr(channels, "_slot_layout", counting)
    monkeypatch.setattr(cli, "_slot_layout", counting, raising=False)
    cli._trial_batch.cache_clear()
    for measure in SWEEP_MEASURES:
        run_verification(measure, 4, 12, 9, (-1, 0, 1))
    assert len(calls) == cli._trial_batch.cache_info().misses == 1
    run_verification(MonotoneId("entropy"), 3, 12, 9, (0, 2), 2)
    assert len(calls) == cli._trial_batch.cache_info().misses == 2
    random_channel(5, (-1, 1), 2, seed=3)
    assert calls[-1] == (5, (-1, 1), 2) and len(calls) == 3


def test_reused_batch_rows_match_cold_calls():
    cli._trial_batch.cache_clear()
    warm = [run_verification(m, 4, 12, 9, (-1, 0, 1))[1] for m in SWEEP_MEASURES]
    for measure, rows in zip(SWEEP_MEASURES, warm):
        cli._trial_batch.cache_clear()
        assert run_verification(measure, 4, 12, 9, (-1, 0, 1))[1] == rows, measure


def test_cached_batch_is_read_only():
    cli._trial_batch.cache_clear()
    run_verification(MonotoneId("entropy"), 3, 5, 2, (-1, 0, 1))
    end, weights, probs, posts = cli._trial_batch(3, (-1, 0, 1), 1, 2, 0, 5)
    assert end == 5
    assert cli._trial_batch.cache_info().hits == 1
    for array in (weights, probs, posts):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_shift_list_and_tuple_share_rows():
    cli._trial_batch.cache_clear()
    _, from_list = run_verification(MonotoneId("variance"), 3, 7, 5, [-1, 0, 2])
    cli._trial_batch.cache_clear()
    _, from_tuple = run_verification(MonotoneId("variance"), 3, 7, 5, (-1, 0, 2))
    cli._trial_batch.cache_clear()
    # An iterator is read once: its second read was empty ("at least one shift is required").
    _, from_iterator = run_verification(MonotoneId("variance"), 3, 7, 5, iter([-1, 0, 2]))
    assert from_list == from_tuple == from_iterator
    # A permuted and a repeated list are the same shift set, and share the one batch.
    cli._trial_batch.cache_clear()
    for shifts in ([-1, 0, 2], [2, -1, 0], [0, 2, -1, -1]):
        assert run_verification(MonotoneId("variance"), 3, 7, 5, shifts)[1] == from_list
    assert cli._trial_batch.cache_info().misses == 1


def _measures(dim):
    """Every measure valid at ``dim``."""
    ks = range(2, dim + 1)
    return [MonotoneId("vidal", k) for k in ks] + [MonotoneId("entropy"), MonotoneId("variance")] + [
        MonotoneId("concurrence", k) for k in ks
    ]


@pytest.mark.parametrize(
    "dim, dead, alive, kraus_per_shift",
    [
        (2, (0, 2), (0,), 1),
        (3, (-5, -1, 0, 1, 7), (-1, 0, 1), 2),
        (3, range(-20000, 20001), range(-2, 3), 1),
    ],
)
def test_dead_shifts_leave_the_rows_unchanged(dim, dead, alive, kraus_per_shift):
    # A shift with |shift| >= dim moves every sector out of the window, so it lays out no slot.
    for measure in _measures(dim):
        expected = run_verification(measure, dim, 50, 1, alive, kraus_per_shift)
        report, rows = run_verification(measure, dim, 50, 1, dead, kraus_per_shift)
        assert rows == expected[1], measure
        assert {**report.to_dict(), "runtime_ms": None} == {**expected[0].to_dict(), "runtime_ms": None}


def test_long_shift_list_samples_one_batch(monkeypatch):
    # 40,001 shifts, 5 of them live at d = 3: one batch of 50 trials, not 50 batches of one.
    batches = []

    def recording(*args):
        batches.append(len(args[-1]))
        return sample_trials(*args)

    monkeypatch.setattr("frameness.cli.sample_trials", recording)
    cli._trial_batch.cache_clear()
    run_verification(MonotoneId("entropy"), 3, 50, 1, range(-20000, 20001))
    assert batches == [50]


def test_all_dead_shifts_exit_2_with_the_coverage_message(capsys):
    message = "sector 0 admits no shift from [-7, 5]; a trace-preserving channel needs one"
    with pytest.raises(InvalidChannel, match=f"^{re.escape(message)}$"):
        run_verification(MonotoneId("entropy"), 3, 5, 0, (5, -7))
    assert main(["verify", "--measure", "entropy", "--dim", "3", "--shifts=5,-7", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("verb", [["verify", "--measure", "entropy", "--trials", "5"], ["channel", "sample"]], ids=["verify", "sample"])
@pytest.mark.parametrize(
    "shifts, message",
    [
        (
            ",".join(map(str, range(3, 20001))),
            "sector 0 admits no shift from [3, 4, 5, 6, 7, 8, ...] (19998 in all); a trace-preserving channel needs one",
        ),
        (",".join(map(str, range(1, 20001))) + ",x", "shifts '1,2,3,4,5,6,...19999,20000,x' (20001 in all) are not integers"),
        (
            ",".join(str(10**40 + i) for i in range(10)),
            "sector 0 admits no shift from [1000...00000, 1000...00001, 1000...00002, 1000...00003, "
            "1000...00004, 1000...00005, ...] (10 in all); a trace-preserving channel needs one",
        ),
    ],
    ids=["all-dead", "not-integers", "long-integers"],
)
def test_long_shift_lists_are_shortened_in_the_error_line(capsys, verb, shifts, message):
    # Each once echoed the whole list: 128,964 and 108,929 bytes on one stderr line.
    assert main(verb + ["--dim", "3", f"--shifts={shifts}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(captured.err) < 200


def test_every_shift_reader_rejects_a_shift_list_that_is_no_iterable():
    # Each once raised a bare TypeError.
    for call, name in (
        (lambda: run_verification(MonotoneId("entropy"), 3, 5, 0, 1), "int"),
        (lambda: sample_trial(3, None, 1, 0, 0), "NoneType"),
    ):
        with pytest.raises(InvalidChannel, match=f"^shifts must be an iterable of integers, got {name}$"):
            call()
    with pytest.raises(InvalidChannel, match="^at least one shift is required$"):
        run_verification(MonotoneId("entropy"), 3, 5, 0, ())
    with pytest.raises(InvalidChannel, match="^shift must be an integer, got 0.5$"):
        run_verification(MonotoneId("entropy"), 3, 5, 0, (0.5,))


def test_verify_rejects_a_measure_that_is_no_monotone_id():
    with pytest.raises(BadMonotone, match="^measure must be a MonotoneId, got str$"):
        run_verification("entropy", 3, 5, 0, (0,))


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
    with pytest.raises(BadParameter, match=f"trials must be at least 1, got {trials}"):
        run_verification(MonotoneId("vidal", 2), 3, int(trials), 0, (-1, 0, 1))


BOUND_ARGV = ["verify", "--measure", "entropy", "--dim", "3", "--shifts=-1,0,1"]


def test_verify_bounds_trials_before_any_draw(capsys, seeded_streams):
    message = "trials must be at most 1048576, got 1048577"
    with pytest.raises(BadParameter, match=f"^{message}$"):
        run_verification(MonotoneId("entropy"), 3, MAX_TRIALS + 1, 0, (-1, 0, 1))
    assert main(BOUND_ARGV + ["--trials", "1048577"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not seeded_streams


def test_verify_accepts_max_trials(monkeypatch):
    """``--trials 1048576`` passes the bound and reaches the sampler, stopped there."""

    class Sampled(Exception):
        pass

    def stop(*args):
        raise Sampled(args)

    monkeypatch.setattr(cli, "sample_trials", stop)
    cli._trial_batch.cache_clear()
    assert MAX_TRIALS == 2**20
    with pytest.raises(Sampled):
        main(BOUND_ARGV + ["--trials", "1048576"])
    with pytest.raises(Sampled):
        run_verification(MonotoneId("entropy"), 3, MAX_TRIALS, 0, (-1, 0, 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--measure", "entropy", "--dim", "3", "--shifts=-1,0,1", "--trials", "4"],
        ["channel", "sample", "--dim", "3", "--shifts=-1,0,1"],
    ],
)
def test_negative_seed_exits_2(capsys, argv):
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be at least 0, got -1\n"


def test_negative_seed_or_trial_is_typed():
    with pytest.raises(BadParameter, match="^seed must be at least 0, got -1$"):
        run_verification(MonotoneId("entropy"), 3, 4, -1, (-1, 0, 1))
    # A bool seed equals 1, so it hit the batch cached for seed 1 and was accepted.
    run_verification(MonotoneId("entropy"), 3, 4, 1, (-1, 0, 1))
    with pytest.raises(BadParameter, match="^seed must be an integer, got True$"):
        run_verification(MonotoneId("entropy"), 3, 4, True, (-1, 0, 1))
    with pytest.raises(BadParameter, match="^trial must be at least 0, got -1$"):
        sample_trial(3, (-1, 0, 1), 1, 0, -1)
    # The batch sampler's trials are one SeedSequence entropy word, ending at 2**32 - 1.
    layout = _slot_layout(3, (-1, 0, 1), 1)
    weights, _ = sample_trials(layout, 0, range(2**32 - 1, 2**32))
    assert np.array_equal(weights[0], sample_trial(3, (-1, 0, 1), 1, 0, 2**32 - 1)[0].weights)
    for trials in (range(2**32, 2**32 + 1), range(2**32, 2**32 - 3, -1)):
        with pytest.raises(BadParameter, match=f"^trial must be at most {2**32 - 1}, got {2**32}$"):
            sample_trials(layout, 0, trials)
    with pytest.raises(BadParameter, match=f"^trial must be at most {2**32 - 1}, got {2**64 - 1}$"):
        sample_trials(layout, 0, range(2**64 - 3, 2**64))
    # One trial at a time, any nonnegative index is drawn.
    sample_trial(3, (-1, 0, 1), 1, 0, 2**64)
    # A list of trials raised a bare AttributeError for its missing ``start``.
    with pytest.raises(BadParameter, match="^trials must be a range, got list$"):
        sample_trials(layout, 0, [0, 1])
    # Each raised a bare TypeError from the batch-size arithmetic before its check.
    for shifts, kraus_per_shift, message in (
        ([[1]], 1, r"shift must be an integer, got \[1\]"),
        ((-1, 0, 1), "2", "kraus_per_shift must be an integer, got '2'"),
        ((-1, 0, 1), 2.0, r"kraus_per_shift must be an integer, got 2\.0"),
    ):
        with pytest.raises(InvalidChannel, match=f"^{message}$"):
            run_verification(MonotoneId("entropy"), 3, 4, 0, shifts, kraus_per_shift)


ROOF_ARGS = ["roof", "--measure", "entropy", "--rho", "RHO"]
# (CLI arguments, message, error class, the library call behind them on a state file)
INPUT_ERRORS = {
    "ensemble-size": (
        ROOF_ARGS + ["--ensemble-size", "0"],
        "ensemble_size must be at least 1, got 0",
        BadParameter,
        lambda state: RoofConfig(ensemble_size=0),
    ),
    "restarts": (
        ROOF_ARGS + ["--restarts", "0"],
        "restarts must be at least 1, got 0",
        BadParameter,
        lambda state: RoofConfig(restarts=0),
    ),
    "max-iters": (
        ROOF_ARGS + ["--max-iters", "0"],
        "max_iters must be at least 1, got 0",
        BadParameter,
        lambda state: RoofConfig(max_iters=0),
    ),
    # The removed --step-tolerance flag: argparse rejects the flag before main's
    # error handler, and RoofConfig rejects the keyword.
    "step-tolerance": (
        ROOF_ARGS + ["--step-tolerance", "0"],
        "unrecognized arguments: --step-tolerance 0",
        TypeError,
        lambda state: RoofConfig(step_tolerance=0.0),
    ),
    "step-tolerance-nan": (
        ROOF_ARGS + ["--step-tolerance", "nan"],
        "unrecognized arguments: --step-tolerance nan",
        TypeError,
        lambda state: RoofConfig(step_tolerance=math.nan),
    ),
    "step-tolerance-inf": (
        ROOF_ARGS + ["--step-tolerance", "inf"],
        "unrecognized arguments: --step-tolerance inf",
        TypeError,
        lambda state: RoofConfig(step_tolerance=math.inf),
    ),
    # Each once escaped main as numpy's MemoryError or kept drawing restarts.
    "roof-ensemble-size-huge": (
        ROOF_ARGS + ["--ensemble-size", "1000000000000", "--restarts", "1"],
        "restarts x ensemble size x dimension = 1 x 1000000000000 x 2 = 2000000000000"
        " exceeds the roof budget of 1048576 entries",
        BadParameter,
        lambda state: convex_roof(MonotoneId("entropy"), 0.5 * np.eye(2), RoofConfig(ensemble_size=10**12, restarts=1)),
    ),
    "roof-restarts-huge": (
        ROOF_ARGS + ["--restarts", "1000000000000"],
        "restarts x ensemble size x dimension = 1000000000000 x 4 x 2 = 8000000000000"
        " exceeds the roof budget of 1048576 entries",
        BadParameter,
        lambda state: convex_roof(MonotoneId("entropy"), 0.5 * np.eye(2), RoofConfig(restarts=10**12)),
    ),
    "seed": (
        ROOF_ARGS + ["--seed=-1"],
        "seed must be at least 0, got -1",
        BadParameter,
        lambda state: RoofConfig(seed=-1),
    ),
    "shifts": (
        ["verify", "--measure", "entropy", "--dim", "2", "--shifts=,"],
        "empty shift list",
        InvalidChannel,
        lambda state: cli._parse_shifts(","),
    ),
    "dim": (
        ["monotone", "--measure", "entropy", "--state", "STATE", "--dim", "1"],
        "cannot restrict to dimension 1: weight above it",
        InvalidState,
        lambda state: cli._load_weights(state, 1),
    ),
    "shifts-not-integers": (
        ["verify", "--measure", "entropy", "--dim", "2", "--shifts=a,b"],
        "shifts 'a,b' are not integers",
        InvalidChannel,
        lambda state: cli._parse_shifts("a,b"),
    ),
    "dim-negative": (
        ["monotone", "--measure", "entropy", "--state", "STATE", "--dim", "-2"],
        "dimension must be at least 1, got -2",
        BadParameter,
        lambda state: cli._load_weights(state, -2),
    ),
    "kraus-per-shift-huge": (
        ["verify", "--measure", "entropy", "--dim", "3", "--shifts=-1,0,1", "--kraus-per-shift", "1000000000"],
        "kraus_per_shift must be at most 64, got 1000000000",
        InvalidChannel,
        lambda state: _slot_layout(3, (-1, 0, 1), 10**9),
    ),
    "kraus-per-shift-65": (
        ["channel", "sample", "--dim", "3", "--shifts=-1,0,1", "--kraus-per-shift", "65"],
        "kraus_per_shift must be at most 64, got 65",
        InvalidChannel,
        lambda state: random_channel(3, (-1, 0, 1), 65),
    ),
}


@pytest.mark.parametrize(
    "argv, message, error, call", list(INPUT_ERRORS.values()), ids=list(INPUT_ERRORS)
)
def test_input_errors_are_typed(capsys, tmp_path, plus_file, argv, message, error, call):
    rho = write_density(tmp_path, 0.5 * np.eye(2))
    argv = [{"RHO": rho, "STATE": plus_file}.get(a, a) for a in argv]
    try:
        code, lead, library_message = main(argv), "", message
    except SystemExit as exc:  # a removed flag; its library keyword is gone too
        code = exc.code
        lead = cli._parsers()[0].format_usage() + "frameness: "
        library_message = "unexpected keyword argument"
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{lead}error: {message}\n"
    with pytest.raises(error, match=library_message):
        call(plus_file)


# (verb arguments, the library call behind them at a given dimension)
SAMPLING_VERBS = {
    "verify": (
        ["verify", "--measure", "entropy", "--trials", "3"],
        lambda dim: _slot_layout(dim, (-1, 0, 1), 1),
    ),
    "channel": (["channel", "sample"], lambda dim: random_channel(dim, (-1, 0, 1))),
    # The dimension is read before the order k, which must be at most it.
    "vidal": (
        ["verify", "--measure", "vidal", "--k", "2", "--trials", "3"],
        lambda dim: run_verification(MonotoneId("vidal", 2), dim, 3, 0, (-1, 0, 1)),
    ),
    "concurrence": (
        ["verify", "--measure", "concurrence", "--k", "2", "--trials", "3"],
        lambda dim: run_verification(MonotoneId("concurrence", 2), dim, 3, 0, (-1, 0, 1)),
    ),
}


@pytest.mark.parametrize("dim", [0, -2, 65])
@pytest.mark.parametrize("verb", list(SAMPLING_VERBS))
def test_dimension_outside_range_exits_2(capsys, verb, dim):
    argv, call = SAMPLING_VERBS[verb]
    assert main(argv + ["--dim", str(dim), "--shifts=-1,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"dimension must be at least 1, got {dim}" if dim < 1 else f"dimension must be at most 64, got {dim}"
    assert captured.err == f"error: {message}\n"
    with pytest.raises(BadParameter, match=f"^{message}$"):
        call(dim)


def run_main(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise AssertionError(f"non-finite {name} in the output")


def assert_typed_exit(code, out, err):
    """Exit 2 with one ``error:`` line and no output, or 0 or 1 with finite JSON."""
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert code in (0, 1)
        json.loads(out, parse_constant=reject_constant)


FILE_VERBS = [
    ["monotone", "--measure", "entropy", "--state"],
    ["twirl", "--in"],
    ["roof", "--measure", "entropy", "--restarts", "1", "--max-iters", "1", "--rho"],
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["dim", "weights", "sectors", "n", "amplitudes", "matrix"]) | st.text(max_size=2),
        children,
        max_size=4,
    ),
    max_leaves=16,
)
BIG_ENTRY = b'{"dim": 1, "matrix": [[[1' + b"0" * 400 + b", 0]]]}"


@settings(max_examples=300, deadline=None)
@given(
    verb=st.sampled_from(FILE_VERBS),
    contents=(JSON_VALUES | state_payloads() | density_payloads()).map(lambda v: json.dumps(v).encode())
    | st.binary(max_size=40),
)
# Each of these escaped main as a bare ValueError, KeyError or OverflowError
# once main caught only FramenessError and OSError, before the loaders typed
# it. Deep nesting escaped as a RecursionError even before.
@example(verb=FILE_VERBS[0], contents=b"{not json")
@example(verb=FILE_VERBS[0], contents=b"[" * 100_000)
@example(verb=FILE_VERBS[0], contents=b'{"sectors": [{"n": 0, "amplitudes": [[1, 0]]}]}')
@example(verb=FILE_VERBS[0], contents=b'{"weights": ["a", 1]}')
@example(verb=FILE_VERBS[1], contents=BIG_ENTRY)
@example(verb=FILE_VERBS[2], contents=BIG_ENTRY)
def test_file_verbs_exit_2_or_give_finite_json(tmp_path_factory, verb, contents):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(contents)
    assert_typed_exit(*run_main(verb + [str(path)]))


@settings(max_examples=200, deadline=None)
@given(
    verb=st.sampled_from(["verify", "channel"]),
    dim=st.integers(-3, 70),
    trials=st.integers(-2, 5),
    seed=st.integers(-2, 5),
    kraus_per_shift=st.one_of(st.integers(-1, 3), st.sampled_from([64, 65, 10**9])),
    shifts=st.sampled_from(["-1,0,1", "0,2", "a,b"]),
)
# A --kraus-per-shift of 10**9 built a billion slots before any check.
@example(verb="verify", dim=3, trials=1, seed=0, kraus_per_shift=10**9, shifts="-1,0,1")
@example(verb="channel", dim=3, trials=1, seed=0, kraus_per_shift=65, shifts="-1,0,1")
# A negative --dim and --shifts=a,b escaped main as bare ValueErrors.
@example(verb="verify", dim=-2, trials=3, seed=0, kraus_per_shift=1, shifts="-1,0,1")
@example(verb="channel", dim=-2, trials=3, seed=0, kraus_per_shift=1, shifts="-1,0,1")
@example(verb="verify", dim=3, trials=3, seed=0, kraus_per_shift=1, shifts="a,b")
@example(verb="channel", dim=3, trials=3, seed=0, kraus_per_shift=1, shifts="a,b")
def test_sampling_flags_exit_2_or_give_finite_json(verb, dim, trials, seed, kraus_per_shift, shifts):
    if verb == "verify":
        argv = ["verify", "--measure", "entropy", "--trials", str(trials)]
    else:
        argv = ["channel", "sample"]
    argv += ["--dim", str(dim), "--seed", str(seed), "--kraus-per-shift", str(kraus_per_shift)]
    assert_typed_exit(*run_main(argv + [f"--shifts={shifts}"]))


def _outcome(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parse_through_root(argv):
    args = cli._parsers()[0].parse_args(argv)
    return args.func(args)


VERIFY_ARGS = ["verify", "--measure", "entropy", "--dim", "3", "--shifts=-1,0,1", "--trials", "4"]
# (argv, exit code); "PLUS" is a state file.
USAGE_PATHS = {
    "empty": ([], 2),
    "unknown-verb": (["bogus"], 2),
    "root-help": (["-h"], 0),
    "verb-help": (["verify", "--help"], 0),
    "channel-alone": (["channel"], 2),
    "channel-sample-help": (["channel", "sample", "--help"], 0),
    "verify-no-shifts": (["verify", "--measure", "entropy", "--dim", "3"], 2),
    "verify-dim-not-int": (["verify", "--measure", "entropy", "--dim", "x", "--shifts=-1,0,1"], 2),
    "roof-bad-measure": (["roof", "--measure", "nope", "--rho", "PLUS"], 2),
    "verify-unknown-flag": (VERIFY_ARGS + ["--bogus"], 2),
    "channel-sample-stray": (["channel", "sample", "--dim", "3", "--shifts=-1,0,1", "stray"], 2),
    "abbreviated-flag": (["monotone", "--meas", "entropy", "--state", "PLUS"], 0),
    "channel-unknown-subcommand": (["channel", "bogus"], 2),
    "channel-help": (["channel", "--help"], 0),
    "roof-help": (["roof", "--help"], 0),
    "channel-sample-sample": (["channel", "sample", "sample"], 2),
    "root-unknown-flag": (["--bogus"] + VERIFY_ARGS, 2),
}


@pytest.mark.parametrize("argv, code", list(USAGE_PATHS.values()), ids=list(USAGE_PATHS))
def test_usage_paths_match_the_root_parser(monkeypatch, plus_file, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    argv = [plus_file if a == "PLUS" else a for a in argv]
    expected = _outcome(_parse_through_root, argv)
    assert expected[0] == code
    assert _outcome(main, argv) == expected


# One successful call per verb; "PLUS" is a state file and "RHO" a density file.
VERB_CALLS = {
    "monotone": ["monotone", "--measure", "entropy", "--state", "PLUS"],
    "roof": ["roof", "--measure", "entropy", "--rho", "RHO", "--restarts", "1"],
    "verify": VERIFY_ARGS,
    "channel sample": ["channel", "sample", "--dim", "3", "--shifts=-1,0,1"],
    "twirl": ["twirl", "--in", "PLUS"],
    "appendix": ["appendix", "--p", "0.25", "--alpha", "0.5"],
}


def test_verb_call_parses_once(monkeypatch, tmp_path, plus_file):
    files = {"PLUS": plus_file, "RHO": write_density(tmp_path, np.diag([0.75, 0.25]))}
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for verb, argv in VERB_CALLS.items():
        progs.clear()
        assert run_main([files.get(a, a) for a in argv])[0] == 0, verb
        assert progs == [f"frameness {verb}"]


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


def roof_output(capsys, tmp_path, dim, args):
    """``roof`` stdout on the full-rank density seeded by ``dim``, at seed 1."""
    path = write_density(tmp_path, random_density_matrix(dim, np.random.default_rng([29, dim])))
    assert main(["roof", "--rho", path, "--seed", "1", *args]) == 0
    return capsys.readouterr().out


def assert_roof_matches_golden(capsys, tmp_path, name, dim, args):
    assert roof_output(capsys, tmp_path, dim, args) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, dim, args", ROOF_GOLDENS)
def test_roof_matches_golden_bytes(capsys, tmp_path, name, dim, args):
    """``roof`` output equals, byte for byte, a capture of the gradient roof search."""
    assert_roof_matches_golden(capsys, tmp_path, name, dim, args)


# Paths the goldens above leave out, captured before the objective computed
# each value together with its slope: vidal's smoothed stages (at d = 4 also
# the tail sum's own stage), an entropy of 9 sectors, whose terms numpy's own
# sum would add pairwise, and a concurrence of order 3.
PATH_ROOF_GOLDENS = [
    ("roof_d4_vidal2.json", 4, ["--measure", "vidal", "--k", "2", "--restarts", "2", "--max-iters", "40"]),
    ("roof_d6_vidal3.json", 6, ["--measure", "vidal", "--k", "3", "--restarts", "2", "--max-iters", "40"]),
    ("roof_d9_entropy.json", 9, ["--measure", "entropy", "--restarts", "2", "--max-iters", "40"]),
    ("roof_d5_concurrence3.json", 5, ["--measure", "concurrence", "--k", "3", "--restarts", "2", "--max-iters", "40"]),
]


@pytest.mark.parametrize("name, dim, args", PATH_ROOF_GOLDENS)
def test_roof_paths_match_golden_bytes(capsys, tmp_path, name, dim, args):
    """``roof`` output on each path equals, byte for byte, its capture."""
    assert_roof_matches_golden(capsys, tmp_path, name, dim, args)


def rank1_roof_cases():
    """(label, density, roof arguments) of the rank-1 golden: every kind on
    seeded rank-1 densities at d = 2..5 and on the charge eigenstate |1><1| at d = 3."""
    measures = (["vidal", "--k", "2"], ["entropy"], ["concurrence", "--k", "2"], ["variance"])
    densities = [(f"d{d}", random_density_matrix(d, np.random.default_rng([29, d]), rank=1)) for d in range(2, 6)]
    densities.append(("eigenstate d3 n1", np.diag([0.0, 1.0, 0.0])))
    for tag, rho in densities:
        for measure in measures:
            yield f"{tag} {' '.join(measure)}", rho, ["--measure", *measure]


def test_rank1_roofs_match_golden_bytes(capsys, tmp_path):
    """A rank-1 density has one decomposition: ``roof`` prints it, unsearched, byte for byte as captured."""
    golden = json.loads((GOLDEN / "roof_rank1.json").read_text(encoding="utf-8"))
    seen = []
    for label, rho, args in rank1_roof_cases():
        assert main(["roof", "--rho", write_density(tmp_path, rho), *args]) == 0
        assert capsys.readouterr().out == golden[label], label
        seen.append(label)
    assert seen == list(golden)


def stop_path_roof_cases():
    """(label, dimension, roof arguments) of the stop-path golden. A vidal budget of 3 or 5
    iterations runs out inside the smoothed stages, so the later stages start with every
    restart already stopped; every other kind runs a budget of one iteration at d = 3."""
    cases = [(dim, ["vidal", "--k", k, "--max-iters", n]) for dim in (4, 5, 6) for k in "23" for n in "35"]
    for measure in (["entropy"], ["concurrence", "--k", "2"], ["concurrence", "--k", "3"], ["variance"]):
        cases.append((3, [*measure, "--max-iters", "1"]))
    for dim, args in cases:
        yield f"d{dim} {' '.join(args)}", dim, ["--measure", *args]


def test_stop_path_roofs_match_golden_bytes(capsys, tmp_path):
    """Roofs whose budget runs out early print, byte for byte, their capture."""
    golden = json.loads((GOLDEN / "roof_stop_paths.json").read_text(encoding="utf-8"))
    seen = []
    for label, dim, args in stop_path_roof_cases():
        assert roof_output(capsys, tmp_path, dim, [*args, "--restarts", "4"]) == golden[label], label
        seen.append(label)
    assert seen == list(golden)


# The values the Givens coordinate search left in the same files before the
# gradient search replaced it.
GIVENS_ROOF_VALUES = {
    "roof_qubit_concurrence2.json": 0.6474734203762693,
    "roof_qubit_variance.json": 0.4192218300943338,
    "roof_qubit_entropy.json": 0.5264121690430663,
    "roof_d3_entropy.json": 0.5316039061585608,
    "roof_d4_concurrence2.json": 0.7558717744582515,
    "roof_d3_variance_restarts32.json": 0.44927800411437113,
    "roof_qubit_concurrence2_restarts8.json": 0.6474734203762693,
}


def test_roof_goldens_do_not_exceed_givens_values():
    assert sorted(GIVENS_ROOF_VALUES) == sorted(name for name, _, _ in ROOF_GOLDENS)
    for name, old in GIVENS_ROOF_VALUES.items():
        value = json.loads((GOLDEN / name).read_text(encoding="utf-8"))["value"]
        assert value <= old + 1e-12, (name, value, old)


def test_roof_without_budget_flags_uses_roof_config_defaults(capsys, tmp_path):
    path = write_density(tmp_path, random_density_matrix(2, np.random.default_rng([31, 2])))
    assert main(["roof", "--measure", "variance", "--rho", path]) == 0
    with open(path, encoding="utf-8") as fh:
        rho = density_from_dict(json.load(fh))
    result = convex_roof(MonotoneId("variance"), rho, RoofConfig())
    expected = {
        "value": result.value,
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "gapped_support": result.gapped_support,
        "ensemble": [
            {"p": p, "state": [[z.real, z.imag] for z in vec]} for p, vec in result.ensemble.members
        ],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


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
    # h((1 + sqrt(3)/2) / 2) for C = 1/2
    assert payload["formation"] == pytest.approx(0.35457890266527003, abs=1e-12)
    rho = density_from_dict(payload["rho"])
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_appendix_matches_golden_grid(capsys):
    """Every appendix field but formation keeps the bytes captured before it was added,
    on the 30 grid points of acceptance criterion 3."""
    golden = json.loads((GOLDEN / "appendix_grid.json").read_text(encoding="utf-8"))
    assert len(golden) == 30
    for point in golden:
        assert main(["appendix", "--p", repr(point["p"]), "--alpha", repr(point["alpha"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        formation = payload.pop("formation")
        assert json.dumps(payload, sort_keys=True) == json.dumps(point["output"], sort_keys=True)
        assert abs(formation - qubit_formation(density_from_dict(payload["rho"]))) <= 1e-12


def test_cli_import_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, frameness.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_appendix_rejects_bad_probability(capsys):
    assert main(["appendix", "--p", "1.5", "--alpha", "0.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_appendix_rejects_non_finite_alpha(capsys):
    for alpha in ("nan", "inf"):
        assert main(["appendix", "--p", "0.2", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
    with pytest.raises(BadParameter, match="alpha=nan is not finite"):
        appendix_closed_form(0.2, float("nan"))
