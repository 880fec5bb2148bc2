"""Command-line surface: golden CSV output, grammar, exit codes."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wellprobe
from wellprobe import inference
from wellprobe.cli import UsageError, main, parse_grid, parse_index_range, parse_state
from wellprobe.states import Eigen, Parabolic, Polynomial, Superposition

GOLDEN_STATIC_EIGEN = (
    "state,a,qfi,fi_position,fi_energy,qsnr\n"
    "eigen:1,1,14.1594725348,14.1594725347,0,14.1594725348\n"
    "eigen:1,2,3.5398681337,3.53986813368,0,14.1594725348\n"
)

GOLDEN_STATIC_POLY = (
    "state,a,qfi,fi_position,fi_energy,qsnr\n"
    "poly:1,1,15,14.9999999999,0,15\n"
    "poly:1,2,3.75,3.74999999997,0,15\n"
)

GOLDEN_ENERGY = (
    "energy,qsnr_eigen,qsnr_poly\n"
    "4.93480220054,14.1594725348,\n"
    "19.7392088022,53.6378901391,75.7819259856\n"
    "44.4132198049,119.435252813,174.581241536\n"
    "78.9568352087,211.551560557,312.788092935\n"
)

GOLDEN_TIME = (
    "a,t,qsnr,residual\n"
    "1,0,14.9999376216,3.6420992695e-06\n"
    "1,0.01,15.0181148911,0.000113686767159\n"
    "1,0.02,15.0008252109,3.2314780389e-05\n"
)

GOLDEN_ENTANGLED = (
    "kind,i,j,q_joint,q_sum,gamma\n"
    "eigen,1,1,,28.3189450696,\n"
    "eigen,1,2,82.0195848962,67.7973626739,1.20977544939\n"
    "eigen,1,3,138.094725348,133.594725348,1.0336839646\n"
    "eigen,2,1,82.0195848962,67.7973626739,1.20977544939\n"
    "eigen,2,2,,107.275780278,\n"
    "eigen,2,3,219.153142952,173.073142952,1.266245815\n"
    "eigen,3,1,138.094725348,133.594725348,1.0336839646\n"
    "eigen,3,2,219.153142952,173.073142952,1.266245815\n"
    "eigen,3,3,,238.870505626,\n"
)

GOLDEN_MONTECARLO = (
    "state,a,M,replicas,variance,crlb_ratio\n"
    "poly:3,1,200,30,0.000301923140583,1.78409128522\n"
)


def test_static_eigen_golden(capsys):
    assert main(["static", "--state", "eigen:1", "--a", "1,2"]) == 0
    assert capsys.readouterr().out == GOLDEN_STATIC_EIGEN


def test_static_poly_golden(capsys):
    assert main(["static", "--state", "poly:1", "--a", "1,2"]) == 0
    assert capsys.readouterr().out == GOLDEN_STATIC_POLY


def test_energy_golden(capsys):
    assert main(["energy", "--nmax", "4"]) == 0
    assert capsys.readouterr().out == GOLDEN_ENERGY


def test_time_golden(capsys):
    assert main(["time", "--a", "1", "--t", "0:0.02:3"]) == 0
    assert capsys.readouterr().out == GOLDEN_TIME


def test_entangled_golden(capsys):
    assert main(["entangled", "--family", "eigen", "--range", "1:3"]) == 0
    assert capsys.readouterr().out == GOLDEN_ENTANGLED


def test_montecarlo_golden(capsys):
    args = ["montecarlo", "--state", "poly:3", "--a", "1", "--M", "200", "--replicas", "30", "--seed", "0"]
    assert main(args) == 0
    assert capsys.readouterr().out == GOLDEN_MONTECARLO


@pytest.mark.parametrize(
    "args",
    [
        ["static", "--state", "eigen:1", "--a", "1,2"],
        ["static", "--state", "poly:1", "--a", "1,2"],
        ["energy", "--nmax", "4"],
        ["time", "--a", "1", "--t", "0:0.02:3"],
        ["entangled", "--family", "eigen", "--range", "1:3"],
        ["montecarlo", "--state", "poly:3", "--a", "1", "--M", "200", "--replicas", "30", "--seed", "0"],
    ],
    ids=lambda args: args[0] + ":" + args[2],
)
def test_golden_commands_are_byte_deterministic(args, capsys):
    outputs = []
    for _ in range(2):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]


def test_output_file_is_reproducible(tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    for target in (first, second):
        rc = main(["static", "--state", "eigen:2", "--state", "parabolic", "--a", "0.5:2:4", "--output", str(target)])
        assert rc == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"state,a,qfi")


def test_bad_descriptor_is_a_usage_error(capsys):
    assert main(["static", "--state", "bogus:7", "--a", "1"]) == 2
    assert "bad state descriptor 'bogus:7'" in capsys.readouterr().err


def test_invalid_state_parameters_are_usage_errors(capsys):
    assert main(["static", "--state", "super:1:1:0.3", "--a", "1"]) == 2
    assert "super:1:1:0.3" in capsys.readouterr().err


def test_runtime_failures_exit_3(capsys):
    assert main(["static", "--state", "eigen:1", "--a", "-1"]) == 3
    assert capsys.readouterr().err.startswith("wellprobe:")


def test_fractional_sample_size_is_a_usage_error(capsys):
    assert main(["montecarlo", "--M", "2.5", "--replicas", "2"]) == 2
    assert "2.5" in capsys.readouterr().err


def test_nan_width_is_a_usage_error(capsys):
    assert main(["static", "--state", "eigen:1", "--a", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


def test_infinite_width_is_a_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["static", "--state", "eigen:1", "--a", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_nan_mixing_angle_is_a_usage_error(capsys):
    assert main(["static", "--state", "super:1:2:nan", "--a", "1"]) == 2
    assert "super:1:2:nan" in capsys.readouterr().err


def test_extreme_width_position_information(capsys):
    assert main(["static", "--state", "eigen:1", "--a", "1e100"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    qfi, fi = float(row[2]), float(row[3])
    assert fi > 0.0
    assert format(fi, ".11g") == format(qfi, ".11g")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["static", "--state", "eigen:1", "--bogus"])
    assert info.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_custom_state_from_file(tmp_path, capsys):
    coeff = tmp_path / "coeff.txt"
    coeff.write_text("0.6\n0.8\n")
    assert main(["static", "--state", f"custom:@{coeff}", "--a", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert float(out[1].split(",")[2]) > 0.0  # qfi column


def test_custom_state_missing_file(capsys):
    assert main(["static", "--state", "custom:@/no/such/file", "--a", "1"]) == 2
    assert "cannot read coefficient file" in capsys.readouterr().err


def test_parse_state_grammar():
    assert parse_state("eigen:3") == Eigen(3)
    assert parse_state("super:1:3:0.3") == Superposition(1, 3, 0.3)
    assert parse_state("poly:4") == Polynomial(4)
    assert parse_state("parabolic") == Parabolic()
    for bad in ("eigen", "poly:x", "super:1:2", "parabolic:1", ""):
        with pytest.raises(UsageError):
            parse_state(bad)


def test_parse_grid_grammar():
    assert parse_grid("1:2:3") == [1.0, 1.5, 2.0]
    assert parse_grid("2:2:1") == [2.0]
    assert parse_grid("0.5") == [0.5]
    assert parse_grid("1,2,4") == [1.0, 2.0, 4.0]
    for bad in ("1:2", "2:1:5", "1:2:0", "a,b"):
        with pytest.raises(UsageError):
            parse_grid(bad)


def test_parse_index_range_grammar():
    assert parse_index_range("2:5") == [2, 3, 4, 5]
    assert parse_index_range("7") == [7]
    assert parse_index_range("3,9") == [3, 9]
    with pytest.raises(UsageError):
        parse_index_range("5:2")
    with pytest.raises(UsageError):
        parse_index_range("x:y")


def test_truncation_flag_is_global(capsys):
    assert main(["--truncation", "20", "static", "--state", "eigen:1", "--a", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_zero_sample_size_is_a_usage_error(capsys):
    assert main(["montecarlo", "--M", "0"]) == 2
    assert "'0'" in capsys.readouterr().err


def test_single_replica_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["montecarlo", "--replicas", "1"])
    assert info.value.code == 2
    assert "--replicas" in capsys.readouterr().err


def test_zero_truncation_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--truncation", "0", "static", "--state", "eigen:1", "--a", "1"])
    assert info.value.code == 2
    assert "--truncation" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["2e154", "1e-300"])
def test_width_outside_the_float_range_is_named(width, capsys):
    assert main(["static", "--state", "eigen:1", "--a", width]) == 3
    err = capsys.readouterr().err
    assert f"width {float(width)!r}" in err
    assert "float range" in err


@pytest.mark.parametrize("width", ["1e300", "1e308", "1e-300"])
def test_montecarlo_width_outside_the_float_range_is_named(width, capsys, monkeypatch):
    estimates = []
    monkeypatch.setattr(inference, "mle_estimate", lambda *args: estimates.append(args))
    assert main(["montecarlo", "--a", width, "--M", "200", "--replicas", "30"]) == 3
    err = capsys.readouterr().err
    assert f"width {float(width)!r}" in err
    assert "float range" in err
    assert estimates == []  # it fails before the first replica


def test_module_entry_point_matches_main(capsys):
    assert main(["energy", "--nmax", "2"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(wellprobe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "wellprobe", "energy", "--nmax", "2"],
        capture_output=True, env=env, check=True, timeout=60,
    )
    assert proc.stdout == expected.encode()


def test_negative_time_is_a_usage_error(capsys):
    assert main(["time", "--t=-1:0:2"]) == 2
    assert "'-1:0:2'" in capsys.readouterr().err


def test_zero_level_index_is_a_usage_error(capsys):
    assert main(["entangled", "--family", "eigen", "--range", "0:2"]) == 2
    assert "'0:2'" in capsys.readouterr().err


def test_zero_nmax_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["energy", "--nmax", "0"])
    assert info.value.code == 2
    assert "--nmax" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["montecarlo", "--M", "10", "--replicas", "2", "--seed", "-1"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["static", "--state", "eigen:1", "--a", ","], ["time", "--t", ""]])
def test_empty_grid_is_a_usage_error(args, capsys):
    assert main(args) == 2
    assert "one or more finite values" in capsys.readouterr().err
