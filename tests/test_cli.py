import csv
import json

import numpy as np
import pytest

from laxkit import cli


def run(argv):
    return cli.main(argv)


def test_grading_text_and_json(capsys, tmp_path):
    assert run(["grading", "--family", "C", "--rank", "3", "--root", "1"]) == 0
    out = capsys.readouterr().out
    assert "depth k = 2" in out
    path = tmp_path / "g.json"
    assert run(["grading", "--family", "G2", "--rank", "2", "--root", "2",
                "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["depth"] == 2
    assert data["balance_residual"] == 0
    assert data["schema_version"] == 1


def test_grading_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["grading", "--family", "Z", "--rank", "2", "--root", "1"])
    assert exc.value.code == 2


def test_verify_closure_small(tmp_path, capsys):
    path = tmp_path / "closure.json"
    assert run(["verify", "--suite", "closure", "--seed", "5", "--pairs", "3",
                "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["all_passed"] and data["seed"] == 5
    assert len(data["checks"]) == 15


def test_verify_seed_reproducible(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--suite", "closure", "--seed", "9", "--pairs", "2", "--out", str(p1)])
    run(["verify", "--suite", "closure", "--seed", "9", "--pairs", "2", "--out", str(p2)])
    assert p1.read_text() == p2.read_text()


def test_verify_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("LAXKIT_SEED", "33")
    path = tmp_path / "env.json"
    run(["verify", "--suite", "closure", "--pairs", "2", "--out", str(path)])
    assert json.loads(path.read_text())["seed"] == 33


def test_verify_mops(tmp_path):
    path = tmp_path / "m.json"
    assert run(["verify", "--suite", "mops", "--seed", "3", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["all_passed"]


def test_verify_tyurin(tmp_path):
    path = tmp_path / "t.json"
    assert run(["verify", "--suite", "tyurin", "--seed", "4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1 and data["all_passed"]
    assert [c["name"] for c in data["checks"]] == [
        "tyurin/gl3", "tyurin/so_even3", "tyurin/so_odd2", "tyurin/sp2", "tyurin/g22"]
    assert all(c["passed"] and c["counterexample"] is None for c in data["checks"])


def test_cm_zero_duration_single_row(tmp_path, capsys):
    traj = tmp_path / "t.csv"
    rep = tmp_path / "r.json"
    assert run(["cm", "--family", "A", "--n", "2", "--T", "0", "--dt", "1e-3",
                "--seed", "1", "--out", str(traj), "--report", str(rep)]) == 0
    rows = list(csv.reader(open(traj)))
    assert rows[0][:6] == ["t", "q_1", "q_2", "p_1", "p_2", "H"]
    assert len(rows) == 2  # header + single state
    data = json.loads(rep.read_text())
    assert data["completed"] and data["schema_version"] == 1


def test_cm_bracket_table_option(tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert run(["cm", "--family", "A", "--n", "2", "--T", "0", "--dt", "1e-3",
                "--seed", "1", "--brackets", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert "bracket_table" in data
    assert all(v < 1e-6 for v in data["bracket_table"].values())


def test_cm_b_family_reports_frozen_point(tmp_path, capsys):
    rep = tmp_path / "r.json"
    assert run(["cm", "--family", "B", "--n", "2", "--T", "0.02", "--dt", "1e-2",
                "--seed", "1", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["q0_frozen"] is True and "q0" in data


def test_cm_q0_flag_on_the_default_lattice(tmp_path, capsys):
    # on the default lattice the flag replaces the frozen point of the
    # system of conservation_initial_data
    rep = tmp_path / "r.json"
    assert run(["cm", "--family", "B", "--n", "2", "--T", "0.02", "--dt", "1e-2",
                "--seed", "1", "--q0", "2.75", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["q0"] == "2.75" and data["completed"]


@pytest.mark.parametrize("family", ["A", "C", "D"])
def test_cm_q0_applies_to_the_b_family_only(tmp_path, capsys, family):
    # rejected before any work, from a flag or from the config file alike
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cm": {"family": family, "n": 2, "T": 0, "q0": 2.75}}))
    for argv in (["cm", "--family", family, "--n", "2", "--T", "0", "--q0", "2.75"],
                 ["--config", str(conf), "cm"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --q0 applies to the B family only\n"


def test_cm_collision_abort_exit_code(tmp_path, capsys):
    # tiny torus and long horizon: the attractive pair potential guarantees
    # a collision, the CSV is flushed with the truncation marker
    traj = tmp_path / "t.csv"
    code = run(["cm", "--family", "A", "--n", "3", "--T", "50", "--dt", "1e-2",
                "--period", "1.0", "--seed", "2", "--out", str(traj)])
    assert code == 3
    rows = list(csv.reader(open(traj)))
    assert rows[-1][0] == "TRUNCATED"


@pytest.mark.parametrize("family,n,seed", [("A", 3, 1), ("B", 2, 4), ("D", 2, 7)])
def test_cm_defaults_match_conservation_initial_data(family, n, seed, monkeypatch):
    seen = {}
    real = cli.calogero.run_conservation

    def spy(sys_, state, *args, **kw):
        seen["sys"], seen["state"] = sys_, state
        return real(sys_, state, *args, **kw)

    monkeypatch.setattr(cli.calogero, "run_conservation", spy)
    assert run(["cm", "--family", family, "--n", str(n), "--T", "0", "--seed", str(seed)]) == 0
    sys_, st = cli.calogero.conservation_initial_data(family, n, np.random.default_rng(seed))
    got = seen["sys"]
    assert (got.family, got.n, got.q0) == (sys_.family, sys_.n, sys_.q0)
    assert (got.lattice.omega1, got.lattice.omega2) == (sys_.lattice.omega1, sys_.lattice.omega2)
    assert np.array_equal(seen["state"].q, st.q) and np.array_equal(seen["state"].p, st.p)


def test_cm_bad_tau_usage_error(capsys):
    assert run(["cm", "--family", "A", "--n", "2", "--tau", "1", "--T", "0"]) == 2


@pytest.mark.parametrize("command, key, bad", [
    ("cm", "n", 0), ("cm", "dt", 0), ("cm", "dt", -0.1), ("cm", "period", 0), ("cm", "tau", "x"),
    ("cm", "tau", "0.0005j"), ("cm", "tau", "0.003j"),
    ("involution", "n", 0), ("involution", "powers", "2,x"), ("involution", "powers", "2,-2"),
    ("involution", "powers", "0,2"), ("verify", "pairs", 0)])
def test_bad_option_values_are_usage_errors(tmp_path, capsys, command, key, bad):
    # rejected before any work, from a flag or from the config file alike
    base = {"cm": {"family": "A", "n": 2, "T": 0}, "involution": {"family": "A", "n": 2},
            "verify": {"suite": "closure"}}[command]
    opts = {**base, key: bad}
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({command: opts}))
    flags = [x for k, v in opts.items() for x in (f"--{k}", str(v))]
    for argv in ([command, *flags], ["--config", str(conf), command]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: --{key} ")


def test_involution_single_power_empty_table(tmp_path, capsys):
    path = tmp_path / "i.json"
    assert run(["involution", "--family", "A", "--n", "2", "--powers", "2",
                "--seed", "4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["bracket_table"] == {} and data["max_abs_bracket"] == 0.0


def test_involution_even_filter_for_d(tmp_path):
    path = tmp_path / "i.json"
    assert run(["involution", "--family", "D", "--n", "2", "--powers", "2,3,4",
                "--seed", "4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["powers"] == [2, 4]
    assert data["max_abs_bracket"] < 1e-6


def test_involution_retry_samples_inside_the_lattice_period(tmp_path, monkeypatch):
    # the first bracket evaluation collides; the resampled state must come
    # from the lattice of conservation_initial_data (omega1 = 40)
    from laxkit import calogero

    real_table, real_state = calogero.involution_table, calogero.random_state
    tables, bounds = [], []

    def flaky_table(sys_, state, specs, **kw):
        tables.append((abs(sys_.lattice.omega1), state.q.real.copy()))
        if len(tables) == 1:
            raise calogero.CollisionError("forced collision")
        return real_table(sys_, state, specs, **kw)

    def recording_state(sys_, rng, **kw):
        bounds.append((kw["lo"], kw["hi"]))
        return real_state(sys_, rng, **kw)

    monkeypatch.setattr(calogero, "involution_table", flaky_table)
    monkeypatch.setattr(calogero, "random_state", recording_state)
    path = tmp_path / "i.json"
    assert run(["involution", "--family", "A", "--n", "2", "--powers", "2",
                "--seed", "4", "--out", str(path)]) == 0
    assert len(tables) == 2
    w, q = tables[1]
    assert w == 40.0
    assert bounds == [(0.2 * w, 0.88 * w)]
    assert all(0.2 * w <= x <= 0.88 * w for x in q)


def test_config_file_defaults_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grading": {"family": "C", "rank": 3, "root": 1}}))
    assert run(["--config", str(conf), "grading", "--family", "A", "--rank", "2",
                "--root", "1"]) == 0
    out = capsys.readouterr().out
    # flags override the config file
    assert "A rank 2" in out


def test_config_file_supplies_required_options(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grading": {"family": "C", "rank": 3, "root": 1}}))
    assert run(["--config", str(conf), "grading"]) == 0
    assert "C rank 3, grading by simple root 1" in capsys.readouterr().out
    # a flag still overrides the value the config supplies
    assert run(["--config", str(conf), "grading", "--rank", "2"]) == 0
    assert "C rank 2, grading by simple root 1" in capsys.readouterr().out
    # an option that neither supplies stays required
    conf.write_text(json.dumps({"grading": {"family": "C", "rank": 3}}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(conf), "grading"])
    assert exc.value.code == 2
    assert "--root" in capsys.readouterr().err


def test_config_file_values_reach_the_command(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"verify": {"seed": 5, "pairs": 3},
                                "cm": {"T": 0.01, "dt": 0.005}}))
    path = tmp_path / "v.json"
    assert run(["--config", str(conf), "verify", "--suite", "closure", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["seed"] == 5
    assert {c["count"] for c in data["checks"]} == {3}
    rep = tmp_path / "r.json"
    assert run(["--config", str(conf), "cm", "--family", "A", "--n", "2",
                "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert (data["T"], data["dt"]) == (0.01, 0.005)


@pytest.mark.parametrize("key, bad, good", [("family", "Z", "A"), ("scheme", "euler", "rk4")])
def test_config_file_values_meet_the_choices(tmp_path, capsys, key, bad, good):
    # a config value outside an option's choices is the flag's usage error
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cm": {"family": "A", "n": 2, key: bad}}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(conf), "cm", "--T", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{bad}'" in err
    with pytest.raises(SystemExit) as exc:
        run(["cm", "--T", "0", "--family", "A", "--n", "2", f"--{key}", bad])
    assert exc.value.code == 2
    # the same error line (the usage line shows config-supplied options as optional)
    assert err.splitlines()[-1] == capsys.readouterr().err.splitlines()[-1]
    # a valid flag overrides the bad config value
    assert run(["--config", str(conf), "cm", "--T", "0", f"--{key}", good]) == 0
